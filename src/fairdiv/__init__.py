"""Exact fair-division toolkit: leximin solving for max-atomic bids,
Pareto/envy checking, and formula-to-allocation hardness gadgets."""

from .model import (Additive, Allocation, ContractError, Instance, MaxAtomic,
                    Ordering, UtilityVector, WrongUtilityKind, additive_instance,
                    bundle_utility, dominates, find_envy, is_envy_free,
                    leximin_compare, max_atomic_instance, utility_vector)
from .solver import (Matching, WeightMatrix, check_weight_invariants,
                     decide_lmmuab, generate_weights, min_weight_max_matching,
                     solve_leximin)
from .formulas import AEFormula, CnfFormula, PartialAssignment, formula_satisfied, literal_holds
from .oracles import (DEFAULT_BUDGET, SearchBudget, SearchSpaceTooLarge,
                      TriVerdict, VerdictKind, ae3cnf_eval, brute_force_eef,
                      brute_force_leximin, dominating_allocation_by_enumeration,
                      find_dominating_allocation, is_pareto_optimal,
                      sat_by_enumeration, sat_on_partial)
from .reductions import (EefReduction, PoReduction, ReductionMap,
                         augment_both_polarities, build_x_forall_allocation,
                         construct_improvement_eef, construct_improvement_po,
                         default_big_m, reduce_3cnf_to_po, reduce_ae3cnf_to_eef,
                         x_forall_allocation_family, x_forall_assignments)
from .formats import (FormatError, InstanceDocument, exit_code,
                      parse_ae_dimacs, parse_dimacs, parse_instance,
                      serialize_instance)

__version__ = "0.1.0"
