"""Walk the allocation family built from a two-level formula.

Reads an AE-DIMACS file (or uses a built-in example), builds the envy-free
instance family, and reports for each universal assignment whether its
template allocation survives the efficiency search. The formula is false
exactly when some template does, i.e. when the instance admits an envy-free
Pareto-optimal allocation.
"""

import argparse
import pathlib

from fairdiv import (
    AEFormula,
    DEFAULT_BUDGET,
    SearchBudget,
    ae3cnf_eval,
    augment_both_polarities,
    find_dominating_allocation,
    parse_ae_dimacs,
    reduce_ae3cnf_to_eef,
    x_forall_allocation_family,
)

BUILT_IN = AEFormula(2, [1], [2], [[1, 2], [-1, -2]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("ae_dimacs", nargs="?", type=pathlib.Path,
                        help="AE-DIMACS file; omit to use the built-in example")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET.max_nodes)
    args = parser.parse_args(argv)

    raw = (parse_ae_dimacs(args.ae_dimacs.read_text())
           if args.ae_dimacs else BUILT_IN)
    formula, added = augment_both_polarities(raw)
    if added:
        print(f"added {len(added)} tautological clause(s) to balance polarities")
    reduction = reduce_ae3cnf_to_eef(formula)
    instance = reduction.instance
    print(f"instance: {instance.num_agents} agents, {instance.num_resources}"
          f" resources, M = {reduction.big_m}")

    efficient_templates = 0
    for s, template in x_forall_allocation_family(reduction):
        bits = " ".join(f"x{v}={'T' if b else 'F'}" for v, b in s.values)
        verdict = find_dominating_allocation(instance, template,
                                             SearchBudget(args.budget))
        status = {"yes": "dominated", "no": "efficient",
                  "unknown": "budget exhausted"}[verdict.kind.value]
        print(f"  {bits or '(no universal variables)'}: template {status}"
              f" ({verdict.nodes} nodes)")
        efficient_templates += verdict.is_no

    truth = ae3cnf_eval(formula)
    print(f"formula is {'TRUE' if truth else 'FALSE'};"
          f" {efficient_templates} efficient envy-free template(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
