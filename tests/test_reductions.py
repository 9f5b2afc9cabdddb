import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fairdiv.model
from fairdiv import (
    AEFormula,
    Allocation,
    CnfFormula,
    EefReduction,
    PartialAssignment,
    ReductionMap,
    additive_instance,
    ae3cnf_eval,
    augment_both_polarities,
    brute_force_eef,
    build_x_forall_allocation,
    construct_improvement_eef,
    construct_improvement_po,
    default_big_m,
    dominates,
    find_dominating_allocation,
    find_envy,
    is_envy_free,
    is_pareto_optimal,
    reduce_3cnf_to_po,
    reduce_ae3cnf_to_eef,
    sat_on_partial,
    utility_vector,
    x_forall_allocation_family,
    x_forall_assignments,
)
from fairdiv.model import Additive, ContractError, Instance, bundles_of
from fairdiv.reductions import _GadgetBuilder

literals = st.sampled_from([v for v in range(-4, 5) if v != 0])
clauses4 = st.lists(st.lists(literals, min_size=1, max_size=3), min_size=0, max_size=4)

EXAMPLE_CNF = CnfFormula(3, [[1, 2, -3], [-1, -2, -3]])
EXAMPLE_AE = AEFormula(2, [1], [2], [[1, 2], [-1, -2]])


# ---------------------------------------------------------------------------
# polarity augmentation


def test_augment_adds_tautologies_for_missing_polarities():
    formula = AEFormula(2, [1], [2], [[1, 2], [1, -2]])
    augmented, added = augment_both_polarities(formula)
    assert added == ((-1, 1),)
    assert augmented.clauses == formula.clauses + ((-1, 1),)
    assert augmented.forall_vars == formula.forall_vars


def test_augment_is_idempotent():
    augmented, _ = augment_both_polarities(AEFormula(2, [1], [2], [[1, 2], [1, -2]]))
    again, added = augment_both_polarities(augmented)
    assert added == ()
    assert again is augmented


def test_augment_balanced_formula_untouched():
    result, added = augment_both_polarities(EXAMPLE_AE)
    assert result is EXAMPLE_AE
    assert added == ()


def test_augment_plain_cnf_keeps_kind():
    formula = CnfFormula(1, [])
    augmented, added = augment_both_polarities(formula)
    assert isinstance(augmented, CnfFormula)
    assert not isinstance(augmented, AEFormula)
    assert added == ((-1, 1),)
    assert augmented.clauses == ((-1, 1),)


@given(clauses4, st.sets(st.integers(1, 4)))
@settings(max_examples=40)
def test_augment_preserves_the_two_level_value(clauses, forall):
    exists = [v for v in range(1, 5) if v not in forall]
    formula = AEFormula(4, sorted(forall), exists, clauses)
    augmented, _ = augment_both_polarities(formula)
    assert ae3cnf_eval(augmented) == ae3cnf_eval(formula)


# ---------------------------------------------------------------------------
# satisfiability -> Pareto improvement gadget

# the worked 2-clause example, written out in full: rows are agents, columns
# follow the instance's resource order
EXPECTED_AGENTS = ("a:c1", "a:c2", "a:set(x1)", "a:set(~x1)", "a:set(x2)",
                   "a:set(~x2)", "a:set(x3)", "a:set(~x3)", "a:unassigned",
                   "a:satisfied")
EXPECTED_RESOURCES = ("o:x1", "o:x2", "o:x3", "o:c1", "o:c2", "o:c1,x1",
                      "o:c1,x2", "o:c1,~x3", "o:c2,~x1", "o:c2,~x2",
                      "o:c2,~x3", "o:satisfied")
EXPECTED_MATRIX = (
    (0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0),   # a:c1
    (0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0),   # a:c2
    (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),   # a:set(x1)
    (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),   # a:set(~x1)
    (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),   # a:set(x2)
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),   # a:set(~x2)
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),   # a:set(x3) -- x3 never occurs positively
    (0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 1, 0),   # a:set(~x3)
    (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 4),   # a:unassigned
    (0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 2),   # a:satisfied
)
EXPECTED_BASELINE = (8, 8, 8, 0, 1, 2, 4, 7, 3, 5, 7, 9)


def test_po_reduction_reproduces_the_worked_table():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    inst = reduction.instance
    assert inst.agents == EXPECTED_AGENTS
    assert inst.resources == EXPECTED_RESOURCES
    assert inst.matrix == tuple(tuple(Fraction(v) for v in row) for row in EXPECTED_MATRIX)
    assert reduction.baseline.owner == EXPECTED_BASELINE
    vec = utility_vector(inst, reduction.baseline)
    assert vec.values == tuple(Fraction(v) for v in (1, 1, 1, 1, 1, 1, 0, 2, 3, 2))


def test_po_reduction_role_lookup():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    mapping = reduction.mapping
    inst = reduction.instance
    assert inst.agents[mapping.agent("set", -3)] == "a:set(~x3)"
    assert inst.resources[mapping.resource("lit", 1, -3)] == "o:c2,~x3"
    assert inst.resources[mapping.resource("satisfied")] == "o:satisfied"
    assert set(mapping.agent_roles) == set(inst.agents)
    assert set(mapping.resource_roles) == set(inst.resources)


def test_gadget_builder_rejects_a_repeated_structured_key():
    builder = _GadgetBuilder()
    builder.add_agent("a:satisfied", "satisfied")
    with pytest.raises(ContractError, match="agent 'a:other' repeats the structured key"):
        builder.add_agent("a:other", "satisfied")
    builder.add_resource("o:x1", "variable", variable=1)
    with pytest.raises(ContractError, match="resource 'o:x1 again' repeats"):
        builder.add_resource("o:x1 again", "universal-variable", variable=1)


def test_gadgets_build_without_checking_their_cells_again(monkeypatch):
    """The builder hands the model rows it wrote already scaled, so the
    per-cell check of outside input never runs on a gadget."""
    def forbidden(cells, what):
        raise AssertionError(f"_scaled_matrix(..., {what!r})")

    monkeypatch.setattr(fairdiv.model, "_scaled_matrix", forbidden)
    po = reduce_3cnf_to_po(EXAMPLE_CNF)
    eef = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    assert (po.instance.utilities.scale, eef.instance.utilities.scale) == (1, 2)
    with pytest.raises(AssertionError, match="_scaled_matrix"):
        additive_instance([[1]])


@given(clauses4)
@settings(max_examples=100)
def test_po_reduction_size_identities(clauses):
    formula = CnfFormula(4, clauses)
    reduction = reduce_3cnf_to_po(formula)
    w, wp = formula.num_vars, len(formula.clauses)
    occurrences = sum(len(c) for c in formula.clauses)
    assert reduction.instance.num_agents == 2 * w + wp + 2
    assert reduction.instance.num_resources == w + wp + occurrences + 1


def test_po_reduction_rejects_long_clauses():
    with pytest.raises(ContractError):
        reduce_3cnf_to_po(CnfFormula(4, [[1, 2, 3, 4]]))


def test_po_reduction_clause_free_formula():
    """With no clauses the formula is vacuously satisfiable, so the baseline
    must be improvable: the bonus resource is worth nothing to its holder."""
    reduction = reduce_3cnf_to_po(CnfFormula(1, []))
    assert reduction.instance.num_agents == 4
    assert reduction.instance.num_resources == 2
    verdict = is_pareto_optimal(reduction.instance, reduction.baseline)
    assert verdict.is_no
    improvement = construct_improvement_po(reduction, {1: False})
    assert dominates(reduction.instance, improvement, reduction.baseline)


def test_po_improvement_on_the_worked_example():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    improvement = construct_improvement_po(reduction, {1: False, 2: False, 3: False})
    assert dominates(reduction.instance, improvement, reduction.baseline)
    unassigned = reduction.mapping.agent("unassigned")
    before = utility_vector(reduction.instance, reduction.baseline).values
    after = utility_vector(reduction.instance, improvement).values
    assert (before[unassigned], after[unassigned]) == (Fraction(3), Fraction(4))


def test_po_improvement_single_clause():
    reduction = reduce_3cnf_to_po(CnfFormula(1, [[1]]))
    assert reduction.instance.num_agents == 5
    assert reduction.instance.num_resources == 4
    improvement = construct_improvement_po(reduction, {1: True})
    assert dominates(reduction.instance, improvement, reduction.baseline)


def test_po_improvement_rejects_bad_assignments():
    reduction = reduce_3cnf_to_po(CnfFormula(1, [[1]]))
    with pytest.raises(ContractError):
        construct_improvement_po(reduction, {1: False})   # does not satisfy
    with pytest.raises(ContractError):
        construct_improvement_po(reduction, {})           # not a full assignment


@given(clauses4)
@settings(max_examples=60)
def test_po_improvement_dominates_whenever_satisfiable(clauses):
    formula = CnfFormula(4, clauses)
    sat = sat_on_partial(formula)
    reduction = reduce_3cnf_to_po(formula)
    if sat.is_yes:
        improvement = construct_improvement_po(reduction, sat.witness)
        assert dominates(reduction.instance, improvement, reduction.baseline)
    else:
        assert find_dominating_allocation(reduction.instance, reduction.baseline).is_no


# ---------------------------------------------------------------------------
# two-level formula -> EEF gadget


def test_eef_reduction_sizes_and_named_cells():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    inst = reduction.instance
    mapping = reduction.mapping
    assert inst.num_agents == 13
    assert inst.num_resources == 18
    unassigned = mapping.agent("unassigned")
    satisfied = mapping.agent("satisfied")
    matrix = inst.matrix
    assert matrix[unassigned][mapping.resource("satisfied")] == 5
    assert matrix[unassigned][mapping.resource("envy1")] == 10
    assert matrix[unassigned][mapping.resource("envy2")] == 14
    assert matrix[satisfied][mapping.resource("envy1")] == Fraction(1, 2)
    assert matrix[satisfied][mapping.resource("satisfied")] == 2


def test_eef_reduction_big_m_cells():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    inst, mapping, M = reduction.instance, reduction.mapping, reduction.big_m
    assert M == Fraction(121, 2)
    matrix = inst.matrix
    assert matrix[mapping.agent("clause", 0)][mapping.resource("clause", 0)] == M
    assert matrix[mapping.agent("clause", 0)][mapping.resource("clause_comp", 0)] == M - 1
    # the envy-protection agent for x1's occurrence in the first clause
    assert matrix[mapping.agent("ep", 0, 1)][mapping.resource("clause", 0)] == M
    assert matrix[mapping.agent("ep", 0, 1)][mapping.resource("lit_ep", 0, 1)] == M
    assert matrix[mapping.agent("unassigned_ep")][mapping.resource("envy2")] == M


def test_eef_reduction_default_m_clears_the_ordinary_mass():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    ordinary = sum(
        abs(v)
        for i, row in enumerate(reduction.instance.matrix)
        for j, v in enumerate(row)
        if v not in (reduction.big_m, reduction.big_m - 1))
    assert reduction.big_m > ordinary


def test_eef_reduction_m_override():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE, big_m=1000)
    assert reduction.big_m == 1000
    with pytest.raises(ContractError):
        reduce_ae3cnf_to_eef(EXAMPLE_AE, big_m=1)   # smaller than the ordinary mass


def test_eef_reduction_requires_both_polarities():
    with pytest.raises(ContractError):
        reduce_ae3cnf_to_eef(AEFormula(2, [1], [2], [[1, 2], [1, -2]]))


@given(clauses4, st.sets(st.integers(1, 4)))
@settings(max_examples=100)
def test_eef_reduction_size_identities(clauses, forall):
    exists = [v for v in range(1, 5) if v not in forall]
    formula, _ = augment_both_polarities(AEFormula(4, sorted(forall), exists, clauses))
    reduction = reduce_ae3cnf_to_eef(formula)
    n_forall, n_exists = len(formula.forall_vars), len(formula.exists_vars)
    n_clauses = len(formula.clauses)
    total_lits = sum(len(c) for c in formula.clauses)
    forall_lits = sum(
        1 for c in formula.clauses for lit in c if abs(lit) in forall)
    assert reduction.instance.num_agents == (
        4 * n_forall + 2 * n_exists + n_clauses + forall_lits + 3)
    assert reduction.instance.num_resources == (
        4 * n_forall + n_exists + 2 * n_clauses + total_lits + forall_lits + 3)


@st.composite
def balanced_satisfiable_3cnfs(draw):
    """A satisfiable 3CNF over 1-5 variables in which every variable occurs
    in both polarities (missing ones completed by tautologies)."""
    num_vars = draw(st.integers(1, 5))
    literal = st.sampled_from([v for v in range(-num_vars, num_vars + 1) if v])
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=8))
    formula, _ = augment_both_polarities(CnfFormula(num_vars, clauses))
    assume(sat_on_partial(formula).is_yes)
    return formula


def moves_by_id(instance, before, after):
    """The (resource, from agent, to agent) ids of the resources whose owner differs."""
    return {(instance.resources[j], instance.agents[i], instance.agents[k])
            for j, (i, k) in enumerate(zip(before.owner, after.owner)) if i != k}


@given(balanced_satisfiable_3cnfs())
@settings(max_examples=60, deadline=None)
def test_the_eef_gadget_with_no_forall_block_is_the_po_gadget(formula):
    """With every variable existential, the EEF gadget holds the PO gadget:
    the same nonzero cells (apart from the clause cells, worth M, and the
    bonus, worth t), the PO baseline inside its one template, and the PO
    improvement's moves plus each clause's compensation to its clause agent."""
    n, clauses = formula.num_vars, formula.clauses
    po = reduce_3cnf_to_po(formula)
    eef = reduce_ae3cnf_to_eef(AEFormula(n, [], range(1, n + 1), clauses))
    agent = {a: i for i, a in enumerate(eef.instance.agents)}
    resource = {r: j for j, r in enumerate(eef.instance.resources)}
    differ = {(f"a:c{k + 1}", f"o:c{k + 1}") for k in range(len(clauses))}
    differ.add(("a:unassigned", "o:satisfied"))
    for a, row in zip(po.instance.agents, po.instance.matrix):
        for r, value in zip(po.instance.resources, row):
            if value and (a, r) not in differ:
                assert eef.instance.matrix[agent[a]][resource[r]] == value, (a, r)
    template, patches = build_x_forall_allocation(eef, PartialAssignment())
    assert patches == []
    for r, i in zip(po.instance.resources, po.baseline.owner):
        assert template.owner[resource[r]] == agent[po.instance.agents[i]], r
    model = sat_on_partial(formula).witness
    po_moves = moves_by_id(po.instance, po.baseline, construct_improvement_po(po, model))
    eef_moves = moves_by_id(eef.instance, template, construct_improvement_eef(eef, template, model))
    compensation = {(f"o:c{k + 1}:comp", "a:unassigned", f"a:c{k + 1}") for k in range(len(clauses))}
    assert eef_moves == po_moves | compensation


# ---------------------------------------------------------------------------
# template allocations


def test_templates_are_envy_free_for_both_assignments():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    for s in x_forall_assignments(reduction.formula):
        template, _ = build_x_forall_allocation(reduction, s)
        assert is_envy_free(reduction.instance, template)
        assert None not in template.owner   # every resource is placed


def test_all_flag_variants_are_envy_free():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    variants = list(x_forall_allocation_family(reduction, all_flags=True))
    assert len(variants) == 8
    seen = set()
    for s, allocation in variants:
        assert find_envy(reduction.instance, allocation) is None
        seen.add(allocation.owner)
    assert len(seen) == 8   # the flags genuinely vary the allocation


def test_template_unassigned_bundle_contents():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    mapping = reduction.mapping
    s = PartialAssignment({1: False})
    template, _ = build_x_forall_allocation(reduction, s)
    expected = {
        mapping.resource("var", 2),          # the existential variable resource
        mapping.resource("clause_comp", 0),
        mapping.resource("clause_comp", 1),
        mapping.resource("var_comp", 1),
        mapping.resource("envy1"),
    }
    bundles = bundles_of(template.owner, reduction.instance.num_agents)
    assert set(bundles[mapping.agent("unassigned")]) == expected


def test_eef_improvement_rejects_an_allocation_of_another_instance():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    with pytest.raises(ContractError, match="allocation does not match the instance"):
        construct_improvement_eef(reduction, Allocation([None]), {1: True, 2: False})


def test_template_rejects_wrong_assignments():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    with pytest.raises(ContractError):
        build_x_forall_allocation(reduction, PartialAssignment({2: True}))
    with pytest.raises(ContractError):
        build_x_forall_allocation(reduction, PartialAssignment({1: True, 2: True}))


def test_template_needs_exactly_the_forall_variables():
    reduction = reduce_ae3cnf_to_eef(augment_both_polarities(
        AEFormula(3, [1, 2], [3], [[1, 2, 3], [-1, -2, -3]]))[0])
    build_x_forall_allocation(reduction, PartialAssignment({1: True, 2: False}))
    for values in ({1: True}, {1: True, 2: False, 3: True}):    # missing, extra variable
        with pytest.raises(ContractError, match="^s must assign exactly the forall variables$"):
            build_x_forall_allocation(reduction, PartialAssignment(values))


def test_template_builder_rejects_a_mapping_that_leaves_a_resource_unowned():
    # with envy1's key pointing at envy2's position, no rule places o:envy1
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    keys = dict(reduction.mapping.resource_key)
    keys[("envy1",)] = keys[("envy2",)]
    mapping = reduction.mapping
    tampered = EefReduction(reduction.formula, reduction.instance, ReductionMap(
        mapping.agent_roles, mapping.resource_roles, mapping.links, mapping.agent_key, keys), reduction.big_m)
    with pytest.raises(AssertionError, match="internal error: .*'o:envy1' unowned"):
        build_x_forall_allocation(tampered, PartialAssignment({1: True}))


# ---------------------------------------------------------------------------
# the whole template family in closed form: each flag a patch of moves


@st.composite
def ae_gadgets(draw):
    """The gadget of a formula over 1-3 variables, at most two of them
    universal, with 1-3 clauses; and, half the time, 1-4 of its cells edited
    to random values, so that some templates are envious."""
    num_vars = draw(st.integers(1, 3))
    forall = draw(st.lists(st.integers(1, num_vars), min_size=1, max_size=2, unique=True))
    exists = [v for v in range(1, num_vars + 1) if v not in forall]
    clause = st.lists(st.integers(1, num_vars), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    clauses = draw(st.lists(clause, min_size=1, max_size=3))
    formula, _ = augment_both_polarities(AEFormula(num_vars, sorted(forall), exists, clauses))
    reduction = reduce_ae3cnf_to_eef(formula)
    if draw(st.booleans()):
        inst = reduction.instance
        matrix = [list(row) for row in inst.matrix]
        for _ in range(draw(st.integers(1, 4))):
            i = draw(st.integers(0, inst.num_agents - 1))
            j = draw(st.integers(0, inst.num_resources - 1))
            matrix[i][j] = draw(st.integers(-4, 4) | st.builds(Fraction, st.integers(-9, 9),
                                                                 st.integers(1, 4)))
        reduction = EefReduction(reduction.formula, Instance(inst.agents, inst.resources, Additive(matrix)),
                                 reduction.mapping, reduction.big_m)
    return reduction


def flag_patches_from_roles(reduction, s):
    """Each flag's moves under ``s``, spelled out through the gadget's role
    keys: per forall variable v, o:xv from set(v) to set(-v) and the true
    literal's helper resource from set(-v) to set(v); then per universal
    occurrence false under ``s``, in clause order, o:c{k},lit from
    helper(lit) to ep(k, lit)."""
    mapping, values = reduction.mapping, s.as_dict()
    patches = []
    for v in reduction.formula.forall_vars:
        pos, neg = mapping.agent("set", v), mapping.agent("set", -v)
        true_lit = v if values[v] else -v
        patches.append([(mapping.resource("var", v), pos, neg),
                        (mapping.resource("helper", true_lit), neg, pos)])
    for k, clause in enumerate(reduction.formula.clauses):
        for lit in clause:
            if abs(lit) in values and values[abs(lit)] != (lit > 0):
                patches.append([(mapping.resource("lit", k, lit), mapping.agent("helper", lit),
                                 mapping.agent("ep", k, lit))])
    return patches


@given(ae_gadgets())
@example(reduce_ae3cnf_to_eef(EXAMPLE_AE))
@settings(max_examples=40, deadline=None)
def test_each_flag_moves_exactly_what_its_roles_say(reduction):
    for s in x_forall_assignments(reduction.formula):
        _, patches = build_x_forall_allocation(reduction, s)
        assert patches == flag_patches_from_roles(reduction, s)


@given(ae_gadgets(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_closed_form_decides_each_assignment_as_the_walk_does(reduction, all_flags):
    inst = reduction.instance
    walk = [(s, [t.owner for _, t in group]) for s, group in itertools.groupby(
        x_forall_allocation_family(reduction, all_flags=all_flags), key=lambda item: item[0])]
    closed = []
    for s in x_forall_assignments(reduction.formula):
        template, patches = build_x_forall_allocation(reduction, s)
        closed.append((s, template, patches if all_flags else []))
    assert [s for s, _ in walk] == [s for s, _, _ in closed]
    for (s, owners), (_, template, patches) in zip(walk, closed):
        # the family is the default template with any subset of the patches applied
        assert owners[0] == template.owner
        members = set()
        for applied in itertools.product((False, True), repeat=len(patches)):
            owner = list(template.owner)
            for moves in itertools.compress(patches, applied):
                for j, before, after in moves:
                    assert owner[j] == before
                    owner[j] = after
            members.add(tuple(owner))
        assert members == set(owners)
        # the per-assignment count and verdict the report shows
        envy_free = all(find_envy(inst, Allocation(owner)) is None for owner in owners)
        assert (2 ** len(patches), find_envy(inst, template, patches) is None) \
            == (len(owners), envy_free)


# ---------------------------------------------------------------------------
# the constructive improvement for satisfiable assignments


def test_eef_improvement_dominates_for_both_assignments():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    unassigned = reduction.mapping.agent("unassigned")
    satisfied = reduction.mapping.agent("satisfied")
    for s in x_forall_assignments(reduction.formula):
        template, _ = build_x_forall_allocation(reduction, s)
        sat = sat_on_partial(reduction.formula.cnf(), s)
        assert sat.is_yes
        improvement = construct_improvement_eef(reduction, template, sat.witness)
        assert dominates(reduction.instance, improvement, template)
        before = utility_vector(reduction.instance, template).values
        after = utility_vector(reduction.instance, improvement).values
        assert after[unassigned] > before[unassigned]
        assert after[satisfied] == before[satisfied]
        assert not is_envy_free(reduction.instance, improvement)


def test_eef_improvement_works_from_any_flag_variant():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    for s, template in x_forall_allocation_family(reduction, all_flags=True):
        sat = sat_on_partial(reduction.formula.cnf(), s)
        improvement = construct_improvement_eef(reduction, template, sat.witness)
        assert dominates(reduction.instance, improvement, template)


def test_eef_improvement_rejects_bad_inputs():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    s = PartialAssignment({1: True})
    template, _ = build_x_forall_allocation(reduction, s)
    with pytest.raises(ContractError):
        # extension flips the universal variable
        construct_improvement_eef(reduction, template, {1: False, 2: False})
    with pytest.raises(ContractError):
        # extension fails the second clause
        construct_improvement_eef(reduction, template, {1: True, 2: True})
    with pytest.raises(ContractError):
        # baseline is not a template allocation
        construct_improvement_eef(
            reduction, Allocation.empty(reduction.instance.num_resources),
            {1: True, 2: False})
    half = list(template.owner)
    half[reduction.mapping.resource("var", 1)] = reduction.mapping.agent("set", -1)
    with pytest.raises(ContractError):
        # x1's flag half applied: o:x1 moved, the true helper still parked
        construct_improvement_eef(reduction, Allocation(half), {1: True, 2: False})
    improvement = construct_improvement_eef(reduction, template, {1: True, 2: False})
    with pytest.raises(ContractError):
        # an improvement is no longer a template
        construct_improvement_eef(reduction, improvement, {1: True, 2: False})


# ---------------------------------------------------------------------------
# end-to-end on a false formula


FALSE_AE = AEFormula(2, [1], [2], [[1, 2], [1, -2]])   # fails at x1 = false


def false_formula_reduction(multiplier=1):
    formula, _ = augment_both_polarities(FALSE_AE)
    big_m = None if multiplier == 1 else multiplier * default_big_m(formula)
    return reduce_ae3cnf_to_eef(formula, big_m=big_m)


def run_family_checks(reduction):
    """Per-assignment verdicts plus the family-level EEF answer."""
    outcomes = {}
    for s, template in x_forall_allocation_family(reduction):
        sat = sat_on_partial(reduction.formula.cnf(), s)
        if sat.is_yes:
            improvement = construct_improvement_eef(reduction, template, sat.witness)
            assert dominates(reduction.instance, improvement, template)
            efficient = False
        else:
            certified = find_dominating_allocation(reduction.instance, template)
            assert certified.is_no
            efficient = True
        outcomes[s.values] = (sat.is_yes, efficient)
    family = brute_force_eef(
        reduction.instance,
        candidates=[t for _, t in x_forall_allocation_family(reduction)])
    return outcomes, family


def test_false_formula_yields_an_eef_allocation():
    reduction = false_formula_reduction()
    outcomes, family = run_family_checks(reduction)
    assert not ae3cnf_eval(reduction.formula)
    assert outcomes[((1, False),)] == (False, True)
    assert outcomes[((1, True),)] == (True, False)
    assert family.is_yes
    assert is_envy_free(reduction.instance, family.witness)


def test_true_formula_family_has_no_eef_member():
    reduction = reduce_ae3cnf_to_eef(EXAMPLE_AE)
    outcomes, family = run_family_checks(reduction)
    assert ae3cnf_eval(reduction.formula)
    assert all(sat for sat, _ in outcomes.values())
    assert family.is_no


def test_verdicts_survive_a_tenfold_m():
    plain = run_family_checks(false_formula_reduction())[0]
    scaled = run_family_checks(false_formula_reduction(multiplier=10))[0]
    assert plain == scaled


# ---------------------------------------------------------------------------
# template recognition: construct_improvement_eef applies the flag patches the baseline shows


TWO_BY_TWO_AE = AEFormula(4, [1, 2], [3, 4], [[1, -2, 3], [-1, 2, -4], [-3, 4]])


@pytest.mark.parametrize("formula", [EXAMPLE_AE, augment_both_polarities(FALSE_AE)[0],
                                     augment_both_polarities(TWO_BY_TWO_AE)[0]],
                         ids=["example", "false", "two-by-two"])
def test_eef_improvement_accepts_exactly_the_family_of_s(formula):
    reduction = reduce_ae3cnf_to_eef(formula)
    n, m = reduction.instance.num_agents, reduction.instance.num_resources
    families = {}
    for s, variant in x_forall_allocation_family(reduction, all_flags=True):
        families.setdefault(s, set()).add(variant.owner)
    everything = set().union(*families.values())
    accepted = expected = 0
    for s, family in families.items():
        sat = sat_on_partial(formula.cnf(), s)
        if not sat.is_yes:
            continue
        expected += len(family)
        # every variant of every s, and every single move away from a variant of s
        candidates = set(everything)
        for owner in family:
            for j in range(m):
                for who in (None, *range(n)):
                    candidates.add(owner[:j] + (who,) + owner[j + 1:])
        for owner in candidates:
            candidate = Allocation(owner)
            try:
                improvement = construct_improvement_eef(reduction, candidate, sat.witness)
            except ContractError:
                assert owner not in family
                continue
            assert owner in family
            assert dominates(reduction.instance, improvement, candidate)
            accepted += 1
    assert accepted == expected > 0
