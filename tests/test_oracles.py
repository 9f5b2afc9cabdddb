import itertools
import json
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    AEFormula,
    Allocation,
    CnfFormula,
    Ordering,
    PartialAssignment,
    SearchBudget,
    SearchSpaceTooLarge,
    WrongUtilityKind,
    additive_instance,
    ae3cnf_eval,
    brute_force_eef,
    brute_force_leximin,
    bundle_utility,
    dominates,
    dominating_allocation_by_enumeration,
    find_dominating_allocation,
    is_envy_free,
    is_pareto_optimal,
    leximin_compare,
    max_atomic_instance,
    parse_instance,
    reduce_3cnf_to_po,
    sat_by_enumeration,
    sat_on_partial,
    utility_vector,
    x_forall_assignments,
)
from fairdiv.cli import main
from fairdiv.formulas import formula_satisfied
from fairdiv.model import ContractError, bundles_of, scaled_utilities
import fairdiv.oracles
from fairdiv.oracles import (DEFAULT_BUDGET, TriVerdict, _capped_product, _Counter, _OutOfBudget, _dominator_search,
                             _pareto_search)

literals = st.sampled_from([v for v in range(-4, 5) if v != 0])
clauses4 = st.lists(st.lists(literals, min_size=1, max_size=3), min_size=0, max_size=4)


# negative, zero and positive cells, as ints or as "p/q" with mixed denominators
mixed_cells = st.integers(-3, 3) | st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def additive_with_baseline(draw):
    """A small additive document with mixed cells, read by ``parse_instance``,
    and a baseline allocation."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    matrix = draw(st.lists(
        st.lists(mixed_cells, min_size=m, max_size=m), min_size=n, max_size=n))
    owner = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)),
                          min_size=m, max_size=m))
    doc = {"kind": "additive", "agents": [f"a{i}" for i in range(n)],
           "resources": [f"o{j}" for j in range(m)], "matrix": matrix}
    return parse_instance(json.dumps(doc)).instance, Allocation(owner)


def fraction_dominates(inst, challenger, incumbent):
    """Pareto dominance summed over the Fraction view, apart from the int rows."""
    matrix = inst.matrix
    u, v = ([sum((row[j] for j in bundle), Fraction(0))
             for row, bundle in zip(matrix, bundles_of(alloc.owner, inst.num_agents))]
            for alloc in (challenger, incumbent))
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# exhaustive leximin


def test_brute_force_leximin_small_example():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    alloc, vec = brute_force_leximin(inst)
    assert vec.sorted() == (Fraction(3), Fraction(4))
    assert utility_vector(inst, alloc).values == vec.values


def test_brute_force_leximin_single_agent():
    _, vec = brute_force_leximin(max_atomic_instance([[7, 2]]))
    assert vec.values == (Fraction(7),)


def test_brute_force_leximin_all_zero():
    _, vec = brute_force_leximin(max_atomic_instance([[0, 0], [0, 0]]))
    assert vec.values == (Fraction(0), Fraction(0))


def test_brute_force_leximin_size_guard():
    # 2^21 allocations, just above the cap of 2*10^6
    inst = max_atomic_instance([[1] * 21])
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_leximin(inst)


def test_capped_product_refuses_only_above_the_cap():
    assert len(list(_capped_product((None, 0), 3, 8))) == 8
    with pytest.raises(SearchSpaceTooLarge):
        _capped_product((None, 0), 3, 7)


def first_leximin_owner(inst):
    """The definition: the first owner tuple, unallocated before agent 0
    before agent 1, whose sorted ``bundle_utility`` vector is largest."""
    n, best, best_key = inst.num_agents, None, None
    for owner in itertools.product((None, *range(n)), repeat=inst.num_resources):
        key = sorted(bundle_utility(inst, i, bundle) for i, bundle in enumerate(bundles_of(owner, n)))
        if best_key is None or key > best_key:
            best, best_key = owner, key
    return best


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(mixed_cells, min_size=3, max_size=3), min_size=n, max_size=n)))
@settings(max_examples=60)
def test_brute_force_leximin_on_mixed_sign_additive(matrix):
    inst = parse_instance(json.dumps({
        "kind": "additive", "agents": [f"a{i}" for i in range(len(matrix))],
        "resources": ["o0", "o1", "o2"], "matrix": matrix})).instance
    alloc, vec = brute_force_leximin(inst)
    assert alloc.owner == first_leximin_owner(inst)
    assert vec.values == utility_vector(inst, alloc).values


def test_brute_force_leximin_tie_break_owner():
    # (0, 1) and (1, 0) tie at the sorted vector (1, 1); the first in owner order wins
    for inst in (max_atomic_instance([[1, 1], [1, 1]]), additive_instance([[1, 1], [1, 1]])):
        alloc, vec = brute_force_leximin(inst)
        assert alloc.owner == (0, 1) == first_leximin_owner(inst)
        assert vec.values == (1, 1)


# ---------------------------------------------------------------------------
# dominance search


def test_zero_coefficient_holder_is_dominated():
    inst = additive_instance([[0], [1]])
    verdict = find_dominating_allocation(inst, Allocation([0]))
    assert verdict.is_yes
    assert verdict.witness.owner == (1,)


def test_personal_maxima_cannot_be_dominated():
    inst = additive_instance([[1, 0], [0, 1]])
    verdict = find_dominating_allocation(inst, Allocation([0, 1]))
    assert verdict.is_no
    assert verdict.nodes > 0


def test_unsatisfiable_reduction_baseline_is_optimal():
    reduction = reduce_3cnf_to_po(CnfFormula(1, [[1], [-1]]))
    verdict = find_dominating_allocation(reduction.instance, reduction.baseline)
    assert verdict.is_no


def test_budget_exhaustion_reports_unknown():
    inst = additive_instance([[1, 1], [1, 1]])
    verdict = find_dominating_allocation(inst, Allocation([None, None]),
                                         SearchBudget(1))
    assert verdict.is_unknown


def test_dominance_search_needs_additive():
    inst = max_atomic_instance([[1]])
    with pytest.raises(WrongUtilityKind):
        find_dominating_allocation(inst, Allocation([None]))


def test_dominance_enumeration_needs_additive():
    with pytest.raises(WrongUtilityKind):
        dominating_allocation_by_enumeration(max_atomic_instance([[1]]), Allocation([None]))


def test_a_witness_that_fails_its_check_exits_4_not_as_a_verdict(tmp_path, monkeypatch, capsys):
    # the search re-verifies its witness before reporting it: a failed check is
    # an internal error, never a "yes" or a "no"
    formula, document = tmp_path / "f.cnf", tmp_path / "po.json"
    formula.write_text("p cnf 3 2\n1 2 -3 0\n-1 -2 -3 0\n")
    assert main(["reduce-po", str(formula), "--out", str(document)]) == 0
    monkeypatch.setattr(fairdiv.oracles, "dominates", lambda *args: False)
    assert main(["check-pareto", str(document)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: internal: AssertionError")


def test_node_counts_are_deterministic():
    inst = additive_instance([[2, -1, 1], [1, 1, 0]])
    base = Allocation([None, 0, 1])
    first = find_dominating_allocation(inst, base)
    second = find_dominating_allocation(inst, base)
    assert first.kind == second.kind
    assert first.nodes == second.nodes


def test_enumeration_reference_guard():
    # 2^19 allocations, just above the cap of 5*10^5; 2^18 are scanned
    with pytest.raises(SearchSpaceTooLarge):
        dominating_allocation_by_enumeration(additive_instance([[1] * 19]), Allocation.empty(19))
    found = dominating_allocation_by_enumeration(additive_instance([[1] * 18]), Allocation.empty(18))
    assert found.owner == (None,) * 17 + (0,)


@given(additive_with_baseline())
@settings(max_examples=200)
def test_pruned_search_agrees_with_enumeration(case):
    inst, baseline = case
    verdict = find_dominating_allocation(inst, baseline)
    reference = dominating_allocation_by_enumeration(inst, baseline)
    assert not verdict.is_unknown
    assert verdict.is_yes == (reference is not None)
    if verdict.is_yes:
        assert dominates(inst, verdict.witness, baseline)
        assert fraction_dominates(inst, verdict.witness, baseline)
    if reference is not None:
        assert fraction_dominates(inst, reference, baseline)


def test_pareto_wrapper_inverts_the_verdicts():
    inst = additive_instance([[0], [1]])
    dominated = is_pareto_optimal(inst, Allocation([0]))
    assert dominated.is_no
    assert dominates(inst, dominated.witness, Allocation([0]))
    optimal = is_pareto_optimal(inst, Allocation([1]))
    assert optimal.is_yes
    assert optimal.witness is None


def test_empty_instance_is_trivially_optimal():
    inst = additive_instance([[], []])
    assert is_pareto_optimal(inst, Allocation.empty(0)).is_yes


def test_satisfiable_reduction_baseline_is_not_optimal():
    formula = CnfFormula(3, [[1, 2, -3], [-1, -2, -3]])
    reduction = reduce_3cnf_to_po(formula)
    verdict = is_pareto_optimal(reduction.instance, reduction.baseline)
    assert verdict.is_no
    assert dominates(reduction.instance, verdict.witness, reduction.baseline)


# The search as it was before it kept incremental state or the welfare
# bound: every node re-sorted the unplaced columns and tested each candidate
# owner against every other positive agent.  Kept here as the reference for
# the node order.

def previous_dominator_search(rows, base, counter):
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pos = [[(i, rows[i][j]) for i in range(n) if rows[i][j] > 0] for j in range(m)]
    cols = [j for j in range(m) if pos[j]]
    gap = [-b for b in base]
    for j in cols:
        for i, c in pos[j]:
            gap[i] += c
    owner = [None] * m
    unplaced = set(cols)
    stack = []
    while True:
        counter.spend()
        if any(g > 0 for g in gap):
            if not unplaced:
                return list(owner)
            best_j, best_cands = -1, []
            for j in sorted(unplaced):
                cands = [a for a, _ in pos[j] if all(gap[i] >= c for i, c in pos[j] if i != a)]
                if not cands:
                    best_j = -1
                    break
                if best_j < 0 or len(cands) < len(best_cands):
                    best_j, best_cands = j, cands
                    if len(cands) == 1:
                        break
            if best_j >= 0:
                unplaced.discard(best_j)
                stack.append((best_j, iter(best_cands)))
        while stack:
            j, untried = stack[-1]
            if owner[j] is not None:
                previous_shift(gap, pos[j], owner[j], 1)
            owner[j] = next(untried, None)
            if owner[j] is not None:
                previous_shift(gap, pos[j], owner[j], -1)
                break
            stack.pop()
            unplaced.add(j)
        else:
            return None


def previous_shift(gap, column, owner, sign):
    for i, c in column:
        if i != owner:
            gap[i] += sign * c


# The search as it was with the welfare bound but before single-violator
# columns were priced at their forced owner's cell: a node died when
# ``slack < 0``.  Kept here as the reference for node counts.

def slack_bound_dominator_search(rows, base, counter):
    pos = [[(i, c) for i, c in enumerate(column) if c > 0] for column in zip(*rows)]
    m = len(pos)
    size = [len(column) for column in pos]
    cells = [sorted((c, j) for j, c in enumerate(row) if c > 0) for row in rows]
    coef = [[c for c, _ in incident] for incident in cells]
    col = [[j for _, j in incident] for incident in cells]
    gap = [sum(cs) - b for cs, b in zip(coef, base)]
    top = [bisect_right(cs, g) for cs, g in zip(coef, gap)]
    viol = [0] * m
    for ks, t in zip(col, top):
        for k in ks[t:]:
            viol[k] += 1
    positive = sum(g > 0 for g in gap)
    colmax = [max((c for _, c in column), default=0) for column in pos]
    slack = sum(colmax) - sum(base) - 1
    crit = {j for j in range(m) if size[j] and (viol[j] or size[j] == 1)}
    order = sorted((j for j in range(m) if size[j]), key=size.__getitem__)
    owner = [None] * m

    def drain(j, taker):
        """Place column ``j`` on ``taker``: every other positive agent loses its cell."""
        nonlocal positive, slack
        for i, c in pos[j]:
            if i == taker:
                slack += c - colmax[j]
                continue
            old = gap[i]
            new = gap[i] = old - c
            if old > 0 >= new:
                positive -= 1
            t = top[i]
            cs = coef[i]
            if t and cs[t - 1] > new:            # some cells of i just became unaffordable
                lo = top[i] = bisect_right(cs, new, 0, t - 1)
                for k in col[i][lo:t]:
                    viol[k] += 1
                    if owner[k] is None:         # k is unplaced
                        crit.add(k)

    def refill(j, taker):
        """Take back the placement of column ``j`` on ``taker``."""
        nonlocal positive, slack
        for i, c in pos[j]:
            if i == taker:
                slack -= c - colmax[j]
                continue
            old = gap[i]
            new = gap[i] = old + c
            if old <= 0 < new:
                positive += 1
            t = top[i]
            cs = coef[i]
            if t < len(cs) and cs[t] <= new:     # some cells of i are affordable again
                hi = top[i] = bisect_right(cs, new, t + 1)
                for k in col[i][t:hi]:
                    viol[k] -= 1
                    if not viol[k] and size[k] > 1:
                        crit.discard(k)

    # per placed column, innermost last: (column, its candidates not yet tried);
    # an explicit stack, so the depth is not bounded by Python's recursion limit
    stack = []
    while True:
        counter.spend()                          # a node: the placements on the stack
        if positive and slack >= 0:              # else nobody, or not the sum, can still beat baseline
            if len(stack) == len(order):         # the stack holds every placed column
                return list(owner)
            if crit:                             # dead, or its one violator or positive agent
                j = min(crit)
                column = pos[j]
                cands = [] if viol[j] > 1 else [
                    next((i for i, c in column if gap[i] < c), column[0][0])]
            else:
                j = next(j for j in order if owner[j] is None)
                cands = [i for i, _ in pos[j]]
            if cands:
                crit.discard(j)
                stack.append((j, iter(cands)))
        # place the next candidate of the innermost column that has one left
        while stack:
            j, untried = stack[-1]
            if owner[j] is not None:             # take back the placement tried last
                refill(j, owner[j])
            owner[j] = next(untried, None)
            if owner[j] is not None:
                drain(j, owner[j])
                break
            stack.pop()
            if viol[j] or size[j] == 1:
                crit.add(j)
        else:
            return None


@st.composite
def search_inputs(draw):
    """Int rows with negative, zero and positive cells (some columns dense
    with positive cells), a baseline from an allocation, possibly shifted
    off it, and an ample or a small node budget."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 8))
    columns = [draw(st.lists(st.integers(1, 4) if draw(st.booleans()) else st.integers(-3, 3),
                             min_size=n, max_size=n)) for _ in range(m)]
    rows = [[columns[j][i] for j in range(m)] for i in range(n)]
    owner = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)), min_size=m, max_size=m))
    base = [sum(rows[i][j] for j, who in enumerate(owner) if who == i) for i in range(n)]
    if draw(st.booleans()):
        base = [b + draw(st.integers(-3, 3)) for b in base]
    limit = draw(st.sampled_from([10**6]) | st.integers(1, 30))
    return rows, base, limit


def run_search(search, rows, base, limit):
    counter = _Counter(SearchBudget(limit))
    try:
        return search(rows, base, counter), False, counter.used
    except _OutOfBudget:
        return None, True, counter.used


@given(search_inputs())
@settings(max_examples=400)
def test_search_never_visits_more_nodes_than_the_previous_search(case):
    # the welfare bound only cuts subtrees the copy walks, in the copy's node
    # order, and never one that holds a dominator
    assert_no_more_nodes_and_same_result(previous_dominator_search, case)


@given(search_inputs())
@settings(max_examples=400)
def test_search_never_visits_more_nodes_than_the_slack_bound_search(case):
    # pricing a single-violator column at its violator's cell cuts only
    # subtrees that hold no dominator, and keeps the copy's node order
    assert_no_more_nodes_and_same_result(slack_bound_dominator_search, case)


def test_a_base_off_every_allocation_has_no_dominator():
    # agent 4 values nothing but its base is 1, so no owner vector dominates;
    # the welfare bound alone would walk on to the leaf [None, 5, 3]
    case = [[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 0], [0, 3, 0]], [0, 0, 0, 0, 1, 3], 10**6
    assert run_search(_dominator_search, *case) == (None, False, 0)
    assert_no_more_nodes_and_same_result(previous_dominator_search, case)


def assert_no_more_nodes_and_same_result(reference, case):
    """The search visits at most the reference's nodes, and whenever the
    reference finishes with None or a dominator, gives the same result.
    (On a base shifted off every allocation the reference may return a
    non-dominator, which the bound can cut.)"""
    rows, base, limit = case
    owner, out_of_budget, used = run_search(_dominator_search, rows, base, limit)
    previous_owner, previous_out_of_budget, previous_used = run_search(reference, rows, base, limit)
    assert used <= previous_used
    if not previous_out_of_budget and (previous_owner is None
                                       or owner_dominates(rows, previous_owner, base)):
        assert (owner, out_of_budget) == (previous_owner, False)


def owner_dominates(rows, owner, base):
    u = [sum(c for c, who in zip(row, owner) if who == i) for i, row in enumerate(rows)]
    return all(a >= b for a, b in zip(u, base)) and any(a > b for a, b in zip(u, base))


@st.composite
def search_runs(draw):
    """The rows of ``search_inputs`` and 2-4 more baselines on them, drawn
    the same way, each with its own ample or small node budget."""
    rows, base, limit = draw(search_inputs())
    n, m = len(rows), len(rows[0])
    runs = [(base, limit)]
    for _ in range(draw(st.integers(2, 4))):
        owner = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)), min_size=m, max_size=m))
        base = [sum(rows[i][j] for j, who in enumerate(owner) if who == i) for i in range(n)]
        if draw(st.booleans()):
            base = [b + draw(st.integers(-3, 3)) for b in base]
        runs.append((base, draw(st.sampled_from([10**6]) | st.integers(1, 30))))
    return rows, runs


@given(search_runs())
@settings(max_examples=300)
def test_one_built_search_serves_baselines_in_turn(case):
    # each search builds its own baseline state, so nothing of a finished
    # search, or of one that ran out of budget partway, reaches the next
    rows, runs = case
    search = _pareto_search(rows)
    for base, limit in runs:
        reused = run_search(lambda _rows, b, counter: search(b, counter), rows, base, limit)
        assert reused == run_search(_dominator_search, rows, base, limit)


def core_3cnf(num_vars, num_clauses, seed):
    """All 8 sign patterns over 3 core variables, filled up with random
    3-clauses and shuffled: unsatisfiable, and a heavy tail for the search."""
    rng = random.Random(seed)
    core = rng.sample(range(1, num_vars + 1), 3)
    clauses = [[s * v for s, v in zip(signs, core)] for signs in itertools.product((1, -1), repeat=3)]
    while len(clauses) < num_clauses:
        clauses.append([v if rng.random() < .5 else -v for v in rng.sample(range(1, num_vars + 1), 3)])
    rng.shuffle(clauses)
    return CnfFormula(num_vars, clauses)


# witnesses pinned from the search before incremental state; node counts
# pinned since the welfare bound

def test_pinned_search_on_a_satisfiable_gadget():
    formula = CnfFormula(5, [[1, 2, -3], [-1, 3, 4], [2, -4, 5], [-2, -3, -5], [1, -4, -5], [-1, -2, 4]])
    reduction = reduce_3cnf_to_po(formula)
    verdict = find_dominating_allocation(reduction.instance, reduction.baseline)
    assert verdict.is_yes
    assert verdict.nodes == 43
    assert verdict.witness.owner == (6, 8, 11, 12, 14, 17, 17, 17, 17, 17, 17, 0, 0, 0, 7,
                                     10, 1, 2, 13, 2, 9, 3, 15, 4, 13, 15, 7, 9, 5, 16)


def test_pinned_search_on_a_blocked_gadget():
    formula = CnfFormula(5, [[3], [-3], [1, 2, -4], [-1, 4, 5], [2, -3, -5], [-2, 3, 4]])
    reduction = reduce_3cnf_to_po(formula)
    verdict = find_dominating_allocation(reduction.instance, reduction.baseline)
    assert verdict.is_no
    assert verdict.nodes == 9


def test_pinned_eef_search():
    verdict = brute_force_eef(additive_instance([[2, -1, 3, 0], [1, 2, 0, 1], [0, 1, 2, 2]]))
    assert verdict.is_yes
    assert verdict.nodes == 3
    assert verdict.witness.owner == (0, 1, 0, 2)
    verdict = brute_force_eef(additive_instance([[1] * 4] * 3))
    assert verdict.is_no
    assert verdict.nodes == 81


def test_pinned_search_on_every_sign_pattern_over_three_variables(tmp_path, capsys):
    # unsatisfiable, so the search walks its whole pruned tree to a No
    clauses = [[s * v for s, v in zip(signs, (1, 2, 3))] for signs in itertools.product((1, -1), repeat=3)]
    reduction = reduce_3cnf_to_po(CnfFormula(3, clauses))
    assert (reduction.instance.num_agents, reduction.instance.num_resources) == (16, 36)
    verdict = find_dominating_allocation(reduction.instance, reduction.baseline)
    assert verdict.is_no
    assert verdict.nodes == 319
    path = tmp_path / "core.cnf"
    path.write_text("p cnf 3 8\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    assert main(["verify-reduction", "po", str(path)]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert (witness["baseline_dominated"], witness["dominance_nodes"], witness["sat_nodes"]) == (False, 319, 6)


def test_pinned_search_on_a_heavy_tail_formula():
    reduction = reduce_3cnf_to_po(core_3cnf(10, 24, 0))
    verdict = find_dominating_allocation(reduction.instance, reduction.baseline, SearchBudget(20_000))
    assert verdict.is_unknown
    assert verdict.nodes == 20_001


def test_search_on_a_dense_envy_free_document():
    # each agent owns 10 resources worth 6-15 to it, the rest worth 0-9:
    # 16,000 positive-heavy cells, where each node once cost O(sum |pos_j|^2)
    rng = random.Random(400)
    n, m = 40, 400
    owner = [j % n for j in range(m)]
    rng.shuffle(owner)
    while True:
        inst = additive_instance([[rng.randint(6, 15) if owner[j] == i else rng.randint(0, 9)
                                   for j in range(m)] for i in range(n)])
        if is_envy_free(inst, Allocation(owner)):
            break
    verdict = find_dominating_allocation(inst, Allocation(owner), SearchBudget(30))
    assert verdict.is_unknown
    assert verdict.nodes == 31


# ---------------------------------------------------------------------------
# envy-free + efficient search


def test_eef_yes_when_everyone_gets_their_own():
    inst = additive_instance([[1, 0], [0, 1]])
    verdict = brute_force_eef(inst)
    assert verdict.is_yes
    assert is_envy_free(inst, verdict.witness)
    assert is_pareto_optimal(inst, verdict.witness).is_yes


def test_eef_no_for_one_contested_item():
    inst = additive_instance([[1], [1]])
    verdict = brute_force_eef(inst)
    assert verdict.is_no
    assert verdict.nodes > 0


def test_eef_respects_budget():
    inst = additive_instance([[1], [1]])
    assert brute_force_eef(inst, SearchBudget(1)).is_unknown


def test_eef_needs_additive():
    with pytest.raises(WrongUtilityKind):
        brute_force_eef(max_atomic_instance([[1]]))


def test_eef_with_negative_coefficients_may_need_padding():
    """The only EEF allocation here parks a worthless-to-the-owner resource
    on the second agent's bundle, purely to kill the first agent's envy.
    A search that never places a resource with a non-positive coefficient
    would miss it; the default mode's zero-valued owner option keeps it."""
    inst = additive_instance([[1, -3], [2, 0]])
    verdict = brute_force_eef(inst)
    assert verdict.is_yes
    assert verdict.witness.owner == (1, 1)
    assert is_envy_free(inst, verdict.witness)
    assert is_pareto_optimal(inst, verdict.witness).is_yes


def eef_over_every_allocation(inst):
    """The EEF search over all (n+1)^m owner vectors in lexicographic
    order, unallocated before agent 0 before agent 1: each one is a node,
    and an envy-free one is certified by the Pareto search on the same
    node meter."""
    counter = _Counter(DEFAULT_BUDGET)
    try:
        for owner in itertools.product((None, *range(inst.num_agents)), repeat=inst.num_resources):
            counter.spend()
            alloc = Allocation(owner)
            if is_envy_free(inst, alloc) and _dominator_search(
                    inst.utilities.rows, scaled_utilities(inst, alloc), counter) is None:
                return TriVerdict.yes(alloc, counter.used)
    except _OutOfBudget:
        return TriVerdict.unknown(counter.used)
    return TriVerdict.no(counter.used)


@given(st.integers(1, 3).flatmap(lambda n: st.integers(0, 5).flatmap(
    lambda m: st.lists(st.lists(st.integers(-2, 3), min_size=m, max_size=m), min_size=n, max_size=n))))
@settings(max_examples=150)
def test_eef_search_over_the_pareto_owners_matches_every_allocation(matrix):
    inst = additive_instance(matrix)
    full = eef_over_every_allocation(inst)
    verdict = brute_force_eef(inst)
    assert verdict.kind == full.kind
    assert verdict.witness == full.witness
    assert verdict.nodes <= full.nodes


def test_eef_certifies_a_candidate_deeper_than_the_recursion_limit():
    # agent a values every resource at 1, agent b none; the baseline gives b
    # everything (a envies b), and the empty allocation is envy-free but
    # dominated, which takes a forced 1500-placement line to certify
    m = 1500
    inst = additive_instance([[1] * m, [0] * m])
    baseline = Allocation([1] * m)
    verdict = brute_force_eef(inst, candidates=[baseline, Allocation.empty(m)])
    assert verdict.is_no
    assert verdict.nodes == 2 + m + 1            # two candidates, then the search's nodes


def test_eef_candidate_restriction_is_honoured():
    inst = additive_instance([[1], [1]])
    verdict = brute_force_eef(inst, candidates=[Allocation([None])])
    # the unallocated candidate is envy-free but dominated, so: no
    assert verdict.is_no


def test_eef_explicit_candidates_are_checked_as_they_are_drawn():
    inst = additive_instance([[1, 0], [0, 1]])
    own = Allocation([0, 1])
    # the empty allocation is envy-free but dominated; the next is the answer,
    # and the malformed candidate after it is never drawn
    verdict = brute_force_eef(inst, candidates=iter([Allocation.empty(2), own, Allocation([0])]))
    assert verdict.is_yes and verdict.witness == own
    for bad in (Allocation([0]), Allocation([0, 1, None]), Allocation([0, 2])):
        with pytest.raises(ContractError):
            brute_force_eef(inst, candidates=[Allocation.empty(2), bad])


def test_eef_builds_one_pareto_search_and_certifies_every_candidate_with_it(monkeypatch):
    builds = []                          # per build, the certifications it ran

    def counted_build(rows):
        search = _pareto_search(rows)
        builds.append(0)

        def counted_search(base, counter):
            builds[-1] += 1
            return search(base, counter)
        return counted_search

    monkeypatch.setattr(fairdiv.oracles, "_pareto_search", counted_build)
    # both empty allocations are envy-free and dominated
    inst = additive_instance([[1, 0], [0, 1]])
    verdict = brute_force_eef(inst, candidates=[Allocation.empty(2), Allocation.empty(2), Allocation([0, 1])])
    assert (builds, verdict.is_yes, verdict.witness.owner) == ([3], True, (0, 1))
    builds.clear()
    verdict = brute_force_eef(additive_instance([[3, -1, 0, 0, 2], [1, 2, 1, 2, -2], [1, -1, 3, 1, 1]]))
    assert (builds, verdict.is_yes, verdict.witness.owner, verdict.nodes) == ([2], True, (0, 1, 2, 1, 0), 13)


# ---------------------------------------------------------------------------
# satisfiability on partial assignments


def test_sat_on_partial_finds_a_model():
    formula = CnfFormula(3, [[1, 2, -3], [-1, -2, -3]])
    verdict = sat_on_partial(formula)
    assert verdict.is_yes
    assert formula_satisfied(formula.clauses, verdict.witness.as_dict())


def test_sat_on_partial_contradiction():
    assert sat_on_partial(CnfFormula(1, [[1], [-1]])).is_no


def test_sat_on_partial_respects_the_fixed_part():
    formula = CnfFormula(2, [[1, 2], [-1, -2]])
    verdict = sat_on_partial(formula, PartialAssignment({1: True}))
    assert verdict.is_yes
    assert verdict.witness.as_dict() == {1: True, 2: False}


def test_sat_on_partial_rejects_unknown_variables():
    with pytest.raises(ContractError):
        sat_on_partial(CnfFormula(2, [[1]]), PartialAssignment({5: True}))


def test_sat_on_partial_size_guard():
    # only the enumeration reference keeps a cap, 2^22; sat_on_partial has none
    with pytest.raises(SearchSpaceTooLarge):
        sat_by_enumeration(CnfFormula(23, [[1]]))
    verdict = sat_by_enumeration(CnfFormula(22, []))
    assert verdict.is_yes and verdict.nodes == 1


literals8 = st.sampled_from([v for v in range(-8, 9) if v != 0])


@given(st.lists(st.lists(literals8, min_size=1, max_size=3), max_size=30),
       st.dictionaries(st.integers(1, 8), st.booleans(), max_size=3))
@settings(max_examples=300)
def test_dpll_matches_enumeration(clauses, fixed):
    formula = CnfFormula(8, clauses)
    s = PartialAssignment(fixed)
    dpll = sat_on_partial(formula, s)
    reference = sat_by_enumeration(formula, s)
    assert dpll.kind == reference.kind
    assert dpll.witness == reference.witness       # the same first model, not just some model


def test_sat_on_partial_has_no_completion_cap():
    # 40 free variables: 2^40 completions, decided by search instead
    rng = random.Random(40)
    for ratio in (3, 6):
        clauses = [[rng.choice((-1, 1)) * v for v in rng.sample(range(1, 41), 3)]
                   for _ in range(ratio * 40)]
        formula = CnfFormula(40, clauses)
        verdict = sat_on_partial(formula)
        assert not verdict.is_unknown
        if verdict.is_yes:
            assert formula_satisfied(formula.clauses, verdict.witness.as_dict())


def test_sat_on_partial_long_implication_chain():
    # x1 and x1 -> x2 -> ... -> x2000, clauses listed back to front, so
    # propagation runs 2000 steps deep; then the same chain closed by -x2000
    n = 2000
    chain = [[-v, v + 1] for v in range(n - 1, 0, -1)]
    verdict = sat_on_partial(CnfFormula(n, chain + [[1]]))
    assert verdict.is_yes
    assert all(value for _, value in verdict.witness.values)
    assert sat_on_partial(CnfFormula(n, chain + [[1], [-n]])).is_no
    # no unit clause: the search branches, and x1 = False satisfies it at once
    assert sat_on_partial(CnfFormula(n, chain + [[-n]])).witness.as_dict()[1] is False


@given(clauses4, st.dictionaries(st.integers(1, 4), st.booleans(), max_size=2))
@settings(max_examples=120)
def test_sat_on_partial_matches_truth_table(clauses, fixed):
    formula = CnfFormula(4, clauses)
    s = PartialAssignment(fixed)
    free = [v for v in range(1, formula.num_vars + 1) if v not in fixed]
    expected = any(
        formula_satisfied(formula.clauses, {**fixed, **dict(zip(free, bits))})
        for bits in itertools.product((False, True), repeat=len(free)))
    assert sat_on_partial(formula, s).is_yes == expected


# ---------------------------------------------------------------------------
# two-level formula evaluation


def test_ae3cnf_eval_true_instance():
    assert ae3cnf_eval(AEFormula(2, [1], [2], [[1, 2], [-1, -2]]))


def test_ae3cnf_eval_false_instance():
    assert not ae3cnf_eval(AEFormula(2, [1], [2], [[1, 2], [1, -2]]))


def test_ae3cnf_eval_vacuous():
    assert ae3cnf_eval(AEFormula(2, [1], [2], []))


def test_ae3cnf_eval_refuses_before_any_sat_call(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sat_on_partial(*args)

    monkeypatch.setattr(fairdiv.oracles, "sat_on_partial", counted)
    # 2^23 forall assignments, just above the cap of 2^22
    with pytest.raises(SearchSpaceTooLarge):
        ae3cnf_eval(AEFormula(24, range(1, 24), [24], [[1, 24], [1, -24]]))
    assert calls == []
    # 2^22 are unfolded: the all-false assignment leaves the clauses unsatisfiable
    assert not ae3cnf_eval(AEFormula(23, range(1, 23), [23], [[1, 23], [1, -23]]))
    assert len(calls) == 1


@given(clauses4, st.sets(st.integers(1, 4)))
@settings(max_examples=100)
def test_ae3cnf_eval_unfolds_to_sat_checks(clauses, forall):
    exists = [v for v in range(1, 5) if v not in forall]
    formula = AEFormula(4, sorted(forall), exists, clauses)
    expected = all(
        sat_on_partial(formula.cnf(), s).is_yes
        for s in x_forall_assignments(formula))
    assert ae3cnf_eval(formula) == expected


# ---------------------------------------------------------------------------
# oracle vs solver


@given(st.integers(2, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 5), min_size=m, max_size=m),
                       min_size=2, max_size=4)))
@settings(max_examples=60)
def test_brute_force_never_beats_the_solver(matrix):
    from fairdiv import solve_leximin

    inst = max_atomic_instance(matrix)
    _, best = brute_force_leximin(inst)
    solved = utility_vector(inst, solve_leximin(inst))
    assert leximin_compare(best, solved) is Ordering.EQUAL
