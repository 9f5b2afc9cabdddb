import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairdiv.solver
from fairdiv import (
    Allocation,
    Matching,
    Ordering,
    UtilityVector,
    WeightMatrix,
    WrongUtilityKind,
    additive_instance,
    brute_force_leximin,
    check_weight_invariants,
    decide_lmmuab,
    generate_weights,
    leximin_compare,
    max_atomic_instance,
    min_weight_max_matching,
    parse_instance,
    solve_leximin,
    utility_vector,
)
from fairdiv.model import ContractError
from fairdiv.solver import _lex_max_matching

demand_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 9), min_size=m, max_size=m),
            min_size=n, max_size=n)))

# demands as (numerator, denominator) pairs, so one matrix mixes denominators
rational_cells = st.tuples(st.integers(0, 12), st.integers(1, 6))
rational_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(rational_cells, min_size=m, max_size=m),
            min_size=n, max_size=n)))


def rational_document(matrix, factor=1):
    """A max-atomic document whose cells are written "p/q", both terms
    multiplied by ``factor``."""
    n, m = len(matrix), len(matrix[0])
    return parse_instance(json.dumps({
        "kind": "max-atomic",
        "agents": [f"a{i}" for i in range(n)],
        "resources": [f"o{j}" for j in range(m)],
        "matrix": [[f"{p * factor}/{q * factor}" for p, q in row] for row in matrix],
    })).instance


# ---------------------------------------------------------------------------
# weight generation


def test_weights_follow_demand_ranks():
    inst = max_atomic_instance([[5, 3], [3, 1]])
    weights = generate_weights(inst)
    assert weights.weights == ((1, 2), (2, 6))
    check_weight_invariants(inst, weights)


def test_equal_demands_equal_weights():
    inst = max_atomic_instance([[4, 4], [4, 4]])
    assert generate_weights(inst).weights == ((1, 1), (1, 1))


def test_single_cell_weight():
    inst = max_atomic_instance([[7]])
    assert generate_weights(inst).weights == ((1,),)


def test_generate_weights_needs_max_atomic():
    with pytest.raises(WrongUtilityKind):
        generate_weights(additive_instance([[1]]))


def test_weight_matrix_validation():
    with pytest.raises(ContractError):
        WeightMatrix(((1, -2),))
    with pytest.raises(ContractError):
        WeightMatrix(((1,), (1, 2)))


def test_weight_matrix_rejects_a_bool():
    with pytest.raises(ContractError, match=r"^weights\[1\]\[0\]: expected a non-negative int, got True$"):
        WeightMatrix(((1, 2), (True, 2)))


def test_weight_matrix_rejects_a_float():
    with pytest.raises(ContractError, match=r"^weights\[0\]\[2\]: expected a non-negative int, got 1\.0$"):
        WeightMatrix(((1, 2, 1.0),))


def test_weight_matrix_rejects_a_negative_value():
    with pytest.raises(ContractError, match=r"^weights\[1\]\[1\]: expected a non-negative int, got -3$"):
        WeightMatrix(((0, 4), (5, -3)))


def test_weight_matrix_rejects_a_ragged_row():
    with pytest.raises(ContractError, match=r"^weight matrix must be rectangular$"):
        WeightMatrix(((1, 2), (3,)))
    # a bad cell in the ragged row is named first, as the cells come first
    with pytest.raises(ContractError, match=r"^weights\[1\]\[0\]"):
        WeightMatrix(((1, 2), (-1,)))


def sum_form_weights(instance):
    """The defining form of the weights: a demand level, visited from the
    largest down, weighs one more than all the weight handed out before it."""
    levels = sorted({d for row in instance.matrix for d in row}, reverse=True)
    weight_of, handed_out = {}, 0
    for level in levels:
        weight_of[level] = handed_out + 1
        handed_out += weight_of[level] * sum(row.count(level) for row in instance.matrix)
    return tuple(tuple(weight_of[d] for d in row) for row in instance.matrix)


@given(st.integers(1, 6).flatmap(lambda n: st.integers(1, 6).flatmap(
    lambda m: st.lists(st.lists(st.integers(0, 10 ** 6) | st.integers(0, 3), min_size=m, max_size=m),
                       min_size=n, max_size=n))))
def test_weights_equal_the_sum_form(matrix):
    inst = max_atomic_instance(matrix)
    assert generate_weights(inst).weights == sum_form_weights(inst)


def test_invariant_checker_catches_bad_weights():
    with pytest.raises(ContractError, match="not strictly antitone"):
        # equal weights despite distinct demands
        check_weight_invariants(max_atomic_instance([[5, 3]]), WeightMatrix(((1, 1),)))
    with pytest.raises(ContractError, match="weight 2 for demand 3 does not dominate the 2 total"):
        # antitone but too small: weight(3) must exceed the sum of larger-demand weights
        check_weight_invariants(max_atomic_instance([[5, 5, 3]]), WeightMatrix(((1, 1, 2),)))


@pytest.mark.parametrize("instance, weights, message", [
    (max_atomic_instance([[5, 3]]), ((2, 1),), "not strictly antitone: demand 3 -> 1, demand 5 -> 2"),
    (max_atomic_instance([[5, 3]]), ((2, 1), (2, 1)), "shape does not match"),
    (max_atomic_instance([[5, 3]]), ((2,),), "shape does not match"),
    (max_atomic_instance([[5, 3]]), ((0, 2),), "weight for demand 5 is not positive"),
    (max_atomic_instance([[Fraction(5, 2), 3]]), ((1, 2),),
     "not strictly antitone: demand 5/2 -> 1, demand 3 -> 2"),
    (max_atomic_instance([[5, 5, 3]]), ((1, 2, 3),), "demand 5 maps to two different weights"),
    (additive_instance([[1]]), ((1,),), "defined against max-atomic demands"),
], ids=["increasing", "rows", "columns", "zero", "rational", "two-weights", "additive"])
def test_invariant_checker_names_each_rejection(instance, weights, message):
    with pytest.raises(ContractError, match=message):
        check_weight_invariants(instance, WeightMatrix(weights))


@given(demand_matrices)
def test_weight_invariants_on_random_matrices(matrix):
    inst = max_atomic_instance(matrix)
    check_weight_invariants(inst, generate_weights(inst))


@given(rational_matrices, st.integers(2, 5))
def test_weights_on_mixed_denominators(matrix, factor):
    inst = rational_document(matrix)
    weights = generate_weights(inst)
    check_weight_invariants(inst, weights)
    assert weights.weights == sum_form_weights(inst)
    # the same rationals written differently ("1/3" and "2/6") weigh the same
    assert generate_weights(rational_document(matrix, factor)) == weights


# ---------------------------------------------------------------------------
# matching


def test_matching_examples():
    assert min_weight_max_matching([[1, 2], [2, 1]]).pairs == ((0, 0), (1, 1))
    assert min_weight_max_matching([[3, 5]]).pairs == ((0, 0),)


def test_matching_validation():
    with pytest.raises(ContractError):
        Matching(((0, 0), (0, 1)))   # agent used twice
    with pytest.raises(ContractError):
        Matching(((0, 0), (1, 0)))   # resource used twice


def test_lexicographic_tie_break():
    # every perfect matching weighs 2; the pair set must be the smallest one
    assert min_weight_max_matching([[1, 1], [1, 1]]).pairs == ((0, 0), (1, 1))
    # 3x2: only two of three agents can be matched; all weights equal
    assert min_weight_max_matching([[1, 1], [1, 1], [1, 1]]).pairs == ((0, 0), (1, 1))
    # 2x3 mirror image
    assert min_weight_max_matching([[1, 1, 1], [1, 1, 1]]).pairs == ((0, 0), (1, 1))
    # an optimum must cover each position of negative potential, column 2
    # here and row 2 below: leaving it free would give (0, 0), (1, 1)
    assert min_weight_max_matching([[2, 2, 1], [3, 1, 0]]).pairs == ((0, 0), (1, 2))
    assert min_weight_max_matching([[1, 3], [3, 2], [0, 1]]).pairs == ((0, 0), (2, 1))
    # row 0 leaves column 2 (negative potential) for the free column 1 only
    # because row 1 leaves column 0, which may go free, to re-cover it
    assert min_weight_max_matching([[2, 1, 0], [1, 1, 0]]).pairs == ((0, 1), (1, 2))
    # row 0 takes column 0 from row 1, which drops out, only because the
    # unmatched row 2 re-covers column 1
    assert min_weight_max_matching([[0, 0], [1, 2], [1, 1]]).pairs == ((0, 0), (2, 1))


def brute_minimum_weight(rows):
    n, m = len(rows), len(rows[0])
    k = min(n, m)
    best = None
    for agents in itertools.permutations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            pairs = tuple(sorted(zip(agents, cols)))
            weight = sum(rows[i][j] for i, j in pairs)
            key = (weight, pairs)
            if best is None or key < best:
                best = key
    return best


@given(st.lists(st.lists(st.integers(0, 30), min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=60)
def test_square_matching_is_optimal(rows):
    weight, pairs = brute_minimum_weight(rows)
    matching = min_weight_max_matching(rows)
    assert sum(rows[i][j] for i, j in matching.pairs) == weight
    assert matching.pairs == pairs


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_rectangular_matching_is_optimal(n, m, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 12), min_size=m, max_size=m), min_size=n, max_size=n))
    weight, pairs = brute_minimum_weight(rows)
    matching = min_weight_max_matching(rows)
    assert len(matching.pairs) == min(n, m)
    assert sum(rows[i][j] for i, j in matching.pairs) == weight
    assert matching.pairs == pairs


def emaxx_hungarian(cost):
    """The classic O(rows^2 * cols) potentials form of the Hungarian method
    with 1-based potentials, rows <= cols.  Returns col_of_row."""
    n, m = len(cost), len(cost[0])
    INF = 1 + 2 * sum(max(row) for row in cost)
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = [-1] * n
    for j in range(1, m + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    return col_of_row


def emaxx_matching(rows):
    """Pairs of the minimum-weight maximum matching, tie-broken by the
    multiplicative perturbation with C = max(n, m) + 3: a second,
    independent route to the same unique optimum."""
    n, m = len(rows), len(rows[0])
    C = max(n, m) + 3
    top = C ** (n + 1)
    S = min(n, m) * top + 1
    aug = [[w * S + top - C ** (n - i) * (m - j) for j, w in enumerate(row)]
           for i, row in enumerate(rows)]
    if n <= m:
        col_of_row = emaxx_hungarian(aug)
        return tuple((i, col_of_row[i]) for i in range(n))
    row_of_col = emaxx_hungarian([list(col) for col in zip(*aug)])
    return tuple(sorted((row_of_col[j], j) for j in range(m)))


def demand_shapes(demand_max):
    return st.integers(1, 25).flatmap(lambda short: st.integers(short, 35).flatmap(
        lambda long: st.booleans().flatmap(lambda tall: st.lists(
            st.lists(st.integers(0, demand_max), min_size=short if tall else long,
                     max_size=short if tall else long),
            min_size=long if tall else short, max_size=long if tall else short))))


@given(demand_shapes(3))
@example([[0] * 35] * 25)               # every cell tied
@example([[1] * 25] * 35)               # every cell tied, transposed
@settings(max_examples=40, deadline=None)
def test_matching_equals_the_emaxx_copy_on_narrow_demands(matrix):
    weights = generate_weights(max_atomic_instance(matrix))
    assert min_weight_max_matching(weights).pairs == emaxx_matching(weights.weights)


@given(demand_shapes(10 ** 6))
@settings(max_examples=40, deadline=None)
def test_matching_equals_the_emaxx_copy_on_wide_demands(matrix):
    weights = generate_weights(max_atomic_instance(matrix))
    assert min_weight_max_matching(weights).pairs == emaxx_matching(weights.weights)


# 3,600 distinct weights, far from dominating: a 60 x 60 square solved on every cell
_DISTINCT = random.Random(60).sample(range(10 ** 9), 3600)
DISTINCT_60 = [_DISTINCT[k:k + 60] for k in range(0, 3600, 60)]


@given(st.integers(1, 7).flatmap(lambda n: st.integers(1, 7).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 3) | st.integers(0, 10 ** 9), min_size=m, max_size=m),
    min_size=n, max_size=n))))
@example([[0, 1], [1, 2]])         # the top weight 2 only ties the total of the cheaper cells
@example(DISTINCT_60)
@settings(max_examples=150, deadline=None)
def test_matching_equals_the_emaxx_copy_on_arbitrary_weights(rows):
    """Weights not made by generate_weights need not dominate; the matching
    is still the optimum over every cell."""
    assert min_weight_max_matching(rows).pairs == emaxx_matching(rows)


def scan_assign(costs, m):
    """``_assign`` as it was before its heap frontier: the next column is the
    first one reached among those of least distance, found by a scan of a
    dict of the reached, unscanned columns."""
    n = len(costs)
    u = [0] * n
    v = [0] * m
    row_of_col = [-1] * m
    col_of_row = [-1] * n
    for s in range(n):
        dist = [float("inf")] * m
        pred = [s] * m
        frontier = {}
        for col, c in costs[s].items():
            dist[col] = frontier[col] = c - v[col]
        scanned = []
        while True:
            if not frontier:
                return None
            j = min(frontier, key=frontier.__getitem__)
            del frontier[j]
            scanned.append(j)
            i = row_of_col[j]
            if i < 0:
                break
            base = dist[j] - u[i]
            for col, c in costs[i].items():
                d = base + c - v[col]
                if d < dist[col]:
                    dist[col] = frontier[col] = d
                    pred[col] = i
        sink = dist[j]
        for col in scanned:
            v[col] += dist[col] - sink
        while True:
            i = pred[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == s:
                break
        for col in scanned:
            i = row_of_col[col]
            u[i] = costs[i][col] - v[col]
    return col_of_row


def sparse_costs(rows_within_width):
    """(width, per-row {col: cost} maps): 1-8 columns and 1-7 rows, no more
    rows than columns if ``rows_within_width``; costs 0-3, so ties abound,
    and rows may be empty."""
    return st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.lists(
        st.dictionaries(st.integers(0, m - 1), st.integers(0, 3)),
        min_size=1, max_size=min(7, m) if rows_within_width else 7)))


@given(sparse_costs(rows_within_width=False))
@settings(max_examples=300, deadline=None)
def test_heap_frontier_finds_the_optimum_of_the_dict_scan(case):
    """On costs with tied optima the two frontiers may pick different
    assignments, but never of different total cost."""
    m, costs = case
    heap, scan = fairdiv.solver._assign(costs, m), scan_assign(costs, m)
    assert (heap is None) == (scan is None)
    if heap is not None:
        assert sum(map(dict.__getitem__, costs, heap[0])) == sum(map(dict.__getitem__, costs, scan))


@given(sparse_costs(rows_within_width=True))
@example((3, [{0: 10 ** 40, 1: 3 ** 90}, {0: 2 ** 130, 2: 1}]))
@settings(max_examples=300, deadline=None)
def test_assign_potentials_prove_the_assignment_optimal(case):
    """Complementary slackness: every reduced cost ``c - u[i] - v[j]`` is at
    least 0, and 0 on the matched cells; every column potential is at most
    0, and 0 on the columns left free."""
    m, costs = case
    assigned = fairdiv.solver._assign(costs, m)
    if assigned is None:
        return
    col_of, _, u, v = assigned
    assert all(c - u[i] - v[j] >= 0 for i, row in enumerate(costs) for j, c in row.items())
    assert all(costs[i][j] - u[i] - v[j] == 0 for i, j in enumerate(col_of))
    assert all(x <= 0 for x in v)
    assert all(v[j] == 0 for j in set(range(m)) - set(col_of))


def matcher_calls(monkeypatch):
    """Record, in order, the matchings ``solve_leximin`` asks for: a
    weighted one as ``("weighted", cells)``, ``cells`` the admitted
    positions of each line, and a one-level one as ``("one-level", adj,
    result)``.  The lexicographic pass that ends a weighted matching is part
    of it, and is not recorded apart."""
    calls, weighing = [], []
    match, lex = fairdiv.solver._match_lines, fairdiv.solver._lex_max_matching

    def weighted(n, m, lines):
        calls.append(("weighted", [list(line) for line in lines]))
        weighing.append(True)
        try:
            return match(n, m, lines)
        finally:
            weighing.pop()

    def one_level(n, m, adj, *start):
        matched = lex(n, m, adj, *start)
        if not weighing:
            calls.append(("one-level", adj, matched))
        return matched

    monkeypatch.setattr(fairdiv.solver, "_match_lines", weighted)
    monkeypatch.setattr(fairdiv.solver, "_lex_max_matching", one_level)
    return calls


# demand matrices, n <= m, whose first admitted cells cannot hold a maximum
# matching (all but the last), or that admit every cell at once (the last)
GROWTH_CASES = {
    "hot column": lambda rng, n, m: [[9] + [0] * (m - 1) for _ in range(n)],
    "hot column over 0-8 noise": lambda rng, n, m: [[9] + [rng.randint(0, 8) for _ in range(m - 1)]
                                                    for _ in range(n)],
    "wide hot column": lambda rng, n, m: [[10 ** 6] + [rng.randrange(10 ** 6) for _ in range(m - 1)]
                                          for _ in range(n)],
    "all tied": lambda rng, n, m: [[5] * m for _ in range(n)],
}


@pytest.mark.parametrize("shape", [(4, 5), (16, 40)], ids=["small", "large"])
@pytest.mark.parametrize("transposed", [False, True], ids=["rows", "columns"])
@pytest.mark.parametrize("case", sorted(GROWTH_CASES))
def test_solver_when_the_admitted_cells_must_grow(case, transposed, shape, monkeypatch):
    n, m = shape
    matrix = GROWTH_CASES[case](random.Random(f"{case}/{n}x{m}"), n, m)
    if transposed:                   # a hot row, and the columns are the lines to match
        matrix = [list(col) for col in zip(*matrix)]
    inst = max_atomic_instance(matrix)
    calls = matcher_calls(monkeypatch)
    owner = solve_leximin(inst).owner
    # every case here first admits its top level alone, on the one-level path
    assert [kind for kind, *_ in calls] == ["one-level"] + ["weighted"] * (len(calls) - 1)
    admitted = [sum(map(len, cells)) for _, cells, *_ in calls]
    assert tuple(sorted((i, j) for j, i in enumerate(owner) if i is not None)) == \
        emaxx_matching(generate_weights(inst).weights)
    if shape == (4, 5):
        _, best = brute_force_leximin(inst)
        assert leximin_compare(utility_vector(inst, Allocation(owner)), best) is Ordering.EQUAL
    # the hot line alone is admitted first, and each retry at least doubles the cells
    assert admitted[0] == (n * m if case == "all tied" else n)
    assert (len(admitted) == 1) == (case == "all tied")
    assert all(after >= min(2 * before, n * m) for before, after in zip(admitted, admitted[1:]))
    # each retry admits the cells down to the first level, walked top down,
    # whose running count of cells reaches twice the cells admitted before
    counts = list(itertools.accumulate(
        k for _, k in sorted(Counter(itertools.chain.from_iterable(matrix)).items(), reverse=True)))
    assert admitted[1:] == [next(count for count in counts if count >= min(2 * before, n * m))
                            for before in admitted[:-1]]


def square_floor_case(n, top, seed):
    """An n x n demand matrix, demands 0..top, whose column 0 peaks below
    every row's largest demand, with a perfect matching on the cells at or
    above that peak: a random permutation, its column-0 cell at the peak and
    its other cells above it."""
    rng = random.Random(seed)
    peak = top // 4
    matrix = [[rng.randint(0, peak)] + [rng.randint(0, top) for _ in range(n - 1)] for _ in range(n)]
    perm = rng.sample(range(n), n)
    for i, j in enumerate(perm):
        matrix[i][j] = peak if j == 0 else rng.randint(peak + 1, top)
    matrix[perm.index(0)][1] = top   # that row, too, needs a demand above the peak
    return matrix, peak


@pytest.mark.parametrize("top", [9, 10 ** 6], ids=["narrow", "wide"])
@pytest.mark.parametrize("n", [5, 30])
def test_solver_on_a_square_matrix_starts_at_the_column_floor(n, top, monkeypatch):
    """Column 0 holds no demand above the column floor, so the row floor
    admits no perfect matching; one _assign call on the cells at or above the
    column floor solves the instance."""
    matrix, peak = square_floor_case(n, top, f"square/{n}/{top}")
    row_floor = min(map(max, matrix))
    col_floor = min(map(max, zip(*matrix)))
    assert col_floor == peak < row_floor
    inst = max_atomic_instance(matrix)
    calls = []
    assign = fairdiv.solver._assign

    def counted(costs, width):
        calls.append({(i, j) for i, row in enumerate(costs) for j in row})
        return assign(costs, width)

    monkeypatch.setattr(fairdiv.solver, "_assign", counted)
    assert leximin_pairs(inst) == emaxx_matching(generate_weights(inst).weights)
    assert calls == [{(i, j) for i in range(n) for j in range(n)
                      if matrix[i][j] >= min(row_floor, col_floor)}]


@pytest.mark.parametrize("top", [9, 10 ** 6], ids=["narrow", "wide"])
@pytest.mark.parametrize("n", [2, 5, 30])
def test_solver_on_a_square_matrix_whose_rows_all_peak_at_the_top(n, top, monkeypatch):
    """Every row holds the top demand but column 0 does not, so the top
    demands are not the first floor's one level: no one-level matching, and
    one weighted matching on the cells at or above the column floor."""
    matrix, peak = square_floor_case(n, top, f"square top/{n}/{top}")
    rng = random.Random(f"square top/{n}/{top}")
    for row in matrix:
        row[rng.randrange(1, n)] = top
    assert set(map(max, matrix)) == {top}
    assert min(map(max, zip(*matrix))) == max(row[0] for row in matrix) == peak < top
    inst = max_atomic_instance(matrix)
    calls = matcher_calls(monkeypatch)
    assert leximin_pairs(inst) == emaxx_matching(generate_weights(inst).weights)
    assert calls == [("weighted", [[j for j in range(n) if row[j] >= peak] for row in matrix])]


def leximin_pairs(inst):
    return tuple(sorted((i, j) for j, i in enumerate(solve_leximin(inst).owner) if i is not None))


def growth_case(case, n, m, transposed=False):
    matrix = GROWTH_CASES[case](random.Random(case), n, m)
    return [list(col) for col in zip(*matrix)] if transposed else matrix


@given(demand_shapes(3))
@example(growth_case("all tied", 6, 20))
@example(growth_case("all tied", 6, 20, transposed=True))
@example(growth_case("hot column", 6, 20))
@example(growth_case("hot column", 6, 20, transposed=True))
@example(growth_case("hot column over 0-8 noise", 6, 20))
@example(growth_case("hot column over 0-8 noise", 6, 20, transposed=True))
@settings(max_examples=40, deadline=None)
def test_solve_leximin_equals_the_emaxx_copy_on_narrow_demands(matrix):
    """solve_leximin weighs only the admitted demand levels; its matching is
    the one of the whole weight family."""
    inst = max_atomic_instance(matrix)
    assert leximin_pairs(inst) == emaxx_matching(generate_weights(inst).weights)


@given(demand_shapes(10 ** 6))
@example(growth_case("wide hot column", 6, 20))
@example(growth_case("wide hot column", 6, 20, transposed=True))
@settings(max_examples=40, deadline=None)
def test_solve_leximin_equals_the_emaxx_copy_on_wide_demands(matrix):
    inst = max_atomic_instance(matrix)
    assert leximin_pairs(inst) == emaxx_matching(generate_weights(inst).weights)


def test_solve_leximin_weighs_only_the_admitted_levels(monkeypatch):
    """20 x 1000 distinct demands: the whole family would be a running
    product over 20,000 levels, so no full family may be built, and every
    cost stays within the bits of the cells admitted."""
    def forbidden(*args):
        raise AssertionError("the whole weight family was built")

    monkeypatch.setattr(fairdiv.solver, "generate_weights", forbidden)
    monkeypatch.setattr(fairdiv.solver, "min_weight_max_matching", forbidden)
    n, m = 20, 1000
    demands = random.Random(201000).sample(range(10 ** 9), n * m)
    inst = max_atomic_instance([demands[i * m:(i + 1) * m] for i in range(n)])
    calls = []
    assign = fairdiv.solver._assign

    def counted(costs, width):
        admitted = sum(map(len, costs))
        calls.append(admitted)
        assert all(cost.bit_length() <= admitted + 1 for row in costs for cost in row.values())
        return assign(costs, width)

    monkeypatch.setattr(fairdiv.solver, "_assign", counted)
    assert sum(who is not None for who in solve_leximin(inst).owner) == n
    assert calls and calls[-1] < n * m



@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "demands 0-3"])
@pytest.mark.parametrize("shape", [(3000, 3), (3, 3000)], ids=["tall", "wide"])
def test_weighted_matching_of_a_long_thin_matrix_adds_no_lines(shape, ties, monkeypatch):
    """The lexicographic pass of each weighted matching runs on the
    instance's own shape and tight cells, and its searches read no more
    cells than the matrix holds; dummy lines built as lists to pad it to
    square would hold millions of cells here."""
    n, m = shape
    rng = random.Random(f"thin/{n}x{m}/{ties}")
    if ties:
        matrix = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
        matrix[0][0] = 4                            # the lines' largest demands differ
    else:
        demands = rng.sample(range(10 ** 6), n * m)
        matrix = [demands[i * m:(i + 1) * m] for i in range(n)]
    passes, reads = [], []
    lex, path_end = fairdiv.solver._lex_max_matching, fairdiv.solver._path_end

    def recorded(rows, cols, adj, *start):
        passes.append((rows, cols, sum(map(len, adj)), bool(start)))
        return lex(rows, cols, adj, *start)

    class Reads(list):
        """Counts the cells (a row's columns) or flags its indexing hands out."""
        def __getitem__(self, k):
            got = list.__getitem__(self, k)
            reads.append(len(got) if isinstance(got, list) else 1)
            return got

    def counted(adj, row_of, col_of, queue, first, via, loose=None):
        return path_end(Reads(adj), row_of, col_of, queue, first, via, loose and Reads(loose))

    monkeypatch.setattr(fairdiv.solver, "_lex_max_matching", recorded)
    monkeypatch.setattr(fairdiv.solver, "_path_end", counted)
    assert sum(who is not None for who in solve_leximin(max_atomic_instance(matrix)).owner) == min(n, m)
    assert passes and all(rows == n and cols == m and cells <= n * m and weighted
                          for rows, cols, cells, weighted in passes)
    assert sum(reads) <= n * m

# ---------------------------------------------------------------------------
# the one-level path: every admitted cell on the top demand level

@st.composite
def admitted_cells(draw):
    """(n, m, adj): a short or tall shape up to 8 x 12, each row's admitted
    columns ascending, at one drawn density from none to every cell."""
    short = draw(st.integers(0, 8))
    long = draw(st.integers(short, 12))
    n, m = (long, short) if draw(st.booleans()) else (short, long)
    density = draw(st.integers(0, 10))
    cells = draw(st.lists(st.lists(st.integers(0, 9), min_size=m, max_size=m), min_size=n, max_size=n))
    return n, m, [[j for j, x in enumerate(row) if x < density] for row in cells]


def unit_weight_matching(n, m, adj):
    """``_lex_max_matching`` by the e-maxx copy on 0/1 costs, 0 on the cells
    of ``adj`` and 1 elsewhere: its optimum, as the row of each column, or
    None when that optimum uses a 1."""
    if not n or not m:
        return [-1] * m
    pairs = emaxx_matching([[0 if j in cols else 1 for j in range(m)] for cols in adj])
    if any(j not in adj[i] for i, j in pairs):
        return None
    row_of = [-1] * m
    for i, j in pairs:
        row_of[j] = i
    return row_of


@given(admitted_cells())
@example((3, 4, [[0], [0], [0]]))                               # no maximum matching
@example((3, 3, [[0, 1], [0, 2], [0, 2]]))                      # row 1 pushes row 2 on
@example((5, 3, [[], [1, 2], [1], [0, 2], [0]]))                # an unmatched row re-covers
@example((4, 3, [[0, 2], [0, 1], [0, 1], [0, 1]]))              # an unmatched row takes over
@settings(max_examples=400, deadline=None)
def test_lex_max_matching_equals_the_unit_weight_matching(case):
    n, m, adj = case
    assert _lex_max_matching(n, m, adj) == unit_weight_matching(n, m, adj)


@st.composite
def two_level_demands(draw):
    """Demands from {0, top} or {top - 1, top}, in the shapes of
    ``admitted_cells`` with at least one row and column."""
    top = draw(st.integers(1, 9))
    levels = draw(st.sampled_from([(0, top), (top - 1, top)]))
    short = draw(st.integers(1, 8))
    long = draw(st.integers(short, 12))
    n, m = (long, short) if draw(st.booleans()) else (short, long)
    return draw(st.lists(st.lists(st.sampled_from(levels), min_size=m, max_size=m), min_size=n, max_size=n))


@given(two_level_demands())
@example([[]])                                                  # no resources
@example([[], [], []])
@example([[0, 0, 0], [0, 0, 0]])                                # every demand 0
@example([[3, 0, 3, 3]])                                        # a single row
@example([[0], [2], [2]])                                       # a single column
@example([[1, 0], [1, 0], [0, 0], [1, 1]])                      # n > m, two rows unmatched
@example([[1, 0, 1], [1, 1, 0], [1, 1, 0], [1, 1, 0]])          # n > m, an unmatched row takes over
@example([[1, 0], [1, 0]])                                      # every row peaks, a column does not
@example([[1, 0], [1, 0], [1, 0]])                              # n > m, a column lacks the top
@settings(max_examples=200, deadline=None)
def test_solve_leximin_equals_the_emaxx_copy_on_two_levels(matrix):
    inst = max_atomic_instance(matrix)
    expected = emaxx_matching(generate_weights(inst).weights) if matrix[0] else ()
    assert leximin_pairs(inst) == expected


def test_solve_leximin_on_one_level_makes_no_weighted_matching(monkeypatch):
    """110 x 110, demands 0-9: every row and column holds a 9, and the 9s
    hold a perfect matching, so the lexicographic matching alone solves it."""
    rng = random.Random(110)
    inst = max_atomic_instance([[rng.randint(0, 9) for _ in range(110)] for _ in range(110)])
    expected = min_weight_max_matching(generate_weights(inst)).pairs

    def forbidden(*args):
        raise AssertionError("_assign was called")

    monkeypatch.setattr(fairdiv.solver, "_assign", forbidden)
    assert leximin_pairs(inst) == expected


def test_solve_leximin_retries_a_one_level_miss_on_the_weighted_matching(monkeypatch):
    """The hot column alone holds no maximum matching: the lexicographic
    matching says so once, and the retry's cells go to the weighted matching."""
    n, m = 6, 20
    inst = max_atomic_instance(growth_case("hot column", n, m))
    calls = matcher_calls(monkeypatch)
    assert leximin_pairs(inst) == emaxx_matching(generate_weights(inst).weights)
    # twice the 6 hot cells reach down to demand 0: the retry admits every cell
    assert calls == [("one-level", [[0]] * n, None), ("weighted", [list(range(m))] * n)]


# ---------------------------------------------------------------------------
# the solver


def test_solve_leximin_two_by_two():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    alloc = solve_leximin(inst)
    assert alloc.owner == (1, 0)
    assert utility_vector(inst, alloc).sorted() == (Fraction(3), Fraction(4))


def test_solve_leximin_single_agent():
    inst = max_atomic_instance([[7, 2]])
    alloc = solve_leximin(inst)
    assert utility_vector(inst, alloc).values == (Fraction(7),)


def test_solve_leximin_zero_row_cannot_be_helped():
    inst = max_atomic_instance([[0, 0], [9, 0]])
    vec = utility_vector(inst, solve_leximin(inst))
    assert vec.sorted() == (Fraction(0), Fraction(9))


def test_solve_leximin_without_resources():
    assert min_weight_max_matching([[], []]) == Matching(())
    assert solve_leximin(max_atomic_instance([[], []])) == Allocation(())


def test_solve_leximin_rejects_additive():
    with pytest.raises(WrongUtilityKind):
        solve_leximin(additive_instance([[1]]))


def test_unmatched_resources_stay_unallocated():
    inst = max_atomic_instance([[3, 2, 1]])
    alloc = solve_leximin(inst)
    assert alloc.owner.count(None) == 2
    assert alloc.owner[0] == 0


@given(demand_matrices)
def test_each_agent_gets_at_most_one_resource(matrix):
    alloc = solve_leximin(max_atomic_instance(matrix))
    held = [who for who in alloc.owner if who is not None]
    assert len(held) == len(set(held)) == min(len(matrix), len(matrix[0]))


@given(demand_matrices, st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=60)
def test_scaling_demands_keeps_the_matching(matrix, p, q):
    """Weights see only the demand ordering, so a positive rational rescale
    must leave the chosen pair set untouched."""
    scale = Fraction(p, q)
    inst = max_atomic_instance(matrix)
    scaled = max_atomic_instance([[scale * d for d in row] for row in matrix])
    assert solve_leximin(inst).owner == solve_leximin(scaled).owner


@given(demand_matrices)
@settings(max_examples=80)
def test_solver_matches_brute_force(matrix):
    inst = max_atomic_instance(matrix)
    solved = utility_vector(inst, solve_leximin(inst))
    _, best = brute_force_leximin(inst)
    assert leximin_compare(solved, best) is Ordering.EQUAL


@given(rational_matrices)
@example([[(1, 2), (2, 3)], [(3, 4), (1, 6)], [(2, 6), (5, 4)], [(1, 3), (1, 1)]])   # n > m: transposed
@settings(max_examples=80)
def test_solver_matches_brute_force_on_rationals(matrix):
    inst = rational_document(matrix)
    solved = utility_vector(inst, solve_leximin(inst))
    _, best = brute_force_leximin(inst)
    assert leximin_compare(solved, best) is Ordering.EQUAL


# ---------------------------------------------------------------------------
# the decision variant


def test_decide_lmmuab_examples():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    assert decide_lmmuab(inst, [1, 5])
    assert not decide_lmmuab(inst, [3, 4])     # the optimum itself
    assert not decide_lmmuab(inst, [4, 4])
    zero = max_atomic_instance([[0], [0]])
    assert not decide_lmmuab(zero, [0, 0])


def test_decide_lmmuab_accepts_utility_vector():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    assert decide_lmmuab(inst, UtilityVector([Fraction(5, 2), 4]))


def test_decide_lmmuab_length_mismatch():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    with pytest.raises(ContractError):
        decide_lmmuab(inst, [1, 2, 3])
