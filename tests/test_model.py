import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Additive,
    Allocation,
    ContractError,
    Instance,
    MaxAtomic,
    Ordering,
    UtilityVector,
    WrongUtilityKind,
    additive_instance,
    bundle_utility,
    dominates,
    find_envy,
    is_envy_free,
    leximin_compare,
    max_atomic_instance,
    utility_vector,
)
from fairdiv.model import bundles_of, envy_in_rows

rationals = st.fractions(max_denominator=20)
demand_values = st.integers(min_value=0, max_value=9)


def small_matrix(values, max_n=4, max_m=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_m).flatmap(
            lambda m: st.lists(
                st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n)))


@st.composite
def additive_with_allocation(draw, values=st.integers(-5, 5)):
    matrix = draw(small_matrix(values))
    inst = additive_instance(matrix)
    owner = draw(st.lists(
        st.one_of(st.none(), st.integers(0, inst.num_agents - 1)),
        min_size=inst.num_resources, max_size=inst.num_resources))
    return inst, Allocation(owner)


# ---------------------------------------------------------------------------
# construction and validation


def test_instance_basic_shape():
    inst = additive_instance([[1, 2], [3, 4]])
    assert inst.num_agents == 2
    assert inst.num_resources == 2
    assert inst.kind == "additive"
    assert inst.agents == ("a1", "a2")
    assert inst.resources == ("o1", "o2")
    assert inst.matrix[1][0] == Fraction(3)


def test_max_atomic_kind_and_exactness():
    inst = max_atomic_instance([[Fraction(1, 2), 3]])
    assert inst.kind == "max-atomic"
    assert inst.matrix[0][0] == Fraction(1, 2)


def test_utilities_are_one_int_matrix_and_one_scale():
    plain = Additive([[3, -1], [0, 2]])
    assert plain.rows == ((3, -1), (0, 2)) and plain.scale == 1
    assert all(type(c) is int for row in plain.rows for c in row)
    mixed = Additive([[1, Fraction(1, 2)], [Fraction(-1, 3), Fraction(4, 2)]])
    assert mixed.rows == ((6, 3), (-2, 12)) and mixed.scale == 6
    assert mixed.matrix == ((1, Fraction(1, 2)), (Fraction(-1, 3), 2))
    # the scale is the lcm of the reduced denominators, so equal matrices are held alike
    assert Additive([[Fraction(2, 2), Fraction(3, 6)]]) == Additive([[1, Fraction(1, 2)]])
    assert Additive([[1]]) != MaxAtomic([[1]])
    demands = MaxAtomic([[Fraction(1, 4), 0]])
    assert demands.rows == ((1, 0),) and demands.scale == 4
    with pytest.raises(ContractError, match=r"demands\[0\]\[1\]: .* got -1/4"):
        MaxAtomic([[0, Fraction(-1, 4)]])
    with pytest.raises(ContractError, match=r"coefficients\[1\]\[0\]"):
        Additive([[1], [True]])


def test_zero_resources_allowed():
    inst = additive_instance([[], []])
    assert inst.num_resources == 0
    assert utility_vector(inst, Allocation.empty(0)).values == (Fraction(0), Fraction(0))


def test_zero_agents_rejected():
    with pytest.raises(ContractError):
        Instance((), ("o1",), Additive(((),)))


def test_duplicate_ids_rejected():
    with pytest.raises(ContractError):
        additive_instance([[1], [2]], agents=["a", "a"])
    with pytest.raises(ContractError):
        additive_instance([[1, 2]], resources=["o", "o"])


@pytest.mark.parametrize("agents, utilities, message", [
    (["a", 5], Additive([[1], [2]]), "agent ids must be non-empty strings"),
    (["a"], [[1]], "unsupported utility model: [[1]]"),
], ids=["agent-id", "utility-model"])
def test_instance_names_what_it_rejects(agents, utilities, message):
    with pytest.raises(ContractError) as e:
        Instance(agents, ["o"], utilities)
    assert str(e.value) == message


def test_ragged_matrix_rejected():
    with pytest.raises(ContractError):
        additive_instance([[1, 2], [3]])


def test_agent_count_must_match_matrix():
    with pytest.raises(ContractError):
        additive_instance([[1], [2]], agents=["only-one"])


def test_floats_rejected_everywhere():
    with pytest.raises(ContractError):
        additive_instance([[0.5]])
    with pytest.raises(ContractError):
        max_atomic_instance([[1.25]])


def test_negative_demand_rejected():
    with pytest.raises(ContractError):
        max_atomic_instance([[3, -1]])
    # negative additive coefficients are fine
    assert additive_instance([[-1, 2]]).matrix[0][0] == Fraction(-1)


def test_allocation_validation():
    with pytest.raises(ContractError):
        Allocation([True])
    with pytest.raises(ContractError):
        Allocation([-1])
    alloc = Allocation([None, 0])
    assert bundles_of(alloc.owner, 1) == [[1]]


def test_allocation_must_fit_instance():
    inst = additive_instance([[1, 2]])
    with pytest.raises(ContractError):
        utility_vector(inst, Allocation([0]))           # too short
    with pytest.raises(ContractError):
        utility_vector(inst, Allocation([5, None]))     # no such agent


# ---------------------------------------------------------------------------
# bundle utility


def test_bundle_utility_additive_sums():
    inst = additive_instance([[1, 2, 3]])
    assert bundle_utility(inst, 0, [0, 2]) == 4


def test_bundle_utility_max_atomic():
    inst = max_atomic_instance([[5, 3]])
    assert bundle_utility(inst, 0, []) == 0
    assert bundle_utility(inst, 0, [0, 1]) == 5
    assert bundle_utility(inst, 0, [1]) == 3


def test_bundle_utility_index_errors():
    inst = additive_instance([[1]])
    with pytest.raises(ContractError):
        bundle_utility(inst, 1, [0])
    with pytest.raises(ContractError):
        bundle_utility(inst, 0, [1])


@given(small_matrix(demand_values, max_m=5), st.data())
def test_max_atomic_utility_is_monotone(matrix, data):
    inst = max_atomic_instance(matrix)
    m = inst.num_resources
    smaller = data.draw(st.sets(st.integers(0, m - 1)))
    extra = data.draw(st.sets(st.integers(0, m - 1)))
    larger = smaller | extra
    assert bundle_utility(inst, 0, smaller) <= bundle_utility(inst, 0, larger)


# ---------------------------------------------------------------------------
# utility vectors and leximin comparison


def test_utility_vector_unallocated_is_zero():
    inst = additive_instance([[1], [1]])
    vec = utility_vector(inst, Allocation.empty(1))
    assert vec.values == (Fraction(0), Fraction(0))


def test_utility_vector_max_atomic_example():
    inst = max_atomic_instance([[5, 3], [4, 1]])
    vec = utility_vector(inst, Allocation([1, 0]))   # o1 -> a2, o2 -> a1
    assert vec.values == (Fraction(3), Fraction(4))
    assert vec.sorted() == (Fraction(3), Fraction(4))


def test_utilities_stay_ints_on_an_integral_instance():
    for inst in (additive_instance([[1, 2], [3, -4]]), max_atomic_instance([[1, 2], [3, 4]])):
        vec = utility_vector(inst, Allocation([0, 1]))
        assert [type(v) for v in vec.values] == [int, int]
        assert type(bundle_utility(inst, 1, [0, 1])) is int


def test_utilities_are_fractions_on_a_fractional_instance():
    for inst in (additive_instance([[Fraction(1, 2), 2], [3, 4]]),
                 max_atomic_instance([[Fraction(1, 2), 2], [3, 4]])):
        vec = utility_vector(inst, Allocation([0, 1]))
        assert [type(v) for v in vec.values] == [Fraction, Fraction]
        assert type(bundle_utility(inst, 1, [0, 1])) is Fraction
    assert utility_vector(additive_instance([[Fraction(1, 2), 2]]), Allocation([0, 0])).values == (Fraction(5, 2),)


def test_utility_vector_keeps_the_types_it_is_given():
    vec = UtilityVector([1, Fraction(1, 2)])
    assert [type(v) for v in vec.values] == [int, Fraction]
    assert vec.sorted() == (Fraction(1, 2), 1)
    for bad in (0.5, True):
        with pytest.raises(ContractError, match=r"utility\[1\]"):
            UtilityVector([1, bad])


def test_utility_vector_names_the_first_rejected_value():
    for bad, shown in ((0.5, "0.5"), (True, "True"), (None, "None"), ("1/2", "'1/2'")):
        with pytest.raises(ContractError) as e:
            UtilityVector([1, Fraction(1, 2), bad, 0.25])
        assert str(e.value) == f"utility[2]: expected an exact rational, got {shown}"


def test_leximin_compare_examples():
    assert leximin_compare(UtilityVector([1, 5]), UtilityVector([3, 4])) is Ordering.LESS
    assert leximin_compare(UtilityVector([2, 7]), UtilityVector([7, 2])) is Ordering.EQUAL
    assert leximin_compare(UtilityVector([1, 3, 3]), UtilityVector([1, 2, 9])) is Ordering.GREATER


def test_leximin_compare_length_mismatch():
    with pytest.raises(ContractError):
        leximin_compare(UtilityVector([1]), UtilityVector([1, 2]))


vectors = st.lists(rationals, min_size=1, max_size=5).map(UtilityVector)


@given(vectors, vectors)
def test_leximin_trichotomy(u, v):
    if len(u) != len(v):
        v = UtilityVector(list(v.values[: len(u)]) + [0] * max(0, len(u) - len(v)))
    forward = leximin_compare(u, v)
    backward = leximin_compare(v, u)
    flipped = {Ordering.LESS: Ordering.GREATER,
               Ordering.GREATER: Ordering.LESS,
               Ordering.EQUAL: Ordering.EQUAL}
    assert backward is flipped[forward]
    assert (forward is Ordering.EQUAL) == (u.sorted() == v.sorted())


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_leximin_transitive(rows):
    u, v, w = (UtilityVector(r) for r in rows)
    le = {Ordering.LESS, Ordering.EQUAL}
    if leximin_compare(u, v) in le and leximin_compare(v, w) in le:
        assert leximin_compare(u, w) in le


@given(st.lists(rationals, min_size=1, max_size=6), st.randoms())
def test_leximin_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert leximin_compare(UtilityVector(values), UtilityVector(shuffled)) is Ordering.EQUAL


# ---------------------------------------------------------------------------
# envy


def test_single_agent_never_envies():
    inst = additive_instance([[7, 7]])
    assert is_envy_free(inst, Allocation([0, None]))


def test_envy_witness_two_agents_one_item():
    inst = additive_instance([[1], [1]])
    # the item goes to the first agent; the second envies them
    assert find_envy(inst, Allocation([0])) == (1, 0)
    assert not is_envy_free(inst, Allocation([0]))
    assert find_envy(inst, Allocation([None])) is None


@given(additive_with_allocation())
def test_envy_witness_is_valid(case):
    inst, alloc = case
    pair = find_envy(inst, alloc)
    if pair is None:
        assert is_envy_free(inst, alloc)
    else:
        i, j = pair
        bundles = bundles_of(alloc.owner, inst.num_agents)
        assert bundle_utility(inst, i, bundles[j]) > bundle_utility(inst, i, bundles[i])


def _envy_by_definition(inst, alloc):
    """The first envious pair by the n^2 bundle_utility double loop."""
    bundles = bundles_of(alloc.owner, inst.num_agents)
    for i in range(inst.num_agents):
        own = bundle_utility(inst, i, bundles[i])
        for j in range(inst.num_agents):
            if i != j and bundle_utility(inst, i, bundles[j]) > own:
                return (i, j)
    return None


@st.composite
def instance_with_allocation(draw):
    """Additive instances with negative values and mixed denominators, or
    max-atomic ones, with any partial allocation."""
    if draw(st.booleans()):
        inst = additive_instance(draw(small_matrix(rationals, max_n=5, max_m=6)))
    else:
        values = st.fractions(min_value=0, max_value=9, max_denominator=12)
        inst = max_atomic_instance(draw(small_matrix(values, max_n=5, max_m=6)))
    owner = draw(st.lists(
        st.one_of(st.none(), st.integers(0, inst.num_agents - 1)),
        min_size=inst.num_resources, max_size=inst.num_resources))
    return inst, Allocation(owner)


@given(instance_with_allocation())
def test_find_envy_matches_bundle_utility(case):
    inst, alloc = case
    assert find_envy(inst, alloc) == _envy_by_definition(inst, alloc)


def _price_by_definition(inst, row, bundle):
    """What ``bundle`` is worth to the agent whose ``inst.matrix`` row is
    ``row``: the Fraction sum of its cells if additive, else the best cell,
    0 if empty."""
    cells = [row[j] for j in bundle]
    if isinstance(inst.utilities, Additive):
        return sum(cells, Fraction(0))
    return max(cells) if cells else Fraction(0)


@given(instance_with_allocation())
def test_bundle_rule_matches_the_definition(case):
    inst, alloc = case
    n = inst.num_agents
    bundles = bundles_of(alloc.owner, n)
    prices = [[_price_by_definition(inst, row, bundle) for bundle in bundles] for row in inst.matrix]
    for i in range(n):
        for j in range(n):
            assert bundle_utility(inst, i, bundles[j]) == prices[i][j]
    assert utility_vector(inst, alloc).values == tuple(prices[i][i] for i in range(n))
    envious = [(i, j) for i in range(n) for j in range(n) if i != j and prices[i][j] > prices[i][i]]
    assert find_envy(inst, alloc) == (envious[0] if envious else None)


@st.composite
def allocation_with_patches(draw):
    """An additive instance with mixed denominators, a complete allocation,
    and up to four patches, each moving resources of its own to any agent."""
    inst = additive_instance(draw(small_matrix(rationals, max_n=4, max_m=6)))
    n, m = inst.num_agents, inst.num_resources
    owner = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    free = draw(st.permutations(range(m)))
    patches = []
    for size in draw(st.lists(st.integers(1, 2), max_size=4)):
        chosen, free = free[:size], free[size:]
        patches.append([(j, owner[j], draw(st.integers(0, n - 1))) for j in chosen])
    return inst, owner, patches


@given(allocation_with_patches())
def test_envy_in_family_is_the_first_envy_of_any_member(case):
    inst, owner, patches = case
    pairs = []
    for applied in itertools.product((False, True), repeat=len(patches)):
        member = list(owner)
        for moves in itertools.compress(patches, applied):
            for j, _, to in moves:
                member[j] = to
        pairs.append(find_envy(inst, Allocation(member)))
    expected = min((p for p in pairs if p is not None), default=None)
    assert envy_in_rows(inst.utilities, owner, patches) == expected


@st.composite
def small_cells_with_owner(draw):
    """An additive instance with cells -2..2 or a max-atomic one with
    demands 0..2, so zero cells are common, and a partial owner vector."""
    additive = draw(st.booleans())
    matrix = draw(small_matrix(st.integers(-2 if additive else 0, 2), max_n=4, max_m=6))
    inst = (additive_instance if additive else max_atomic_instance)(matrix)
    owner = draw(st.lists(st.one_of(st.none(), st.integers(0, inst.num_agents - 1)),
                          min_size=inst.num_resources, max_size=inst.num_resources))
    return inst, owner


@given(small_cells_with_owner())
@settings(max_examples=400)
def test_envy_in_rows_on_an_owner_vector_matches_bundle_utility(case):
    inst, owner = case
    assert envy_in_rows(inst.utilities, owner) == _envy_by_definition(inst, Allocation(owner))


def test_envy_in_family_needs_additive_utilities():
    inst = max_atomic_instance([[1, 2], [2, 1]])
    with pytest.raises(WrongUtilityKind):
        envy_in_rows(inst.utilities, [[0], [1]], [[(0, 0, 1)]])


def test_envy_in_rows_without_patches_takes_max_atomic_utilities():
    inst = max_atomic_instance([[1, 2], [2, 1]])
    pairs = set()
    for owner in itertools.product((None, 0, 1), repeat=2):
        pair = envy_in_rows(inst.utilities, owner)
        assert pair == find_envy(inst, Allocation(owner))
        pairs.add(pair)
    assert pairs == {None, (0, 1), (1, 0)}


def test_find_envy_mixed_denominators_by_row():
    # row 0 in thirds, row 1 in halves: 1/3 + 1/3 < 3/4 for agent 0
    inst = additive_instance([[Fraction(1, 3), Fraction(1, 3), Fraction(3, 4)],
                              [Fraction(1, 2), Fraction(-1, 2), 1]])
    assert find_envy(inst, Allocation([0, 0, 1])) == (0, 1)
    assert find_envy(inst, Allocation([1, 1, 0])) == (1, 0)
    assert find_envy(inst, Allocation([0, 1, None])) == (1, 0)


# ---------------------------------------------------------------------------
# dominance


def test_dominates_examples():
    inst = additive_instance([[1]])
    allocated = Allocation([0])
    unallocated = Allocation([None])
    assert dominates(inst, allocated, unallocated)
    assert not dominates(inst, unallocated, allocated)
    assert not dominates(inst, allocated, allocated)


@given(additive_with_allocation(), additive_with_allocation())
def test_dominates_irreflexive_and_asymmetric(case_a, case_b):
    inst, alloc = case_a
    assert not dominates(inst, alloc, alloc)
    other_inst, other = case_b
    if (other_inst.num_agents, other_inst.num_resources) == (inst.num_agents, inst.num_resources):
        if dominates(inst, other, alloc):
            assert not dominates(inst, alloc, other)


@given(additive_with_allocation(), additive_with_allocation())
def test_zero_column_padding_changes_nothing(case_a, case_b):
    """An extra resource nobody values, left unallocated, is inert."""
    inst, alloc = case_a
    _, other = case_b
    padded = additive_instance([list(row) + [0] for row in inst.matrix])
    pad = Allocation(alloc.owner + (None,))
    assert utility_vector(padded, pad).values == utility_vector(inst, alloc).values
    assert is_envy_free(padded, pad) == is_envy_free(inst, alloc)
    if len(other.owner) == len(alloc.owner) and max(
            (w for w in other.owner if w is not None), default=0) < inst.num_agents:
        other_pad = Allocation(other.owner + (None,))
        assert dominates(padded, other_pad, pad) == dominates(inst, other, alloc)
        assert dominates(padded, pad, other_pad) == dominates(inst, alloc, other)


def test_dominates_needs_strict_gain():
    inst = additive_instance([[1, 1], [1, 1]])
    base = Allocation([0, 1])
    swap = Allocation([1, 0])
    assert not dominates(inst, swap, base)   # same utilities both sides
    assert not dominates(inst, base, swap)
