"""Metamorphic relations: edits of an instance whose effect on the answer is
known, so the answer to the edited instance checks the answer to the
original at sizes that no enumeration reaches.

Each test draws the relation and the instance.  A budgeted search may end
Unknown on either side of a pair; such a pair is skipped and counted, and a
test fails if more than a tenth of its pairs are skipped.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (Allocation, CnfFormula, SearchBudget, additive_instance,
                     is_pareto_optimal, max_atomic_instance, reduce_3cnf_to_po,
                     solve_leximin, utility_vector)

BUDGET = SearchBudget(200_000)


def permutation(rng, size):
    order = list(range(size))
    rng.shuffle(order)
    return order


def assert_few_skipped(pairs):
    assert pairs["all"] > 0
    assert pairs["skipped"] * 10 <= pairs["all"], pairs


# ---------------------------------------------------------------------------
# leximin (max-atomic)


@st.composite
def leximin_cases(draw):
    """(relation, demands, rng): up to 40 x 40 in either orientation, with
    demands from 0 to a top of 1, 2, 9 or 10^6."""
    short = draw(st.integers(1, 40))
    long = draw(st.integers(short, 40))
    n, m = (long, short) if draw(st.booleans()) else (short, long)
    top = draw(st.sampled_from([1, 2, 9, 10 ** 6]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    demands = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
    return draw(st.sampled_from(["square", "agents", "resources"])), demands, rng


@settings(max_examples=400)
@given(leximin_cases())
def test_leximin_relations(case):
    relation, demands, rng = case
    inst = max_atomic_instance(demands)
    solved = solve_leximin(inst)
    if relation == "square":
        # a strictly increasing map fixing 0 keeps every comparison, so the same owners
        squared = max_atomic_instance([[x * x + 3 * x for x in row] for row in demands])
        assert solve_leximin(squared) == solved
        return
    if relation == "agents":
        order = permutation(rng, len(demands))
        edited = [demands[i] for i in order]
    else:
        order = permutation(rng, len(demands[0]))
        edited = [[row[j] for j in order] for row in demands]
    edited_inst = max_atomic_instance(edited)
    assert (utility_vector(edited_inst, solve_leximin(edited_inst)).sorted()
            == utility_vector(inst, solved).sorted())


# ---------------------------------------------------------------------------
# Pareto-optimality (additive)


def pareto_edit(relation, matrix, owner, rng):
    """The edited (matrix, owner) of ``relation``; each edit maps a dominator
    of the allocation to a dominator of the edited one and back."""
    n, m = len(matrix), len(matrix[0])
    if relation == "resources":
        order = permutation(rng, m)
        return [[row[j] for j in order] for row in matrix], [owner[j] for j in order]
    if relation == "agents":
        order = permutation(rng, n)
        position = {old: new for new, old in enumerate(order)}
        return [matrix[i] for i in order], [None if a is None else position[a] for a in owner]
    if relation == "scale":
        agent, factor = rng.randrange(n), rng.randint(1, 5)
        return [[factor * x for x in row] if i == agent else row for i, row in enumerate(matrix)], owner
    return [row + [rng.randint(-3, 0)] for row in matrix], owner + [None]      # "worthless"


@st.composite
def pareto_cases(draw):
    """(relation, matrix, owner, rng): 2-5 agents, 4-14 resources, cells
    from -2 to 6, and a random partial allocation or one that maximizes the
    total utility (so Pareto-optimal) with up to two resources moved."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(4, 14))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    matrix = [[rng.randint(-2, 6) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        owner = [rng.choice([None, *range(n)]) for _ in range(m)]
    else:
        best = [max(range(n), key=lambda i: matrix[i][j]) for j in range(m)]
        owner = [i if matrix[i][j] > 0 else None for j, i in enumerate(best)]
        for j in rng.sample(range(m), draw(st.integers(0, 2))):
            owner[j] = rng.choice([None, *range(n)])
    return draw(st.sampled_from(["resources", "agents", "scale", "worthless"])), matrix, owner, rng


def test_pareto_relations_keep_the_decided_verdict():
    pairs = Counter()

    @settings(max_examples=300)
    @given(pareto_cases())
    def check(case):
        relation, matrix, owner, rng = case
        edited, edited_owner = pareto_edit(relation, matrix, owner, rng)
        before = is_pareto_optimal(additive_instance(matrix), Allocation(owner), BUDGET)
        after = is_pareto_optimal(additive_instance(edited), Allocation(edited_owner), BUDGET)
        pairs["all"] += 1
        if before.is_unknown or after.is_unknown:
            pairs["skipped"] += 1
            return
        assert before.kind is after.kind, (relation, matrix, owner, edited, edited_owner)

    check()
    assert_few_skipped(pairs)


# ---------------------------------------------------------------------------
# the 3CNF -> Pareto-optimality gadget


@st.composite
def renamed_formulas(draw):
    """(formula, renamed): a formula of 3-8 variables and 3-14 clauses of 1-3
    distinct variables, and the same formula with its variables renamed, each
    variable's polarity flipped at random, and its clauses shuffled."""
    num_vars = draw(st.integers(3, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    variables = range(1, num_vars + 1)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(variables, rng.randint(1, 3))]
               for _ in range(draw(st.integers(3, 14)))]
    name = [None, *(v + 1 for v in permutation(rng, num_vars))]
    sign = [None, *(rng.choice([1, -1]) for _ in range(num_vars))]
    renamed = [[sign[abs(lit)] * name[abs(lit)] * (1 if lit > 0 else -1) for lit in clause]
               for clause in clauses]
    rng.shuffle(renamed)
    return CnfFormula(num_vars, clauses), CnfFormula(num_vars, renamed)


def test_renaming_a_formula_keeps_the_decided_gadget_verdict():
    """Renaming keeps satisfiability, so it keeps the verdict on the baseline,
    which is Pareto-optimal exactly when the formula is unsatisfiable."""
    pairs = Counter()

    @settings(max_examples=200)
    @given(renamed_formulas())
    def check(formulas):
        verdicts = []
        for formula in formulas:
            reduction = reduce_3cnf_to_po(formula)
            verdicts.append(is_pareto_optimal(reduction.instance, reduction.baseline, BUDGET))
        pairs["all"] += 1
        if any(verdict.is_unknown for verdict in verdicts):
            pairs["skipped"] += 1
            return
        assert verdicts[0].kind is verdicts[1].kind, formulas

    check()
    assert_few_skipped(pairs)
