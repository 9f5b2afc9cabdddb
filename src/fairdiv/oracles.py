"""Exact searches and the exhaustive references they are tested against.

The command line runs the searches: the pruned Pareto-improvement search
``_pareto_search`` (behind ``find_dominating_allocation`` and
``is_pareto_optimal``), whose tables are built once per instance and shared
by every certification of the envy-free-and-efficient search
``brute_force_eef``; and the DPLL decision ``sat_on_partial``.  The
references ``brute_force_leximin``, ``dominating_allocation_by_enumeration``,
``sat_by_enumeration`` and ``ae3cnf_eval`` enumerate every candidate through
one capped product, and refuse a space above their fixed cap.

Verdicts are three-valued: Yes (with a checkable witness where one exists),
No (meaning the search space was exhausted), or Unknown (the node budget ran
out first).  Budgets count search nodes, not wall time, so runs are
reproducible.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .formulas import (AEFormula, CnfFormula, PartialAssignment, clause_status,
                       formula_satisfied)
from .model import (Additive, Allocation, ContractError, Instance, Record,
                    UtilityVector, WrongUtilityKind, bundle_totals, bundles_of,
                    check_allocation, dominates, envy_in_rows, scaled_utilities,
                    utility_vector)


class SearchSpaceTooLarge(ContractError):
    """The requested exhaustive enumeration is bigger than its hard cap."""


def _capped_product(options: Sequence, k: int, cap: int) -> Iterator[tuple]:
    """Every k-tuple over ``options``, in lexicographic order; refuses more
    than ``cap`` of them before yielding any."""
    states = len(options) ** k
    if states > cap:
        raise SearchSpaceTooLarge(f"{len(options)}^{k} = {states} candidates exceed the cap {cap}")
    return itertools.product(options, repeat=k)


class SearchBudget(Record):
    """Deterministic resource limit: the maximum number of search nodes a
    procedure may visit before giving up with Unknown."""

    __slots__ = ("max_nodes",)         # int

    def __init__(self, max_nodes: int):
        if isinstance(max_nodes, bool) or not isinstance(max_nodes, int) or max_nodes <= 0:
            raise ContractError(f"max_nodes must be a positive int, got {max_nodes!r}")
        super().__init__(max_nodes)


DEFAULT_BUDGET = SearchBudget(10_000_000)


class VerdictKind(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class TriVerdict(Record):
    """Outcome of a budgeted search.

    ``nodes`` is the number of nodes actually visited; for a Yes it locates
    the witness, for a No it doubles as the completed-search certificate.
    """

    __slots__ = ("kind", "witness", "nodes")   # VerdictKind, object, int

    def __init__(self, kind: VerdictKind, witness: object = None, nodes: int = 0):
        super().__init__(kind, witness, nodes)

    @classmethod
    def yes(cls, witness: object = None, nodes: int = 0) -> "TriVerdict":
        return cls(VerdictKind.YES, witness, nodes)

    @classmethod
    def no(cls, nodes: int = 0) -> "TriVerdict":
        return cls(VerdictKind.NO, None, nodes)

    @classmethod
    def unknown(cls, nodes: int = 0) -> "TriVerdict":
        return cls(VerdictKind.UNKNOWN, None, nodes)

    @property
    def is_yes(self) -> bool:
        return self.kind is VerdictKind.YES

    @property
    def is_no(self) -> bool:
        return self.kind is VerdictKind.NO

    @property
    def is_unknown(self) -> bool:
        return self.kind is VerdictKind.UNKNOWN


class _OutOfBudget(Exception):
    pass


class _Counter:
    """Shared node meter for searches that must split one budget."""

    __slots__ = ("used", "limit")

    def __init__(self, budget: SearchBudget):
        self.used = 0
        self.limit = budget.max_nodes

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _OutOfBudget


# ---------------------------------------------------------------------------
# exhaustive leximin

def brute_force_leximin(instance: Instance) -> tuple[Allocation, UtilityVector]:
    """Leximin optimum by enumerating all (n+1)^m allocations.

    Deterministic tie-break: the first optimum in lexicographic order of the
    owner vector (unallocated before agent 0 before agent 1, ...), the one
    ``max`` keeps.  Refuses more than 2*10^6 allocations.
    """
    n, m = instance.num_agents, instance.num_resources
    utilities = instance.utilities       # a positive scale keeps the leximin order and its ties
    owner = max(_capped_product((None, *range(n)), m, 2_000_000),
                key=lambda owners: sorted(bundle_totals(utilities, bundles_of(owners, n))))
    allocation = Allocation(owner)
    return allocation, utility_vector(instance, allocation)


# ---------------------------------------------------------------------------
# Pareto-improvement search

def _pareto_search(rows: Sequence[Sequence[int]]) -> Callable[[list[int], _Counter], Optional[list]]:
    """Return ``search(base, counter)``: depth-first search for an allocation
    whose utility vector weakly dominates ``base`` with a strict gain.

    Search space: every resource with some strictly positive coefficient is
    placed on one of its positive-coefficient agents; all other resources
    are left unallocated.  This loses no generality — in any dominating
    allocation, moving a positively-valued resource onto a positive agent
    (or dropping a non-positively-valued one) never breaks dominance — and
    shrinks the tree enormously.

    Pruning: ``gap[i]`` = current utility + best-case remaining gain - base.
    A placement is feasible only if it keeps every gap non-negative, and a
    node dies when the welfare bound fails: a dominator's utilities sum to
    at least sum(base) + 1, and a node can reach at most the takers' cells
    of its placed columns plus ``colmax[j]``, the largest cell, of each
    unplaced one, except that an unplaced column with a single violator v
    (see below) can only go to v, so it is worth ``rows[v][j]``.  ``margin``
    is that bound less sum(base) + 1, and the node dies when ``margin < 0``.

    This bound also kills every node where no agent can still end strictly
    above its baseline, so no count of such agents is kept.  The gaps sum
    to the takers' cells of the placed columns plus every positive cell of
    each unplaced column, less sum(base).  An unplaced column's positive
    cells sum to at least its ``colmax``, and each single-violator shortfall
    ``colmax[j] - rows[v][j]`` is >= 0, so the gaps sum to at least
    ``margin`` + 1, for any ``base``.  With every gap <= 0, ``margin`` <= -1.

    Branching: an agent i with a positive cell c in column j is a violator
    of j while ``gap[i] < c``, since i cannot afford to lose j.  So the
    feasible owners of an unplaced column are fixed by its violator count:
    with none, every positive agent (in agent order); with one, that agent
    alone; with two or more, nobody, and the branch is dead.  A column is
    critical if it is dead or has a single feasible owner (one violator, or
    one positive agent).  Each node takes the lowest critical column if
    there is one, else the first unplaced column of ``order`` — the column a
    scan of every unplaced column in index order, stopping at the first with
    at most one feasible owner, would choose.

    Built once from ``rows``, for every search: per agent its positive
    cells sorted by coefficient (``col``, ``coef``); per column its positive
    agents (``pos``), their number (``size``) and largest cell (``colmax``);
    ``order``, the columns with a positive cell by ``size`` (ties in index
    order), and each column's ``rank`` in it; all read off nonzero cells.

    Built by each search from ``base`` and kept current as placements are made
    and taken back, so a node costs work in proportion to the gaps it moves:
    - per agent, ``top[i]``, how many of its positive cells it can still
      afford (coefficient <= ``gap[i]``);
    - ``viol[j]``, the violator count of each unplaced column, and
      ``vsum[j]``, the sum of its violators' indices (the violator itself
      when there is one); a placed column keeps both as they were when it
      was placed, which is what taking the placement back restores;
    - ``margin``, the welfare bound less sum(base) + 1;
    - ``crit``, the unplaced critical columns; ``owner``, None if unplaced.
    """
    from bisect import bisect_right        # here, so loading the module imports nothing more
    m = len(rows[0]) if rows else 0
    pos: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    col: list[list[int]] = []
    coef: list[list[int]] = []
    colmax = [0] * m
    for i, row in enumerate(rows):
        ks = [j for j in itertools.compress(range(m), row) if row[j] > 0]
        for j in ks:
            c = row[j]
            pos[j].append((i, c))
            if c > colmax[j]:
                colmax[j] = c
        ks.sort(key=row.__getitem__)             # stable: ties stay in column order
        col.append(ks)
        coef.append([row[j] for j in ks])
    size = [len(column) for column in pos]
    order = sorted((j for j in range(m) if size[j]), key=size.__getitem__)
    rank = [0] * m
    for r, j in enumerate(order):
        rank[j] = r

    def search(base: list[int], counter: _Counter) -> Optional[list[Optional[int]]]:
        gap = [sum(cs) - b for cs, b in zip(coef, base)]
        if min(gap, default=0) < 0:          # a base off every allocation: no dominator reaches it
            return None
        top = [bisect_right(cs, g) for cs, g in zip(coef, gap)]
        viol = [0] * m
        vsum = [0] * m
        for i, (ks, t) in enumerate(zip(col, top)):
            for k in ks[t:]:
                viol[k] += 1
                vsum[k] += i
        margin = (sum(colmax) - sum(base) - 1
                  - sum(colmax[j] - rows[vsum[j]][j] for j in range(m) if viol[j] == 1))
        crit = {j for j in range(m) if size[j] and (viol[j] or size[j] == 1)}
        owner: list[Optional[int]] = [None] * m

        def drain(j: int, taker: int) -> None:
            """Place column ``j`` on ``taker``: every other positive agent loses its cell."""
            nonlocal margin
            if viol[j] == 1:                         # j leaves the single-violator columns
                margin += colmax[j] - rows[vsum[j]][j]
            for i, c in pos[j]:
                if i == taker:
                    margin += c - colmax[j]
                    continue
                new = gap[i] = gap[i] - c
                t = top[i]
                cs = coef[i]
                if t and cs[t - 1] > new:            # some cells of i just became unaffordable
                    lo = top[i] = bisect_right(cs, new, 0, t - 1)
                    for k in col[i][lo:t]:
                        if owner[k] is None:         # k is unplaced
                            had = viol[k]
                            viol[k] = had + 1
                            vsum[k] += i
                            crit.add(k)
                            if had == 0:             # i is its single violator
                                margin -= colmax[k] - rows[i][k]
                            elif had == 1:           # its single violator is one of two
                                margin += colmax[k] - rows[vsum[k] - i][k]

        def refill(j: int, taker: int) -> None:
            """Take back the placement of column ``j`` on ``taker``."""
            nonlocal margin
            for i, c in pos[j]:
                if i == taker:
                    margin -= c - colmax[j]
                    continue
                new = gap[i] = gap[i] + c
                t = top[i]
                cs = coef[i]
                if t < len(cs) and cs[t] <= new:     # some cells of i are affordable again
                    hi = top[i] = bisect_right(cs, new, t + 1)
                    for k in col[i][t:hi]:
                        if owner[k] is None:         # k is unplaced
                            left = viol[k] = viol[k] - 1
                            vsum[k] -= i
                            if left == 0:            # i was its single violator
                                margin += colmax[k] - rows[i][k]
                                if size[k] > 1:
                                    crit.discard(k)
                            elif left == 1:          # the other violator is now single
                                margin -= colmax[k] - rows[vsum[k]][k]
            if viol[j] == 1:                         # j rejoins the single-violator columns
                margin -= colmax[j] - rows[vsum[j]][j]

        # per placed column, innermost last: (column, its candidates not yet tried);
        # an explicit stack, so the depth is not bounded by Python's recursion limit
        stack: list[tuple[int, Iterator[int]]] = []
        nodes, limit = counter.used, counter.limit
        cursor = 0                                   # every column of order[:cursor] is placed
        try:
            while True:
                nodes += 1                           # a node: the placements on the stack
                if nodes > limit:
                    raise _OutOfBudget
                if margin >= 0:                      # else the utilities cannot sum above sum(base)
                    if len(stack) == len(order):     # the stack holds every placed column
                        return list(owner)
                    if crit:                         # dead, or its one violator or positive agent
                        j = min(crit)
                        cands = [] if viol[j] > 1 else [vsum[j] if viol[j] else pos[j][0][0]]
                    else:
                        while owner[order[cursor]] is not None:
                            cursor += 1
                        j = order[cursor]
                        cands = [i for i, _ in pos[j]]
                    if cands:
                        crit.discard(j)
                        stack.append((j, iter(cands)))
                # place the next candidate of the innermost column that has one left
                while stack:
                    j, untried = stack[-1]
                    if owner[j] is not None:         # take back the placement tried last
                        refill(j, owner[j])
                    owner[j] = next(untried, None)
                    if owner[j] is not None:
                        drain(j, owner[j])
                        break
                    stack.pop()
                    cursor = min(cursor, rank[j])
                    if viol[j] or size[j] == 1:
                        crit.add(j)
                else:
                    return None
        finally:
            counter.used = nodes

    return search


def _dominator_search(rows: Sequence[Sequence[int]], base: list[int],
                      counter: _Counter) -> Optional[list[Optional[int]]]:
    """One search of ``_pareto_search(rows)``, its tables built for this call."""
    return _pareto_search(rows)(base, counter)


def find_dominating_allocation(instance: Instance, baseline: Allocation,
                               budget: SearchBudget = DEFAULT_BUDGET) -> TriVerdict:
    """Search for a Pareto improvement over ``baseline`` (additive instances).

    Yes carries a verified dominating allocation; No means the pruned search
    space was exhausted; Unknown means the node budget ran out first.
    """
    if not isinstance(instance.utilities, Additive):
        raise WrongUtilityKind("the improvement search works on additive instances")
    base = scaled_utilities(instance, baseline)     # also validates the allocation
    counter = _Counter(budget)
    try:
        owner = _dominator_search(instance.utilities.rows, base, counter)
    except _OutOfBudget:
        return TriVerdict.unknown(counter.used)
    if owner is None:
        return TriVerdict.no(counter.used)
    witness = Allocation(owner)
    if not dominates(instance, witness, baseline):   # re-verify before reporting
        raise AssertionError("internal error: search produced a non-dominating witness")
    return TriVerdict.yes(witness, counter.used)


def dominating_allocation_by_enumeration(instance: Instance, baseline: Allocation) -> Optional[Allocation]:
    """Unpruned reference: scan every (n+1)^m allocation for a dominator.
    Refuses more than 5*10^5 allocations."""
    if not isinstance(instance.utilities, Additive):
        raise WrongUtilityKind("the improvement search works on additive instances")
    n, m = instance.num_agents, instance.num_resources
    for owners in _capped_product((None, *range(n)), m, 500_000):
        challenger = Allocation(owners)
        if dominates(instance, challenger, baseline):
            return challenger
    return None


def is_pareto_optimal(instance: Instance, allocation: Allocation,
                      budget: SearchBudget = DEFAULT_BUDGET) -> TriVerdict:
    """Pareto-optimality as the negation of the improvement search.

    Yes means no dominating allocation exists (the node count serves as the
    completed-search certificate); No carries the dominating allocation.
    An instance with no resources is trivially optimal.
    """
    verdict = find_dominating_allocation(instance, allocation, budget)
    if verdict.is_yes:
        return TriVerdict(VerdictKind.NO, verdict.witness, verdict.nodes)
    if verdict.is_no:
        return TriVerdict.yes(None, verdict.nodes)
    return verdict


# ---------------------------------------------------------------------------
# envy-free + Pareto-optimal search

def brute_force_eef(instance: Instance, budget: SearchBudget = DEFAULT_BUDGET,
                    candidates: Optional[Iterable[Allocation]] = None) -> TriVerdict:
    """Search for an allocation that is simultaneously envy-free and
    Pareto-optimal.

    By default it enumerates only the allocations Pareto-optimality allows:
    each column with a positive cell on one of its positive agents, any
    other on nobody or on an agent that values it at 0.  Any other
    allocation is dominated (hand the column to a positive agent, or drop it
    from an owner who values it below 0).  Each column's owners keep the
    order of the full (n+1)^m enumeration, nobody first, so the first
    witness is that enumeration's.  ``candidates`` restricts the search to
    an explicit family instead (then the verdict is relative to that family).
    Envy-freeness is checked first since it needs no search; each envy-free
    candidate is then certified Pareto-optimal against the full allocation
    space by one Pareto search built for the instance.  A single node budget
    covers the outer enumeration and all inner certification searches.
    """
    if not isinstance(instance.utilities, Additive):
        raise WrongUtilityKind("the efficiency certification step needs additive utilities")
    counter = _Counter(budget)
    utilities = instance.utilities
    rows, n = utilities.rows, instance.num_agents
    search = _pareto_search(rows)
    if candidates is None:
        owners_of = [[i for i, c in enumerate(column) if c > 0]
                     or [None, *(i for i, c in enumerate(column) if c == 0)] for column in zip(*rows)]
        owner_vectors = itertools.product(*owners_of)
    else:          # checked as they are drawn; an Allocation only for the witness
        owner_vectors = (c.owner for c in candidates if check_allocation(instance, c) is None)
    try:
        for owners in owner_vectors:
            counter.spend()
            if envy_in_rows(utilities, owners) is not None:
                continue
            if search(bundle_totals(utilities, bundles_of(owners, n)), counter) is None:
                return TriVerdict.yes(Allocation(owners), counter.used)
    except _OutOfBudget:
        return TriVerdict.unknown(counter.used)
    return TriVerdict.no(counter.used)


# ---------------------------------------------------------------------------
# SAT utilities

def _residual_clauses(formula: CnfFormula, fixed: dict[int, bool]) -> Optional[list[tuple[int, ...]]]:
    """The clauses not yet satisfied by ``fixed``, each without its fixed
    literals, or None if ``fixed`` falsifies one of them."""
    for v in fixed:
        if v > formula.num_vars:
            raise ContractError(f"assignment sets variable {v}, formula has {formula.num_vars}")
    residual: list[tuple[int, ...]] = []
    for clause in formula.clauses:
        status = clause_status(clause, fixed)
        if status is True:
            continue
        if status is False:
            return None
        residual.append(tuple(l for l in clause if abs(l) not in fixed))
    return residual


def _sat_witness(formula: CnfFormula, fixed: dict[int, bool], values: dict[int, bool]) -> PartialAssignment:
    """``fixed`` completed by ``values``, every other variable False."""
    full = {v: False for v in range(1, formula.num_vars + 1)}
    full.update(fixed)
    full.update(values)
    return PartialAssignment(full)


def sat_on_partial(formula: CnfFormula, assignment: PartialAssignment = PartialAssignment()) -> TriVerdict:
    """Is the formula satisfiable by some completion of ``assignment``?

    Iterative DPLL: branch on the lowest-numbered free variable, False
    first, with unit propagation after every assignment; an explicit trail
    and decision stack replace recursion.  Propagation sets only values
    that every model below the current node shares, so the first model
    found is the count-up enumeration's first (``sat_by_enumeration``):
    the lexicographically smallest completion, variables that no clause
    constrains set False.  The verdict is always Yes-with-witness or No;
    ``nodes`` counts the branch assignments tried (0 when propagation
    alone decides).
    """
    fixed = assignment.as_dict()
    residual = _residual_clauses(formula, fixed)
    if residual is None:
        return TriVerdict.no(nodes=0)

    # hurt[l]: the clauses holding the negation of l, which l made one literal shorter
    hurt: dict[int, list[tuple[int, ...]]] = {}
    for clause in residual:
        for l in clause:
            hurt.setdefault(-l, []).append(clause)
    order = sorted({abs(l) for clause in residual for l in clause})
    value: dict[int, bool] = {}
    trail: list[int] = []                # the set variables, in the order they were set

    def assign(v: int, b: bool) -> bool:
        """Set v to b and propagate units; False on a conflict."""
        value[v] = b
        trail.append(v)
        head = len(trail) - 1
        while head < len(trail):
            u = trail[head]
            head += 1
            for clause in hurt.get(u if value[u] else -u, ()):
                unit = 0
                for l in clause:
                    held = value.get(abs(l))
                    if held is None:
                        if unit:
                            break            # two free literals: undecided
                        unit = l
                    elif held == (l > 0):
                        break                # satisfied
                else:
                    if not unit:
                        return False         # every literal false
                    value[abs(unit)] = unit > 0
                    trail.append(abs(unit))
        return True

    ok = True
    for clause in residual:
        if len(clause) == 1:
            (l,) = clause
            held = value.get(abs(l))
            ok = assign(abs(l), l > 0) if held is None else held == (l > 0)
            if not ok:
                break
    nodes = 0
    flips: list[tuple[int, int]] = []    # False branches not yet flipped: (index in order, trail length before)
    k = 0
    while True:
        if ok:
            while k < len(order) and order[k] in value:
                k += 1
            if k == len(order):
                return TriVerdict.yes(_sat_witness(formula, fixed, value), nodes)
            flips.append((k, len(trail)))
            nodes += 1
            ok = assign(order[k], False)
            continue
        if not flips:
            return TriVerdict.no(nodes)
        k, mark = flips.pop()
        for v in trail[mark:]:
            del value[v]
        del trail[mark:]
        nodes += 1
        ok = assign(order[k], True)


def sat_by_enumeration(formula: CnfFormula,
                       assignment: PartialAssignment = PartialAssignment()) -> TriVerdict:
    """Unpruned reference for ``sat_on_partial``: enumerate all 2^k
    completions of the k unassigned variables (all-false first, counting
    up) and return the first model.  Refuses more than 2^22 completions."""
    fixed = assignment.as_dict()
    free = [v for v in range(1, formula.num_vars + 1) if v not in fixed]
    residual = _residual_clauses(formula, fixed)
    completions = _capped_product((False, True), len(free), 1 << 22)
    if residual is None:
        return TriVerdict.no(nodes=0)
    nodes = 0
    for bits in completions:
        nodes += 1
        values = dict(zip(free, bits))
        if formula_satisfied(residual, values):
            return TriVerdict.yes(_sat_witness(formula, fixed, values), nodes)
    return TriVerdict.no(nodes)


def ae3cnf_eval(formula: AEFormula) -> bool:
    """Truth of a forall/exists clausal formula, by definition unfolding:
    every assignment of the forall block must leave the clauses satisfiable
    over the exists block.  Refuses more than 2^22 forall assignments; each
    one is decided by ``sat_on_partial``."""
    assignments = _capped_product((False, True), len(formula.forall_vars), 1 << 22)
    cnf = formula.cnf()
    for bits in assignments:
        s = PartialAssignment(dict(zip(formula.forall_vars, bits)))
        if sat_on_partial(cnf, s).is_no:
            return False
    return True
