"""Exact leximin solver for max-atomic (single best item) utilities.

Under max-atomic utilities there is always a leximin-optimal allocation that
gives each agent at most one resource, so the problem collapses to an
assignment problem.  The trick is to turn demands into *weights* that reverse
the order (bigger demand = smaller weight) so steeply that a minimum-weight
maximum-cardinality matching is forced to be leximin-optimal: each weight
strictly exceeds the total weight of all strictly-larger demands, which makes
"raising the lowest utility" always worth more than any combination of gains
above it.

Weights grow exponentially (they are exact big integers), so the matching is
solved on Python ints by successive shortest augmenting paths with row and
column potentials (the Jonker-Volgenant form of the Hungarian method) rather
than by a floating point library routine.  Among the optima the answer is
the lexicographically smallest sorted pair list, read off the potentials:
the optima are the maximum matchings of the cells they leave tight that
cover every position of negative potential.

The same domination lets ``solve_leximin`` weigh and match only the cells of
the top demand levels, once they hold a maximum matching (see its docstring).
Its first floor is the smallest largest demand of the lines every maximum
matching covers, so the usual solve is one shortest-augmenting-path pass; a
floor that admits too few cells falls to the level that at least doubles
them, read off the demands ranked once.  When every line peaks at the
largest demand (on a square matrix, every column too, which the positions
of that demand show), every admitted cell weighs the same, so only the
tie-break can tell two maximum matchings apart: that instance is solved as
the lexicographically smallest maximum matching, by alternating paths over
the admitted cells alone, with no weights.  Column maxima are read only for
a square matrix of more than one level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .model import (Allocation, ContractError, Instance, MaxAtomic, Ordering,
                    UtilityVector, WrongUtilityKind, leximin_compare,
                    utility_vector)


@dataclass(frozen=True)
class WeightMatrix:
    """Per (agent, resource) matching weights: non-negative big integers,
    strictly antitone in the demand (equal demands get equal weights)."""

    weights: tuple[tuple[int, ...], ...]

    def __init__(self, weights: Iterable[Iterable[int]]):
        rows = []
        for i, row in enumerate(weights):
            row = tuple(row)
            for j, w in enumerate(row):
                if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                    raise ContractError(f"weights[{i}][{j}]: expected a non-negative int, got {w!r}")
            if rows and len(row) != len(rows[0]):
                raise ContractError("weight matrix must be rectangular")
            rows.append(row)
        object.__setattr__(self, "weights", tuple(rows))


def _level_weights(cells: Iterable[int]) -> dict[int, int]:
    """Each demand level's weight S + 1, S the total weight of the ``cells``
    at larger levels.  Since (S + 1)(k + 1) = S + (S + 1)k + 1, it is kept as
    a running product, largest level first: a level of k cells multiplies it
    by k + 1.  So a level's weight depends only on the levels above it."""
    weight_of: dict[int, int] = {}
    w = 1
    for level, k in sorted(Counter(cells).items(), reverse=True):
        weight_of[level] = w
        w *= k + 1
    return weight_of


def generate_weights(instance: Instance) -> WeightMatrix:
    """Map each demand to its rank weight, ``_level_weights`` over all cells.

    This gives the strictly antitone, dominating weight family the matching
    step relies on:

      * larger demand  <=>  strictly smaller weight,
      * every weight exceeds the sum, over all matrix cells with strictly
        larger demand, of their weights; so ``solve_leximin`` may solve on
        the top demand levels alone.
    """
    if not isinstance(instance.utilities, MaxAtomic):
        raise WrongUtilityKind("weight generation needs max-atomic demands")
    # demand levels as the instance's scaled ints: scaling keeps their order and equality
    levels = instance.utilities.rows
    weight_of = _level_weights(chain.from_iterable(levels))
    return WeightMatrix(tuple(tuple(map(weight_of.__getitem__, row)) for row in levels))


def check_weight_invariants(instance: Instance, weights: WeightMatrix) -> None:
    """Raise ContractError unless ``weights`` is a valid weight matrix for the
    instance's demands: positive entries, demand-determined, strictly
    antitone, and each weight > sum of weights at strictly larger demands."""
    if not isinstance(instance.utilities, MaxAtomic):
        raise WrongUtilityKind("weight invariants are defined against max-atomic demands")
    demands, scale = instance.utilities.rows, instance.utilities.scale
    n, m = instance.num_agents, instance.num_resources
    rows = weights.weights
    if len(rows) != n or (rows and len(rows[0]) != m):
        raise ContractError("weight matrix shape does not match the instance")
    # demands as scaled ints, shown as the rationals they stand for
    flat = [(demands[i][j], rows[i][j]) for i in range(n) for j in range(m)]
    for d, w in flat:
        if w <= 0:
            raise ContractError(f"weight for demand {Fraction(d, scale)} is not positive")
    by_demand: dict[int, int] = {}
    total_at: dict[int, int] = {}
    for d, w in flat:
        if d in by_demand and by_demand[d] != w:
            raise ContractError(f"demand {Fraction(d, scale)} maps to two different weights")
        by_demand[d] = w
        total_at[d] = total_at.get(d, 0) + w
    ordered = sorted(by_demand, reverse=True)
    for smaller, larger in zip(ordered[1:], ordered):
        if by_demand[smaller] <= by_demand[larger]:
            raise ContractError(
                f"weights are not strictly antitone: demand {Fraction(smaller, scale)} -> "
                f"{by_demand[smaller]}, demand {Fraction(larger, scale)} -> {by_demand[larger]}")
    # prefix sums over strictly larger demands
    above = 0
    for d in ordered:
        if by_demand[d] <= above:
            raise ContractError(
                f"weight {by_demand[d]} for demand {Fraction(d, scale)} does not dominate the {above} "
                f"total weight sitting at larger demands")
        above += total_at[d]


@dataclass(frozen=True)
class Matching:
    """A set of (row, col) pairs, no row or column used twice."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        pairs = tuple(sorted(tuple(p) for p in pairs))
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ContractError("matching reuses a row or column")
        object.__setattr__(self, "pairs", pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


_UNREACHED = float("inf")                # above every int, however large


def _assign(costs: list[dict[int, int]], m: int) -> Optional[tuple[list[int], ...]]:
    """Minimum-cost assignment of every row to a distinct column, over the
    cells present in the per-row ``{col: cost}`` maps, with its potentials:
    ``(col_of_row, row_of_col, u, v)``; None when no such assignment exists.

    Successive shortest augmenting paths, the Jonker-Volgenant form of the
    Kuhn-Munkres method: each new row runs Dijkstra over the reduced costs
    ``cost[i][j] - u[i] - v[j]``, which the row potentials ``u`` and column
    potentials ``v`` keep non-negative, relaxing only the cells of the rows
    it reaches.  The reached, unscanned columns wait in a heap of
    ``(distance, matched, column)`` entries, so that at equal distance a free
    column pops first; a column is pushed again only at a strictly smaller
    distance, so an entry whose distance is no longer the column's is stale
    and skipped.  A Dijkstra whose heap runs out before it reaches a free
    column proves that no augmenting path exists.  The column potentials are
    updated once per augmentation, over the scanned columns only, and only
    ever fall: ``v`` stays at most 0, and 0 on every column left free.  The
    reduced cost is 0 on the matched cells.  Pure Python ints, so the huge
    exact costs never lose precision.
    """
    from heapq import heapify, heappop, heappush   # here, so loading the module imports nothing more
    n = len(costs)
    u = [0] * n
    v = [0] * m
    row_of_col = [-1] * m
    col_of_row = [-1] * n
    for s in range(n):
        dist = [_UNREACHED] * m
        pred = [s] * m
        frontier = []                       # (distance, matched, column), reached, not yet scanned
        for col, c in costs[s].items():
            dist[col] = d = c - v[col]      # u[s] is still 0
            frontier.append((d, row_of_col[col] >= 0, col))
        heapify(frontier)
        scanned = []
        while True:
            if not frontier:
                return None
            d, _, j = heappop(frontier)
            if d != dist[j]:
                continue
            scanned.append(j)
            i = row_of_col[j]
            if i < 0:
                break
            base = d - u[i]
            # a scanned column's distance is at most d, so the strict test
            # below never reopens it
            for col, c in costs[i].items():
                d = base + c - v[col]
                if d < dist[col]:
                    dist[col] = d
                    heappush(frontier, (d, row_of_col[col] >= 0, col))
                    pred[col] = i
        sink = dist[j]
        for col in scanned:
            v[col] += dist[col] - sink
        _shift(col_of_row, row_of_col, pred, j, s)
        for col in scanned:             # matched cells get reduced cost 0
            i = row_of_col[col]
            u[i] = costs[i][col] - v[col]
    return col_of_row, row_of_col, u, v


def _match_lines(n: int, m: int, lines: Sequence[dict[int, int]]) -> Optional[list[int]]:
    """The matching of ``min_weight_max_matching`` on an n x m matrix, as the
    row of each column (-1 if free), solved on the admitted ``{position:
    weight}`` cells of each line that must be matched (rows if n <= m, else
    columns), positions ascending; None when they hold no maximum matching.
    By complementary slackness, a maximum matching is optimal exactly when
    its cells are tight under ``_assign``'s potentials (reduced cost 0) and
    it covers every position of potential below 0, as ``_assign``'s own
    does; ``_lex_max_matching`` finds the smallest such."""
    if (matched := _assign(lines, max(n, m))) is None:
        return None
    pos_of, line_of, u, v = matched
    if n <= m:
        adj = [[j for j, w in line.items() if w - u[i] == v[j]] for i, line in enumerate(lines)]
        return _lex_max_matching(n, m, adj, (pos_of, line_of), [x == 0 for x in v])
    adj = [[] for _ in range(n)]                   # the lines were the columns
    for j, line in enumerate(lines):
        for i, w in line.items():
            if w - u[j] == v[i]:
                adj[i].append(j)
    return _lex_max_matching(n, m, adj, (line_of, pos_of), [x == 0 for x in v])


def _path_end(adj: Sequence[Sequence[int]], row_of: list[int], col_of: list[int], queue: list,
              first: int, via: dict[int, int], loose: Optional[Sequence[bool]] = None) -> Optional[int]:
    """Breadth-first search for an alternating path from ``queue``'s (row,
    columns it may take) pairs: a row takes one of them not yet in ``via``,
    and that column's owner, if it is a row from ``first`` on, must take
    another it admits in turn.  Returns the free column where the path ends,
    or None.  ``via`` maps each column reached to the row that takes it, so
    after a failed search it holds the columns whose owners cannot move.

    With ``loose`` (see ``_lex_max_matching``) the search runs as if dummy
    lines after the real ones padded the matrix to square: a dummy row on
    each free column, admitting the loose columns (n <= m), or a dummy
    column on each unmatched row, admitted by the loose rows (n > m); the
    first queued row's column is the only free one.  The dummies are alike,
    so the first one reached stands for all: ``via[-1]`` is the column by
    which the dummy row was reached, or the row that took a dummy column
    (column -1, returned when the first row had none to leave).
    """
    n, m, cur = len(col_of), len(row_of), col_of[queue[0][0]]
    anywhere = loose is None or (n <= m and loose[cur])   # cur may stay free
    for r, cols in queue:
        if loose is not None and n > m and r >= first and loose[r] and -1 not in via:
            via[-1] = r                         # r drops out onto a dummy column
            if cur < 0:
                return -1
            queue += [(o, adj[o]) for o in range(first, n) if col_of[o] < 0]
        for c in cols:
            if c not in via:
                via[c] = r
                o = row_of[c]
                if o >= first:
                    queue.append((o, adj[o]))
                elif o < 0:
                    if c == cur or anywhere:
                        return c
                    if -1 not in via:           # the dummy row on c moves to a loose column
                        via[-1] = c
                        queue.append((-1, [x for x in range(m) if loose[x]]))
    return None


def _shift(col_of: list[int], row_of: list[int], via: Union[dict, list], c: int, last: int) -> None:
    """Give each row on the path ``via`` (``_path_end``'s, or ``_assign``'s
    ``pred``) that ends at column c the column it takes, back to row ``last``."""
    while True:
        r = via[c]
        if r < 0:                               # the dummy row takes c, which goes free
            row_of[c], c = -1, via[-1]
            continue
        if c >= 0:
            row_of[c] = r
        col_of[r], c = c, col_of[r]
        if r == last:
            return


def _lex_max_matching(n: int, m: int, adj: Sequence[Sequence[int]], start: Optional[tuple] = None,
                      loose: Optional[Sequence[bool]] = None) -> Optional[list[int]]:
    """The lexicographically smallest sorted pair list among the matchings of
    size min(n, m) on the cells ``adj`` (each row's admitted columns,
    ascending), as the row of each column (-1 if free); None when the cells
    hold none.  From a ``start`` ``(col_of, row_of)``, the smallest of those
    that leave free only the columns (n <= m) or rows (n > m) marked
    ``loose``, as ``start`` does.  This is the one tie-break rule: the
    one-level path and ``_match_lines`` both end here.

    With no start, each row takes its smallest free column, in row order,
    and augmenting paths from the unmatched rows grow that to min(n, m)
    (Berge).  Then the rows are decided in order: row i takes the first
    column j it admits below its own (any, if it has none) from which
    ``_path_end`` finds a path over the later rows.  A row that a failed
    search reached cannot reach a free column in the next one either, so
    the searches for one row visit each cell once.
    """
    if start is None:
        col_of, row_of = [-1] * n, [-1] * m
        for i, cols in enumerate(adj):
            for j in cols:
                if row_of[j] < 0:
                    row_of[j], col_of[i] = i, j
                    break
        size, want = n - col_of.count(-1), min(n, m)
        for s in range(n):
            if size < want and col_of[s] < 0:
                if (end := _path_end(adj, row_of, col_of, [(s, adj[s])], 0, via := {})) is not None:
                    _shift(col_of, row_of, via, end, s)
                    size += 1
        if size < want:
            return None
        start, loose = (col_of, row_of), [True] * max(n, m)
    col_of, row_of = start
    for i in range(n):
        cur, via = col_of[i], {}
        if cur >= 0:
            row_of[cur] = -1                    # free while i looks for a smaller column
        for j in adj[i]:
            if j == cur:
                break
            if 0 <= row_of[j] < i or j in via:  # held by a decided row, or by one that cannot move
                continue
            if (end := _path_end(adj, row_of, col_of, [(i, (j,))], i + 1, via, loose)) is not None:
                _shift(col_of, row_of, via, end, i)
                break
        if cur >= 0 and col_of[i] == cur:
            row_of[cur] = i
    return row_of


def _places(row: Sequence[int], x: int) -> list[int]:
    """The positions of ``x`` in ``row``, ascending, found by ``index`` scans."""
    places, j = [], -1
    try:
        while True:
            places.append(j := row.index(x, j + 1))
    except ValueError:
        return places


def min_weight_max_matching(weights: Union[WeightMatrix, Sequence[Sequence[int]]]) -> Matching:
    """Minimum total weight among maximum-cardinality matchings.

    Ties on total weight are broken deterministically: among all optimal
    matchings the one whose sorted pair list is lexicographically smallest is
    returned (prefer low row indices matched, then low column indices).
    """
    rows = (weights if isinstance(weights, WeightMatrix) else WeightMatrix(weights)).weights  # reuse validation
    n = len(rows)
    m = len(rows[0]) if rows else 0
    # every row is matched when n <= m, every column otherwise; on every cell
    # a maximum matching always exists
    lines = rows if n <= m else tuple(zip(*rows))
    row_of = _match_lines(n, m, [dict(enumerate(line)) for line in lines])
    return Matching((i, j) for j, i in enumerate(row_of) if i >= 0)


def matching_weight(weights: Union[WeightMatrix, Sequence[Sequence[int]]], matching: Matching) -> int:
    rows = weights.weights if isinstance(weights, WeightMatrix) else [tuple(r) for r in weights]
    return sum(rows[i][j] for i, j in matching)


def solve_leximin(instance: Instance) -> Allocation:
    """Leximin-optimal allocation for a max-atomic instance.

    Each matched agent receives exactly the resource it is matched to;
    unmatched agents (when m < n) receive nothing.  Resources whose column is
    unmatched (when m > n) stay unallocated — under max-atomic utilities
    extra items never help a matched agent.

    The matching is ``min_weight_max_matching`` of ``generate_weights``,
    solved on the admitted cells, those of demand at least a floor D.  A
    level's weight depends only on the levels above it, so weighing the
    admitted levels alone gives their cells their weights in the whole
    family, and each cell below D weighs more than the admitted total W.
    An admitted maximum matching weighs at most W, and a matching using a
    cell below D more than that, so when the admitted cells hold a maximum
    matching their optima are the optima, and their smallest is the answer.
    A floor above some matched line's largest demand admits none of that
    line's cells, so D starts at the smallest of the largest demands of the
    lines to be matched: the rows if n <= m, else the columns, and both on a
    square matrix, whose perfect matchings cover both.  While the admitted
    cells hold no maximum matching, D falls to the first lower level
    admitting at least 2k cells (k the cells admitted), or all: that is the
    2k-th largest demand, read off the demands ranked once at the first
    retry.

    When the first floor equals the largest demand, the admitted cells are
    one level and all weigh the same, so every admitted maximum matching
    weighs the same and the tie-break alone picks the optimum: the
    lexicographically smallest sorted pair list.  ``_lex_max_matching``
    finds it on the admitted cells directly; that is exact because the
    admitted optimum is the global optimum, as above.  If those cells hold
    no maximum matching, the retry's floor lies below the top level and the
    weighted matching answers.  The one-level test reads the line maxima and
    the top demand's positions, and column maxima only on a square
    multi-level matrix.
    """
    if not isinstance(instance.utilities, MaxAtomic):
        raise WrongUtilityKind("the leximin solver needs max-atomic demands")
    n, m = instance.num_agents, instance.num_resources
    demands = instance.utilities.rows
    lines = demands if n <= m else tuple(zip(*demands))   # none if n or m is 0

    def admit(floor: int) -> list[dict[int, int]]:
        kept = [{x: d for x, d in enumerate(line) if d >= floor} for line in lines]
        weight_of = _level_weights(chain.from_iterable(map(dict.values, kept)))
        return [{x: weight_of[d] for x, d in line.items()} for line in kept]

    tops = list(map(max, lines))
    top, floor = max(tops, default=0), min(tops, default=0)
    if floor == top:                               # every line peaks at the top demand
        admitted = [_places(row, top) for row in demands]
    # a square matrix's columns count too, unless the top demands reach them all
    if n == m and (floor < top or len(set().union(*admitted)) < m):
        floor = min(floor, *map(max, zip(*lines)))
    ranked: list[int] = []
    if floor == top:                               # one level: every admitted cell weighs 1
        row_of = _lex_max_matching(n, m, admitted)
    else:
        row_of = _match_lines(n, m, admitted := admit(floor))
    while row_of is None:
        ranked = ranked or sorted(chain.from_iterable(lines), reverse=True)
        floor = ranked[min(2 * sum(map(len, admitted)), n * m) - 1]
        row_of = _match_lines(n, m, admitted := admit(floor))
    return Allocation(None if i < 0 else i for i in row_of)


def beats_threshold(optimum: UtilityVector, threshold: Union[UtilityVector, Sequence[object]]) -> bool:
    """Is ``optimum`` strictly above ``threshold`` in the leximin order?
    Raises ContractError when the two lengths differ."""
    if not isinstance(threshold, UtilityVector):
        threshold = UtilityVector(threshold)
    if len(threshold) != len(optimum):
        raise ContractError(f"threshold has {len(threshold)} entries for {len(optimum)} agents")
    return leximin_compare(threshold, optimum) is Ordering.LESS


def decide_lmmuab(instance: Instance, threshold: Union[UtilityVector, Sequence[object]]) -> bool:
    """Threshold decision: is the leximin optimum strictly above ``threshold``
    in the leximin order?  (The acronym names the underlying decision problem:
    leximin-maximal max-utility allocation with atomic bids.)"""
    return beats_threshold(utility_vector(instance, solve_leximin(instance)), threshold)
