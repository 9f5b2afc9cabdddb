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
solved with an arbitrary-precision Hungarian algorithm rather than a floating
point library routine.
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
    """Per (agent, resource) matching weights: positive big integers,
    strictly antitone in the demand (equal demands get equal weights)."""

    weights: tuple[tuple[int, ...], ...]

    def __init__(self, weights: Iterable[Iterable[int]]):
        rows = []
        width = None
        for i, row in enumerate(weights):
            row = tuple(row)
            for j, w in enumerate(row):
                if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                    raise ContractError(f"weights[{i}][{j}]: expected a non-negative int, got {w!r}")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ContractError("weight matrix must be rectangular")
            rows.append(row)
        object.__setattr__(self, "weights", tuple(rows))


def generate_weights(instance: Instance) -> WeightMatrix:
    """Map each demand to its rank weight.

    Distinct demand values are visited in decreasing order; a value gets
    weight S + 1 where S is the total weight already handed out (counting
    multiplicity).  This gives the strictly antitone, dominating weight
    family the matching step relies on:

      * larger demand  <=>  strictly smaller weight,
      * every weight exceeds the sum, over all matrix cells with strictly
        larger demand, of their weights.
    """
    if not isinstance(instance.utilities, MaxAtomic):
        raise WrongUtilityKind("weight generation needs max-atomic demands")
    # demand levels as the instance's scaled ints: scaling keeps their order and equality
    levels = instance.utilities.rows
    counts = Counter(chain.from_iterable(levels))
    weight_of: dict[int, int] = {}
    handed_out = 0
    for level in sorted(counts, reverse=True):
        w = handed_out + 1
        weight_of[level] = w
        handed_out += w * counts[level]
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


def _hungarian(cost: list[list[int]]) -> list[int]:
    """Minimum-cost perfect assignment of every row to some column.

    Requires len(cost) <= len(cost[0]).  Classic O(rows^2 * cols) potentials
    formulation, kept in pure Python ints so the huge exact weights never
    lose precision.  Returns col_of_row.
    """
    n, m = len(cost), len(cost[0])
    INF = 1 + 2 * sum(max(row) for row in cost)
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)        # p[j] = 1-based row matched to column j
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
            row = cost[i0 - 1]
            du = u[i0]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - du - v[j]
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


def min_weight_max_matching(weights: Union[WeightMatrix, Sequence[Sequence[int]]]) -> Matching:
    """Minimum total weight among maximum-cardinality matchings.

    Ties on total weight are broken deterministically: among all optimal
    matchings the one whose sorted pair list is lexicographically smallest is
    returned (prefer low row indices matched, then low column indices).
    """
    if isinstance(weights, WeightMatrix):
        rows = weights.weights
    else:
        rows = WeightMatrix(weights).weights      # reuse validation
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if n == 0 or m == 0:
        return Matching(())

    # Encode the tie-break as an exact perturbation.  With C > max(n, m) + 1,
    # maximizing sum of C^(n-i) * (m-j) over max-cardinality matchings picks
    # exactly the lexicographically smallest sorted pair set, because each
    # C^(n-i) outweighs everything later rows/columns can contribute.  Scaling
    # the true weights by S = (max total perturbation) + 1 keeps them senior.
    C = max(n, m) + 3
    top = C ** (n + 1)
    S = min(n, m) * top + 1
    aug = []
    for i, row in enumerate(rows):
        rank = C ** (n - i)
        aug.append([w * S + top - rank * (m - j) for j, w in enumerate(row)])

    if n <= m:
        col_of_row = _hungarian(aug)
        pairs = [(i, col_of_row[i]) for i in range(n) if col_of_row[i] >= 0]
    else:
        row_of_col = _hungarian([list(col) for col in zip(*aug)])
        pairs = [(row_of_col[j], j) for j in range(m) if row_of_col[j] >= 0]
    return Matching(pairs)


def matching_weight(weights: Union[WeightMatrix, Sequence[Sequence[int]]], matching: Matching) -> int:
    rows = weights.weights if isinstance(weights, WeightMatrix) else [tuple(r) for r in weights]
    return sum(rows[i][j] for i, j in matching)


def solve_leximin(instance: Instance) -> Allocation:
    """Leximin-optimal allocation for a max-atomic instance.

    Each matched agent receives exactly the resource it is matched to;
    unmatched agents (when m < n) receive nothing.  Resources whose column is
    unmatched (when m > n) stay unallocated — under max-atomic utilities
    extra items never help a matched agent.
    """
    weights = generate_weights(instance)
    matching = min_weight_max_matching(weights)
    owner: list[Optional[int]] = [None] * instance.num_resources
    for i, j in matching:
        owner[j] = i
    return Allocation(owner)


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
