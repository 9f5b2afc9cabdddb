"""Answers computed apart from the program under test.

Nothing here imports ``fairdiv``: every expected verdict the benchmark checks
comes from these routines, written from the definitions in the paper rather
than from the package's code.  Exact arithmetic throughout (``int`` and
``fractions.Fraction``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# leximin for max-atomic demands

def leximin_exhaustive(demands):
    """Sorted leximin-optimal utility vector by scanning all (n+1)^m
    allocations (each resource unallocated or given to one agent), with the
    max-atomic bundle value.  Only for tiny shapes."""
    n = len(demands)
    m = len(demands[0]) if n else 0
    best = None
    for owners in itertools.product(range(-1, n), repeat=m):
        utils = [0] * n
        for j, i in enumerate(owners):
            if i >= 0 and demands[i][j] > utils[i]:
                utils[i] = demands[i][j]
        key = sorted(utils)
        if best is None or key > best:
            best = key
    return best


def min_cost_assignment(cost):
    """Exact minimum-cost perfect assignment of a square matrix of
    non-negative ints: successive shortest augmenting paths (Dijkstra on
    reduced costs) with row and column potentials, the Jonker-Volgenant form
    of the Kuhn-Munkres method.  Returns ``col_of_row``."""
    k = len(cost)
    u = [0] * k
    v = [0] * k
    row_of_col = [-1] * k
    col_of_row = [-1] * k
    for s in range(k):
        cs, us = cost[s], u[s]
        dist = [cs[j] - us - v[j] for j in range(k)]
        pred = [s] * k
        unscanned = list(range(k))
        scanned = []
        while True:
            j = min(unscanned, key=dist.__getitem__)
            unscanned.remove(j)
            scanned.append(j)
            i = row_of_col[j]
            if i < 0:
                break
            ci, base = cost[i], dist[j] - u[i]
            for col in unscanned:
                d = base + ci[col] - v[col]
                if d < dist[col]:
                    dist[col] = d
                    pred[col] = i
        sink_dist = dist[j]
        for col in scanned:
            v[col] += dist[col] - sink_dist
        while True:                    # flip the path back to s
            i = pred[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == s:
                break
        for col in scanned:            # matched edges get reduced cost 0
            i = row_of_col[col]
            u[i] = cost[i][col] - v[col]
    return col_of_row


def leximin_by_matching(demands):
    """Sorted leximin-optimal utility vector through one exact minimum-cost
    assignment.

    Under max-atomic utilities one resource per agent suffices, so the
    optimum is a matching.  The matrix is padded to a square: dummy
    resources are worth 0 to everybody, dummy agents cost nothing anywhere.
    A real cell at demand level ``v`` costs more than the ``n`` costliest
    real cells strictly above ``v`` together, so a minimum-cost assignment
    first minimises how many agents sit at the lowest level, then at the
    next, and so on: exactly the leximin order on sorted vectors.
    """
    n = len(demands)
    m = len(demands[0]) if n else 0
    k = max(n, m)
    levels = sorted({d for row in demands for d in row} | {0}, reverse=True)
    count = {v: 0 for v in levels}
    for row in demands:
        for d in row:
            count[d] += 1
    count[0] += n * (k - m)           # dummy resources sit at level 0
    cost_of = {}
    above = []                        # costs of cells above the current level, costliest first
    for v in levels:
        c = 1 + sum(above[:n])
        cost_of[v] = c
        above = [c] * min(count[v], n) + above
        del above[n:]
    cost = [[cost_of[demands[i][j]] if j < m else cost_of[0] for j in range(k)]
            if i < n else [0] * k for i in range(k)]
    col_of_row = min_cost_assignment(cost)
    return sorted(demands[i][col_of_row[i]] if col_of_row[i] < m else 0 for i in range(n))


# ---------------------------------------------------------------------------
# propositional logic

def dpll(clauses, fixed=None):
    """A satisfying total-enough assignment (dict var -> bool) of the clause
    list under the partial assignment ``fixed``, or None.  Unit propagation
    plus branching on the first free variable of the shortest clause."""
    assignment = dict(fixed or {})
    return _dpll([tuple(c) for c in clauses], assignment)


def _simplify(clauses, assignment):
    out = []
    for clause in clauses:
        rest = []
        satisfied = False
        for lit in clause:
            value = assignment.get(abs(lit))
            if value is None:
                rest.append(lit)
            elif value == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not rest:
            return None
        out.append(rest)
    return out


def _dpll(clauses, assignment):
    clauses = _simplify(clauses, assignment)
    if clauses is None:
        return None
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        clauses = _simplify(clauses, {abs(unit): unit > 0})
        if clauses is None:
            return None
    if not clauses:
        return assignment
    lit = min(clauses, key=len)[0]
    for value in (lit > 0, lit < 0):
        trial = dict(assignment)
        trial[abs(lit)] = value
        found = _dpll(clauses, trial)
        if found is not None:
            return found
    return None


def satisfies(clauses, assignment):
    return all(any(assignment.get(abs(l)) == (l > 0) for l in c) for c in clauses)


def ae_true(forall_vars, clauses):
    """Truth of the forall/exists formula: every assignment of the forall
    block leaves the clauses satisfiable."""
    for bits in itertools.product((False, True), repeat=len(forall_vars)):
        if dpll(clauses, dict(zip(forall_vars, bits))) is None:
            return False
    return True


def brute_sat(num_vars, clauses):
    """Satisfiability by enumeration; the cross-check for ``dpll``."""
    for bits in itertools.product((False, True), repeat=num_vars):
        if satisfies(clauses, dict(zip(range(1, num_vars + 1), bits))):
            return True
    return False


# ---------------------------------------------------------------------------
# additive utilities: envy, dominance, envy-free efficiency

def bundle_values(matrix, owner):
    """``V[i][k]``: agent i's additive value of agent k's bundle, in one pass
    over the matrix.  ``owner[j]`` is an agent index or None."""
    n = len(matrix)
    values = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(matrix):
        vi = values[i]
        for j, who in enumerate(owner):
            if who is not None:
                vi[who] += row[j]
    return values


def envious_pairs_exist(values):
    return any(values[i][k] > values[i][i] for i in range(len(values)) for k in range(len(values)))


def utilities(matrix, owner):
    utils = [Fraction(0)] * len(matrix)
    for j, who in enumerate(owner):
        if who is not None:
            utils[who] += matrix[who][j]
    return utils


def pareto_dominates(challenger, incumbent):
    return (all(a >= b for a, b in zip(challenger, incumbent))
            and any(a > b for a, b in zip(challenger, incumbent)))


def eef_allocations(matrix):
    """Every envy-free Pareto-optimal allocation (as owner tuples, None for
    unallocated) of a tiny additive instance, by exhaustive scan."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    every = [tuple(o) for o in itertools.product((None, *range(n)), repeat=m)]
    vectors = [utilities(matrix, o) for o in every]
    found = set()
    for owner, vec in zip(every, vectors):
        if envious_pairs_exist(bundle_values(matrix, owner)):
            continue
        if not any(pareto_dominates(other, vec) for other in vectors):
            found.add(owner)
    return found
