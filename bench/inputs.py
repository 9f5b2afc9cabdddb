"""Make one workload's inputs and expected answers from a seed.

Run as its own process before any timing starts, so that the measuring
process never holds the generators or the reference computations:

    python3 bench/inputs.py --workload leximin-narrow --seed 1 --out DIR

It writes the instance documents and formulas into DIR, plus ``plan.json``:
one round of CLI calls (argv, kind, and what the answer must be).  Nothing
here imports ``fairdiv``; the expectations come from ``reference.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import reference as ref

# ---------------------------------------------------------------------------
# leximin workloads

NARROW_SIZE = 110            # square n x n
NARROW_DEMAND_MAX = 9
NARROW_INSTANCES = 6
WIDE_SHAPES = ((70, 95), (82, 82), (95, 70)) * 2
WIDE_DEMAND_MAX = 10 ** 6


def _max_atomic_doc(demands):
    n, m = len(demands), len(demands[0])
    return {"kind": "max-atomic",
            "agents": [f"a{i + 1}" for i in range(n)],
            "resources": [f"o{j + 1}" for j in range(m)],
            "matrix": demands}


def _threshold_below(optimum):
    """A sorted vector just under ``optimum`` in the leximin order: its top
    entry lowered by 1/2 (written as p/q, so the rational path runs)."""
    top = optimum[-1]
    return [str(v) for v in optimum[:-1]] + [f"{2 * top - 1}/2"]


def _leximin_calls(out, rng, shapes, demand_max):
    """Per instance: two plain solves and one --K decision.  The threshold
    alternates between the optimum itself (not beaten: "no") and just below
    it ("yes"), so every round sees both verdicts."""
    calls = []
    for k, (n, m) in enumerate(shapes):
        demands = [[rng.randint(0, demand_max) for _ in range(m)] for _ in range(n)]
        path = _write_json(out, f"leximin-{k}.json", _max_atomic_doc(demands))
        optimum = ref.leximin_by_matching(demands)
        plain = {"kind": "solve-leximin", "argv": ["solve-leximin", path],
                 "expect": {"demands": demands, "optimum": optimum}}
        threshold = [str(v) for v in optimum] if k % 2 == 0 else _threshold_below(optimum)
        calls += [plain, plain, {"kind": "solve-leximin --K",
                                 "argv": ["solve-leximin", path, "--K", ",".join(threshold)],
                                 "expect": {"optimum": optimum}}]
    return calls


def leximin_narrow(out, rng):
    shapes = [(NARROW_SIZE, NARROW_SIZE)] * NARROW_INSTANCES
    return _leximin_calls(out, rng, shapes, NARROW_DEMAND_MAX), []


def leximin_wide(out, rng):
    return _leximin_calls(out, rng, WIDE_SHAPES, WIDE_DEMAND_MAX), []


# ---------------------------------------------------------------------------
# gadgets workload
#
# One round sorts by call time into bands; the counts put the median among
# the reduce-po calls and the 90th percentile among the blocked
# verify-reduction po calls (see README.md):
#   find-eef x11, reduce-eef x2                     shortest
#   reduce-po x8 (one document size)                holds the median
#   check-pareto x3, verify-reduction po (planted) x2
#   verify-reduction eef x2, --all-flags x1
#   verify-reduction po (blocked) x4                holds the 90th percentile
#   check-envy x1                                   longest

PLANTED = (12, 30)            # variables, clauses; two planted-satisfiable formulas
BLOCKED = (16, 40)            # eight blocked-unsatisfiable formulas, four verified
PLANTED_COUNT, BLOCKED_COUNT, BLOCKED_VERIFIED = 2, 8, 4
AE_SHAPE = (3, 4, 10)         # forall, exists, clauses; one true and one false formula
AE_SMALL = (1, 2, 5)          # the false formula checked with --all-flags
EEF_SHAPE = (3, 4)            # agents, resources of the find-eef instances
EEF_YES, EEF_NO = 6, 5
ENVY_SHAPE = (120, 1200)      # agents, resources of the envy-free check-envy instance


def _random_clause(rng, variables):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3)]


def planted_3cnf(rng, num_vars, num_clauses):
    """Random 3CNF (three distinct variables per clause) satisfied by a
    hidden random assignment."""
    planted = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    variables = list(planted)
    clauses = []
    while len(clauses) < num_clauses:
        clause = _random_clause(rng, variables)
        if ref.satisfies([clause], planted):
            clauses.append(clause)
    return clauses


def blocked_3cnf(rng, num_vars, num_clauses):
    """Unsatisfiable CNF: the unit clauses x and -x for a random variable x,
    which block every assignment, followed by random 3-clauses.  With the
    blocking pair first, deciding it by enumeration costs exactly 2^w
    assignments of equal cost, whatever the seed."""
    variables = list(range(1, num_vars + 1))
    x = rng.choice(variables)
    return [[x], [-x]] + [_random_clause(rng, variables) for _ in range(num_clauses - 2)]


def _both_polarities(num_vars, clauses):
    lits = {l for c in clauses for l in c}
    return all(v in lits and -v in lits for v in range(1, num_vars + 1))


def ae_3cnf(rng, n_forall, n_exists, num_clauses, truth):
    """Random forall/exists 3CNF with the requested truth value and every
    variable in both polarities (so no tautologies get appended).  With a
    single forall variable, its positive occurrences are fixed at four, so
    the --all-flags template count does not depend on the seed."""
    num_vars = n_forall + n_exists
    variables = list(range(1, num_vars + 1))
    forall = variables[:n_forall]
    for _ in range(100_000):
        clauses = [_random_clause(rng, variables) for _ in range(num_clauses)]
        if n_forall == 1 and sum(1 for c in clauses if 1 in c) != 4:
            continue
        if _both_polarities(num_vars, clauses) and ref.ae_true(forall, clauses) == truth:
            return forall, clauses
    raise RuntimeError(f"no {truth} formula of shape {n_forall}/{n_exists}/{num_clauses} found")


def dimacs(num_vars, clauses, forall=None):
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    if forall is not None:
        exists = [v for v in range(1, num_vars + 1) if v not in forall]
        lines.append("a " + " ".join(map(str, forall)) + " 0")
        lines.append("e " + " ".join(map(str, exists)) + " 0")
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def po_sizes(num_vars, clauses):
    """Agent and resource counts that ``reduce_3cnf_to_po`` documents:
    2w + w' + 2 agents, w + w' + L + 1 resources."""
    w, c, lits = num_vars, len(clauses), sum(len(set(cl)) for cl in clauses)
    return [2 * w + c + 2, w + c + lits + 1]


def eef_sizes(forall, exists, clauses):
    """Agent and resource counts that ``reduce_ae3cnf_to_eef`` documents:
    4|A| + 2|E| + |C| + Lu + 3 agents, 4|A| + |E| + 2|C| + L + Lu + 3
    resources (L literal occurrences, Lu of them universal)."""
    universal = set(forall)
    lits = sum(len(set(cl)) for cl in clauses)
    ulits = sum(1 for cl in clauses for l in set(cl) if abs(l) in universal)
    a, e, c = len(forall), len(exists), len(clauses)
    return [4 * a + 2 * e + c + ulits + 3, 4 * a + e + 2 * c + lits + ulits + 3]


def _additive_doc(matrix, owner=None):
    n, m = len(matrix), len(matrix[0])
    doc = {"kind": "additive",
           "agents": [f"a{i + 1}" for i in range(n)],
           "resources": [f"o{j + 1}" for j in range(m)],
           "matrix": matrix}
    if owner is not None:
        doc["allocation"] = {f"o{j + 1}": (None if who is None else f"a{who + 1}")
                             for j, who in enumerate(owner)}
    return doc


def envy_free_instance(rng, n, m):
    """Every agent owns m/n resources and values them above everyone
    else's, so all n^2 bundle comparisons run before the verdict."""
    owner = [j % n for j in range(m)]
    rng.shuffle(owner)
    while True:
        matrix = [[rng.randint(6, 15) if owner[j] == i else rng.randint(0, 9) for j in range(m)]
                  for i in range(n)]
        values = ref.bundle_values(matrix, owner)
        if not ref.envious_pairs_exist(values):
            return matrix, owner, values


def eef_instances(rng, n, m, yes, no):
    """Tiny additive instances, ``yes`` with an envy-free Pareto-optimal
    allocation and ``no`` without, each with its exhaustive EEF set."""
    found = {True: [], False: []}
    while len(found[True]) < yes or len(found[False]) < no:
        matrix = [[rng.randint(-2, 5) for _ in range(m)] for _ in range(n)]
        eef = ref.eef_allocations(matrix)
        bucket = found[bool(eef)]
        if len(bucket) < (yes if eef else no):
            bucket.append((matrix, eef))
    return found[True] + found[False]


def gadgets(out, rng):
    calls = []
    pre = []          # calls made once before timing, to write the documents check-pareto reads
    # (label, variables, clauses, reduce-po in the loop, check-pareto, verify-reduction po)
    formulas = [(f"planted-{k}", PLANTED[0], planted_3cnf(rng, *PLANTED), False, True, True)
                for k in range(PLANTED_COUNT)]
    formulas += [(f"blocked-{k}", BLOCKED[0], blocked_3cnf(rng, *BLOCKED), True, k == 0,
                  k < BLOCKED_VERIFIED) for k in range(BLOCKED_COUNT)]
    for label, num_vars, clauses, reduce, pareto, verify in formulas:
        cnf = _write_text(out, f"{label}.cnf", dimacs(num_vars, clauses))
        expect = {"satisfiable": ref.dpll(clauses) is not None,
                  "sizes": po_sizes(num_vars, clauses)}
        if reduce:
            calls.append({"kind": "reduce-po", "expect": expect,
                          "argv": ["reduce-po", cnf, "--out", os.path.join(out, f"{label}-out.json")]})
        if pareto:
            doc = os.path.join(out, f"{label}-po.json")
            pre.append({"kind": "reduce-po", "argv": ["reduce-po", cnf, "--out", doc], "expect": expect})
            calls.append({"kind": "check-pareto", "argv": ["check-pareto", doc], "expect": expect})
        if verify:
            calls.append({"kind": "verify-reduction po", "argv": ["verify-reduction", "po", cnf],
                          "expect": expect})

    for label, shape, truth, all_flags in (("ae-true", AE_SHAPE, True, False),
                                           ("ae-false", AE_SHAPE, False, False),
                                           ("ae-small", AE_SMALL, False, True)):
        forall, clauses = ae_3cnf(rng, *shape, truth)
        num_vars = shape[0] + shape[1]
        exists = [v for v in range(1, num_vars + 1) if v not in forall]
        path = _write_text(out, f"{label}.aecnf", dimacs(num_vars, clauses, forall))
        expect = {"formula_true": truth, "sizes": eef_sizes(forall, exists, clauses)}
        if all_flags:
            calls.append({"kind": "verify-reduction eef --all-flags", "expect": expect,
                          "argv": ["verify-reduction", "eef", path, "--all-flags"]})
            continue
        calls.append({"kind": "reduce-eef", "expect": expect,
                      "argv": ["reduce-eef", path, "--out", os.path.join(out, f"{label}-out.json")]})
        calls.append({"kind": "verify-reduction eef", "argv": ["verify-reduction", "eef", path],
                      "expect": expect})

    for k, (matrix, eef) in enumerate(eef_instances(rng, *EEF_SHAPE, EEF_YES, EEF_NO)):
        path = _write_json(out, f"eef-{k}.json", _additive_doc(matrix))
        calls.append({"kind": "find-eef", "argv": ["find-eef", path],
                      "expect": {"matrix": matrix, "eef": sorted((list(o) for o in eef), key=repr)}})

    matrix, owner, values = envy_free_instance(rng, *ENVY_SHAPE)
    path = _write_json(out, "envy-free.json", _additive_doc(matrix, owner))
    calls.append({"kind": "check-envy", "argv": ["check-envy", path],
                  "expect": {"envy_free": True,
                             "bundle_values": [[str(v) for v in row] for row in values]}})
    return calls, pre


# ---------------------------------------------------------------------------

WORKLOADS = {"leximin-narrow": leximin_narrow, "leximin-wide": leximin_wide, "gadgets": gadgets}


def _write_json(out, name, data):
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _write_text(out, name, text):
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def make_plan(workload, seed, out):
    rng = random.Random(f"{workload}/{seed}")
    calls, pre = WORKLOADS[workload](out, rng)
    return {"workload": workload, "seed": seed, "round": calls, "pre": pre}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    plan = make_plan(args.workload, args.seed, args.out)
    _write_json(args.out, "plan.json", plan)
    return 0


if __name__ == "__main__":
    sys.exit(main())
