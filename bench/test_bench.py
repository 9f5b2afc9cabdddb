"""The benchmark's own tests: the references against each other on small
shapes, and a self-test that feeds corrupted reports to every check.

    python3 -m pytest bench/test_bench.py -q      # from the repository root
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import fairdiv.cli as cli  # noqa: E402


# ---------------------------------------------------------------------------
# references

def test_leximin_matching_agrees_with_exhaustive_search():
    rng = random.Random(0)
    for _ in range(400):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        top = rng.choice((1, 3, 9, 10 ** 6))
        demands = [[rng.randint(0, top) for _ in range(m)] for _ in range(n)]
        assert ref.leximin_by_matching(demands) == ref.leximin_exhaustive(demands), demands


def test_min_cost_assignment_is_optimal():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(1, 5)
        cost = [[rng.randint(0, 20) for _ in range(k)] for _ in range(k)]
        cols = ref.min_cost_assignment(cost)
        assert sorted(cols) == list(range(k))
        best = min(sum(cost[i][p[i]] for i in range(k)) for p in itertools.permutations(range(k)))
        assert sum(cost[i][cols[i]] for i in range(k)) == best


def test_dpll_agrees_with_enumeration():
    rng = random.Random(2)
    for _ in range(400):
        num_vars = rng.randint(1, 7)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3))]
                   for _ in range(rng.randint(1, 30))]
        found = ref.dpll(clauses)
        assert (found is not None) == ref.brute_sat(num_vars, clauses)
        if found is not None:
            assert ref.satisfies(clauses, found)


def test_ae_truth_follows_the_definition():
    rng = random.Random(3)
    for _ in range(200):
        forall, exists = [1, 2][:rng.randint(1, 2)], [3, 4]
        variables = forall + exists
        clauses = [inputs._random_clause(rng, variables) for _ in range(rng.randint(1, 8))]
        truth = all(
            any(ref.satisfies(clauses, {**dict(zip(forall, a)), **dict(zip(exists, e))})
                for e in itertools.product((False, True), repeat=len(exists)))
            for a in itertools.product((False, True), repeat=len(forall)))
        assert ref.ae_true(forall, clauses) == truth


def test_bundle_values_are_the_bundle_sums():
    rng = random.Random(4)
    matrix = [[rng.randint(-3, 9) for _ in range(7)] for _ in range(3)]
    owner = [rng.choice((None, 0, 1, 2)) for _ in range(7)]
    values = ref.bundle_values(matrix, owner)
    for i in range(3):
        for k in range(3):
            assert values[i][k] == sum(matrix[i][j] for j in range(7) if owner[j] == k)


def test_eef_allocations_on_hand_cases():
    # one agent, goods only: the only EEF allocation hands it everything
    assert ref.eef_allocations([[1, 2]]) == {(0, 0)}
    # two agents, one good both want: whoever lacks it envies, and leaving
    # it out is dominated, so nothing is envy-free and efficient
    assert ref.eef_allocations([[1], [1]]) == set()
    # one chore nobody wants: leaving it out is the EEF allocation
    assert ref.eef_allocations([[-1], [-1]]) == {(None,)}


# ---------------------------------------------------------------------------
# self-test of the checks


def _flip(report):
    return dict(report, verdict="no" if report["verdict"] == "yes" else "yes")


def _corruptions(call, expect, code, report):
    """(label, exit code, report) variants that must all be rejected."""
    kind = call["kind"]
    out = [("flipped verdict", code, _flip(report)),
           ("flipped verdict and exit code", 1 - code, _flip(report)),
           ("unknown verdict", 2, dict(report, verdict="unknown"))]
    witness = report.get("witness") or {}
    if kind == "solve-leximin":
        allocation = dict(witness["allocation"])
        rid = next(r for r, a in allocation.items() if a is not None)
        allocation[rid] = None
        out.append(("perturbed allocation", code, dict(report, witness=dict(witness, allocation=allocation))))
        utilities = list(witness["utilities"])
        utilities[0] = utilities[0] + 1 if isinstance(utilities[0], int) else 10 ** 9
        out.append(("perturbed utilities", code, dict(report, witness=dict(witness, utilities=utilities))))
    if kind == "check-pareto" and report["verdict"] == "no":
        baseline = expect["document"]
        allocation = {r: None if o is None else baseline["agents"][o]
                      for r, o in zip(baseline["resources"], baseline["owner"])}
        out.append(("witness replaced by the baseline", code,
                    dict(report, witness={"dominating_allocation": allocation})))
    if kind.startswith("verify-reduction"):
        key = "satisfiable" if kind == "verify-reduction po" else "formula_true"
        out.append((f"flipped {key}", code, dict(report, witness=dict(witness, **{key: not witness[key]}))))
    if kind == "find-eef" and report["verdict"] == "yes":
        agents = [f"a{i + 1}" for i in range(len(expect["matrix"]))]
        for rid, who in itertools.product(witness["allocation"], [None] + agents):
            allocation = dict(witness["allocation"], **{rid: who})
            owner = tuple(None if allocation[r] is None else agents.index(allocation[r])
                          for r in sorted(allocation, key=lambda r: int(r[1:])))
            if owner not in expect["eef"]:
                out.append(("perturbed allocation", code, dict(report, witness={"allocation": allocation})))
                break
    if kind == "check-envy":
        values = expect["bundle_values"]
        i, k = next((i, k) for i in range(len(values)) for k in range(len(values))
                    if i != k and not values[i][k] > values[i][i])
        out.append(("wrong envy pair", 1, dict(report, verdict="no", witness={
            "envious_agent": f"a{i + 1}", "envied_agent": f"a{k + 1}"})))
    return out


def _rejected(call, expect, code, text):
    try:
        checks.check(call, expect, code, text)
    except checks.CheckFailed:
        return True
    return False


def _self_test(plan):
    documents = {}
    for call in plan["pre"]:
        code, text, _ = run.invoke(cli.main, call["argv"])
        checks.check(call, call["expect"], code, text)
        documents[call["argv"][-1]] = checks.read_document(call["argv"][-1])
    tested = set()
    for call in plan["round"]:
        expect = checks.prepare(call, documents)
        code, text, _ = run.invoke(cli.main, call["argv"])
        checks.check(call, expect, code, text)              # the genuine answer passes
        key = (call["kind"], json.loads(text)["verdict"] if text else None)
        if key in tested:
            continue
        tested.add(key)
        if call["kind"] in ("reduce-po", "reduce-eef"):
            path = call["argv"][-1]
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            dropped = dict(doc, resources=doc["resources"][:-1],
                           matrix=[row[:-1] for row in doc["matrix"]])
            dropped.pop("allocation", None)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dropped, fh)
            assert _rejected(call, expect, code, text), f"{call['kind']}: dropped resource accepted"
            if call["kind"] == "reduce-po":
                doc["allocation"][doc["resources"][0]] = None
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                assert _rejected(call, expect, code, text), "baseline gap accepted"
            continue
        for label, bad_code, bad in _corruptions(call, expect, code, json.loads(text)):
            assert _rejected(call, expect, bad_code, json.dumps(bad)), f"{call['kind']}: {label} accepted"
    return tested


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_check_rejects_every_corruption(workload, tmp_path):
    tested = _self_test(inputs.make_plan(workload, 3, str(tmp_path)))
    expected = {c["kind"] for c in inputs.make_plan(workload, 3, str(tmp_path))["round"]}
    assert {kind for kind, _ in tested} == expected


def test_named_envy_pair_is_checked(tmp_path):
    matrix = [[1, 5], [0, 1]]            # a1 owns o1 and envies a2's o2; a2 envies nobody
    path = str(tmp_path / "envious.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs._additive_doc(matrix, [0, 1]), fh)
    call = {"kind": "check-envy", "argv": ["check-envy", path]}
    values = ref.bundle_values(matrix, [0, 1])
    expect = {"envy_free": False, "bundle_values": values}
    code, text, _ = run.invoke(cli.main, call["argv"])
    checks.check(call, expect, code, text)
    report = json.loads(text)
    assert report["witness"] == {"envious_agent": "a1", "envied_agent": "a2"}
    swapped = dict(report, witness={"envious_agent": "a2", "envied_agent": "a1"})
    assert _rejected(call, expect, code, json.dumps(swapped))
