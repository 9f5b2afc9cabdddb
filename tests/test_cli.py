import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdiv import (
    Allocation,
    InstanceDocument,
    additive_instance,
    max_atomic_instance,
    serialize_instance,
)
import fairdiv.cli
import fairdiv.oracles
import fairdiv.reductions
import fairdiv.solver
from fairdiv.cli import main
from fairdiv.formats import strip_volatile

EXAMPLE_DIMACS = "p cnf 3 2\n1 2 -3 0\n-1 -2 -3 0\n"
UNSAT_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"
TRUE_AE_DIMACS = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"
FALSE_AE_DIMACS = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n1 -2 0\n"


def write_doc(tmp_path, name, instance, allocation=None):
    path = tmp_path / name
    path.write_text(serialize_instance(InstanceDocument(instance, allocation)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


# ---------------------------------------------------------------------------
# solve-leximin


def test_solve_leximin_reports_the_optimum(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[5, 3], [4, 1]]))
    code, report, _ = run(capsys, ["solve-leximin", path])
    assert code == 0
    assert report["verdict"] == "yes"
    assert report["witness"]["utilities_sorted"] == [3, 4]
    assert report["witness"]["allocation"] == {"o1": "a2", "o2": "a1"}
    assert report["provenance"]["inputs"][path] == "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, text", [
    (["solve-leximin"], serialize_instance(InstanceDocument(max_atomic_instance([[5, 3], [4, 1]])))),
    (["verify-reduction", "po"], EXAMPLE_DIMACS),
], ids=["instance", "dimacs"])
def test_a_crlf_file_reports_the_digest_of_its_bytes(tmp_path, capsys, argv, text):
    reports = {}
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode())
        code, report, _ = run(capsys, [*argv, str(path)])
        assert code == 0
        inputs = report["provenance"].pop("inputs")
        assert inputs == {str(path): "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()}
        reports[name] = strip_volatile(report)
    assert reports["lf"] == reports["crlf"]        # the same answer, from different bytes


def test_solve_leximin_threshold_decision(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[5, 3], [4, 1]]))
    code, report, _ = run(capsys, ["solve-leximin", path, "--K", "1,5"])
    assert code == 0 and report["verdict"] == "yes"
    code, report, _ = run(capsys, ["solve-leximin", path, "--K", "3,4"])
    assert code == 1 and report["verdict"] == "no"
    assert report["witness"]["optimum_sorted"] == [3, 4]
    code, _, err = run(capsys, ["solve-leximin", path, "--K", "1"])
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, ["solve-leximin", path, "--K", "0.5,1"])
    assert code == 3
    for token in ("1_0", "+3", "\u0663", "\uff13", "1/1\u0662"):   # ASCII digits only
        code, report, err = run(capsys, ["solve-leximin", path, "--K", f"1,{token}"])
        assert (code, report) == (3, None) and "malformed rational" in err


def test_solve_leximin_threshold_with_a_leading_minus(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[5, 3], [4, 1]]))
    code, report, _ = run(capsys, ["solve-leximin", path, "--K=-1,2"])
    assert code == 0 and report["verdict"] == "yes"
    assert report["witness"]["threshold"] == [-1, 2]
    # detached, the list reads as an option: bad input, not a crash
    code, report, err = run(capsys, ["solve-leximin", path, "--K", "-1,2"])
    assert (code, report) == (3, None) and "--K" in err


def test_solve_leximin_threshold_solves_once(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[5, 3], [4, 1]]))
    solves = []
    solve = fairdiv.solver.solve_leximin

    def counted(instance):
        solves.append(instance)
        return solve(instance)

    monkeypatch.setattr(fairdiv.cli, "solve_leximin", counted)
    monkeypatch.setattr(fairdiv.solver, "solve_leximin", counted)
    assert main(["solve-leximin", path, "--K", "5/2,4"]) == 0
    assert len(solves) == 1
    out = capsys.readouterr().out
    assert out.endswith('  "witness": {\n'
                        '    "optimum_sorted": [\n      3,\n      4\n    ],\n'
                        '    "threshold": [\n      "5/2",\n      4\n    ]\n'
                        '  }\n}\n')


INTEGRAL = [[5, 3, 2], [4, 1, 6], [2, 2, 2]]
FRACTIONAL = [[Fraction(5, 2), 3, Fraction(1, 2)], [4, Fraction(1, 3), 6], [Fraction(7, 4), 1, Fraction(7, 4)]]


@pytest.mark.parametrize("matrix, threshold, code, tail", [
    (INTEGRAL, "6,4/2,5", 1,
     '"no",\n  "witness": {\n    "optimum_sorted": [\n      2,\n      5,\n      6\n    ],\n'
     '    "threshold": [\n      6,\n      2,\n      5\n    ]\n  }\n}\n'),
    (INTEGRAL, "2,-1/3,6", 0,
     '"yes",\n  "witness": {\n    "optimum_sorted": [\n      2,\n      5,\n      6\n    ],\n'
     '    "threshold": [\n      2,\n      "-1/3",\n      6\n    ]\n  }\n}\n'),
    (FRACTIONAL, "7/4,3,6", 1,
     '"no",\n  "witness": {\n    "optimum_sorted": [\n      "7/4",\n      3,\n      6\n    ],\n'
     '    "threshold": [\n      "7/4",\n      3,\n      6\n    ]\n  }\n}\n'),
    (FRACTIONAL, "3/2,3,6/1", 0,
     '"yes",\n  "witness": {\n    "optimum_sorted": [\n      "7/4",\n      3,\n      6\n    ],\n'
     '    "threshold": [\n      "3/2",\n      3,\n      6\n    ]\n  }\n}\n'),
], ids=["int-tie", "int-beats", "fraction-tie", "fraction-beats"])
def test_solve_leximin_threshold_mixing_ints_and_fractions(tmp_path, capsys, matrix, threshold, code, tail):
    # ints and p/q tokens compare as the rationals they are, and print as before
    path = write_doc(tmp_path, "i.json", max_atomic_instance(matrix))
    assert main(["solve-leximin", path, f"--K={threshold}"]) == code
    assert capsys.readouterr().out.endswith('  "verdict": ' + tail)


def test_solve_leximin_without_resources(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[], []]))
    code, report, _ = run(capsys, ["solve-leximin", path])
    assert code == 0 and report["verdict"] == "yes"
    assert report["witness"]["allocation"] == {}
    assert report["witness"]["utilities_sorted"] == [0, 0]
    code, report, _ = run(capsys, ["solve-leximin", path, "--K", "0,0"])
    assert code == 1 and report["verdict"] == "no"
    assert report["witness"]["optimum_sorted"] == [0, 0]


def test_solve_leximin_rejects_additive_documents(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", additive_instance([[1]]))
    code, _, err = run(capsys, ["solve-leximin", path])
    assert code == 3 and "error: the leximin solver needs max-atomic demands" in err


# ---------------------------------------------------------------------------
# check-pareto / check-envy / find-eef


def test_check_pareto_verdicts(tmp_path, capsys):
    inst = additive_instance([[0], [1]])
    dominated = write_doc(tmp_path, "bad.json", inst, Allocation([0]))
    code, report, _ = run(capsys, ["check-pareto", dominated])
    assert code == 1
    assert report["witness"]["dominating_allocation"] == {"o1": "a2"}
    optimal = write_doc(tmp_path, "good.json", inst, Allocation([1]))
    code, report, _ = run(capsys, ["check-pareto", optimal])
    assert code == 0
    assert report["stats"]["nodes"] > 0


def test_check_pareto_budget_flag_forces_unknown(tmp_path, capsys):
    inst = additive_instance([[1, 1], [1, 1]])
    path = write_doc(tmp_path, "i.json", inst, Allocation([None, None]))
    code, report, _ = run(capsys, ["check-pareto", path, "--budget", "1"])
    assert code == 2
    assert report["verdict"] == "unknown"
    assert report["stats"]["nodes"] == 2         # the budget, plus the node that overran it


DEEP = 1500      # resources: past Python's default recursion limit of 1000


def test_check_pareto_on_a_forced_chain_deeper_than_the_recursion_limit(tmp_path, capsys):
    # agent a values every resource at 1, agent b none, and b holds them all:
    # each column has one candidate, so the search places all 1500 in one line
    inst = additive_instance([[1] * DEEP, [0] * DEEP], agents=["a", "b"])
    path = write_doc(tmp_path, "chain.json", inst, Allocation([1] * DEEP))
    code, report, err = run(capsys, ["check-pareto", path])
    assert code == 1, err
    assert report["witness"]["dominating_allocation"] == {f"o{j + 1}": "a" for j in range(DEEP)}
    assert report["stats"]["nodes"] == DEEP + 1


def test_check_pareto_decides_alternating_owners_by_the_welfare_bound(tmp_path, capsys):
    # both agents value everything at 1 and the owners alternate: every
    # placement drains the other agent, and without the welfare bound the
    # search went 1500 placements deep and backtracked without end; the
    # baseline already holds the most welfare there is, so the root is cut
    inst = additive_instance([[1] * DEEP, [1] * DEEP], agents=["a", "b"])
    path = write_doc(tmp_path, "alternating.json", inst, Allocation([j % 2 for j in range(DEEP)]))
    code, report, err = run(capsys, ["check-pareto", path])
    assert code == 0, err
    assert (report["verdict"], report["stats"]["nodes"]) == ("yes", 1)


def test_check_pareto_runs_out_its_budget_on_a_heavy_tail_gadget(tmp_path, capsys):
    # all 8 sign patterns over three variables, filled up with random
    # clauses: unsatisfiable, so the baseline is optimal, and far deeper
    # than the budget to certify
    rng = random.Random(0)
    clauses = [[a, b, c] for a in (1, -1) for b in (2, -2) for c in (3, -3)] + _random_3cnf(rng, 10, 16)
    rng.shuffle(clauses)
    formula = tmp_path / "tail.cnf"
    formula.write_text(_dimacs(10, clauses))
    out = tmp_path / "tail.json"
    assert main(["reduce-po", str(formula), "--out", str(out)]) == 0
    code, report, err = run(capsys, ["check-pareto", str(out), "--budget", "50"])
    assert code == 2, err
    assert (report["verdict"], report["stats"]["nodes"]) == ("unknown", 51)


def test_check_pareto_requires_an_allocation(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", additive_instance([[1]]))
    code, _, err = run(capsys, ["check-pareto", path])
    assert code == 3 and "allocation" in err


def test_check_envy(tmp_path, capsys):
    inst = additive_instance([[1], [1]])
    envious = write_doc(tmp_path, "envy.json", inst, Allocation([0]))
    code, report, _ = run(capsys, ["check-envy", envious])
    assert code == 1
    assert report["witness"] == {"envious_agent": "a2", "envied_agent": "a1"}
    fine = write_doc(tmp_path, "fine.json", inst, Allocation([None]))
    code, report, _ = run(capsys, ["check-envy", fine])
    assert code == 0 and report["witness"] is None


def test_check_envy_prices_max_atomic_bundles(tmp_path, capsys):
    # a max-atomic bundle is worth its largest demand: b holds p (1) and a's o is worth 3 to b
    envious = write_doc(tmp_path, "envy.json", max_atomic_instance([[5, 3], [3, 1]], agents=["a", "b"],
                                                                   resources=["o", "p"]),
                        Allocation([0, 1]))
    code, report, _ = run(capsys, ["check-envy", envious])
    assert code == 1
    assert report["witness"] == {"envious_agent": "b", "envied_agent": "a"}
    # b's bundle {p, q} is worth 4 to a by its largest demand, below a's 5 (its sum, 7, is not)
    fine = write_doc(tmp_path, "fine.json", max_atomic_instance([[5, 3, 4], [3, 3, 1]]),
                     Allocation([0, 1, 1]))
    code, report, _ = run(capsys, ["check-envy", fine])
    assert code == 0 and report["witness"] is None


def test_find_eef(tmp_path, capsys):
    own = write_doc(tmp_path, "own.json", additive_instance([[1, 0], [0, 1]]))
    code, report, _ = run(capsys, ["find-eef", own])
    assert code == 0
    assert report["witness"]["allocation"] == {"o1": "a1", "o2": "a2"}
    shared = write_doc(tmp_path, "shared.json", additive_instance([[1], [1]]))
    code, report, _ = run(capsys, ["find-eef", shared])
    assert code == 1
    code, report, _ = run(capsys, ["find-eef", shared, "--budget", "1"])
    assert code == 2


def test_budget_ignores_the_environment(tmp_path, capsys, monkeypatch):
    # a report does not record its budget, so only --budget may set it
    inst = additive_instance([[1, 1], [1, 1]])
    path = write_doc(tmp_path, "i.json", inst, Allocation([None, None]))
    monkeypatch.setenv("FAIRDIV_BUDGET", "1")
    code, report, _ = run(capsys, ["check-pareto", path])
    assert code == 1 and report["verdict"] == "no"


# ---------------------------------------------------------------------------
# reductions via the CLI


def test_reduce_po_emits_a_parseable_document(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text(EXAMPLE_DIMACS)
    out = tmp_path / "instance.json"
    code = main(["reduce-po", str(formula), "--out", str(out)])
    assert code == 0
    from fairdiv import parse_instance

    doc = parse_instance(out.read_text())
    assert doc.instance.num_agents == 10
    assert doc.instance.num_resources == 12
    assert doc.allocation is not None
    assert doc.mapping is not None
    # stdout mode produces the same bytes
    code = main(["reduce-po", str(formula)])
    assert code == 0
    assert capsys.readouterr().out == out.read_text()


def test_reduce_eef_augments_missing_polarities(tmp_path, capsys):
    formula = tmp_path / "f.qcnf"
    formula.write_text(FALSE_AE_DIMACS)   # x1 never occurs negatively
    code, report, _ = run(capsys, ["reduce-eef", str(formula)])
    assert code == 0
    from fairdiv import parse_instance

    doc = parse_instance(json.dumps(report))
    # augmentation appends {x1, ~x1}, so 3 clauses and 4 universal literal
    # occurrences: 4*1 + 2*1 + 3 + 4 + 3 agents
    assert doc.instance.num_agents == 16
    assert doc.allocation is None


def test_reduced_document_feeds_back_into_check_pareto(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text(UNSAT_DIMACS)
    out = tmp_path / "instance.json"
    assert main(["reduce-po", str(formula), "--out", str(out)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, ["check-pareto", str(out)])
    assert code == 0   # unsatisfiable formula -> baseline is optimal
    formula.write_text(EXAMPLE_DIMACS)
    assert main(["reduce-po", str(formula), "--out", str(out)]) == 0
    capsys.readouterr()
    code, report, _ = run(capsys, ["check-pareto", str(out)])
    assert code == 1   # satisfiable formula -> baseline is dominated


def test_verify_reduction_po(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text(EXAMPLE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "po", str(formula)])
    assert code == 0
    assert report["verdict"] == "yes"
    assert report["witness"]["satisfiable"] is True
    assert report["witness"]["baseline_dominated"] is True
    assert report["witness"]["improvement_construction_checked"] is True
    formula.write_text(UNSAT_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "po", str(formula)])
    assert code == 0
    assert report["witness"]["satisfiable"] is False
    assert report["witness"]["baseline_dominated"] is False


def test_verify_reduction_eef_true_and_false_formulas(tmp_path, capsys):
    formula = tmp_path / "f.qcnf"
    formula.write_text(TRUE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula)])
    assert code == 0
    assert report["witness"]["formula_true"] is True
    assert report["witness"]["family_has_eef"] is False
    formula.write_text(FALSE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula), "--all-flags"])
    assert code == 0
    assert report["witness"]["formula_true"] is False
    assert report["witness"]["family_has_eef"] is True
    entries = report["witness"]["assignments"]
    assert any(e["templates_checked"] > 1 for e in entries)
    assert all(e["templates_envy_free"] for e in entries)


def test_verify_reduction_checks_that_each_improvement_dominates(tmp_path, capsys, monkeypatch):
    # a construction that hands back its baseline improves nothing
    monkeypatch.setattr(fairdiv.cli, "construct_improvement_po",
                        lambda reduction, assignment: reduction.baseline)
    monkeypatch.setattr(fairdiv.cli, "construct_improvement_eef",
                        lambda reduction, baseline, extension: baseline)
    formula = tmp_path / "f.cnf"
    formula.write_text(EXAMPLE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "po", str(formula)])
    assert (code, report["verdict"]) == (1, "no")
    assert report["witness"]["improvement_construction_checked"] is False
    formula.write_text(TRUE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula)])
    assert (code, report["verdict"]) == (1, "no")
    assert [e["improvement_construction_checked"] for e in report["witness"]["assignments"]] \
        == [False, False]


def _dimacs(num_vars, clauses):
    return f"p cnf {num_vars} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses)


def _random_3cnf(rng, num_vars, count, model=None):
    """``count`` random 3-clauses; with ``model``, only clauses it satisfies."""
    clauses = []
    while len(clauses) < count:
        clause = [rng.choice((-1, 1)) * v for v in rng.sample(range(1, num_vars + 1), 3)]
        if model is None or any((lit > 0) == model[abs(lit)] for lit in clause):
            clauses.append(clause)
    return clauses


@pytest.mark.parametrize("num_vars", [23, 40])
def test_verify_reduction_po_past_the_old_completion_cap(tmp_path, capsys, num_vars):
    # 2^23 completions and more used to be refused as bad input (exit 3)
    rng = random.Random(num_vars)
    model = {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}
    blocked = [[1], [-1]] + _random_3cnf(rng, num_vars, 2 * num_vars)
    planted = _random_3cnf(rng, num_vars, 2 * num_vars, model)
    formula = tmp_path / "f.cnf"
    for clauses, satisfiable in ((blocked, False), (planted, True)):
        formula.write_text(_dimacs(num_vars, clauses))
        code, report, _ = run(capsys, ["verify-reduction", "po", str(formula)])
        assert code in (0, 1)
        assert report["verdict"] == "yes"
        assert report["witness"]["satisfiable"] is satisfiable


def test_verify_reduction_reports_nodes_by_sub_search(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    formula.write_text(EXAMPLE_DIMACS)
    for argv in (["po", str(formula)], ["eef", str(tmp_path / "f.qcnf")]):
        (tmp_path / "f.qcnf").write_text(FALSE_AE_DIMACS)
        code, report, _ = run(capsys, ["verify-reduction", *argv])
        assert code == 0
        detail = report["witness"]
        assert detail["dominance_nodes"] > 0
        assert report["stats"]["nodes"] == detail["sat_nodes"] + detail["dominance_nodes"]


def test_verify_reduction_all_flags_draws_nothing_from_the_family(tmp_path, capsys, monkeypatch):
    # the family is checked in closed form, over each flag's patch, so no
    # template of the 2^F walk is ever built, and templates_checked is 2^F
    drawn = []

    def counting(*args, **kwargs):
        for item in fairdiv.reductions.x_forall_allocation_family(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(fairdiv.cli, "x_forall_allocation_family", counting, raising=False)
    monkeypatch.setattr(fairdiv.reductions, "x_forall_allocation_family", counting)
    formula = tmp_path / "f.qcnf"
    formula.write_text(FALSE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula), "--all-flags"])
    assert code == 0
    assert drawn == []
    assert [e["templates_checked"] for e in report["witness"]["assignments"]] == [16, 4]


FOUND_AE_DIMACS = "p cnf 3 3\na 1 2 3 0\ne 0\n3 -1 -2 0\n3 0\n-1 -2 3 0\n"


def test_verify_reduction_all_flags_on_three_universal_variables(tmp_path, capsys):
    # a 34x53 gadget whose family holds 14,400 templates: the walk over them
    # took seconds, the closed form a fraction of one
    formula = tmp_path / "f.qcnf"
    formula.write_text(FOUND_AE_DIMACS)
    started = time.perf_counter()
    code, report, err = run(capsys, ["verify-reduction", "eef", str(formula), "--all-flags"])
    assert time.perf_counter() - started < 1.0
    assert code == 0, err
    detail = report["witness"]
    assert (detail["agents"], detail["resources"]) == (34, 53)
    assert [e["templates_checked"] for e in detail["assignments"]] == \
        [512, 64, 2048, 256, 2048, 256, 8192, 1024]
    assert all(e["templates_envy_free"] for e in detail["assignments"])


def test_verify_reduction_eef_decides_each_forall_assignment_once(tmp_path, capsys, monkeypatch):
    # the formula's truth comes from the per-assignment verdicts, not a second sweep
    calls = []
    original = fairdiv.oracles.sat_on_partial

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fairdiv.cli, "sat_on_partial", counting)
    monkeypatch.setattr(fairdiv.oracles, "sat_on_partial", counting)
    formula = tmp_path / "f.qcnf"
    formula.write_text(TRUE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula)])
    assert code == 0 and report["witness"]["formula_true"] is True
    assert len(calls) == 2 ** 1


def test_verify_reduction_unknown_on_tiny_budget(tmp_path, capsys):
    formula = tmp_path / "f.cnf"
    # every sign pattern over two variables: the welfare bound does not cut
    # this gadget's root (that of UNSAT_DIMACS it does), so one node is short
    formula.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    code, report, _ = run(capsys, ["verify-reduction", "po", str(formula), "--budget", "1"])
    assert code == 2
    assert report["verdict"] == "unknown"


def test_verify_reduction_eef_unknown_on_tiny_budget(tmp_path, capsys):
    formula = tmp_path / "f.qcnf"
    formula.write_text(FALSE_AE_DIMACS)
    code, report, _ = run(capsys, ["verify-reduction", "eef", str(formula), "--budget", "1"])
    assert (code, report["verdict"]) == (2, "unknown")
    detail = report["witness"]
    assert detail["family_has_eef"] is None
    assert detail["formula_true"] is False
    [entry] = [e for e in detail["assignments"] if e["s"] == {"x1": False}]
    assert entry["satisfiable_over_exists"] is False
    assert entry["template_efficient"] is None


def test_empty_forall_exists_formula_exits_3(tmp_path, capsys):
    # the construction's envy lemma needs a clause; augmentation adds one per variable
    formula = tmp_path / "f.qcnf"
    formula.write_text("p cnf 0 0\na 0\ne 0\n")
    for argv in (["reduce-eef", str(formula)], ["verify-reduction", "eef", str(formula)]):
        code, report, err = run(capsys, argv)
        assert (code, report) == (3, None)
        assert "no clauses" in err


def test_verify_reduction_is_deterministic(tmp_path, capsys):
    formula = tmp_path / "f.qcnf"
    formula.write_text(TRUE_AE_DIMACS)
    code, first, _ = run(capsys, ["verify-reduction", "eef", str(formula)])
    assert code == 0
    code, second, _ = run(capsys, ["verify-reduction", "eef", str(formula)])
    assert strip_volatile(first) == strip_volatile(second)
    assert json.dumps(strip_volatile(first), sort_keys=True) == \
        json.dumps(strip_volatile(second), sort_keys=True)


# ---------------------------------------------------------------------------
# error handling


def test_usage_errors_exit_3(tmp_path, capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["no-such-command"]) == 3
    capsys.readouterr()
    assert main(["check-pareto"]) == 3   # missing positional
    capsys.readouterr()
    assert main(["verify-reduction", "nope", "x"]) == 3
    capsys.readouterr()


def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    # every handler reads its input through _read first; the subcommand table
    # binds the handlers themselves when the parser is built
    monkeypatch.setattr(fairdiv.cli, "_read", broken)
    code, report, err = run(capsys, ["check-envy", str(tmp_path / "i.json")])
    assert code == 4 and report is None
    assert "error: internal: RuntimeError: boom" in err


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert fairdiv.cli.build_parser() is fairdiv.cli.build_parser()
    # the search of this document needs more than one node
    doc = write_doc(tmp_path, "i.json", additive_instance([[1, 1], [1, 1]]), Allocation([None, None]))
    code, _, err = run(capsys, ["check-pareto"])
    assert code == 3 and "error:" in err
    code, report, _ = run(capsys, ["check-pareto", "--budget", "1", doc])
    assert code == 2 and report["verdict"] == "unknown"
    code, report, _ = run(capsys, ["check-pareto", doc])
    assert code == 1 and report["verdict"] == "no" and report["stats"]["nodes"] > 1
    leximin = write_doc(tmp_path, "m.json", max_atomic_instance([[5, 3], [4, 1]]))
    code, report, _ = run(capsys, ["solve-leximin", leximin, "--K=1,5"])
    assert code == 0 and "threshold" in report["witness"]
    code, report, _ = run(capsys, ["solve-leximin", leximin])
    assert code == 0 and "threshold" not in report["witness"]
    assert report["witness"]["utilities_sorted"] == [3, 4]


FULL_ARGUMENT_LISTS = [
    (["solve-leximin", "i.json", "--K=1,5/2"], {"path": "i.json", "K": "1,5/2"}),
    (["check-pareto", "i.json", "--budget", "7"], {"path": "i.json", "budget": 7}),
    (["check-envy", "i.json"], {"path": "i.json"}),
    (["find-eef", "i.json", "--budget", "7"], {"path": "i.json", "budget": 7}),
    (["reduce-po", "f.cnf", "--out", "o.json"], {"formula": "f.cnf", "out": "o.json"}),
    (["reduce-eef", "f.cnf", "--out", "o.json"], {"formula": "f.cnf", "out": "o.json"}),
    (["verify-reduction", "eef", "f.cnf", "--budget", "7", "--all-flags"],
     {"which": "eef", "path": "f.cnf", "budget": 7, "all_flags": True}),
]


@pytest.mark.parametrize("argv, fields", FULL_ARGUMENT_LISTS, ids=[argv[0] for argv, _ in FULL_ARGUMENT_LISTS])
def test_parse_args_fills_each_subcommand_namespace(argv, fields):
    handler = getattr(fairdiv.cli, "_cmd_" + argv[0].replace("-", "_"))
    args = fairdiv.cli.build_parser().parse_args(argv)
    assert vars(args) == {"command": argv[0], "func": handler, **fields}


LONG_DIGITS = "7" * 5000      # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("cell", [LONG_DIGITS, f'"1/{LONG_DIGITS}"'], ids=["int", "ratio"])
def test_oversized_matrix_entries_exit_3(tmp_path, capsys, cell):
    path = tmp_path / "big.json"
    path.write_text('{"kind": "additive", "agents": ["a1"], "resources": ["o1", "o2"], '
                    f'"matrix": [[1, {cell}]], "allocation": {{"o1": "a1"}}}}')
    code, _, err = run(capsys, ["check-envy", str(path)])
    assert code == 3 and "document.matrix[0][1]" in err


@pytest.mark.parametrize("holder", ['["a"]', "{}"], ids=["list", "object"])
def test_non_string_allocation_holder_exits_3(tmp_path, capsys, holder):
    path = tmp_path / "i.json"
    path.write_text('{"kind": "additive", "agents": ["a"], "resources": ["o"], '
                    f'"matrix": [[1]], "allocation": {{"o": {holder}}}}}')
    code, report, err = run(capsys, ["check-envy", str(path)])
    assert code == 3 and report is None
    assert "document.allocation['o']" in err


def test_deeply_nested_json_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, report, err = run(capsys, ["check-envy", str(path)])
    assert code == 3 and report is None
    assert "nested too deeply" in err


def test_oversized_threshold_token_exits_3(tmp_path, capsys):
    path = write_doc(tmp_path, "i.json", max_atomic_instance([[5, 3], [4, 1]]))
    code, _, err = run(capsys, ["solve-leximin", path, "--K", f"1,1/{LONG_DIGITS}"])
    assert code == 3 and "malformed rational '1/777" in err


def test_missing_and_malformed_files_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, ["solve-leximin", str(tmp_path / "absent.json")])
    assert code == 3 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["solve-leximin", str(bad)])
    assert code == 3 and "error:" in err
    not_dimacs = tmp_path / "f.cnf"
    not_dimacs.write_text("hello world\n")
    code, _, err = run(capsys, ["reduce-po", str(not_dimacs)])
    assert code == 3


SUBCOMMANDS = (
    ["solve-leximin"],
    ["solve-leximin", "--K", "1,1"],
    ["check-pareto", "--budget", "2000"],
    ["check-envy"],
    ["find-eef", "--budget", "2000"],
    ["reduce-po"],
    ["reduce-eef"],
    ["verify-reduction", "po", "--budget", "2000"],
    ["verify-reduction", "eef", "--budget", "2000"],
)


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=" ".join)
def test_files_that_are_not_utf8_exit_3(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b"p cnf 1 1\n1 0\nc caf\xc3\xa9 \xff\n")
    code, report, err = run(capsys, [*argv, str(path)])
    assert (code, report) == (3, None)
    assert f"{path}: not UTF-8 text (byte 22)" in err and "Traceback" not in err


def _quiet_run(argv):
    """``main(argv)``'s exit code and stderr, with its output swallowed; for
    the Hypothesis tests, which cannot share a function-scoped ``capsys``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


VALID_INPUTS = (
    serialize_instance(InstanceDocument(
        additive_instance([[1, Fraction(1, 2), 0], [2, 1, 3]]), Allocation([0, 1, None]))).encode(),
    serialize_instance(InstanceDocument(max_atomic_instance([[5, 3], [4, 1]]))).encode(),
    EXAMPLE_DIMACS.encode(),
    TRUE_AE_DIMACS.encode(),
)

# at most two edits: three digits inserted into a header's variable count
# would ask reduce-po for a gadget of some 10^8 cells
byte_edits = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                                st.integers(0, 400), st.integers(0, 255)), min_size=1, max_size=2)


def _edited(data, edits):
    buf = bytearray(data)
    for op, at, byte in edits:
        if op == "insert":
            buf.insert(at % (len(buf) + 1), byte)
        elif buf and op == "replace":
            buf[at % len(buf)] = byte
        elif buf:
            del buf[at % len(buf)]
    return bytes(buf)


@settings(max_examples=100)
@given(st.sampled_from(VALID_INPUTS), byte_edits)
def test_byte_edits_never_crash_a_subcommand(tmp_path_factory, data, edits):
    path = tmp_path_factory.mktemp("edit") / "input"
    path.write_bytes(_edited(data, edits))
    for argv in SUBCOMMANDS:
        code, err = _quiet_run([*argv, str(path)])
        assert 0 <= code <= 3, err
        assert "Traceback" not in err


@st.composite
def small_formulas(draw):
    """A formula over 0-3 variables with 0-3 clauses of distinct variables,
    and a partition of its variables into a forall and an exists block."""
    num_vars = draw(st.integers(0, 3))
    literals = st.lists(st.integers(1, num_vars), min_size=1, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    clauses = draw(st.lists(literals, max_size=3)) if num_vars else []
    forall = [v for v in range(1, num_vars + 1) if draw(st.booleans())]
    return num_vars, forall, clauses


@settings(max_examples=50)
@given(small_formulas(), st.booleans())
def test_verify_reduction_never_reports_an_unsound_reduction(tmp_path_factory, formula, all_flags):
    num_vars, forall, clauses = formula
    exists = [v for v in range(1, num_vars + 1) if v not in forall]
    directory = tmp_path_factory.mktemp("formula")
    plain = directory / "f.cnf"
    plain.write_text(_dimacs(num_vars, clauses))
    header, body = _dimacs(num_vars, clauses).split("\n", 1)
    blocks = "".join(f"{q} {' '.join(map(str, vs))} 0\n" for q, vs in (("a", forall), ("e", exists)))
    quantified = directory / "f.qcnf"
    quantified.write_text(f"{header}\n{blocks}{body}")
    assert _quiet_run(["verify-reduction", "po", str(plain)])[0] == 0
    code, err = _quiet_run(["verify-reduction", "eef", str(quantified)] + ["--all-flags"] * all_flags)
    assert code == (0 if num_vars else 3), err      # with no variable, no clause either


# ---------------------------------------------------------------------------
# the module run as a program


def test_exit_codes_through_a_real_process(tmp_path):
    """``python -m fairdiv.cli`` passes each verdict's code out of the
    process, through the ``__main__`` guard that in-process tests skip."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    leximin = write_doc(tmp_path, "m.json", max_atomic_instance([[5, 3], [4, 1]]))
    envious = write_doc(tmp_path, "e.json", additive_instance([[1], [1]]), Allocation([1]))
    open_search = write_doc(tmp_path, "p.json", additive_instance([[1, 1], [1, 1]]), Allocation([None, None]))
    cases = [(0, ["solve-leximin", leximin]), (1, ["check-envy", envious]),
             (2, ["check-pareto", "--budget", "1", open_search]),
             (3, ["check-envy", str(tmp_path / "missing.json")])]
    for code, argv in cases:
        done = subprocess.run([sys.executable, "-m", "fairdiv.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        if code < 3:
            assert json.loads(done.stdout)["verdict"] == ("yes", "no", "unknown")[code]
        else:
            assert done.stdout == "" and done.stderr.startswith("error:")
