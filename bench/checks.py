"""Checks on each subcommand's output.

Each check tests a property of the answer against the expectations that
``inputs.py`` computed apart from the program, never a stored copy of an
earlier output.  A check raises ``CheckFailed`` naming what is wrong.
Documents and reports are read with ``json`` alone; nothing here imports
``fairdiv``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref

EXIT_CODE = {"yes": 0, "no": 1}


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rational(value):
    """An exact rational from a JSON int or a "p/q" string."""
    require(not isinstance(value, bool) and isinstance(value, (int, str)),
            f"not an exact rational: {value!r}")
    return Fraction(value)


def read_document(path):
    """An instance document: names, exact matrix, and the owner list of its
    allocation (None when it carries none)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    doc = {"agents": data["agents"], "resources": data["resources"], "kind": data["kind"],
           "matrix": [[rational(v) for v in row] for row in data["matrix"]], "owner": None}
    if "allocation" in data:
        doc["owner"] = owner_list(data["allocation"], doc["agents"], doc["resources"])
    return doc


def owner_list(allocation, agents, resources):
    """Owner index (or None) per resource from a {resource id: agent id}
    map, which must name every resource and only known agents."""
    require(isinstance(allocation, dict) and set(allocation) == set(resources),
            "allocation does not list exactly the instance's resources")
    index = {a: i for i, a in enumerate(agents)}
    owner = []
    for rid in resources:
        who = allocation[rid]
        require(who is None or who in index, f"allocation gives {rid} to unknown agent {who!r}")
        owner.append(None if who is None else index[who])
    return owner


def _names(prefix, count):
    return [f"{prefix}{k + 1}" for k in range(count)]


def prepare(call, documents):
    """Turn a plan call's JSON expectations into the objects its check
    compares against; done once per call before timing starts."""
    expect = dict(call["expect"])
    if "bundle_values" in expect:
        expect["bundle_values"] = [[Fraction(v) for v in row] for row in expect["bundle_values"]]
    if "eef" in expect:
        expect["eef"] = {tuple(owner) for owner in expect["eef"]}
    if call["kind"] == "check-pareto":
        expect["document"] = documents.get(call["argv"][1])     # None if writing it failed
    return expect


# ---------------------------------------------------------------------------

def check(call, expect, code, stdout):
    """Raise CheckFailed unless ``stdout`` and the exit code ``code`` of
    running ``call`` are a right answer."""
    kind = call["kind"]
    argv = call["argv"]
    try:
        if kind in ("reduce-po", "reduce-eef"):
            require(code == 0 and stdout == "", f"{kind} exited {code} or wrote to stdout")
            _check_reduction(kind, read_document(argv[-1]), expect)
            return
        report = json.loads(stdout)
        verdict = report.get("verdict")
        require(verdict in EXIT_CODE, f"verdict {verdict!r} is not yes or no")
        require(code == EXIT_CODE[verdict], f"exit code {code} does not match verdict {verdict}")
        require(report.get("command") == argv[0], "report names the wrong command")
        CHECKS[kind](argv, expect, verdict, report.get("witness"))
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError, OSError) as e:
        raise CheckFailed(f"{kind}: malformed output ({type(e).__name__}: {e})") from None


def _check_reduction(kind, doc, expect):
    require(doc["kind"] == "additive", "a reduction must produce an additive document")
    sizes = [len(doc["agents"]), len(doc["resources"])]
    require(sizes == expect["sizes"], f"document has {sizes} agents/resources, expected {expect['sizes']}")
    require(len(doc["matrix"]) == sizes[0] and all(len(r) == sizes[1] for r in doc["matrix"]),
            "matrix shape does not match the id lists")
    if kind == "reduce-po":
        require(doc["owner"] is not None and None not in doc["owner"],
                "the baseline does not cover every resource")


def _solve_leximin(argv, expect, verdict, witness):
    demands = expect["demands"]
    n, m = len(demands), len(demands[0])
    require(verdict == "yes", "solve-leximin must answer yes")
    owner = owner_list(witness["allocation"], _names("a", n), _names("o", m))
    utils = [0] * n
    for j, i in enumerate(owner):
        if i is not None and demands[i][j] > utils[i]:
            utils[i] = demands[i][j]
    require([rational(v) for v in witness["utilities"]] == utils,
            "reported utilities differ from the allocation's")
    require(sorted(utils) == expect["optimum"], "allocation is not leximin-optimal")
    require([rational(v) for v in witness["utilities_sorted"]] == sorted(utils),
            "utilities_sorted is not the sorted utility vector")


def _solve_leximin_k(argv, expect, verdict, witness):
    threshold = sorted(rational(tok) for tok in argv[argv.index("--K") + 1].split(","))
    beaten = expect["optimum"] > threshold      # the leximin order is list order on sorted vectors
    require(verdict == ("yes" if beaten else "no"),
            f"verdict {verdict}, but the optimum {'beats' if beaten else 'does not beat'} the threshold")
    require([rational(v) for v in witness["optimum_sorted"]] == expect["optimum"],
            "optimum_sorted is not the leximin optimum")


def _check_pareto(argv, expect, verdict, witness):
    doc = expect["document"]
    require((verdict == "no") == expect["satisfiable"],
            f"verdict {verdict} on a formula whose satisfiability is {expect['satisfiable']}")
    if verdict == "no":
        challenger = owner_list(witness["dominating_allocation"], doc["agents"], doc["resources"])
        require(ref.pareto_dominates(ref.utilities(doc["matrix"], challenger),
                                     ref.utilities(doc["matrix"], doc["owner"])),
                "the witness does not Pareto-dominate the baseline")


def _verify_po(argv, expect, verdict, witness):
    require(verdict == "yes", "verify-reduction must confirm the construction")
    require(witness["satisfiable"] == expect["satisfiable"], "wrong satisfiability")
    require(witness["baseline_dominated"] == expect["satisfiable"], "wrong dominance verdict")
    require([witness["agents"], witness["resources"]] == expect["sizes"], "wrong instance size")


def _verify_eef(argv, expect, verdict, witness):
    require(verdict == "yes", "verify-reduction must confirm the construction")
    require(witness["formula_true"] == expect["formula_true"], "wrong truth value")
    require(witness["family_has_eef"] == (not expect["formula_true"]), "wrong EEF verdict")
    require([witness["agents"], witness["resources"]] == expect["sizes"], "wrong instance size")


def _find_eef(argv, expect, verdict, witness):
    eef = expect["eef"]
    require((verdict == "yes") == bool(eef), f"verdict {verdict}, but {len(eef)} EEF allocations exist")
    if verdict == "yes":
        n, m = len(expect["matrix"]), len(expect["matrix"][0])
        owner = owner_list(witness["allocation"], _names("a", n), _names("o", m))
        require(tuple(owner) in eef, "the witness is not envy-free and Pareto-optimal")


def _check_envy(argv, expect, verdict, witness):
    values = expect["bundle_values"]
    require((verdict == "yes") == expect["envy_free"],
            f"verdict {verdict} on an instance whose envy-freeness is {expect['envy_free']}")
    if verdict == "no":
        index = {a: i for i, a in enumerate(_names("a", len(values)))}
        i, k = index.get(witness["envious_agent"]), index.get(witness["envied_agent"])
        require(i is not None and k is not None and values[i][k] > values[i][i],
                "the named pair does not envy")


CHECKS = {
    "solve-leximin": _solve_leximin,
    "solve-leximin --K": _solve_leximin_k,
    "check-pareto": _check_pareto,
    "verify-reduction po": _verify_po,
    "verify-reduction eef": _verify_eef,
    "verify-reduction eef --all-flags": _verify_eef,
    "find-eef": _find_eef,
    "check-envy": _check_envy,
}
