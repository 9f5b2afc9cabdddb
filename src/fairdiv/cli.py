"""Command-line interface.

Decision subcommands print a JSON report to stdout and exit with a code that
is a pure function of the verdict: 0 = yes, 1 = no, 2 = unknown.  Exit code 3
means the input (or the way the command was invoked) was itself bad.  Exit
code 4 means the program itself failed (an internal error, reported on stderr
with its traceback), so a crash never passes for a verdict.  A search's
node budget is --budget, or 10^7 nodes without it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional, Sequence

from .formats import (FormatError, InstanceDocument, allocation_to_json,
                      exit_code, make_report, parse_ae_dimacs, parse_dimacs,
                      parse_instance, rational_from_text, rational_to_json,
                      report_to_json, serialize_instance, sha256_digest,
                      utilities_to_json)
from .model import ContractError, UtilityVector, dominates, find_envy, utility_vector
from .oracles import (DEFAULT_BUDGET, SearchBudget, TriVerdict, brute_force_eef,
                      find_dominating_allocation, is_pareto_optimal,
                      sat_on_partial)
from .reductions import (augment_both_polarities, build_x_forall_allocation,
                         construct_improvement_eef, construct_improvement_po,
                         reduce_3cnf_to_po, reduce_ae3cnf_to_eef,
                         x_forall_assignments)
from .solver import beats_threshold, solve_leximin


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for "unknown"; route usage problems to exit code 3 instead
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> tuple[str, str]:
    """The file's text, decoded as strict UTF-8, and the digest of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8"), sha256_digest(data)   # one decode: e.start is a file offset
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _budget(args) -> SearchBudget:
    if args.budget is None:
        return DEFAULT_BUDGET
    if args.budget <= 0:                 # argparse has made it an int
        raise ContractError(f"--budget: expected a positive int, got {args.budget}")
    return SearchBudget(args.budget)


def _require_allocation(doc: InstanceDocument):
    if doc.allocation is None:
        raise ContractError("the instance document carries no allocation")
    return doc.allocation


def _search_report(verdict, key: str, instance):
    """A search's report fields, with the verdict's witness allocation, if any, under ``key``."""
    witness = None if verdict.witness is None else {key: allocation_to_json(instance, verdict.witness)}
    return verdict.kind.value, witness, verdict.nodes


def _reporting(decide):
    """A report command from ``decide(args, text) -> (verdict, witness,
    nodes)``: read the input file, time ``decide`` on its text, and print
    the report, whose exit code follows the verdict."""
    def command(args) -> int:
        text, digest = _read(args.path)
        started = time.perf_counter()
        verdict, witness, nodes = decide(args, text)
        wall_ms = (time.perf_counter() - started) * 1000
        report = make_report(args.command, verdict, witness=witness, nodes=nodes,
                             wall_ms=wall_ms, inputs={args.path: digest})
        sys.stdout.write(report_to_json(report))
        return exit_code(verdict)
    return command


@_reporting
def _cmd_solve_leximin(args, text: str):
    instance = parse_instance(text).instance
    allocation = solve_leximin(instance)
    vector = utility_vector(instance, allocation)
    optimum_sorted = [rational_to_json(v) for v in vector.sorted()]
    if args.K is None:
        return "yes", {"allocation": allocation_to_json(instance, allocation),
                       "utilities": utilities_to_json(vector),
                       "utilities_sorted": optimum_sorted}, 0
    threshold = UtilityVector([rational_from_text(tok) for tok in args.K.split(",")])
    verdict = "yes" if beats_threshold(vector, threshold) else "no"
    return verdict, {"threshold": utilities_to_json(threshold), "optimum_sorted": optimum_sorted}, 0


@_reporting
def _cmd_check_pareto(args, text: str):
    doc = parse_instance(text)
    verdict = is_pareto_optimal(doc.instance, _require_allocation(doc), _budget(args))
    return _search_report(verdict, "dominating_allocation", doc.instance)


@_reporting
def _cmd_check_envy(args, text: str):
    doc = parse_instance(text)
    pair = find_envy(doc.instance, _require_allocation(doc))
    if pair is None:
        return "yes", None, 0
    return "no", {"envious_agent": doc.instance.agents[pair[0]],
                  "envied_agent": doc.instance.agents[pair[1]]}, 0


@_reporting
def _cmd_find_eef(args, text: str):
    instance = parse_instance(text).instance
    return _search_report(brute_force_eef(instance, _budget(args)), "allocation", instance)


def _write_document(doc: InstanceDocument, out: Optional[str]) -> None:
    text = serialize_instance(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_reduce_po(args) -> int:
    formula = parse_dimacs(_read(args.formula)[0])
    reduction = reduce_3cnf_to_po(formula)
    _write_document(InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping),
                    args.out)
    return 0


def _cmd_reduce_eef(args) -> int:
    formula, _ = augment_both_polarities(parse_ae_dimacs(_read(args.formula)[0]))
    reduction = reduce_ae3cnf_to_eef(formula)
    _write_document(InstanceDocument(reduction.instance, None, reduction.mapping), args.out)
    return 0


def _verdict(checks: list) -> str:
    """The verdict of a three-valued conjunction: "no" if a check is False,
    else "unknown" if one is None (undecided), else "yes"."""
    return "no" if False in checks else "unknown" if None in checks else "yes"


def _verify_po(args, text: str):
    formula = parse_dimacs(text)
    reduction = reduce_3cnf_to_po(formula)
    sat = sat_on_partial(formula)
    dominated = find_dominating_allocation(reduction.instance, reduction.baseline, _budget(args))
    detail = {
        "agents": reduction.instance.num_agents,
        "resources": reduction.instance.num_resources,
        "satisfiable": sat.is_yes,
        "baseline_dominated": None if dominated.is_unknown else dominated.is_yes,
        "improvement_construction_checked": sat.is_yes and dominates(
            reduction.instance, construct_improvement_po(reduction, sat.witness), reduction.baseline),
        "sat_nodes": sat.nodes,
        "dominance_nodes": dominated.nodes,
    }
    verdict = _verdict([None if dominated.is_unknown else sat.is_yes == dominated.is_yes,
                        detail["improvement_construction_checked"] or not sat.is_yes])
    return verdict, detail, sat.nodes + dominated.nodes


def _verify_eef(args, text: str):
    formula, _ = augment_both_polarities(parse_ae_dimacs(text))
    reduction = reduce_ae3cnf_to_eef(formula)
    budget = _budget(args)
    cnf = formula.cnf()
    sat_nodes = dominance_nodes = 0
    per_assignment = []
    # per forall assignment, its 2^F templates: the default and any subset of its F flag patches
    for s in x_forall_assignments(reduction.formula):
        template, patches = build_x_forall_allocation(reduction, s)
        patches = patches if args.all_flags else []
        sat = sat_on_partial(cnf, s)
        sat_nodes += sat.nodes
        entry = {
            "s": {f"x{v}": value for v, value in s.values},
            "templates_checked": 2 ** len(patches),
            "templates_envy_free": find_envy(reduction.instance, template, patches) is None,
            "satisfiable_over_exists": sat.is_yes,
        }
        if sat.is_yes:
            improvement = construct_improvement_eef(reduction, template, sat.witness)
            entry["improvement_construction_checked"] = dominates(
                reduction.instance, improvement, template)
            entry["template_efficient"] = False
        else:
            # each search gets what the earlier ones left of the one budget; none starts once it is spent
            left = budget.max_nodes - dominance_nodes
            certified = (find_dominating_allocation(reduction.instance, template, SearchBudget(left))
                         if left > 0 else TriVerdict.unknown())
            dominance_nodes += certified.nodes
            entry["template_efficient"] = None if certified.is_unknown else certified.is_no
        per_assignment.append(entry)
    # three-valued OR: true if one template is certified efficient, else null if one is undecided
    efficient = [entry["template_efficient"] for entry in per_assignment]
    family_has_eef = True if True in efficient else None if None in efficient else False
    # true when every forall assignment leaves the clauses satisfiable over the exists block
    truth = all(entry["satisfiable_over_exists"] for entry in per_assignment)
    detail = {
        "agents": reduction.instance.num_agents,
        "resources": reduction.instance.num_resources,
        "formula_true": truth,
        "family_has_eef": family_has_eef,
        "assignments": per_assignment,
        "sat_nodes": sat_nodes,
        "dominance_nodes": dominance_nodes,
    }
    checks = [None if family_has_eef is None else truth != family_has_eef]
    for entry in per_assignment:
        checks += (entry["templates_envy_free"], entry["improvement_construction_checked"]
                   if entry["satisfiable_over_exists"] else entry["template_efficient"])
    return _verdict(checks), detail, sat_nodes + dominance_nodes


@_reporting
def _cmd_verify_reduction(args, text: str):
    return (_verify_po if args.which == "po" else _verify_eef)(args, text)


_INSTANCE = ("path", {"metavar": "instance"})
_BUDGET = ("--budget", {"type": int, "help": "search node budget"})
_OUT = ("--out", {"help": "write the instance document here instead of stdout"})

# subcommand -> (handler, help, arguments as (name, add_argument keywords) pairs)
_COMMANDS = {
    "solve-leximin": (_cmd_solve_leximin, "leximin-optimal allocation for a max-atomic instance; "
                      "with --K, decide whether the optimum strictly beats the threshold vector",
                      (("path", {"metavar": "instance", "help": "instance document (JSON)"}),
                       ("--K", {"metavar": "V1,V2,...", "help": "comma-separated per-agent threshold "
                                "utilities (ints or p/q); a list that starts with '-' must be "
                                "attached: --K=-1,2"}))),
    "check-pareto": (_cmd_check_pareto, "is the document's allocation Pareto-optimal?",
                     (_INSTANCE, _BUDGET)),
    "check-envy": (_cmd_check_envy, "is the document's allocation envy-free?", (_INSTANCE,)),
    "find-eef": (_cmd_find_eef, "search for an envy-free Pareto-optimal allocation",
                 (_INSTANCE, _BUDGET)),
    "reduce-po": (_cmd_reduce_po, "turn a DIMACS 3CNF formula into an instance plus baseline "
                  "whose improvability encodes satisfiability",
                  (("formula", {"help": "DIMACS CNF file"}), _OUT)),
    "reduce-eef": (_cmd_reduce_eef, "turn a forall/exists DIMACS formula into an instance whose "
                   "envy-free efficient allocations encode falsity (tautological clauses are added "
                   "for missing polarities; a formula with no clauses is rejected)",
                   (("formula", {"help": "DIMACS file with 'a ... 0' and 'e ... 0' lines"}), _OUT)),
    "verify-reduction": (_cmd_verify_reduction, "run a construction end to end on a formula and "
                         "check it against the direct decision procedure",
                         (("which", {"choices": ("po", "eef")}), ("path", {"metavar": "formula"}), _BUDGET,
                          ("--all-flags", {"action": "store_true", "help": "for eef: check envy-freeness "
                                           "of every template variant, not just the default one"}))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in ``_COMMANDS``, built once per
    process: ``parse_args`` fills a fresh namespace on each call."""
    parser = _Parser(prog="fairdiv",
                     description="Exact fair-division toolkit: leximin solving, "
                                 "efficiency/envy checking, and hardness gadgets.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (func, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 3
    try:
        return args.func(args)
    except (ContractError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        import traceback   # only on this path: importing it adds ~3 ms to every start-up
        traceback.print_exc(file=sys.stderr)
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
