"""Command-line interface.

Decision subcommands print a JSON report to stdout and exit with a code that
is a pure function of the verdict: 0 = yes, 1 = no, 2 = unknown.  Exit code 3
means the input (or the way the command was invoked) was itself bad.  Exit
code 4 means the program itself failed (an internal error, reported on stderr
with its traceback), so a crash never passes for a verdict.  The
default search budget comes from --budget, falling back to the
FAIRDIV_BUDGET environment variable, falling back to 10^7 nodes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from .formats import (FormatError, InstanceDocument, Report, allocation_to_json,
                      exit_code, make_report, parse_ae_dimacs, parse_dimacs,
                      parse_instance, rational_from_text, rational_to_json,
                      report_to_json, serialize_instance, sha256_digest,
                      utilities_to_json)
from .formulas import PartialAssignment
from .model import ContractError, UtilityVector, find_envy, utility_vector
from .oracles import (SearchBudget, brute_force_eef, find_dominating_allocation,
                      is_pareto_optimal, sat_on_partial, ae3cnf_eval)
from .reductions import (augment_both_polarities, build_x_forall_allocation,
                         construct_improvement_eef, construct_improvement_po,
                         reduce_3cnf_to_po, reduce_ae3cnf_to_eef,
                         x_forall_allocation_family, x_forall_assignments)
from .solver import beats_threshold, solve_leximin

DEFAULT_NODE_BUDGET = 10_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for "unknown"; route usage problems to exit code 3 instead
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _budget(args) -> SearchBudget:
    if getattr(args, "budget", None) is not None:
        return SearchBudget(args.budget)
    env = os.environ.get("FAIRDIV_BUDGET")
    if env:
        try:
            return SearchBudget(int(env))
        except ValueError:
            raise ContractError(f"FAIRDIV_BUDGET is not an integer: {env!r}") from None
    return SearchBudget(DEFAULT_NODE_BUDGET)


def _emit(report: Report) -> int:
    sys.stdout.write(report_to_json(report))
    return exit_code(report.verdict)


def _load_document(path: str) -> tuple[InstanceDocument, dict]:
    text = _read(path)
    return parse_instance(text), {path: sha256_digest(text)}


def _require_allocation(doc: InstanceDocument):
    if doc.allocation is None:
        raise ContractError("the instance document carries no allocation")
    return doc.allocation


def _cmd_solve_leximin(args) -> int:
    doc, inputs = _load_document(args.instance)
    started = time.perf_counter()
    allocation = solve_leximin(doc.instance)
    vector = utility_vector(doc.instance, allocation)
    wall_ms = (time.perf_counter() - started) * 1000
    if args.K is not None:
        threshold = UtilityVector([rational_from_text(tok) for tok in args.K.split(",")])
        beaten = beats_threshold(vector, threshold)
        witness = {
            "threshold": utilities_to_json(threshold),
            "optimum_sorted": [rational_to_json(v) for v in vector.sorted()],
        }
        report = make_report("solve-leximin", "yes" if beaten else "no",
                             witness=witness, wall_ms=wall_ms, inputs=inputs)
        return _emit(report)
    witness = {
        "allocation": allocation_to_json(doc.instance, allocation),
        "utilities": utilities_to_json(vector),
        "utilities_sorted": [rational_to_json(v) for v in vector.sorted()],
    }
    return _emit(make_report("solve-leximin", "yes", witness=witness,
                             wall_ms=wall_ms, inputs=inputs))


def _cmd_check_pareto(args) -> int:
    doc, inputs = _load_document(args.instance)
    allocation = _require_allocation(doc)
    started = time.perf_counter()
    verdict = is_pareto_optimal(doc.instance, allocation, _budget(args))
    wall_ms = (time.perf_counter() - started) * 1000
    witness = None
    if verdict.is_no:
        witness = {"dominating_allocation": allocation_to_json(doc.instance, verdict.witness)}
    return _emit(make_report("check-pareto", verdict.kind.value, witness=witness,
                             nodes=verdict.nodes, wall_ms=wall_ms, inputs=inputs))


def _cmd_check_envy(args) -> int:
    doc, inputs = _load_document(args.instance)
    allocation = _require_allocation(doc)
    started = time.perf_counter()
    pair = find_envy(doc.instance, allocation)
    wall_ms = (time.perf_counter() - started) * 1000
    if pair is None:
        return _emit(make_report("check-envy", "yes", wall_ms=wall_ms, inputs=inputs))
    witness = {"envious_agent": doc.instance.agents[pair[0]],
               "envied_agent": doc.instance.agents[pair[1]]}
    return _emit(make_report("check-envy", "no", witness=witness,
                             wall_ms=wall_ms, inputs=inputs))


def _cmd_find_eef(args) -> int:
    doc, inputs = _load_document(args.instance)
    started = time.perf_counter()
    verdict = brute_force_eef(doc.instance, _budget(args))
    wall_ms = (time.perf_counter() - started) * 1000
    witness = None
    if verdict.is_yes:
        witness = {"allocation": allocation_to_json(doc.instance, verdict.witness)}
    return _emit(make_report("find-eef", verdict.kind.value, witness=witness,
                             nodes=verdict.nodes, wall_ms=wall_ms, inputs=inputs))


def _write_document(doc: InstanceDocument, out: Optional[str]) -> None:
    text = serialize_instance(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_reduce_po(args) -> int:
    formula = parse_dimacs(_read(args.formula))
    reduction = reduce_3cnf_to_po(formula)
    _write_document(InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping),
                    args.out)
    return 0


def _cmd_reduce_eef(args) -> int:
    formula, _ = augment_both_polarities(parse_ae_dimacs(_read(args.formula)))
    reduction = reduce_ae3cnf_to_eef(formula)
    _write_document(InstanceDocument(reduction.instance, None, reduction.mapping), args.out)
    return 0


def _verify_po(args, inputs: dict, text: str) -> Report:
    formula = parse_dimacs(text)
    reduction = reduce_3cnf_to_po(formula)
    sat = sat_on_partial(formula)
    dominated = find_dominating_allocation(reduction.instance, reduction.baseline, _budget(args))
    nodes = sat.nodes + dominated.nodes
    detail = {
        "agents": reduction.instance.num_agents,
        "resources": reduction.instance.num_resources,
        "satisfiable": sat.is_yes,
        "baseline_dominated": None if dominated.is_unknown else dominated.is_yes,
        "improvement_construction_checked": False,
    }
    if sat.is_yes:
        construct_improvement_po(reduction, sat.witness)   # raises if it would not dominate
        detail["improvement_construction_checked"] = True
    if dominated.is_unknown:
        return make_report("verify-reduction", "unknown", witness=detail, nodes=nodes, inputs=inputs)
    verdict = "yes" if sat.is_yes == dominated.is_yes else "no"
    return make_report("verify-reduction", verdict, witness=detail, nodes=nodes, inputs=inputs)


def _verify_eef(args, inputs: dict, text: str) -> Report:
    formula, _ = augment_both_polarities(parse_ae_dimacs(text))
    reduction = reduce_ae3cnf_to_eef(formula)
    budget = _budget(args)
    nodes = 0
    per_assignment = []
    family_has_eef = False
    sound = True
    unknown = False
    for s in x_forall_assignments(formula):
        templates = [build_x_forall_allocation(reduction, s)]
        if args.all_flags:
            templates = [alloc for s2, alloc in x_forall_allocation_family(reduction, all_flags=True)
                         if s2 == s]
        envy_free = all(find_envy(reduction.instance, t) is None for t in templates)
        sound = sound and envy_free
        sat = sat_on_partial(formula.cnf(), s)
        nodes += sat.nodes
        entry = {
            "s": {f"x{v}": value for v, value in s.values},
            "templates_checked": len(templates),
            "templates_envy_free": envy_free,
            "satisfiable_over_exists": sat.is_yes,
        }
        if sat.is_yes:
            construct_improvement_eef(reduction, templates[0], sat.witness)
            entry["improvement_construction_checked"] = True
            entry["template_efficient"] = False
        else:
            certified = find_dominating_allocation(reduction.instance, templates[0], budget)
            nodes += certified.nodes
            if certified.is_unknown:
                unknown = True
                entry["template_efficient"] = None
            else:
                entry["template_efficient"] = certified.is_no
                sound = sound and certified.is_no
                if certified.is_no:
                    family_has_eef = True
        per_assignment.append(entry)
    truth = ae3cnf_eval(formula)
    detail = {
        "agents": reduction.instance.num_agents,
        "resources": reduction.instance.num_resources,
        "formula_true": truth,
        "family_has_eef": None if unknown else family_has_eef,
        "assignments": per_assignment,
    }
    if unknown:
        return make_report("verify-reduction", "unknown", witness=detail, nodes=nodes, inputs=inputs)
    sound = sound and (truth == (not family_has_eef))
    return make_report("verify-reduction", "yes" if sound else "no",
                       witness=detail, nodes=nodes, inputs=inputs)


def _cmd_verify_reduction(args) -> int:
    text = _read(args.formula)
    inputs = {args.formula: sha256_digest(text)}
    started = time.perf_counter()
    if args.which == "po":
        report = _verify_po(args, inputs, text)
    else:
        report = _verify_eef(args, inputs, text)
    wall_ms = (time.perf_counter() - started) * 1000
    report.stats["wall_ms"] = wall_ms
    return _emit(report)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairdiv",
                     description="Exact fair-division toolkit: leximin solving, "
                                 "efficiency/envy checking, and hardness gadgets.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("solve-leximin", parents=[], help="leximin-optimal allocation "
                       "for a max-atomic instance; with --K, decide whether the "
                       "optimum strictly beats the threshold vector")
    p.add_argument("instance", help="instance document (JSON)")
    p.add_argument("--K", metavar="V1,V2,...",
                   help="comma-separated per-agent threshold utilities (ints or p/q)")
    p.set_defaults(func=_cmd_solve_leximin)

    p = sub.add_parser("check-pareto", help="is the document's allocation Pareto-optimal?")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, help="search node budget")
    p.set_defaults(func=_cmd_check_pareto)

    p = sub.add_parser("check-envy", help="is the document's allocation envy-free?")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check_envy)

    p = sub.add_parser("find-eef", help="search for an envy-free Pareto-optimal allocation")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, help="search node budget")
    p.set_defaults(func=_cmd_find_eef)

    p = sub.add_parser("reduce-po", help="turn a DIMACS 3CNF formula into an instance "
                       "plus baseline whose improvability encodes satisfiability")
    p.add_argument("formula", help="DIMACS CNF file")
    p.add_argument("--out", help="write the instance document here instead of stdout")
    p.set_defaults(func=_cmd_reduce_po)

    p = sub.add_parser("reduce-eef", help="turn a forall/exists DIMACS formula into an "
                       "instance whose envy-free efficient allocations encode falsity "
                       "(tautological clauses are added for missing polarities)")
    p.add_argument("formula", help="DIMACS file with 'a ... 0' and 'e ... 0' lines")
    p.add_argument("--out", help="write the instance document here instead of stdout")
    p.set_defaults(func=_cmd_reduce_eef)

    p = sub.add_parser("verify-reduction", help="run a construction end to end on a "
                       "formula and check it against the direct decision procedure")
    p.add_argument("which", choices=("po", "eef"))
    p.add_argument("formula")
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--all-flags", action="store_true",
                   help="for eef: check envy-freeness of every template variant, "
                        "not just the default one")
    p.set_defaults(func=_cmd_verify_reduction)

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
    except (ContractError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        import traceback   # only on this path: importing it adds ~3 ms to every start-up
        traceback.print_exc(file=sys.stderr)
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
