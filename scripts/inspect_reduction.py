"""Print the allocation instance built from a CNF formula.

Reads a DIMACS file (or uses a small built-in two-clause example), builds the
additive instance whose baseline allocation is Pareto-dominated exactly when
the formula is satisfiable, prints the coefficient table and baseline, and
then runs the dominance search to decide the formula.
"""

import argparse
import pathlib

from fairdiv import (
    CnfFormula,
    DEFAULT_BUDGET,
    SearchBudget,
    find_dominating_allocation,
    parse_dimacs,
    reduce_3cnf_to_po,
    utility_vector,
)

BUILT_IN = CnfFormula(3, [[1, 2, -3], [-1, -2, -3]])


def print_table(instance, baseline) -> None:
    matrix = instance.matrix          # the Fraction view is built on each access
    name_w = max(len(a) for a in instance.agents)
    col_w = [max(len(r), *(len(str(matrix[i][j]))
                           for i in range(instance.num_agents)))
             for j, r in enumerate(instance.resources)]
    header = " ".join(r.rjust(w) for r, w in zip(instance.resources, col_w))
    print(f"{'':{name_w}}  {header}")
    for i, agent in enumerate(instance.agents):
        cells = " ".join(str(matrix[i][j]).rjust(w)
                         for j, w in enumerate(col_w))
        print(f"{agent:{name_w}}  {cells}")
    owners = " ".join(instance.agents[baseline.owner[j]].rjust(w)
                      for j, w in enumerate(col_w))
    print(f"{'baseline owner':{name_w}}  {owners}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dimacs", nargs="?", type=pathlib.Path,
                        help="CNF file; omit to use the built-in example")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET.max_nodes)
    args = parser.parse_args(argv)

    formula = parse_dimacs(args.dimacs.read_text()) if args.dimacs else BUILT_IN
    reduction = reduce_3cnf_to_po(formula)
    instance, baseline = reduction.instance, reduction.baseline

    print(f"{formula.num_vars} variables, {len(formula.clauses)} clauses ->"
          f" {instance.num_agents} agents, {instance.num_resources} resources")
    print_table(instance, baseline)
    base = utility_vector(instance, baseline)
    print("baseline utilities:", [str(u) for u in base.values])

    verdict = find_dominating_allocation(instance, baseline,
                                         SearchBudget(args.budget))
    print(f"dominance search: {verdict.kind.value} after {verdict.nodes} nodes")
    if verdict.is_yes:
        improved = utility_vector(instance, verdict.witness)
        gains = [f"{a}: {b}->{u}" for a, b, u in
                 zip(instance.agents, base.values, improved.values) if u != b]
        print("formula is satisfiable; improvement raises", ", ".join(gains))
    elif verdict.is_no:
        print("formula is unsatisfiable; baseline is Pareto-optimal")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
