"""Propositional formulas in clausal form, plus the two-level (forall/exists)
variant used by the envy-free-and-efficient reduction.

Literals follow the DIMACS convention: variables are positive integers, a
negative integer is the negated variable.  Clauses are stored as canonical
tuples — duplicate literals removed, sorted by (variable, polarity) — but the
clause *sequence* of a formula keeps its original order, since constructions
downstream index clauses by position.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .model import ContractError, Record


def literal_holds(lit: int, value: bool) -> bool:
    """Truth of a literal given its variable's value."""
    return value if lit > 0 else not value


def _canonical_clause(clause: Iterable[int], num_vars: int, where: str) -> tuple[int, ...]:
    lits = []
    for lit in clause:
        if isinstance(lit, bool) or not isinstance(lit, int) or lit == 0:
            raise ContractError(f"{where}: literals are non-zero integers, got {lit!r}")
        if abs(lit) > num_vars:
            raise ContractError(f"{where}: literal {lit} exceeds the declared {num_vars} variables")
        lits.append(lit)
    # canonical set form: unique, negative polarity before positive per variable
    return tuple(sorted(set(lits), key=lambda l: (abs(l), l > 0)))


class CnfFormula(Record):
    __slots__ = ("num_vars", "clauses")          # int, tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        if isinstance(num_vars, bool) or not isinstance(num_vars, int) or num_vars < 0:
            raise ContractError(f"num_vars must be a non-negative int, got {num_vars!r}")
        frozen = tuple(_canonical_clause(c, num_vars, f"clause {k}") for k, c in enumerate(clauses))
        for k, c in enumerate(frozen):
            if not c:
                raise ContractError(f"clause {k} is empty")
        super().__init__(num_vars, frozen)


class AEFormula(Record):
    """A clausal formula with a forall block followed by an exists block:
    true iff for every assignment of the forall variables there is an
    assignment of the exists variables satisfying all clauses.

    Every variable 1..num_vars is quantified exactly once.
    """

    # int, tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]
    __slots__ = ("num_vars", "forall_vars", "exists_vars", "clauses")

    def __init__(self, num_vars: int, forall_vars: Iterable[int],
                 exists_vars: Iterable[int], clauses: Iterable[Iterable[int]]):
        cnf = CnfFormula(num_vars, clauses)   # reuse literal/clause validation
        fa = tuple(sorted(set(forall_vars)))
        ex = tuple(sorted(set(exists_vars)))
        for v in fa + ex:
            if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= num_vars:
                raise ContractError(f"quantified variable {v!r} out of range 1..{num_vars}")
        overlap = set(fa) & set(ex)
        if overlap:
            raise ContractError(f"variable {min(overlap)} quantified in both blocks")
        missing = set(range(1, num_vars + 1)) - set(fa) - set(ex)
        if missing:
            raise ContractError(f"variables not quantified: {sorted(missing)}")
        super().__init__(num_vars, fa, ex, cnf.clauses)

    def cnf(self) -> CnfFormula:
        return CnfFormula(self.num_vars, self.clauses)


class PartialAssignment(Record):
    """An assignment of truth values to a subset of the variables."""

    __slots__ = ("values",)                     # tuple[tuple[int, bool], ...]

    def __init__(self, values: Mapping[int, bool] | Iterable[tuple[int, bool]] = ()):
        items = dict(values)
        for v, b in items.items():
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise ContractError(f"variable {v!r} is not a positive int")
            if not isinstance(b, bool):
                raise ContractError(f"value for variable {v} must be a bool, got {b!r}")
        super().__init__(tuple(sorted(items.items())))

    def as_dict(self) -> dict[int, bool]:
        return dict(self.values)


def clause_status(clause: Iterable[int], assignment: Mapping[int, bool]) -> Optional[bool]:
    """True if some literal is satisfied, False if every literal is assigned
    and falsified, None while undecided."""
    undecided = False
    for lit in clause:
        value = assignment.get(abs(lit))
        if value is None:
            undecided = True
        elif literal_holds(lit, value):
            return True
    return None if undecided else False


def formula_satisfied(clauses: Iterable[Iterable[int]], assignment: Mapping[int, bool]) -> bool:
    """All clauses satisfied under a (full enough) assignment."""
    return all(clause_status(c, assignment) is True for c in clauses)


def clauses_with_literal(clauses: Iterable[Iterable[int]], lit: int) -> tuple[int, ...]:
    """Indices of clauses containing the literal (exactly, not its negation)."""
    return tuple(k for k, c in enumerate(clauses) if lit in c)
