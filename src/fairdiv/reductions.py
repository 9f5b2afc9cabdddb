"""Hardness gadgets: from formulas to allocation instances.

Two constructions live here, both producing additive instances.

* ``reduce_3cnf_to_po``: a 3CNF formula becomes an instance plus a baseline
  allocation such that the formula is satisfiable **iff** the baseline is not
  Pareto-optimal.  Each variable gets a pair of assignment agents (one per
  polarity) whose coefficients count literal occurrences; a "satisfied"
  collector agent and an "unassigned" agent complete the account so that any
  Pareto improvement must encode a satisfying assignment and vice versa.

* ``reduce_ae3cnf_to_eef``: a two-level forall/exists clausal formula becomes
  an instance that admits an envy-free Pareto-optimal allocation **iff** the
  formula is false.  For every assignment ``s`` of the forall block there is
  a family of template allocations (built by ``build_x_forall_allocation``);
  each is always envy-free, and it is Pareto-optimal exactly when the clauses
  are *unsatisfiable* over the exists block given ``s``.  That function is
  the only place the layout is written: it returns the default template of
  ``s`` with each flag's patch, the moves that setting that flag makes, and
  the family walk, its closed-form check and ``construct_improvement_eef``'s
  template recognition all read that pair.  Helper and
  envy-protection agents, compensation resources, and two envy anchor
  resources keep every other corner of the allocation space either envious
  or dominated.

Both constructions are paired with explicit improvement procedures
(``construct_improvement_po`` / ``construct_improvement_eef``) that turn a
satisfying assignment into a dominating allocation, which is how the forward
directions are certified in tests without any search.

Every agent and resource of a gadget carries a role and a link (the clause,
literal or variable it stands for).  ``ROLES`` is the one place where roles
are defined: it gives each role the tag and link fields of its structured
key.  The gadget builder and the document parser (``formats.parse_instance``)
both index an id through ``ReductionMap.add``, which derives its key from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Union

from .formulas import (AEFormula, CnfFormula, PartialAssignment,
                       clauses_with_literal, formula_satisfied,
                       is_assignment_over, literal_holds, literal_variable)
from .model import Additive, Allocation, ContractError, Instance, as_rational

# role -> (tag, link fields): an id's structured key is (tag, *link values),
# so the role and link a document carries are enough to rebuild it
ROLES = {
    "agent": {
        "clause": ("clause", ("clause",)),
        "assignment": ("set", ("literal",)),
        "existential-assignment": ("set", ("literal",)),
        "universal-assignment": ("set", ("literal",)),
        "universal-assignment-helper": ("helper", ("literal",)),
        "envy-protection": ("ep", ("clause", "literal")),
        "unassigned": ("unassigned", ()),
        "unassigned-envy-protection": ("unassigned_ep", ()),
        "satisfied": ("satisfied", ()),
    },
    "resource": {
        "variable": ("var", ("variable",)),
        "universal-variable": ("var", ("variable",)),
        "existential-variable": ("var", ("variable",)),
        "universal-variable-compensation": ("var_comp", ("variable",)),
        "clause": ("clause", ("clause",)),
        "clause-compensation": ("clause_comp", ("clause",)),
        "literal": ("lit", ("clause", "literal")),
        "universal-literal": ("lit", ("clause", "literal")),
        "existential-literal": ("lit", ("clause", "literal")),
        "assignment-helper": ("helper", ("literal",)),
        "literal-envy-protection": ("lit_ep", ("clause", "literal")),
        "satisfied": ("satisfied", ()),
        "envy-anchor-1": ("envy1", ()),
        "envy-anchor-2": ("envy2", ()),
    },
}


def _structured_key(side: str, role: str, link: Mapping) -> tuple:
    """The structured key of an id with ``role`` on ``side`` ("agent" or
    "resource") and ``link``, from ``ROLES``."""
    try:
        tag, fields = ROLES[side][role]
    except KeyError:
        raise ContractError(f"unknown {side} role {role!r}") from None
    try:
        return (tag, *map(link.__getitem__, fields))
    except KeyError as e:
        raise ContractError(f"{side} role {role!r} needs link field {e.args[0]!r}") from None


def _lit_id(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping that ties instance ids back to formula structure.

    ``agent_roles`` / ``resource_roles`` tag every id with its role;
    ``links`` records which clause / literal / variable an id came from.
    ``agent_key`` / ``resource_key`` are derived indexes for structured
    lookup, e.g. ``mapping.agent("set", -3)`` or
    ``mapping.resource("lit", 0, 2)``.
    """

    agent_roles: dict
    resource_roles: dict
    links: dict
    agent_key: dict
    resource_key: dict

    def agent(self, *key) -> int:
        return self.agent_key[key]

    def resource(self, *key) -> int:
        return self.resource_key[key]

    def add(self, side: str, xid: str, role: str, link: Mapping, idx: int) -> None:
        """Record the role and link of ``xid`` and index its position ``idx``
        by its structured key; two ids on one ``side`` with the same key are
        a ContractError, since lookups could reach only one of them."""
        roles, index = ((self.agent_roles, self.agent_key) if side == "agent"
                        else (self.resource_roles, self.resource_key))
        key = _structured_key(side, role, link)
        if key in index:
            raise ContractError(f"{side} {xid!r} repeats the structured key {key!r}")
        index[key] = idx
        roles[xid] = role
        if link:
            self.links[xid] = link


class _GadgetBuilder:
    """Accumulates agents, resources, and sparse coefficients in order."""

    def __init__(self):
        self.agent_ids: list[str] = []
        self.resource_ids: list[str] = []
        self.mapping = ReductionMap({}, {}, {}, {}, {})
        self.coeff: dict = {}          # (agent index, resource index) -> int or Fraction

    def add_agent(self, aid: str, role: str, **link) -> None:
        self.mapping.add("agent", aid, role, link, len(self.agent_ids))
        self.agent_ids.append(aid)

    def add_resource(self, rid: str, role: str, **link) -> None:
        self.mapping.add("resource", rid, role, link, len(self.resource_ids))
        self.resource_ids.append(rid)

    def set(self, agent_key: tuple, resource_key: tuple, value) -> None:
        cell = (self.mapping.agent_key[agent_key], self.mapping.resource_key[resource_key])
        self.coeff[cell] = value

    def instance(self) -> Instance:
        n, m = len(self.agent_ids), len(self.resource_ids)
        matrix = [[0] * m for _ in range(n)]
        for (i, j), v in self.coeff.items():
            matrix[i][j] = v
        return Instance(self.agent_ids, self.resource_ids, Additive(matrix))


def _check_clause_sizes(clauses: Iterable[tuple[int, ...]]) -> None:
    for k, clause in enumerate(clauses):
        if len(clause) > 3:
            raise ContractError(
                f"clause {k} has {len(clause)} literals; the construction takes at most 3")


# ---------------------------------------------------------------------------
# satisfiability -> Pareto-optimality

@dataclass(frozen=True)
class PoReduction:
    formula: CnfFormula
    instance: Instance
    baseline: Allocation
    mapping: ReductionMap


def reduce_3cnf_to_po(formula: CnfFormula) -> PoReduction:
    """Build the instance + baseline whose Pareto-improvability encodes
    satisfiability of ``formula``.

    Sizes: 2w + w' + 2 agents and w + w' + L + 1 resources, where w is the
    number of variables, w' the number of clauses, and L the total number of
    literal occurrences.
    """
    _check_clause_sizes(formula.clauses)
    w = formula.num_vars
    clauses = formula.clauses
    b = _GadgetBuilder()

    for k in range(len(clauses)):
        b.add_agent(f"a:c{k + 1}", "clause", clause=k)
    for v in range(1, w + 1):
        for lit in (v, -v):
            b.add_agent(f"a:set({_lit_id(lit)})", "assignment", literal=lit)
    b.add_agent("a:unassigned", "unassigned")
    b.add_agent("a:satisfied", "satisfied")

    for v in range(1, w + 1):
        b.add_resource(f"o:x{v}", "variable", variable=v)
    for k in range(len(clauses)):
        b.add_resource(f"o:c{k + 1}", "clause", clause=k)
    for k, clause in enumerate(clauses):
        for lit in clause:
            b.add_resource(f"o:c{k + 1},{_lit_id(lit)}", "literal", clause=k, literal=lit)
    b.add_resource("o:satisfied", "satisfied")

    # variable resources: worth 1 to the unassigned agent, and to each
    # polarity's assignment agent as much as that literal occurs
    for v in range(1, w + 1):
        b.set(("unassigned",), ("var", v), 1)
        for lit in (v, -v):
            occurrences = len(clauses_with_literal(clauses, lit))
            if occurrences:
                b.set(("set", lit), ("var", v), occurrences)
    # clause resources: the clause agent or the satisfied collector
    for k in range(len(clauses)):
        b.set(("clause", k), ("clause", k), 1)
        b.set(("satisfied",), ("clause", k), 1)
    # literal occurrence resources: the clause agent or the literal's agent
    for k, clause in enumerate(clauses):
        for lit in clause:
            b.set(("clause", k), ("lit", k, lit), 1)
            b.set(("set", lit), ("lit", k, lit), 1)
    # the bonus resource: the whole point of the gadget.  The unassigned
    # agent's w+1 beats its baseline of w exactly when everything else can be
    # handed off along a satisfying assignment.
    b.set(("satisfied",), ("satisfied",), len(clauses))
    b.set(("unassigned",), ("satisfied",), w + 1)

    mapping = b.mapping
    owner: list[Optional[int]] = [None] * len(b.resource_ids)
    for v in range(1, w + 1):
        owner[mapping.resource("var", v)] = mapping.agent("unassigned")
    for k, clause in enumerate(clauses):
        owner[mapping.resource("clause", k)] = mapping.agent("clause", k)
        for lit in clause:
            owner[mapping.resource("lit", k, lit)] = mapping.agent("set", lit)
    owner[mapping.resource("satisfied")] = mapping.agent("satisfied")

    return PoReduction(formula, b.instance(), Allocation(owner), mapping)


def _full_assignment(assignment: Union[PartialAssignment, Mapping[int, bool]],
                     num_vars: int) -> dict[int, bool]:
    values = assignment.as_dict() if isinstance(assignment, PartialAssignment) else dict(assignment)
    if set(values) != set(range(1, num_vars + 1)):
        raise ContractError(f"assignment must set exactly the variables 1..{num_vars}")
    return values


def construct_improvement_po(reduction: PoReduction,
                             assignment: Union[PartialAssignment, Mapping[int, bool]]) -> Allocation:
    """Turn a satisfying assignment into an allocation dominating the
    baseline: each variable resource moves to the assignment agent of its
    true literal, that agent hands its occurrence resources to the clause
    agents, the clause agents release their clause resources to the
    satisfied collector, and the bonus resource moves to the unassigned
    agent (its one strict gain, w -> w + 1)."""
    values = _full_assignment(assignment, reduction.formula.num_vars)
    if not formula_satisfied(reduction.formula.clauses, values):
        raise ContractError("the assignment does not satisfy the formula")
    mapping = reduction.mapping
    owner = list(reduction.baseline.owner)
    for v in range(1, reduction.formula.num_vars + 1):
        true_lit = v if values[v] else -v
        owner[mapping.resource("var", v)] = mapping.agent("set", true_lit)
        for k in clauses_with_literal(reduction.formula.clauses, true_lit):
            owner[mapping.resource("lit", k, true_lit)] = mapping.agent("clause", k)
    for k in range(len(reduction.formula.clauses)):
        owner[mapping.resource("clause", k)] = mapping.agent("satisfied")
    owner[mapping.resource("satisfied")] = mapping.agent("unassigned")
    return Allocation(owner)


# ---------------------------------------------------------------------------
# forall/exists -> envy-free + Pareto-optimal

@dataclass(frozen=True)
class EefReduction:
    formula: AEFormula
    instance: Instance
    mapping: ReductionMap
    big_m: Fraction


def _unbalanced_variables(formula: Union[CnfFormula, AEFormula]) -> list[int]:
    """Variables that do not occur in both polarities, in order."""
    literals = {lit for clause in formula.clauses for lit in clause}
    return [v for v in range(1, formula.num_vars + 1) if v not in literals or -v not in literals]


def augment_both_polarities(
        formula: Union[CnfFormula, AEFormula],
) -> tuple[Union[CnfFormula, AEFormula], tuple[tuple[int, int], ...]]:
    """Append the tautological clause {v, not v} for every variable that is
    missing a polarity (or missing entirely).  Tautologies never change the
    formula's truth value, and the result satisfies the both-polarity
    precondition of ``reduce_ae3cnf_to_eef``.

    Returns the (possibly identical) formula of the same kind together with
    the tuple of clauses that were added; idempotent, so a second call adds
    nothing.
    """
    extra = tuple((-v, v) for v in _unbalanced_variables(formula))
    if not extra:
        return formula, ()
    clauses = formula.clauses + extra
    if isinstance(formula, AEFormula):
        return AEFormula(formula.num_vars, formula.forall_vars,
                         formula.exists_vars, clauses), extra
    return CnfFormula(formula.num_vars, clauses), extra


def reduce_ae3cnf_to_eef(formula: AEFormula, big_m: Optional[object] = None) -> EefReduction:
    """Build the instance whose envy-free Pareto-optimal allocations encode
    falsity of the two-level formula.

    Requires at least one clause, since the envy lemma of the construction
    needs one, and every variable to occur in both polarities (see
    ``augment_both_polarities``).  ``big_m`` defaults to one more than the
    sum of the absolute values of all ordinary coefficients, which makes the
    large coefficients impossible to compensate; any strictly larger value
    works and leaves all verdicts unchanged.

    Sizes: 4|forall| + 2|exists| + |C| + Lu + 3 agents and
    4|forall| + |exists| + 2|C| + L + Lu + 3 resources, where L counts all
    literal occurrences and Lu only universal ones.
    """
    _check_clause_sizes(formula.clauses)
    if not formula.clauses:
        raise ContractError("the formula has no clauses; the construction needs at least one")
    unbalanced = _unbalanced_variables(formula)
    if unbalanced:
        raise ContractError(f"variable {unbalanced[0]} does not occur in both polarities; "
                            f"apply augment_both_polarities first")
    clauses = formula.clauses
    forall_vars = formula.forall_vars
    exists_vars = formula.exists_vars
    universal = set(forall_vars)
    # one step above everything an agent can reach through ordinary trades
    t = len(exists_vars) + len(forall_vars) + len(clauses) + 1

    def occ(lit: int) -> int:
        return len(clauses_with_literal(clauses, lit))

    b = _GadgetBuilder()
    for k in range(len(clauses)):
        b.add_agent(f"a:c{k + 1}", "clause", clause=k)
    for v in forall_vars:
        for lit in (v, -v):
            b.add_agent(f"a:set({_lit_id(lit)})", "universal-assignment", literal=lit)
        for lit in (v, -v):
            b.add_agent(f"a:set({_lit_id(lit)}):helper", "universal-assignment-helper", literal=lit)
    for v in exists_vars:
        for lit in (v, -v):
            b.add_agent(f"a:set({_lit_id(lit)})", "existential-assignment", literal=lit)
    for k, clause in enumerate(clauses):
        for lit in clause:
            if literal_variable(lit) in universal:
                b.add_agent(f"a:ep(c{k + 1},{_lit_id(lit)})", "envy-protection",
                            clause=k, literal=lit)
    b.add_agent("a:unassigned", "unassigned")
    b.add_agent("a:unassigned:ep", "unassigned-envy-protection")
    b.add_agent("a:satisfied", "satisfied")

    for v in forall_vars:
        b.add_resource(f"o:x{v}", "universal-variable", variable=v)
        b.add_resource(f"o:x{v}:comp", "universal-variable-compensation", variable=v)
        for lit in (v, -v):
            b.add_resource(f"o:set({_lit_id(lit)}):helper", "assignment-helper", literal=lit)
    for v in exists_vars:
        b.add_resource(f"o:x{v}", "existential-variable", variable=v)
    for k in range(len(clauses)):
        b.add_resource(f"o:c{k + 1}", "clause", clause=k)
        b.add_resource(f"o:c{k + 1}:comp", "clause-compensation", clause=k)
    for k, clause in enumerate(clauses):
        for lit in clause:
            role = "universal-literal" if literal_variable(lit) in universal else "existential-literal"
            b.add_resource(f"o:c{k + 1},{_lit_id(lit)}", role, clause=k, literal=lit)
    for k, clause in enumerate(clauses):
        for lit in clause:
            if literal_variable(lit) in universal:
                b.add_resource(f"o:c{k + 1},{_lit_id(lit)}:ep", "literal-envy-protection",
                               clause=k, literal=lit)
    b.add_resource("o:satisfied", "satisfied")
    b.add_resource("o:envy1", "envy-anchor-1")
    b.add_resource("o:envy2", "envy-anchor-2")

    # ordinary (non-M) coefficients first, so the default M can dominate them
    for k, clause in enumerate(clauses):
        b.set(("satisfied",), ("clause", k), 1)
        b.set(("unassigned",), ("clause_comp", k), 1)
        for lit in clause:
            b.set(("clause", k), ("lit", k, lit), 1)
            if literal_variable(lit) in universal:
                b.set(("helper", lit), ("lit", k, lit), 1)
                b.set(("ep", k, lit), ("lit", k, lit), 1)
            else:
                b.set(("set", lit), ("lit", k, lit), 1)
    for v in forall_vars:
        b.set(("set", v), ("var", v), 1)
        b.set(("set", -v), ("var", v), 1)
        b.set(("set", v), ("var_comp", v), 1)
        b.set(("set", -v), ("var_comp", v), 1)
        b.set(("unassigned",), ("var_comp", v), 1)
        for lit in (v, -v):
            b.set(("helper", lit), ("helper", lit), occ(lit))
            b.set(("set", lit), ("helper", lit), 1)
            b.set(("set", -lit), ("helper", lit), 1)
    for v in exists_vars:
        b.set(("set", v), ("var", v), occ(v))
        b.set(("set", -v), ("var", v), occ(-v))
        b.set(("unassigned",), ("var", v), 1)
    b.set(("unassigned",), ("satisfied",), t)
    b.set(("satisfied",), ("satisfied",), len(clauses))
    b.set(("unassigned",), ("envy1",), 2 * t)
    b.set(("satisfied",), ("envy1",), Fraction(1, 2))
    b.set(("unassigned",), ("envy2",), 3 * t - 1)

    ordinary_sum = sum(abs(v) for v in b.coeff.values())
    if big_m is None:
        m_value = ordinary_sum + 1
    else:
        m_value = as_rational(big_m, "big_m")
        if m_value <= ordinary_sum:
            raise ContractError(
                f"big_m must exceed the sum {ordinary_sum} of ordinary coefficient magnitudes")

    for k, clause in enumerate(clauses):
        b.set(("clause", k), ("clause", k), m_value)
        b.set(("clause", k), ("clause_comp", k), m_value - 1)
        for lit in clause:
            if literal_variable(lit) in universal:
                b.set(("ep", k, lit), ("clause", k), m_value)
                b.set(("ep", k, lit), ("lit_ep", k, lit), m_value)
    b.set(("unassigned_ep",), ("envy2",), m_value)

    return EefReduction(formula, b.instance(), b.mapping, Fraction(m_value))


def default_big_m(formula: AEFormula) -> Fraction:
    """The M value ``reduce_ae3cnf_to_eef`` picks when none is supplied."""
    return reduce_ae3cnf_to_eef(formula).big_m


def build_x_forall_allocation(
        reduction: EefReduction, s: PartialAssignment,
) -> tuple[Allocation, list[list[tuple[int, int, int]]]]:
    """The default template allocation for a forall-block assignment ``s``,
    and the patch of each of its flags.

    ``s`` must set exactly the forall variables.  A patch is the
    ``(resource, from agent, to agent)`` moves that setting its flag makes,
    recorded where the layout places the resources it moves.  The flags, in
    the family's order:

    * one per forall variable v, in ``forall_vars`` order: o:xv moves from
      the positive literal's assignment agent to the negative one's, and the
      true literal's helper resource, parked with the assignment agent that
      did not take o:xv, moves the other way;
    * one per universal literal occurrence that ``s`` makes *false*, in
      clause order: its occurrence resource moves from the literal's helper
      agent to the occurrence's envy-protection agent.

    The false literal's helper resource goes home to its helper agent.  No
    two patches move one resource, so the 2^F templates of ``s`` are the
    default with any subset of its F patches applied.
    """
    formula = reduction.formula
    mapping = reduction.mapping
    if not is_assignment_over(s, formula.forall_vars):
        raise ContractError("s must assign exactly the forall variables")
    svalues = s.as_dict()
    owner: list[Optional[int]] = [None] * reduction.instance.num_resources
    var_patches, lit_patches = [], []

    for k, clause in enumerate(formula.clauses):
        owner[mapping.resource("clause", k)] = mapping.agent("clause", k)
        for lit in clause:
            j = mapping.resource("lit", k, lit)
            v = literal_variable(lit)
            if v not in svalues:
                owner[j] = mapping.agent("set", lit)
                continue
            owner[j] = mapping.agent("helper", lit)
            owner[mapping.resource("lit_ep", k, lit)] = mapping.agent("ep", k, lit)
            if not literal_holds(lit, svalues[v]):
                lit_patches.append([(j, owner[j], mapping.agent("ep", k, lit))])
        owner[mapping.resource("clause_comp", k)] = mapping.agent("unassigned")

    for v in formula.forall_vars:
        pos, neg = mapping.agent("set", v), mapping.agent("set", -v)
        true_lit = v if svalues[v] else -v
        var, parked = mapping.resource("var", v), mapping.resource("helper", true_lit)
        owner[var] = pos
        owner[parked] = neg
        var_patches.append([(var, pos, neg), (parked, neg, pos)])
        owner[mapping.resource("helper", -true_lit)] = mapping.agent("helper", -true_lit)
        owner[mapping.resource("var_comp", v)] = mapping.agent("unassigned")

    for v in formula.exists_vars:
        owner[mapping.resource("var", v)] = mapping.agent("unassigned")

    owner[mapping.resource("satisfied")] = mapping.agent("satisfied")
    owner[mapping.resource("envy1")] = mapping.agent("unassigned")
    owner[mapping.resource("envy2")] = mapping.agent("unassigned_ep")

    # checked, not asserted (-O drops asserts).  The layout writes every
    # resource key, so two keys on one position leave another unowned: this
    # is also what keeps two patches off one resource
    if None in owner:
        raise AssertionError(f"internal error: the template leaves resource "
                             f"{reduction.instance.resources[owner.index(None)]!r} unowned")
    return Allocation(owner), var_patches + lit_patches


def x_forall_assignments(formula: AEFormula) -> Iterator[PartialAssignment]:
    """All 2^|forall| assignments of the forall block, all-false first."""
    for bits in itertools.product((False, True), repeat=len(formula.forall_vars)):
        yield PartialAssignment(dict(zip(formula.forall_vars, bits)))


def x_forall_template_patches(
        reduction: EefReduction, all_flags: bool = False,
) -> Iterator[tuple[PartialAssignment, Allocation, list[list[tuple[int, int, int]]]]]:
    """Per forall assignment ``s``: ``s``, its default template, and the
    patch of each flag as ``build_x_forall_allocation`` records it (no
    patches unless ``all_flags`` is set)."""
    for s in x_forall_assignments(reduction.formula):
        default, patches = build_x_forall_allocation(reduction, s)
        yield s, default, patches if all_flags else []


def x_forall_allocation_family(reduction: EefReduction,
                               all_flags: bool = False) -> Iterator[tuple[PartialAssignment, Allocation]]:
    """The template allocations, one per forall assignment (default flags),
    or every flag combination when ``all_flags`` is set: the default with
    each subset of its F patches applied, first flag outermost.  The command
    line checks the family in closed form (``x_forall_template_patches``);
    this walk is the reference the tests hold that check to."""
    for s, default, patches in x_forall_template_patches(reduction, all_flags):
        for applied in itertools.product((False, True), repeat=len(patches)):
            owner = list(default.owner)
            for moves in itertools.compress(patches, applied):
                for j, _, to in moves:
                    owner[j] = to
            yield s, Allocation(owner)


def construct_improvement_eef(reduction: EefReduction, baseline: Allocation,
                              extension: Union[PartialAssignment, Mapping[int, bool]]) -> Allocation:
    """Given a template allocation for ``s`` and a full assignment extending
    ``s`` that satisfies the clauses, build the allocation that dominates the
    template (the unassigned agent gains exactly 1; nobody loses).

    ``s`` is the extension's values on the forall variables.  ``baseline``
    must be a template of ``s``: the default with each flag patch applied
    whose targets ``baseline`` shows, and with no other difference.

    The resulting allocation deliberately leaves the satisfied collector
    envious of the unassigned agent, so it never counts as envy-free."""
    formula = reduction.formula
    mapping = reduction.mapping
    values = _full_assignment(extension, formula.num_vars)
    if len(baseline.owner) != reduction.instance.num_resources:
        raise ContractError("allocation does not match the instance")
    s = PartialAssignment({v: values[v] for v in formula.forall_vars})
    default, patches = build_x_forall_allocation(reduction, s)
    template = list(default.owner)
    for moves in patches:
        if all(baseline.owner[j] == to for j, _, to in moves):
            for j, _, to in moves:
                template[j] = to
    if tuple(template) != baseline.owner:
        raise ContractError("allocation is not a template allocation for the extension's forall values")
    if not formula_satisfied(formula.clauses, values):
        raise ContractError("the extension does not satisfy the clauses")

    owner = list(baseline.owner)
    owner[mapping.resource("satisfied")] = mapping.agent("unassigned")
    for k in range(len(formula.clauses)):
        owner[mapping.resource("clause", k)] = mapping.agent("satisfied")
        owner[mapping.resource("clause_comp", k)] = mapping.agent("clause", k)
    for v in formula.forall_vars:
        true_lit = v if values[v] else -v
        parked_with = baseline.owner[mapping.resource("helper", true_lit)]
        owner[mapping.resource("var_comp", v)] = parked_with
        owner[mapping.resource("helper", true_lit)] = mapping.agent("helper", true_lit)
        for k in clauses_with_literal(formula.clauses, true_lit):
            owner[mapping.resource("lit", k, true_lit)] = mapping.agent("clause", k)
    for v in formula.exists_vars:
        ext_lit = v if values[v] else -v
        owner[mapping.resource("var", v)] = mapping.agent("set", ext_lit)
        for k in clauses_with_literal(formula.clauses, ext_lit):
            owner[mapping.resource("lit", k, ext_lit)] = mapping.agent("clause", k)
    return Allocation(owner)
