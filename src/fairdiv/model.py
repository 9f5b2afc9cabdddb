"""Core model for indivisible-resource allocation problems.

Everything is exact, never floating point, so comparisons (leximin,
dominance, envy) are decidable equalities rather than tolerance checks.  An
instance holds its utilities as scaled ints: one int matrix ``rows`` and one
``scale``, the lcm of the cell denominators.  Hot loops compare those ints;
``matrix``, the cells as `fractions.Fraction`, is a view for the boundary
(reports, reference oracles, tests).  A utility is an int when the scale is
1 and a Fraction otherwise, so an integral instance's utility vectors hold,
sort and compare plain ints; a report writes both types alike.  All
operations are pure functions.  Every record type subclasses `Record`, which
keeps it immutable: its fields are named in ``__slots__``, set once, by
``Record.__init__``, and never set or deleted again.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Iterable, Optional, Sequence, Union


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class WrongUtilityKind(ContractError):
    """Operation applied to an instance with the wrong utility model."""


Rational = Union[int, Fraction]


def _shown(value: object) -> str:
    """A rejected value's repr cut after 40 characters (a string's before
    it is quoted), for messages that echo what a document holds."""
    if isinstance(value, str):
        return repr(value[:40] + "..." if len(value) > 40 else value)
    text = repr(value)
    return text[:40] + "..." if len(text) > 40 else text


class Record:
    """An immutable record.  A subclass names its fields in ``__slots__`` (one
    adding none declares ``__slots__ = ()``), and its ``__init__`` checks its
    arguments and passes the field values, in that order, to
    ``Record.__init__``.  After that no field can be set or deleted.  Two
    records are equal when they are of one class and their field values are
    equal, a record hashes its field values, and its repr is
    ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (type(self), self._values())


def _rebuilt(cls: type, values: tuple) -> Record:
    """The record of class ``cls`` holding ``values``, built without the
    class's own ``__init__``: how a record is unpickled and copied, and how
    a gadget's utilities skip a second check."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


def as_rational(value: object, where: str = "value") -> Rational:
    """``value`` unchanged if it is an exact rational, an int or a Fraction;
    floats and bools are rejected."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    raise ContractError(f"{where}: expected an exact rational, got {value!r}")


def _scaled_matrix(cells: Iterable[Iterable[object]], what: str) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Validate a matrix of exact rationals and return it as int rows and a
    scale, the lcm of the cell denominators: cell (i, j) is ``rows[i][j] /
    scale``.  Floats and bools are rejected.  A row of plain ints is checked
    by the set of its types and kept as it is, any other row cell by cell."""
    rows = []
    scale = 1
    for i, row in enumerate(cells):
        row = tuple(row)
        if rows and len(row) != len(rows[0]):
            raise ContractError(f"{what}[{i}]: expected {len(rows[0])} entries, got {len(row)}")
        if not set(map(type, row)) <= {int}:
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                    raise ContractError(f"{what}[{i}][{j}]: expected an exact rational, got {v!r}")
            row_scale = lcm(*(v.denominator for v in row))
            if row_scale == 1:                   # Fractions p/1 and int subclasses become ints
                row = tuple(v.numerator for v in row)
            scale = lcm(scale, row_scale)
        rows.append(row)
    if scale == 1:
        return tuple(rows), 1
    return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows), scale


class _ScaledUtilities(Record):
    """Utilities held as one immutable int matrix ``rows`` and one scale, the
    lcm of the cell denominators: cell (i, j) is worth ``rows[i][j] / scale``.
    Equal matrices are held alike, and hot loops compare the ints directly,
    since a positive scale keeps every order and equality.  Each model names
    itself by ``kind``, as documents do, and prices a bundle by ``total``,
    a function of the bundle's cells in any unit (a staticmethod, since
    ``functools.partial`` binds as a method from Python 3.14 on)."""

    __slots__ = ("rows", "scale")      # tuple[tuple[int, ...], ...], int

    def __init__(self, cells: Iterable[Iterable[object]]):
        super().__init__(*_scaled_matrix(cells, self._what))

    @classmethod
    def _of_scaled(cls, rows: tuple[tuple[int, ...], ...], scale: int):
        """The model holding ``rows`` and ``scale`` as they are, without a
        check: for a builder whose rows are already plain ints scaled by the
        lcm of its cells' denominators, as ``__init__`` would hold them."""
        return _rebuilt(cls, (rows, scale))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The cells as Fractions, built on each call: a view for reports,
        reference oracles and tests, not for hot loops."""
        scale = self.scale
        return tuple(tuple(Fraction(c, scale) for c in row) for row in self.rows)


class Additive(_ScaledUtilities):
    """Additive utilities: the value of a bundle is the sum of per-resource
    coefficients.  Coefficients may be negative."""

    __slots__ = ()
    kind = "additive"
    _what = "coefficients"
    total = staticmethod(sum)


class MaxAtomic(_ScaledUtilities):
    """Single-minded-style utilities: an agent bids a demand on each resource
    and a bundle is worth the largest demand it contains (0 when empty).
    Demands must be non-negative."""

    __slots__ = ()
    kind = "max-atomic"
    _what = "demands"
    total = staticmethod(partial(max, default=0))

    def __init__(self, demands: Iterable[Iterable[object]]):
        super().__init__(demands)
        for i, row in enumerate(self.rows):
            if min(row, default=0) < 0:
                j = next(j for j, d in enumerate(row) if d < 0)
                raise ContractError(f"demands[{i}][{j}]: demands must be non-negative, "
                                    f"got {Fraction(row[j], self.scale)}")


UtilitySpec = Union[Additive, MaxAtomic]
UTILITY_MODELS = (Additive, MaxAtomic)


class Instance(Record):
    """An allocation problem: named agents, named resources, and one utility
    model over them.  ``m == 0`` (no resources) is legal; ``n == 0`` is not."""

    __slots__ = ("agents", "resources", "utilities")   # tuple[str, ...], tuple[str, ...], UtilitySpec

    def __init__(self, agents: Iterable[str], resources: Iterable[str], utilities: UtilitySpec):
        agents = tuple(agents)
        resources = tuple(resources)
        if not agents:
            raise ContractError("an instance needs at least one agent")
        for name, ids in (("agent", agents), ("resource", resources)):
            if any(not isinstance(x, str) or not x for x in ids):
                raise ContractError(f"{name} ids must be non-empty strings")
            if len(set(ids)) != len(ids):
                raise ContractError(f"duplicate {name} id")
        if not isinstance(utilities, UTILITY_MODELS):
            raise ContractError(f"unsupported utility model: {utilities!r}")
        rows = utilities.rows
        if len(rows) != len(agents):
            raise ContractError(f"matrix has {len(rows)} rows for {len(agents)} agents")
        if len(rows[0]) != len(resources):            # there is a row per agent, so one at least
            raise ContractError(f"matrix rows have {len(rows[0])} entries for {len(resources)} resources")
        super().__init__(agents, resources, utilities)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def kind(self) -> str:
        return self.utilities.kind

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.utilities.matrix


def additive_instance(matrix: Sequence[Sequence[object]],
                      agents: Optional[Sequence[str]] = None,
                      resources: Optional[Sequence[str]] = None) -> Instance:
    """Shorthand constructor with default ids a1.. / o1.. ."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    return Instance(agents or [f"a{i + 1}" for i in range(n)],
                    resources or [f"o{j + 1}" for j in range(m)],
                    Additive(matrix))


def max_atomic_instance(demands: Sequence[Sequence[object]],
                        agents: Optional[Sequence[str]] = None,
                        resources: Optional[Sequence[str]] = None) -> Instance:
    n = len(demands)
    m = len(demands[0]) if n else 0
    return Instance(agents or [f"a{i + 1}" for i in range(n)],
                    resources or [f"o{j + 1}" for j in range(m)],
                    MaxAtomic(demands))


class Allocation(Record):
    """A (possibly partial) assignment of resources to agents.

    ``owner[j]`` is the index of the agent holding resource ``j``, or None if
    the resource is unallocated.  Keying by resource makes double-allocation
    impossible by construction.
    """

    __slots__ = ("owner",)             # tuple[Optional[int], ...]

    def __init__(self, owner: Iterable[Optional[int]]):
        owner = tuple(owner)
        for j, who in enumerate(owner):
            if who is None:
                continue
            if isinstance(who, bool) or not isinstance(who, int) or who < 0:
                raise ContractError(f"owner[{j}]: expected agent index or None, got {who!r}")
        super().__init__(owner)

    @classmethod
    def empty(cls, num_resources: int) -> "Allocation":
        return cls((None,) * num_resources)


def check_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise ContractError unless ``allocation`` fits ``instance``."""
    if len(allocation.owner) != instance.num_resources:
        raise ContractError(
            f"allocation covers {len(allocation.owner)} resources, instance has {instance.num_resources}")
    for j, who in enumerate(allocation.owner):
        if who is not None and who >= instance.num_agents:
            raise ContractError(f"owner[{j}] = {who} is not an agent index")


def bundles_of(owner: Sequence[Optional[int]], num_agents: int) -> list[list[int]]:
    """Each agent's resource indices under an owner vector, in order."""
    bundles: list[list[int]] = [[] for _ in range(num_agents)]
    for j, who in enumerate(owner):
        if who is not None:
            bundles[who].append(j)
    return bundles


def bundle_utility(instance: Instance, agent: int, bundle: Iterable[int]) -> Rational:
    """Value of a set of resources to one agent under the instance's model:
    an int when the instance's scale is 1, else a Fraction."""
    if not 0 <= agent < instance.num_agents:
        raise ContractError(f"agent index {agent} out of range")
    utilities = instance.utilities
    row = utilities.rows[agent]
    items = []
    for j in bundle:
        if not 0 <= j < instance.num_resources:
            raise ContractError(f"resource index {j} out of range")
        items.append(row[j])
    total = utilities.total(items)
    return total if utilities.scale == 1 else Fraction(total, utilities.scale)


class UtilityVector(Record):
    """Per-agent utilities, in agent order, each an int or a Fraction as
    given.  Comparisons use the sorted view."""

    __slots__ = ("values",)            # tuple[Rational, ...]

    def __init__(self, values: Iterable[object]):
        values = tuple(values)
        if not set(map(type, values)) <= {int, Fraction}:     # messages are built only on a rejection
            values = tuple(as_rational(v, f"utility[{i}]") for i, v in enumerate(values))
        super().__init__(values)

    def sorted(self) -> tuple[Rational, ...]:
        return tuple(sorted(self.values))

    def __len__(self) -> int:
        return len(self.values)


def bundle_totals(utilities: UtilitySpec, bundles: Sequence[Sequence[int]]) -> list[int]:
    """Each agent's own bundle priced by its row under the model's
    ``total``: agent i's utility, times the scale."""
    total = utilities.total
    return [total(map(row.__getitem__, bundle)) for row, bundle in zip(utilities.rows, bundles)]


def scaled_utilities(instance: Instance, allocation: Allocation) -> list[int]:
    """Each agent's utility under ``allocation``, times the instance's scale."""
    check_allocation(instance, allocation)
    return bundle_totals(instance.utilities, bundles_of(allocation.owner, instance.num_agents))


def utility_vector(instance: Instance, allocation: Allocation) -> UtilityVector:
    """Each agent's utility: the scaled ints themselves when the scale is 1,
    else Fractions."""
    scale = instance.utilities.scale
    totals = scaled_utilities(instance, allocation)
    return UtilityVector(totals if scale == 1 else (Fraction(t, scale) for t in totals))


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def leximin_compare(left: UtilityVector, right: UtilityVector) -> Ordering:
    """Compare two utility vectors in the leximin order.

    The comparison is lexicographic on the non-decreasing rearrangements, so
    it is indifferent to which agent has which utility; two vectors are EQUAL
    exactly when their sorted views coincide.
    """
    if len(left) != len(right):
        raise ContractError(f"cannot compare vectors of lengths {len(left)} and {len(right)}")
    a, b = left.sorted(), right.sorted()
    if a < b:
        return Ordering.LESS
    if a > b:
        return Ordering.GREATER
    return Ordering.EQUAL


def envy_in_rows(utilities: UtilitySpec, owner: Sequence[Optional[int]],
                 patches: Sequence[Sequence[tuple[int, int, int]]] = ()) -> Optional[tuple[int, int]]:
    """The integer kernel of ``find_envy``, on an owner vector that fits
    ``utilities``: each row makes one pass over the allocated cells, adding
    each into its owner's bundle value by the model's rule (a sum, or a max
    for max-atomic utilities; a zero cell changes neither), agents in order.
    For additive utilities, each patch f (a list of ``(resource, from
    agent, to agent)`` moves, no resource in two patches) adds its own term
    Δ_f(i, k) to i's envy of k, so i's largest envy of k over the
    allocations with any subset of the patches applied is its envy under
    ``owner`` plus every positive Δ_f(i, k)."""
    additive = isinstance(utilities, Additive)
    if patches and not additive:
        raise WrongUtilityKind("the envy of a template family is in closed form only for additive utilities")
    n = len(utilities.rows)
    for i, row in enumerate(utilities.rows):
        values = [0] * n                         # i's value of each agent's bundle
        if additive:
            for c, k in zip(row, owner):
                if c and k is not None:
                    values[k] += c
        else:
            for c, k in zip(row, owner):
                if k is not None and c > values[k]:
                    values[k] = c
        own = values[i]
        for moves in patches:
            delta = defaultdict(int)             # the patch's change to i's value of each bundle
            for j, a, b in moves:
                delta[a] -= row[j]
                delta[b] += row[j]
            mine = delta[i]
            values = [v + max(0, delta.get(k, 0) - mine) for k, v in enumerate(values)]
        for k, v in enumerate(values):
            if v > own and k != i:
                return (i, k)
    return None


def find_envy(instance: Instance, allocation: Allocation,
              patches: Sequence[Sequence[tuple[int, int, int]]] = ()) -> Optional[tuple[int, int]]:
    """First pair (i, k) such that agent i strictly prefers k's bundle to its
    own, or None if the allocation is envy-free; with ``patches``, the first
    such pair in any allocation that applies a subset of them."""
    check_allocation(instance, allocation)
    return envy_in_rows(instance.utilities, allocation.owner, patches)


def is_envy_free(instance: Instance, allocation: Allocation) -> bool:
    return find_envy(instance, allocation) is None


def dominates(instance: Instance, challenger: Allocation, incumbent: Allocation) -> bool:
    """Pareto dominance: every agent at least as well off, someone strictly
    better.  Irreflexive and asymmetric by definition."""
    u = scaled_utilities(instance, challenger)
    v = scaled_utilities(instance, incumbent)
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))
