"""Core model for indivisible-resource allocation problems.

Everything is exact: utilities are `fractions.Fraction`, never floats, so
comparisons (leximin, dominance, envy) are decidable equalities rather than
tolerance checks.  All types are immutable; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union


class ContractError(ValueError):
    """A caller violated a documented precondition."""


class WrongUtilityKind(ContractError):
    """Operation applied to an instance with the wrong utility model."""


Rational = Union[int, Fraction]


def as_rational(value: object, where: str = "value") -> Fraction:
    """Coerce ``value`` to an exact Fraction, rejecting floats and bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ContractError(f"{where}: expected an exact rational, got {value!r}")


def _freeze_matrix(rows: Iterable[Iterable[object]], what: str) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    width = None
    for i, row in enumerate(rows):
        frozen = tuple(as_rational(v, f"{what}[{i}][{j}]") for j, v in enumerate(row))
        if width is None:
            width = len(frozen)
        elif len(frozen) != width:
            raise ContractError(f"{what}[{i}]: expected {width} entries, got {len(frozen)}")
        out.append(frozen)
    return tuple(out)


@dataclass(frozen=True)
class Additive:
    """Additive utilities: the value of a bundle is the sum of per-resource
    coefficients.  Coefficients may be negative."""

    coefficients: tuple[tuple[Fraction, ...], ...]

    def __init__(self, coefficients: Iterable[Iterable[object]]):
        object.__setattr__(self, "coefficients", _freeze_matrix(coefficients, "coefficients"))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.coefficients


@dataclass(frozen=True)
class MaxAtomic:
    """Single-minded-style utilities: an agent bids a demand on each resource
    and a bundle is worth the largest demand it contains (0 when empty).
    Demands must be non-negative."""

    demands: tuple[tuple[Fraction, ...], ...]

    def __init__(self, demands: Iterable[Iterable[object]]):
        frozen = _freeze_matrix(demands, "demands")
        for i, row in enumerate(frozen):
            for j, d in enumerate(row):
                if d.numerator < 0:     # an int compare; Fraction < 0 dispatches through the numbers ABC
                    raise ContractError(f"demands[{i}][{j}]: demands must be non-negative, got {d}")
        object.__setattr__(self, "demands", frozen)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.demands


UtilitySpec = Union[Additive, MaxAtomic]


@dataclass(frozen=True)
class Instance:
    """An allocation problem: named agents, named resources, and one utility
    model over them.  ``m == 0`` (no resources) is legal; ``n == 0`` is not."""

    agents: tuple[str, ...]
    resources: tuple[str, ...]
    utilities: UtilitySpec

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
        if not isinstance(utilities, (Additive, MaxAtomic)):
            raise ContractError(f"unsupported utility model: {utilities!r}")
        matrix = utilities.matrix
        if len(matrix) != len(agents):
            raise ContractError(f"matrix has {len(matrix)} rows for {len(agents)} agents")
        if matrix and len(matrix[0]) != len(resources):
            raise ContractError(f"matrix rows have {len(matrix[0])} entries for {len(resources)} resources")
        if not matrix and resources:
            raise ContractError("matrix has no rows")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "resources", resources)
        object.__setattr__(self, "utilities", utilities)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def kind(self) -> str:
        return "additive" if isinstance(self.utilities, Additive) else "max-atomic"

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.utilities.matrix


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _common_denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators among ``values`` (1 for none)."""
    return lcm(*set(map(_denominator, values)))


def scale_to_ints(values: Iterable[Fraction], scale: int) -> list[int]:
    """``values`` times ``scale`` as plain ints; ``scale`` must be a multiple
    of every denominator among them."""
    if scale == 1:                   # then every denominator is 1
        return list(map(_numerator, values))
    return [v.numerator * (scale // v.denominator) for v in values]


def scaled_rows(instance: Instance) -> tuple[list[list[int]], int]:
    """The instance's matrix with denominators cleared, and the scale used
    (the lcm of all denominators), so hot loops can run on plain ints.
    Scaling by a positive constant keeps every order and equality."""
    matrix = instance.matrix
    scale = lcm(*map(_common_denominator, matrix))
    return [scale_to_ints(row, scale) for row in matrix], scale


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


@dataclass(frozen=True)
class Allocation:
    """A (possibly partial) assignment of resources to agents.

    ``owner[j]`` is the index of the agent holding resource ``j``, or None if
    the resource is unallocated.  Keying by resource makes double-allocation
    impossible by construction.
    """

    owner: tuple[Optional[int], ...]

    def __init__(self, owner: Iterable[Optional[int]]):
        owner = tuple(owner)
        for j, who in enumerate(owner):
            if who is None:
                continue
            if isinstance(who, bool) or not isinstance(who, int) or who < 0:
                raise ContractError(f"owner[{j}]: expected agent index or None, got {who!r}")
        object.__setattr__(self, "owner", owner)

    @classmethod
    def empty(cls, num_resources: int) -> "Allocation":
        return cls((None,) * num_resources)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((who, j) for j, who in enumerate(self.owner) if who is not None)

    def bundle(self, agent: int) -> tuple[int, ...]:
        return tuple(j for j, who in enumerate(self.owner) if who == agent)


def check_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise ContractError unless ``allocation`` fits ``instance``."""
    if len(allocation.owner) != instance.num_resources:
        raise ContractError(
            f"allocation covers {len(allocation.owner)} resources, instance has {instance.num_resources}")
    for j, who in enumerate(allocation.owner):
        if who is not None and who >= instance.num_agents:
            raise ContractError(f"owner[{j}] = {who} is not an agent index")


def bundle_utility(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Value of a set of resources to one agent under the instance's model."""
    if not 0 <= agent < instance.num_agents:
        raise ContractError(f"agent index {agent} out of range")
    row = instance.matrix[agent] if instance.matrix else ()
    items = []
    for j in bundle:
        if not 0 <= j < instance.num_resources:
            raise ContractError(f"resource index {j} out of range")
        items.append(row[j])
    if isinstance(instance.utilities, Additive):
        return sum(items, Fraction(0))
    # max-atomic: worth of the single best item; an empty bundle is worth 0
    return max(items) if items else Fraction(0)


@dataclass(frozen=True)
class UtilityVector:
    """Per-agent utilities, in agent order.  Comparisons use the sorted view."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Iterable[object]):
        object.__setattr__(
            self, "values",
            tuple(as_rational(v, f"utility[{i}]") for i, v in enumerate(values)))

    def sorted(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def utility_vector(instance: Instance, allocation: Allocation) -> UtilityVector:
    check_allocation(instance, allocation)
    n = instance.num_agents
    additive = isinstance(instance.utilities, Additive)
    totals = [Fraction(0)] * n
    matrix = instance.matrix
    for j, who in enumerate(allocation.owner):
        if who is None:
            continue
        v = matrix[who][j]
        if additive:
            totals[who] += v
        elif v > totals[who]:
            totals[who] = v
    return UtilityVector(totals)


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


def bundles_of(owner: Sequence[Optional[int]], num_agents: int) -> list[list[int]]:
    """Each agent's resource indices under an owner vector, in order."""
    bundles: list[list[int]] = [[] for _ in range(num_agents)]
    for j, who in enumerate(owner):
        if who is not None:
            bundles[who].append(j)
    return bundles


def envy_in_rows(rows: Iterable[Sequence[int]], bundles: Sequence[Sequence[int]],
                 additive: bool) -> Optional[tuple[int, int]]:
    """The integer kernel of ``find_envy``.  ``rows`` yields agent i's
    coefficients as ints, at any positive scale of i's own, one row at a
    time; each row prices every bundle in one pass, and agents are checked
    in order, so a lazy ``rows`` is read no further than the first envious
    agent."""
    for i, row in enumerate(rows):
        price = row.__getitem__
        if additive:
            values = [sum(map(price, bundle)) for bundle in bundles]
        else:                                   # demands are >= 0: an empty bundle is worth 0
            values = [max(map(price, bundle), default=0) for bundle in bundles]
        own = values[i]
        for j, v in enumerate(values):
            if v > own and j != i:
                return (i, j)
    return None


def find_envy(instance: Instance, allocation: Allocation) -> Optional[tuple[int, int]]:
    """First pair (i, j) such that agent i strictly prefers j's bundle to its
    own, or None if the allocation is envy-free.  Each row is cleared of its
    own denominators (only comparisons within a row matter) as it is
    reached."""
    check_allocation(instance, allocation)
    rows = (scale_to_ints(row, _common_denominator(row)) for row in instance.matrix)
    return envy_in_rows(rows, bundles_of(allocation.owner, instance.num_agents),
                        isinstance(instance.utilities, Additive))


def is_envy_free(instance: Instance, allocation: Allocation) -> bool:
    return find_envy(instance, allocation) is None


def dominates(instance: Instance, challenger: Allocation, incumbent: Allocation) -> bool:
    """Pareto dominance: every agent at least as well off, someone strictly
    better.  Irreflexive and asymmetric by definition."""
    u = utility_vector(instance, challenger).values
    v = utility_vector(instance, incumbent).values
    return all(a >= b for a, b in zip(u, v)) and any(a > b for a, b in zip(u, v))
