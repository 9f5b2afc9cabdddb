"""On-disk formats: JSON instance documents, DIMACS formulas, run reports.

Instance documents are plain JSON.  Rationals are encoded as ints or "p/q"
strings — floats are rejected outright, because the whole toolkit promises
exact arithmetic.  A document can optionally carry an allocation (keyed by
resource id) and the role/link annotations produced by the reductions, and
``parse_instance(serialize_instance(doc))`` is the identity.  JSON ints go
into the instance's int matrix as they are; only "p/q" cells pass a Fraction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import time
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Union

from .model import (UTILITY_MODELS, Allocation, ContractError, Instance,
                    Rational, Record, UtilityVector, _shown)
from .formulas import AEFormula, CnfFormula
from .reductions import ROLES, ReductionMap


class FormatError(ValueError):
    """Malformed input document; the message names the offending part."""


# ---------------------------------------------------------------------------
# rationals

# p or p/q in ASCII digits; a command-line token may be either, a document string only p/q
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def rational_to_json(value: Rational, scale: int = 1) -> Union[int, str]:
    """``value / scale`` as an int, or else as a "p/q" string in lowest terms."""
    p, q = value.numerator, value.denominator * scale
    g = gcd(p, q)
    return p // g if g == q else f"{p // g}/{q // g}"


def rational_from_json(value: object, where: str) -> Rational:
    """A JSON int as itself, a "p/q" string as a Fraction."""
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise FormatError(f'{where}: floats are not exact; write rationals as "p/q" strings')
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if not match or match.group(2) is None:
            raise FormatError(f"{where}: malformed rational {_shown(value)}")
        try:
            return Fraction(int(match.group(1)), int(match.group(2)))
        except ValueError as e:          # more digits than int() converts
            raise FormatError(f"{where}: {e}") from None
    # an oversized int's description is shown whole
    shown = repr(value) if isinstance(value, _OversizedInt) else _shown(value)
    raise FormatError(f"{where}: expected a rational, got {shown}")


def rational_from_text(token: str) -> Rational:
    """Rational from a command-line token: an integer as an int, or p/q as a
    Fraction, in ASCII digits, with surrounding whitespace ignored."""
    token = token.strip()
    match = _RATIONAL_RE.fullmatch(token)
    if not match:
        raise ContractError(f"malformed rational {_shown(token)}: expected an integer or p/q")
    numerator, denominator = match.groups()
    try:
        return int(numerator) if denominator is None else Fraction(int(numerator), int(denominator))
    except ValueError as e:              # more digits than int() converts
        raise ContractError(f"malformed rational {_shown(token)}: {e}") from None


# ---------------------------------------------------------------------------
# instance documents

class InstanceDocument(Record):
    """An instance, optionally bundled with an allocation and the reduction
    role annotations."""

    __slots__ = ("instance", "allocation", "mapping")

    def __init__(self, instance: Instance, allocation: Optional[Allocation] = None,
                 mapping: Optional[ReductionMap] = None):
        super().__init__(instance, allocation, mapping)


_DOCUMENT_KEYS = {"kind", "agents", "resources", "matrix", "allocation", "roles"}
_LINK_FIELDS = {field for roles in ROLES.values() for _, fields in roles.values() for field in fields}


def document_to_dict(doc: InstanceDocument) -> dict:
    instance = doc.instance
    scale = instance.utilities.scale
    matrix = [list(row) for row in instance.utilities.rows]
    if scale != 1:                       # a zero cell is 0 at any scale
        for row in matrix:
            for j in itertools.compress(range(len(row)), row):
                row[j] = rational_to_json(row[j], scale)
    data: dict = {
        "kind": instance.kind,
        "agents": list(instance.agents),
        "resources": list(instance.resources),
        "matrix": matrix,
    }
    if doc.allocation is not None:
        data["allocation"] = allocation_to_json(instance, doc.allocation)
    if doc.mapping is not None:
        data["roles"] = {
            "agents": dict(doc.mapping.agent_roles),
            "resources": dict(doc.mapping.resource_roles),
            "links": {k: dict(v) for k, v in doc.mapping.links.items()},
        }
    return data


def serialize_instance(doc: InstanceDocument) -> str:
    """The document as one compact JSON line with sorted keys, byte for byte
    ``json.dumps(document_to_dict(doc), sort_keys=True, separators=(",",
    ":"))`` and a newline.  Each matrix row is written from a row of "0"
    tokens with only its nonzero cells encoded, and the matrix is spliced
    between the fields that sort before and after it."""
    data = document_to_dict(doc)
    zeros = ["0"] * len(doc.instance.resources)
    columns = range(len(zeros))
    rows = []
    for cells in data.pop("matrix"):
        tokens = zeros.copy()
        for j in itertools.compress(columns, cells):            # an int, or a "p/q" string
            tokens[j] = f'"{cells[j]}"' if isinstance(cells[j], str) else str(cells[j])
        rows.append(f"[{','.join(tokens)}]")
    # "agents" and "kind" sort before "matrix", "resources" after it
    head = json.dumps({k: v for k, v in data.items() if k < "matrix"}, sort_keys=True, separators=(",", ":"))
    tail = json.dumps({k: v for k, v in data.items() if k > "matrix"}, sort_keys=True, separators=(",", ":"))
    return f'{head[:-1]},"matrix":[{",".join(rows)}],{tail[1:]}\n'


def _expect(data: Mapping, key: str, kind: type, where: str):
    if key not in data:
        raise FormatError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


class _OversizedInt:
    """A JSON integer with more digits than Python converts.  It stands in
    for the number so that the checks of ``parse_instance``, which reject
    it wherever it sits, can name its path."""

    def __init__(self, digits: str):
        self.digits = digits

    def __repr__(self) -> str:
        return f"an integer of {len(self.digits)} digits, more than Python converts"


def _int_or_oversized(digits: str) -> Union[int, _OversizedInt]:
    try:
        return int(digits)
    except ValueError:
        return _OversizedInt(digits)


def parse_instance(document: str) -> InstanceDocument:
    """Parse the text of a JSON instance document.

    Raises FormatError naming the offending path on any malformed content:
    bad rationals (floats included), shape mismatches, unknown ids, negative
    demands in a max-atomic matrix, malformed roles, and unrecognized fields.
    """
    try:
        try:
            data = json.loads(document)
        except json.JSONDecodeError as e:
            raise FormatError(f"document is not valid JSON: {e}") from None
        except ValueError:
            # an integer past int()'s digit limit; decode again keeping it as a
            # marker, which the checks below reject by its path
            data = json.loads(document, parse_int=_int_or_oversized)
    except RecursionError:
        raise FormatError("document is nested too deeply to decode") from None
    if not isinstance(data, dict):                   # json.loads makes every JSON object a dict
        raise FormatError("document: expected a JSON object")
    unknown = set(data) - _DOCUMENT_KEYS
    if unknown:
        raise FormatError(f"document: unknown field {_shown(min(unknown))}")

    kind = _expect(data, "kind", str, "document")
    model = next((cls for cls in UTILITY_MODELS if cls.kind == kind), None)
    if model is None:
        expected = " or ".join(f'"{cls.kind}"' for cls in UTILITY_MODELS)
        raise FormatError(f"document.kind: expected {expected}, got {_shown(kind)}")
    agents = _expect(data, "agents", list, "document")
    resources = _expect(data, "resources", list, "document")
    indexes = []                                      # id -> position, per side
    for label, ids in (("agents", agents), ("resources", resources)):
        for i, x in enumerate(ids):
            if not isinstance(x, str) or not x:
                raise FormatError(f"document.{label}[{i}]: ids are non-empty strings")
        indexes.append({x: i for i, x in enumerate(ids)})
        if len(indexes[-1]) != len(ids):
            raise FormatError(f"document.{label}: duplicate id")
    agent_index, resource_index = indexes
    matrix_data = _expect(data, "matrix", list, "document")
    if len(matrix_data) != len(agents):
        raise FormatError(f"document.matrix: {len(matrix_data)} rows for {len(agents)} agents")
    # rows that are lists go to the model as they are: it checks their shape and each cell once
    fits = all(isinstance(row, list) for row in matrix_data)
    try:
        instance = Instance(agents, resources, model(matrix_data)) if fits else None
    except ContractError:
        instance = None                               # the loop below names the fault
    if instance is None:
        matrix = []
        for i, row in enumerate(matrix_data):
            if not isinstance(row, list) or len(row) != len(resources):
                raise FormatError(f"document.matrix[{i}]: expected a row of {len(resources)} entries")
            if not set(map(type, row)) <= {int}:      # a row of JSON ints goes to the model as it is
                row = [rational_from_json(v, f"document.matrix[{i}][{j}]") for j, v in enumerate(row)]
            matrix.append(row)
        try:
            instance = Instance(agents, resources, model(matrix))
        except ContractError as e:
            raise FormatError(f"document: {e}") from None

    allocation = None
    if "allocation" in data:
        alloc_data = _expect(data, "allocation", dict, "document")
        owner: list[Optional[int]] = [None] * len(resources)
        for rid, aid in alloc_data.items():
            if rid not in resource_index:
                raise FormatError(f"document.allocation: unknown resource id {_shown(rid)}")
            if aid is None:
                continue
            if not isinstance(aid, str):
                raise FormatError(f"document.allocation[{_shown(rid)}]: expected an agent id or null, "
                                  f"got {type(aid).__name__}")
            if aid not in agent_index:
                raise FormatError(f"document.allocation[{_shown(rid)}]: unknown agent id {_shown(aid)}")
            owner[resource_index[rid]] = agent_index[aid]
        allocation = Allocation(owner)

    mapping = None
    if "roles" in data:
        roles = _expect(data, "roles", dict, "document")
        unknown = set(roles) - {"agents", "resources", "links"}
        if unknown:
            raise FormatError(f"document.roles: unknown field {_shown(min(unknown))}")
        links = roles.get("links", {})
        if not isinstance(links, dict):
            raise FormatError("document.roles.links: expected an object")
        for key, link in links.items():
            if key not in agent_index and key not in resource_index:
                raise FormatError(f"document.roles.links: unknown id {_shown(key)}")
            if not isinstance(link, dict):
                raise FormatError(f"document.roles.links[{_shown(key)}]: expected an object")
            for field, value in link.items():
                if field not in _LINK_FIELDS:
                    raise FormatError(f"document.roles.links[{_shown(key)}]: unknown field {_shown(field)}")
                if isinstance(value, bool) or not isinstance(value, int):
                    raise FormatError(f"document.roles.links[{_shown(key)}].{field}: expected an int")
        # links on ids without a role stay in the map, as a document may carry them
        mapping = ReductionMap({}, {}, {k: dict(v) for k, v in links.items()}, {}, {})
        for side, section, index in (("agent", "agents", agent_index),
                                     ("resource", "resources", resource_index)):
            section_data = roles.get(section, {})
            if not isinstance(section_data, dict):
                raise FormatError(f"document.roles.{section}: expected an object")
            for key, role in section_data.items():
                if key not in index:
                    raise FormatError(f"document.roles.{section}: unknown id {_shown(key)}")
                if not isinstance(role, str):
                    raise FormatError(f"document.roles.{section}[{_shown(key)}]: roles are strings")
                try:
                    mapping.add(side, key, role, mapping.links.get(key, {}), index[key])
                except ContractError as e:
                    raise FormatError(f"document.roles: {e}") from None

    return InstanceDocument(instance, allocation, mapping)


# ---------------------------------------------------------------------------
# DIMACS

def _read_dimacs(text: str, quantified: bool) -> tuple[int, list[tuple[int, ...]], dict]:
    """The one DIMACS reader: 'c' comment lines anywhere, one 'p cnf V C'
    header, then 0-terminated clauses that may span lines.  With
    ``quantified``, one 'a <vars> 0' line and then one 'e <vars> 0' line
    must sit between the header and the first clause; otherwise such a line
    is clause data with an unexpected token.  Returns the variable count,
    the clauses and the quantifier blocks keyed by 'a' / 'e'."""
    num_vars: Optional[int] = None
    declared: Optional[int] = None
    blocks: dict[str, list[int]] = {}
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    if text.startswith("\ufeff"):
        raise FormatError("line 1: unexpected UTF-8 byte-order mark; save the file without it")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if line[0] == "p":
            if num_vars is not None:
                raise FormatError(f"line {lineno}: duplicate 'p cnf' header")
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: malformed header {_shown(line)}")
            try:
                num_vars, declared = _dimacs_int(parts[2], lineno), _dimacs_int(parts[3], lineno)
            except FormatError:
                raise FormatError(f"line {lineno}: malformed header {_shown(line)}") from None
            if num_vars < 0 or declared < 0:
                raise FormatError(f"line {lineno}: negative counts in header")
            continue
        if quantified and parts[0] in ("a", "e"):
            if num_vars is None:
                raise FormatError(f"line {lineno}: quantifier line before the 'p cnf' header")
            if clauses or lits:
                raise FormatError(f"line {lineno}: quantifier line after clause data")
            if parts[0] in blocks:
                raise FormatError(f"line {lineno}: second {parts[0]!r} line")
            if parts[0] == "a" and "e" in blocks:
                raise FormatError(f"line {lineno}: the 'a' line must precede the 'e' line")
            if parts[-1] != "0":
                raise FormatError(f"line {lineno}: quantifier line is not terminated by 0")
            block = blocks[parts[0]] = []
            for token in parts[1:-1]:
                v = _dimacs_int(token, lineno)
                if not 1 <= v <= num_vars:
                    raise FormatError(
                        f"line {lineno}: variable {v} out of range for {num_vars} variables")
                if v in block:
                    raise FormatError(f"line {lineno}: variable {v} quantified twice")
                block.append(v)
            continue
        if num_vars is None:
            raise FormatError(f"line {lineno}: clause data before the 'p cnf' header")
        for token in parts:
            lit = _dimacs_int(token, lineno)
            if lit == 0:
                if not lits:
                    raise FormatError(f"line {lineno}: empty clause")
                clauses.append(tuple(lits))
                lits = []
            else:
                if abs(lit) > num_vars:
                    raise FormatError(
                        f"line {lineno}: literal {lit} out of range for {num_vars} variables")
                lits.append(lit)
    if num_vars is None:
        raise FormatError("missing 'p cnf' header")
    if quantified:
        for q in ("a", "e"):
            if q not in blocks:
                raise FormatError(f"missing {q!r} quantifier line")
    if lits:
        raise FormatError("last clause is not terminated by 0")
    if len(clauses) != declared:
        raise FormatError(f"header declares {declared} clauses, found {len(clauses)}")
    return num_vars, clauses, blocks


def _dimacs_int(token: str, lineno: int) -> int:
    try:    # int() alone would also read '1_0', '+3' and non-ASCII digits
        if token.isascii() and token.removeprefix("-").isdigit():
            return int(token)
    except ValueError:    # more digits than int() converts
        pass
    raise FormatError(f"line {lineno}: unexpected token {_shown(token)}")


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF (see ``_read_dimacs``).  Clause sizes are not
    restricted here — constructions that need 3CNF enforce their own limit."""
    num_vars, clauses, _ = _read_dimacs(text, quantified=False)
    return CnfFormula(num_vars, clauses)


def parse_ae_dimacs(text: str) -> AEFormula:
    """DIMACS with quantifier lines: after the 'p cnf' header, exactly one
    'a <vars> 0' line, then exactly one 'e <vars> 0' line, then clauses.
    Every variable must be quantified exactly once."""
    num_vars, clauses, blocks = _read_dimacs(text, quantified=True)
    try:
        return AEFormula(num_vars, blocks["a"], blocks["e"], clauses)
    except ContractError as e:
        raise FormatError(str(e)) from None


# ---------------------------------------------------------------------------
# reports

def make_report(command: str, verdict: str, *, witness: object = None, nodes: int = 0,
                wall_ms: float = 0.0, inputs: Optional[Mapping[str, str]] = None) -> dict:
    """What a CLI run did: verdict ("yes", "no" or "unknown"), witness, node
    count, timing, and the digests of its inputs."""
    exit_code(verdict)                   # rejects an unknown verdict
    return {
        "command": command,
        "verdict": verdict,
        "witness": witness,
        "stats": {"nodes": nodes, "wall_ms": wall_ms},
        "provenance": {"inputs": dict(inputs or {})},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }


def report_to_json(report: Mapping) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def strip_volatile(report_data: Mapping) -> dict:
    """Drop the timing metadata (timestamp and wall-clock stat) so two runs
    of the same command can be compared byte-for-byte."""
    data = {k: v for k, v in report_data.items() if k != "generated_at"}
    if isinstance(data.get("stats"), dict):
        data["stats"] = {k: v for k, v in data["stats"].items() if k != "wall_ms"}
    return data


def exit_code(verdict: str) -> int:
    """Process exit code as a pure function of the verdict."""
    codes = {"yes": 0, "no": 1, "unknown": 2}
    if verdict not in codes:
        raise ContractError(f"unknown verdict {verdict!r}")
    return codes[verdict]


def sha256_digest(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


# serialization helpers for witnesses

def allocation_to_json(instance: Instance, allocation: Allocation) -> dict:
    return {rid: (None if who is None else instance.agents[who])
            for rid, who in zip(instance.resources, allocation.owner)}


def utilities_to_json(vector: UtilityVector) -> list:
    return [rational_to_json(v) for v in vector.values]
