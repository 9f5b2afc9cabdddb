import json
import random
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdiv.formats
from fairdiv import (
    AEFormula,
    Allocation,
    CnfFormula,
    FormatError,
    InstanceDocument,
    additive_instance,
    augment_both_polarities,
    default_big_m,
    exit_code,
    max_atomic_instance,
    parse_ae_dimacs,
    parse_dimacs,
    parse_instance,
    reduce_3cnf_to_po,
    reduce_ae3cnf_to_eef,
    serialize_instance,
)
from fairdiv.formats import (
    allocation_to_json,
    document_to_dict,
    make_report,
    rational_from_json,
    rational_from_text,
    rational_to_json,
    report_to_json,
    sha256_digest,
    strip_volatile,
    utilities_to_json,
)
from fairdiv.cli import main
from fairdiv.model import Additive, ContractError, Instance, UtilityVector

EXAMPLE_CNF = CnfFormula(3, [[1, 2, -3], [-1, -2, -3]])


# ---------------------------------------------------------------------------
# rationals


def test_rational_json_round_trip():
    assert rational_to_json(Fraction(3)) == 3
    assert rational_to_json(Fraction(-1, 2)) == "-1/2"
    assert rational_from_json(5, "x") == Fraction(5)
    assert rational_from_json("7/3", "x") == Fraction(7, 3)
    assert rational_from_json("-7/3", "x") == Fraction(-7, 3)


def test_rational_json_rejects_floats_and_bools():
    with pytest.raises(FormatError):
        rational_from_json(0.5, "x")
    with pytest.raises(FormatError):
        rational_from_json(True, "x")
    with pytest.raises(FormatError):
        rational_from_json("1/0", "x")
    with pytest.raises(FormatError):
        rational_from_json("1.5", "x")
    with pytest.raises(FormatError):
        rational_from_json("", "x")
    # one ASCII grammar, matched whole: no trailing newline, no other digits,
    # and a bare integer only as a JSON int
    for text in ("1/2\n", "1/1\u0662", "\u0663/2", "+1/2", "1_0/3", "3"):
        with pytest.raises(FormatError):
            rational_from_json(text, "x")


def test_rational_from_text():
    assert rational_from_text("-3") == -3 and type(rational_from_text("-3")) is int
    assert rational_from_text("6/4") == Fraction(3, 2) and type(rational_from_text("6/4")) is Fraction
    assert rational_from_text("5/2") == Fraction(5, 2)
    assert rational_from_text(" 1/2\n") == Fraction(1, 2)
    with pytest.raises(ContractError):
        rational_from_text("2.5")
    for token in ("1_0", "+3", "\u0663", "\uff13", "1/1\u0662", "1/0", "", "-"):
        with pytest.raises(ContractError):
            rational_from_text(token)


# ---------------------------------------------------------------------------
# instance documents


def random_instance(rng, kind):
    n = rng.randint(1, 5)
    m = rng.randint(0, 5)
    if kind == "additive":
        matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
                  for _ in range(n)]
        return additive_instance(matrix)
    matrix = [[Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(m)]
              for _ in range(n)]
    return max_atomic_instance(matrix)


def random_allocation(rng, inst):
    return Allocation([rng.choice([None] + list(range(inst.num_agents)))
                       for _ in range(inst.num_resources)])


def test_round_trip_500_random_documents():
    rng = random.Random(404)
    for trial in range(500):
        kind = "additive" if trial % 2 else "max-atomic"
        inst = random_instance(rng, kind)
        alloc = random_allocation(rng, inst) if trial % 3 else None
        doc = InstanceDocument(inst, alloc)
        parsed = parse_instance(serialize_instance(doc))
        assert parsed.instance == inst
        assert parsed.allocation == alloc
        assert parsed.mapping is None


def cell_value(cell):
    """A document cell, an int or a "p/q" string, as a Fraction."""
    return Fraction(cell) if isinstance(cell, int) else Fraction(*map(int, cell.split("/")))


def fraction_json(value):
    """A Fraction as a document cell: an int when whole, "p/q" in lowest
    terms otherwise."""
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def fraction_encoding(cell):
    """The per-cell encoder serialization must match: through a Fraction,
    then ``fraction_json``."""
    return fraction_json(cell_value(cell))


# ints, negatives, zeros, and "p/q" spellings, unreduced ones included
document_cells = (st.integers(-9, 9) | st.sampled_from(["2/4", "4/2", "-0/3", "3/1", "-6/4"])
                  | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=300)
@given(st.data())
def test_serialization_matches_a_per_cell_fraction_encoder(data):
    kind = data.draw(st.sampled_from(["additive", "max-atomic"]))
    cells = document_cells if kind == "additive" else document_cells.filter(lambda c: cell_value(c) >= 0)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    matrix = data.draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))
    doc = {"kind": kind, "agents": [f"a{i}" for i in range(n)],
           "resources": [f"o{j}" for j in range(m)], "matrix": matrix}
    parsed = parse_instance(json.dumps(doc))
    text = serialize_instance(parsed)
    expected = dict(doc, matrix=[[fraction_encoding(c) for c in row] for row in matrix])
    assert text == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
    assert parse_instance(text) == parsed
    assert parsed.instance.matrix == tuple(tuple(cell_value(c) for c in row) for row in matrix)


def sorted_object(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def assert_written_as_readers_expect(doc):
    """A written document is one ASCII line with sorted keys in every object;
    it is byte for byte the compact ``json.dumps`` of the document with each
    cell encoded on its own, it reads back as ``document_to_dict`` and as
    the document, and the ``indent=2`` layout of earlier versions reads as
    the same document."""
    text = serialize_instance(doc)
    matrix = [[fraction_json(c) for c in row] for row in doc.instance.matrix]
    reference = json.dumps(dict(document_to_dict(doc), matrix=matrix), sort_keys=True, separators=(",", ":"))
    assert text == reference + "\n"
    assert text.endswith("\n") and "\n" not in text[:-1] and text.isascii()
    json.loads(text, object_pairs_hook=sorted_object)
    assert json.loads(text) == document_to_dict(doc)
    assert parse_instance(text) == doc
    assert parse_instance(json.dumps(document_to_dict(doc), indent=2, sort_keys=True) + "\n") == doc


# ids with quotes, backslashes, control and non-ASCII characters, all escaped by the encoder
document_ids = st.text(st.sampled_from('ab"\\/\n\té€😀 :'), min_size=1, max_size=4)


@settings(max_examples=300)
@given(st.data())
def test_serialization_is_one_sorted_line_that_reads_back(data):
    kind = data.draw(st.sampled_from(["additive", "max-atomic"]))
    cells = document_cells if kind == "additive" else document_cells.filter(lambda c: cell_value(c) >= 0)
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))     # m = 0: empty rows
    doc = {"kind": kind,
           "agents": data.draw(st.lists(document_ids, min_size=n, max_size=n, unique=True)),
           "resources": data.draw(st.lists(document_ids, min_size=m, max_size=m, unique=True)),
           "matrix": data.draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))}
    instance = parse_instance(json.dumps(doc)).instance
    owner = data.draw(st.none() | st.lists(st.none() | st.integers(0, n - 1), min_size=m, max_size=m))
    assert_written_as_readers_expect(InstanceDocument(instance, None if owner is None else Allocation(owner)))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    st.lists(st.integers(1, w).flatmap(lambda v: st.sampled_from([v, -v])), min_size=1, max_size=3),
    min_size=1, max_size=4))), st.booleans())
def test_serialization_of_reductions_is_one_sorted_line_that_reads_back(formula, with_baseline):
    num_vars, clauses = formula
    reduction = reduce_3cnf_to_po(CnfFormula(num_vars, clauses))
    assert_written_as_readers_expect(InstanceDocument(
        reduction.instance, reduction.baseline if with_baseline else None, reduction.mapping))


def test_serialization_of_an_eef_gadget_is_one_sorted_line_that_reads_back():
    eef = reduce_ae3cnf_to_eef(AEFormula(2, [1], [2], [[1, 2], [-1, -2]]))
    doc = InstanceDocument(eef.instance, None, eef.mapping)        # "p/q" cells with roles
    assert any(isinstance(c, str) for row in document_to_dict(doc)["matrix"] for c in row)
    assert_written_as_readers_expect(doc)


def test_serialization_of_cells_beyond_64_bits_is_one_sorted_line_that_reads_back():
    instance = additive_instance([[2**70, Fraction(-(2**64 + 1), 3), 0], [0, 0, -(2**65)]])
    assert instance.utilities.scale == 3
    assert_written_as_readers_expect(InstanceDocument(instance, Allocation([1, None, 0])))


def test_serializing_an_eef_gadget_encodes_only_its_nonzero_cells(monkeypatch):
    eef = reduce_ae3cnf_to_eef(AEFormula(2, [1], [2], [[1, 2], [-1, -2]]))
    rows = eef.instance.utilities.rows
    assert eef.instance.utilities.scale == 2
    nonzero = sum(map(bool, (c for row in rows for c in row)))
    assert nonzero < len(rows) * len(rows[0])
    calls = []

    def counted(value, scale=1):
        calls.append(value)
        return rational_to_json(value, scale)

    monkeypatch.setattr(fairdiv.formats, "rational_to_json", counted)
    text = serialize_instance(InstanceDocument(eef.instance, None, eef.mapping))
    assert len(calls) == nonzero
    assert parse_instance(text).instance == eef.instance


def test_round_trip_preserves_reduction_roles():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    doc = InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)
    parsed = parse_instance(serialize_instance(doc))
    assert parsed.instance == reduction.instance
    assert parsed.allocation == reduction.baseline
    assert parsed.mapping.agent_roles == reduction.mapping.agent_roles
    assert parsed.mapping.resource_roles == reduction.mapping.resource_roles
    assert parsed.mapping.links == reduction.mapping.links
    # every structured key is rebuilt from the roles and links alone
    assert parsed.mapping.agent_key == reduction.mapping.agent_key
    assert parsed.mapping.resource_key == reduction.mapping.resource_key


def test_round_trip_eef_reduction_roles():
    reduction = reduce_ae3cnf_to_eef(AEFormula(2, [1], [2], [[1, 2], [-1, -2]]))
    doc = InstanceDocument(reduction.instance, None, reduction.mapping)
    parsed = parse_instance(serialize_instance(doc))
    assert parsed.instance == reduction.instance
    assert parsed.mapping.agent_roles == reduction.mapping.agent_roles
    assert parsed.mapping.resource_roles == reduction.mapping.resource_roles
    assert parsed.mapping.links == reduction.mapping.links
    assert parsed.mapping.agent_key == reduction.mapping.agent_key
    assert parsed.mapping.resource_key == reduction.mapping.resource_key


@st.composite
def gadget_formulas(draw):
    """(num_vars, clauses, forall block): up to 6 variables and 8 clauses of
    1-3 literals, and a forall block drawn from the variables."""
    num_vars = draw(st.integers(1, 6))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), min_size=1, max_size=8))
    return num_vars, clauses, sorted(draw(st.sets(st.integers(1, num_vars))))


@settings(max_examples=100)
@given(gadget_formulas())
def test_gadget_documents_round_trip_with_their_roles(formula):
    num_vars, clauses, forall = formula
    po = reduce_3cnf_to_po(CnfFormula(num_vars, clauses))
    exists = [v for v in range(1, num_vars + 1) if v not in forall]
    ae, _ = augment_both_polarities(AEFormula(num_vars, forall, exists, clauses))
    eef = reduce_ae3cnf_to_eef(ae)
    for doc in (InstanceDocument(po.instance, po.baseline, po.mapping),
                InstanceDocument(eef.instance, None, eef.mapping)):
        parsed = parse_instance(serialize_instance(doc))
        assert parsed == doc
        assert parsed.mapping.agent_key == doc.mapping.agent_key
        assert parsed.mapping.resource_key == doc.mapping.resource_key


@settings(max_examples=100)
@given(gadget_formulas())
def test_gadget_instances_equal_their_checked_rebuild(formula):
    """The builder writes each gadget's rows already scaled; the checked
    constructor, given the same cells, holds the same plain-int rows and
    scale.  An M a third above the default makes the scale 6 and changes
    only the M and M - 1 cells."""
    num_vars, clauses, forall = formula
    exists = [v for v in range(1, num_vars + 1) if v not in forall]
    ae, _ = augment_both_polarities(AEFormula(num_vars, forall, exists, clauses))
    m = default_big_m(ae)
    big_m = m + Fraction(1, 3)
    default, raised = reduce_ae3cnf_to_eef(ae).instance, reduce_ae3cnf_to_eef(ae, big_m).instance
    instances = [reduce_3cnf_to_po(CnfFormula(num_vars, clauses)).instance, default, raised]
    assert [instance.utilities.scale for instance in instances] == [1, 2, 6]
    for instance in instances:
        assert instance == Instance(instance.agents, instance.resources, Additive(instance.matrix))
        assert all(type(c) is int for row in instance.utilities.rows for c in row)
    lift = {m: big_m, m - 1: big_m - 1}
    assert raised.matrix == tuple(tuple(lift.get(c, c) for c in row) for row in default.matrix)


def test_roles_missing_a_link_field_name_the_role_and_the_field():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    data = json.loads(serialize_instance(
        InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)))
    del data["roles"]["links"]["a:c1"]
    with pytest.raises(FormatError, match="agent role 'clause' needs link field 'clause'"):
        parse_instance(json.dumps(data))
    data = json.loads(serialize_instance(
        InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)))
    del data["roles"]["links"]["o:c1,x1"]["literal"]
    with pytest.raises(FormatError) as e:
        parse_instance(json.dumps(data))
    assert str(e.value) == "document.roles: resource role 'literal' needs link field 'literal'"


def test_roles_with_a_repeated_structured_key_are_rejected():
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    data = json.loads(serialize_instance(
        InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)))
    data["roles"]["agents"]["a:unassigned"] = "satisfied"   # a second 'satisfied' agent
    with pytest.raises(FormatError, match="repeats the structured key \\('satisfied',\\)"):
        parse_instance(json.dumps(data))
    data = json.loads(serialize_instance(
        InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)))
    data["roles"]["links"]["o:c2,~x3"] = {"clause": 0, "literal": 1}   # the key of o:c1,x1
    with pytest.raises(FormatError, match="resource 'o:c2,~x3' repeats the structured key"):
        parse_instance(json.dumps(data))


@pytest.mark.parametrize("edit, message", [
    (lambda roles: roles.update(kinds={}), r"document\.roles: unknown field 'kinds'"),
    (lambda roles: roles.update(agents=[]), r"document\.roles\.agents: expected an object"),
    (lambda roles: roles.update(resources="clause"),
     r"document\.roles\.resources: expected an object"),
    (lambda roles: roles.update(links=[]), r"document\.roles\.links: expected an object"),
    (lambda roles: roles["links"].update({"a:c1": 0}),
     r"document\.roles\.links\['a:c1'\]: expected an object"),
    (lambda roles: roles["agents"].update({"a:nobody": "clause"}),
     r"document\.roles\.agents: unknown id 'a:nobody'"),
    (lambda roles: roles["resources"].update({"a:c1": "clause"}),
     r"document\.roles\.resources: unknown id 'a:c1'"),
    (lambda roles: roles["links"].update({"o:nothing": {}}),
     r"document\.roles\.links: unknown id 'o:nothing'"),
    (lambda roles: roles["links"]["a:c1"].update(colour=1),
     r"document\.roles\.links\['a:c1'\]: unknown field 'colour'"),
    (lambda roles: roles["links"]["a:c1"].update(clause="0"),
     r"document\.roles\.links\['a:c1'\]\.clause: expected an int"),
    (lambda roles: roles["links"]["a:c1"].update(clause=True),
     r"document\.roles\.links\['a:c1'\]\.clause: expected an int"),
    (lambda roles: roles["agents"].update({"a:c1": 7}),
     r"document\.roles\.agents\['a:c1'\]: roles are strings"),
    (lambda roles: roles["agents"].update({"a:c1": "judge"}),
     r"document\.roles: unknown agent role 'judge'"),
    (lambda roles: roles["resources"].update({"o:c1": "judge"}),
     r"document\.roles: unknown resource role 'judge'"),
], ids=["section", "agents-list", "resources-string", "links-list", "link-int", "agent-id",
        "resource-id", "link-id", "link-field", "link-string", "link-bool", "role-int",
        "agent-role", "resource-role"])
def test_malformed_roles_blocks_name_their_path(edit, message):
    reduction = reduce_3cnf_to_po(EXAMPLE_CNF)
    data = json.loads(serialize_instance(
        InstanceDocument(reduction.instance, reduction.baseline, reduction.mapping)))
    edit(data["roles"])
    with pytest.raises(FormatError, match=message):
        parse_instance(json.dumps(data))


@pytest.mark.parametrize("label", ["agents", "resources"])
def test_duplicate_ids_name_their_list(label):
    data = {"kind": "additive", "agents": ["a", "b"], "resources": ["o", "p"],
            "matrix": [[1, 2], [3, 4]]}
    data[label] = ["x", "x"]
    with pytest.raises(FormatError, match=f"document\\.{label}: duplicate id"):
        parse_instance(json.dumps(data))


def test_parse_minimal_document():
    doc = parse_instance('{"kind": "max-atomic", "agents": ["a"],'
                         ' "resources": ["o"], "matrix": [[1]]}')
    assert doc.instance.kind == "max-atomic"
    assert doc.instance.matrix == ((Fraction(1),),)


def test_parse_errors_name_the_offending_path():
    base = {"kind": "additive", "agents": ["a"], "resources": ["o", "p"],
            "matrix": [[1, 2]]}

    bad = dict(base, matrix=[[1]])
    with pytest.raises(FormatError, match=r"matrix\[0\]"):
        parse_instance(json.dumps(bad))

    bad = dict(base, matrix=[[1, 0.5]])
    with pytest.raises(FormatError, match=r"matrix\[0\]\[1\]"):
        parse_instance(json.dumps(bad))

    bad = dict(base, kind="fancy")
    with pytest.raises(FormatError, match="kind"):
        parse_instance(json.dumps(bad))

    bad = dict(base, extra=1)
    with pytest.raises(FormatError, match="extra"):
        parse_instance(json.dumps(bad))

    with pytest.raises(FormatError, match="agents"):
        parse_instance(json.dumps({k: v for k, v in base.items() if k != "agents"}))


def test_a_matrix_with_the_wrong_number_of_rows_is_named():
    doc = {"kind": "additive", "agents": ["a", "b"], "resources": ["o"], "matrix": [[1]]}
    with pytest.raises(FormatError) as e:
        parse_instance(json.dumps(doc))
    assert str(e.value) == "document.matrix: 1 rows for 2 agents"


_OVERSIZED = "9" * 5000             # a JSON integer past int()'s digit limit


def two_by_two(kind, cell, row_1):
    """A 2 x 2 document's text with ``cell`` at [0][1] and ``row_1`` as its
    second row; ``_OVERSIZED`` goes in as a bare JSON integer."""
    text = json.dumps({"kind": kind, "agents": ["a", "b"], "resources": ["o", "p"],
                       "matrix": [[1, cell], row_1]})
    return text.replace(json.dumps(_OVERSIZED), _OVERSIZED)


@pytest.mark.parametrize("kind", ["max-atomic", "additive"])
@pytest.mark.parametrize("cell, message", [
    (0.5, 'floats are not exact; write rationals as "p/q" strings'),
    (True, "expected a rational, got a boolean"),
    (None, "expected a rational, got None"),
    ("x", "malformed rational 'x'"),
    ("3", "malformed rational '3'"),
    ([1], "expected a rational, got [1]"),
    ({"a": 1}, "expected a rational, got {'a': 1}"),
    (_OVERSIZED, "expected a rational, got an integer of 5000 digits, more than Python converts"),
], ids=["float", "bool", "null", "word", "int-string", "list", "dict", "oversized"])
def test_a_malformed_cell_is_reported_before_a_later_short_row(kind, cell, message):
    """The first fault in row order is the one reported, whether or not
    every row has the right length."""
    for row_1 in ([2, 3], [2]):
        with pytest.raises(FormatError) as e:
            parse_instance(two_by_two(kind, cell, row_1))
        assert str(e.value) == f"document.matrix[0][1]: {message}"


@pytest.mark.parametrize("cell, message", [
    ("1" * 200_000, "malformed rational '" + "1" * 40 + "...'"),
    (list(range(50_000)), "expected a rational, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1..."),
], ids=["string", "list"])
def test_a_long_malformed_cell_is_shown_cut_after_40_characters(cell, message):
    with pytest.raises(FormatError) as e:
        parse_instance(two_by_two("additive", cell, [2, 3]))
    assert str(e.value) == f"document.matrix[0][1]: {message}"


LONG = "x" * 200_000


def one_cell(**fields):
    return json.dumps({"kind": "additive", "agents": ["a"], "resources": ["o"], "matrix": [[1]],
                       **fields})


# each place a document or DIMACS file can echo one of its values, given a 200,000-character one
LONG_VALUE_SITES = {
    "kind": one_cell(kind=LONG),
    "document field": one_cell(**{LONG: 0}),
    "roles field": one_cell(roles={LONG: {}}),
    "allocation resource id": one_cell(allocation={LONG: "a"}),
    "allocation agent id": one_cell(allocation={"o": LONG}),
    "allocation path, agent type": one_cell(resources=[LONG], allocation={LONG: 0}),
    "allocation path, agent id": one_cell(resources=[LONG], allocation={LONG: "b"}),
    "links id": one_cell(roles={"links": {LONG: {}}}),
    "links path, object": one_cell(agents=[LONG], roles={"links": {LONG: 0}}),
    "links path, field": one_cell(agents=[LONG], roles={"links": {LONG: {"clause": "0"}}}),
    "links field": one_cell(roles={"links": {"a": {LONG: 0}}}),
    "roles id": one_cell(roles={"agents": {LONG: "clause"}}),
    "roles path": one_cell(agents=[LONG], roles={"agents": {LONG: 0}}),
    "dimacs header fields": f"p cnf 1 1 {LONG}\n1 0\n",
    "dimacs header count": f"p cnf 1 {LONG}\n1 0\n",
    "dimacs token": f"p cnf 1 1\n{LONG} 0\n",
}


@pytest.mark.parametrize("site", LONG_VALUE_SITES)
def test_a_long_value_is_echoed_cut_at_every_site(site, tmp_path, capsys):
    text = LONG_VALUE_SITES[site]
    dimacs = text.startswith("p cnf")
    with pytest.raises(FormatError) as e:
        (parse_dimacs if dimacs else parse_instance)(text)
    assert len(str(e.value)) < 200
    path = tmp_path / "input"
    path.write_text(text)
    assert main(["reduce-po" if dimacs else "check-envy", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {e.value}\n"


# a role or id that the structured-key index echoes, given a 200,000-character one
LONG_ROLE_SITES = {
    "agent role": (one_cell(roles={"agents": {"a": LONG}}),
                   "unknown agent role '" + "x" * 40 + "...'"),
    "resource role": (one_cell(roles={"resources": {"o": LONG}}),
                      "unknown resource role '" + "x" * 40 + "...'"),
    "repeated key": (json.dumps({"kind": "additive", "agents": ["a", LONG], "resources": ["o"],
                                 "matrix": [[1], [1]],
                                 "roles": {"agents": {"a": "satisfied", LONG: "satisfied"}}}),
                     "agent '" + "x" * 40 + "...' repeats the structured key ('satisfied',)"),
}


@pytest.mark.parametrize("site", LONG_ROLE_SITES)
def test_a_long_role_or_id_is_echoed_cut_by_the_key_index(site, tmp_path, capsys):
    text, message = LONG_ROLE_SITES[site]
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["check-envy", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: document.roles: {message}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("kind", ["max-atomic", "additive"])
@pytest.mark.parametrize("cell", ["1/2", "-1/2", -1])
def test_a_later_short_row_is_reported_after_well_formed_cells(kind, cell):
    with pytest.raises(FormatError) as e:
        parse_instance(two_by_two(kind, cell, [2]))
    assert str(e.value) == "document.matrix[1]: expected a row of 2 entries"
    if kind == "max-atomic" and cell != "1/2":
        with pytest.raises(FormatError) as e:
            parse_instance(two_by_two(kind, cell, [2, 3]))
        assert str(e.value) == f"document: demands[0][1]: demands must be non-negative, got {cell}"
    else:
        assert parse_instance(two_by_two(kind, cell, [2, 3])).instance.matrix[0][1] == Fraction(cell)


@pytest.mark.parametrize("kind", ["max-atomic", "additive"])
def test_a_malformed_cell_after_a_ratio_in_its_row_is_named_by_its_path(kind):
    text = json.dumps({"kind": kind, "agents": ["a", "b"], "resources": ["o", "p", "q"],
                       "matrix": [[1, 2, 3], ["1/2", 4, 0.5]]})
    with pytest.raises(FormatError) as e:
        parse_instance(text)
    assert str(e.value) == 'document.matrix[1][2]: floats are not exact; write rationals as "p/q" strings'


def test_an_all_int_document_reads_no_cell_as_a_rational(monkeypatch):
    def forbidden(value, where):
        raise AssertionError(f"rational_from_json({value!r}, {where!r})")

    monkeypatch.setattr(fairdiv.formats, "rational_from_json", forbidden)
    for kind in ("max-atomic", "additive"):
        doc = parse_instance(two_by_two(kind, 4, [2, 3]))
        assert doc.instance.utilities.rows == ((1, 4), (2, 3))
        assert doc.instance.utilities.scale == 1
    with pytest.raises(FormatError, match=r"document: demands\[1\]\[0\]: demands must be non-negative"):
        parse_instance(two_by_two("max-atomic", 4, [-2, 3]))


def test_parse_rejects_negative_demands_for_max_atomic():
    text = json.dumps({"kind": "max-atomic", "agents": ["a"],
                       "resources": ["o", "p"], "matrix": [[1, -1]]})
    with pytest.raises(FormatError, match=r"\[0\]\[1\]: demands must be non-negative"):
        parse_instance(text)


def test_parse_allocation_validation():
    base = {"kind": "additive", "agents": ["a"], "resources": ["o"],
            "matrix": [[1]]}
    good = dict(base, allocation={"o": "a"})
    assert parse_instance(json.dumps(good)).allocation.owner == (0,)

    with pytest.raises(FormatError, match="allocation"):
        parse_instance(json.dumps(dict(base, allocation={"o": "nobody"})))
    with pytest.raises(FormatError, match="allocation"):
        parse_instance(json.dumps(dict(base, allocation={"mystery": "a"})))
    for holder in (["a"], {}, 0):
        with pytest.raises(FormatError, match=r"document\.allocation\['o'\]"):
            parse_instance(json.dumps(dict(base, allocation={"o": holder})))


@pytest.mark.parametrize("field", ["allocation", "roles"])
def test_a_non_object_allocation_or_roles_names_the_json_object_type(field):
    data = {"kind": "additive", "agents": ["a"], "resources": ["o"], "matrix": [[1]], field: []}
    with pytest.raises(FormatError, match=f"^document\\.{field}: expected dict, got list$"):
        parse_instance(json.dumps(data))


def test_parse_not_json_at_all():
    with pytest.raises(FormatError):
        parse_instance("][")
    with pytest.raises(FormatError):
        parse_instance('"just a string"')


# ---------------------------------------------------------------------------
# DIMACS


def test_parse_dimacs_example():
    formula = parse_dimacs("c the running example\np cnf 3 2\n1 2 -3 0\n-1 -2 -3 0\n")
    assert formula == EXAMPLE_CNF


def test_parse_dimacs_empty_formula():
    formula = parse_dimacs("p cnf 1 0\n")
    assert formula.num_vars == 1
    assert formula.clauses == ()


def test_parse_dimacs_clause_spanning_lines():
    formula = parse_dimacs("p cnf 3 1\n1\n2\n-3 0\n")
    assert formula.clauses == ((1, 2, -3),)


def test_parse_dimacs_wide_clause_is_fine_here():
    formula = parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    assert len(formula.clauses[0]) == 4
    with pytest.raises(ContractError):
        reduce_3cnf_to_po(formula)   # the gadget is where 3CNF is enforced


def test_parse_dimacs_errors():
    for text in (
        "1 2 0\n",                       # no header
        "p cnf 2 1\np cnf 2 1\n1 0\n",   # duplicate header
        "p cnf 2 1\n3 0\n",              # literal out of range
        "p cnf 2 1\n1 2\n",              # missing terminator
        "p cnf 2 2\n1 0\n",              # fewer clauses than declared
        "p cnf 2 1\n1 0\n2 0\n",         # more clauses than declared
        "p cnf 2 1\n0\n",                # empty clause
        "p cnf 2 1\nx1 0\n",             # junk token
        "p cnf -1 0\n",                  # bad header numbers
        "p cnf 2 1\na 1 0\n1 2 0\n",      # quantifier line in plain DIMACS
    ):
        with pytest.raises(FormatError):
            parse_dimacs(text)
    with pytest.raises(FormatError, match="line 2: unexpected token 'a'"):
        parse_dimacs("p cnf 2 1\na 1 0\n1 2 0\n")


@pytest.mark.parametrize("parse, text", [
    (parse_dimacs, "p cnf 2 1\n1 2 0\n"),
    (parse_ae_dimacs, "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\n"),
], ids=["dimacs", "ae-dimacs"])
def test_dimacs_with_a_byte_order_mark_is_rejected_by_name(parse, text):
    assert parse(text).clauses == ((1, 2),)
    with pytest.raises(FormatError) as e:
        parse("\ufeff" + text)
    assert str(e.value) == "line 1: unexpected UTF-8 byte-order mark; save the file without it"


def test_parse_ae_dimacs_example():
    formula = parse_ae_dimacs("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n")
    assert formula.forall_vars == (1,)
    assert formula.exists_vars == (2,)
    assert formula.clauses == ((1, 2), (-1, -2))


def test_parse_ae_dimacs_errors():
    for text in (
        "p cnf 2 1\ne 2 0\na 1 0\n1 2 0\n",      # exists before forall
        "p cnf 2 1\na 1 0\n1 2 0\n",             # missing exists block
        "p cnf 2 1\ne 2 0\n1 2 0\n",             # missing forall block
        "p cnf 2 1\na 1 0\ne 1 2 0\n1 2 0\n",    # variable quantified twice
        "p cnf 3 1\na 1 0\ne 2 0\n1 2 0\n",      # variable 3 unquantified
        "p cnf 2 1\na 1 0\ne 2 0\n1 2 0\na 1 0\n",   # quantifier after clauses
        "p cnf 2 1\na 1 0\na 1 0\ne 2 0\n1 2 0\n",   # duplicate forall block
        "p cnf 2 1\na 1 1 0\ne 2 0\n1 2 0\n",    # duplicate within the block
        "a 1 0\np cnf 2 1\ne 2 0\n1 2 0\n",      # quantifier before the header
        "p cnf 2 1\na 1\ne 2 0\n1 2 0\n",        # quantifier line not terminated
        "p cnf 2 1\na 3 0\ne 2 0\n1 2 0\n",      # quantified variable out of range
    ):
        with pytest.raises(FormatError):
            parse_ae_dimacs(text)


def _dimacs_reading(value, at, token, quantified):
    """A text that reads ``value`` at position ``at``, written there as
    ``token``: a header count, the one forall variable, or every literal."""
    def put(here, text):
        return token if here == at else text
    clauses = value if at == "clauses" else 1
    lines = [f"p cnf {put('variables', value)} {put('clauses', clauses)}"]
    if quantified:
        lines += [f"a {put('quantifier', value)} 0", "e " + " ".join(map(str, range(1, value))) + " 0"]
    return "\n".join(lines + [f"{put('literal', value)} 0"] * clauses) + "\n"


# int() reads each of these tokens as the value beside it; the grammar is -?[0-9]+
@pytest.mark.parametrize("token, value", [("1_0", 10), ("+3", 3), ("\u0663", 3), ("\uff13", 3)])
@pytest.mark.parametrize("parse, at", [
    (parse, at) for parse in (parse_dimacs, parse_ae_dimacs)
    for at in ("variables", "clauses", "quantifier", "literal")
    if parse is parse_ae_dimacs or at != "quantifier"])
def test_dimacs_integers_are_ascii_digits_after_an_optional_minus(parse, at, token, value):
    quantified = parse is parse_ae_dimacs
    assert parse(_dimacs_reading(value, at, str(value), quantified)).num_vars == value
    text = _dimacs_reading(value, at, token, quantified)
    with pytest.raises(FormatError) as e:
        parse(text)
    if at in ("variables", "clauses"):
        assert str(e.value) == f"line 1: malformed header {text.splitlines()[0]!r}"
    else:
        lineno = 4 if at == "literal" and quantified else 2
        assert str(e.value) == f"line {lineno}: unexpected token {token!r}"


LONG_DIGITS = "1" * 5000     # more digits than int() converts by default


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python's int() converts any number of digits")
@pytest.mark.parametrize("parse, text, message", [
    (parse_dimacs, f"p cnf 1 1\n{LONG_DIGITS} 0\n",
     f"line 2: unexpected token '{LONG_DIGITS[:40]}...'"),
    (parse_dimacs, f"p cnf 1 1\n-{LONG_DIGITS} 0\n",
     f"line 2: unexpected token '-{LONG_DIGITS[:39]}...'"),
    (parse_dimacs, f"p cnf {LONG_DIGITS} 1\n1 0\n",
     f"line 1: malformed header 'p cnf {LONG_DIGITS[:34]}...'"),
    (parse_ae_dimacs, f"p cnf 1 1\na {LONG_DIGITS} 0\ne 0\n1 0\n",
     f"line 2: unexpected token '{LONG_DIGITS[:40]}...'"),
], ids=["literal", "negative-literal", "header", "quantifier"])
def test_dimacs_integers_longer_than_int_converts_are_bad_tokens(parse, text, message):
    with pytest.raises(FormatError) as e:
        parse(text)
    assert str(e.value) == message


def _dimacs_lines(clauses, rng):
    """Clause lines with each clause split across lines at random points."""
    tokens = [str(t) for clause in clauses for t in (*clause, 0)]
    lines, line = [], []
    for token in tokens:
        line.append(token)
        if rng.random() < 0.4:
            lines.append(" ".join(line))
            line = []
    return lines + ([" ".join(line)] if line else [])


@st.composite
def ae_dimacs_texts(draw):
    """(AE-DIMACS text, the same text without its quantifier lines, the
    forall block), with comments between all the parts."""
    num_vars = draw(st.integers(1, 5))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=6))
    forall = sorted(draw(st.sets(st.integers(1, num_vars))))
    exists = [v for v in range(1, num_vars + 1) if v not in forall]
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    comment = st.sampled_from([[], ["c"], ["c between", "", "c   x"]])
    header = draw(comment) + [f"p cnf {num_vars} {len(clauses)}"] + draw(comment)
    quantifiers = [f"a {' '.join(map(str, forall))} 0"] + draw(comment)
    quantifiers += [f"e {' '.join(map(str, exists))} 0"] + draw(comment)
    body = _dimacs_lines(clauses, rng)
    return ("\n".join(header + quantifiers + body), "\n".join(header + body), forall)


@given(ae_dimacs_texts())
def test_ae_dimacs_minus_quantifiers_reads_as_plain_dimacs(texts):
    ae_text, plain_text, forall = texts
    formula = parse_ae_dimacs(ae_text)
    assert formula.cnf() == parse_dimacs(plain_text)
    assert formula.forall_vars == tuple(forall)


JUNK_LINES = st.sampled_from(["p cnf 3 2", "p cnf -1 1", "p cnf x 1", "pcnf", "a 1 0", "a 1",
                              "e 2 3 0", "e 0", "1 -2 0", "9 0", "0", "c", "", "1 2", "x 0"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["a0", "o0", "1/2", "-3", "1/0", "clause", "literal"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)


@st.composite
def corrupted_dimacs_texts(draw):
    """A valid DIMACS or AE-DIMACS text with up to three lines inserted,
    replaced or deleted."""
    lines = draw(ae_dimacs_texts())[draw(st.integers(0, 1))].split("\n")
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        junk = draw(JUNK_LINES | st.text(max_size=8))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert" or k == len(lines):
            lines.insert(k, junk)
        elif action == "replace":
            lines[k] = junk
        else:
            del lines[k]
    return "\n".join(lines)


@settings(max_examples=300)
@given(corrupted_dimacs_texts() | st.text(max_size=40))
def test_dimacs_parsers_raise_only_format_errors(text):
    for parse in (parse_dimacs, parse_ae_dimacs):
        try:
            parse(text)
        except FormatError:
            pass


def _slots(node):
    """Every (container, key) pair inside a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def corrupted_documents(draw):
    """A valid instance document, sometimes with an allocation and roles,
    with up to two values replaced by arbitrary JSON or deleted."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    agents, resources = [f"a{i}" for i in range(n)], [f"o{j}" for j in range(m)]
    cell = st.integers(0, 3) | st.sampled_from(["1/2", "2/4"])
    doc = {"kind": draw(st.sampled_from(["additive", "max-atomic"])), "agents": agents,
           "resources": resources, "matrix": [[draw(cell) for _ in resources] for _ in agents]}
    if draw(st.booleans()):
        doc["allocation"] = {r: draw(st.sampled_from([None, *agents])) for r in resources}
    if draw(st.booleans()):
        reduction = reduce_3cnf_to_po(CnfFormula(1, [[1]]))
        doc = document_to_dict(InstanceDocument(reduction.instance, reduction.baseline,
                                                reduction.mapping))
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return json.dumps(doc)


@settings(max_examples=300)
@given(corrupted_documents() | st.text(max_size=40))
def test_parse_instance_raises_only_format_errors(text):
    try:
        parse_instance(text)
    except FormatError:
        pass


# ---------------------------------------------------------------------------
# reports


def test_make_report_shape():
    data = make_report("check-pareto", "no", witness={"x": 1}, nodes=17,
                       wall_ms=3.5, inputs={"f.json": "sha256:00"})
    assert data["verdict"] == "no"
    assert data["stats"] == {"nodes": 17, "wall_ms": 3.5}
    assert data["provenance"] == {"inputs": {"f.json": "sha256:00"}}
    assert data["generated_at"].endswith("+00:00")
    with pytest.raises(ContractError):
        make_report("x", "maybe")


def test_generated_at_is_the_current_utc_time_to_the_second():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamp = make_report("find-eef", "yes")["generated_at"]
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert before <= datetime.fromisoformat(stamp) <= after
    assert datetime.fromisoformat(stamp).isoformat(timespec="seconds") == stamp


def test_report_json_is_stable_modulo_volatile_fields():
    a = make_report("find-eef", "yes", nodes=3, wall_ms=1.0)
    b = make_report("find-eef", "yes", nodes=3, wall_ms=2.0)
    assert strip_volatile(a) == strip_volatile(b)
    stripped = strip_volatile(json.loads(report_to_json(a)))
    assert "generated_at" not in stripped
    assert stripped["stats"] == {"nodes": 3}


def test_exit_code_is_a_pure_function_of_the_verdict():
    assert exit_code("yes") == 0
    assert exit_code("no") == 1
    assert exit_code("unknown") == 2
    with pytest.raises(ContractError):
        exit_code("perhaps")
    for verdict, expected in (("yes", 0), ("no", 1), ("unknown", 2)):
        report = make_report("anything", verdict, nodes=99)
        assert exit_code(report["verdict"]) == expected


def test_sha256_digest_format():
    digest = sha256_digest("hello")
    assert digest.startswith("sha256:")
    assert digest == sha256_digest(b"hello")


def test_witness_serialization_helpers():
    inst = additive_instance([[1, 2]], agents=["alice"], resources=["left", "right"])
    assert allocation_to_json(inst, Allocation([0, None])) == {"left": "alice", "right": None}
    assert utilities_to_json(UtilityVector([Fraction(1, 2), 3])) == ["1/2", 3]
