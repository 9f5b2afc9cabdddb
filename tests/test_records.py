"""Behaviour every record class of the package keeps: value equality within
one class, a hash of the field values, the ``Name(field=value, ...)`` repr,
fields that cannot be set or deleted, and copies equal to the original."""

import copy
import pickle
from fractions import Fraction

import pytest

from fairdiv import (AEFormula, Additive, Allocation, CnfFormula, EefReduction, Instance,
                     InstanceDocument, Matching, MaxAtomic, PartialAssignment, PoReduction,
                     ReductionMap, SearchBudget, TriVerdict, UtilityVector, VerdictKind,
                     WeightMatrix)
from fairdiv.model import ContractError


def instance():
    return Instance(["a"], ["o", "p"], Additive([[1, Fraction(1, 2)]]))


def empty_map():
    return ReductionMap({}, {}, {}, {}, {})


INSTANCE_TEXT = "Instance(agents=('a',), resources=('o', 'p'), utilities=Additive(rows=((2, 1),), scale=2))"
EMPTY_MAP_TEXT = "ReductionMap(agent_roles={}, resource_roles={}, links={}, agent_key={}, resource_key={})"

# (build a fresh record, its repr, whether it hashes: a dict field does not)
RECORDS = [
    (lambda: InstanceDocument(instance()), f"InstanceDocument(instance={INSTANCE_TEXT}, allocation=None, mapping=None)",
     True),
    (lambda: InstanceDocument(instance(), Allocation((0, None)), empty_map()),
     f"InstanceDocument(instance={INSTANCE_TEXT}, allocation=Allocation(owner=(0, None)), mapping={EMPTY_MAP_TEXT})",
     False),
    (lambda: CnfFormula(2, [[1, -2]]), "CnfFormula(num_vars=2, clauses=((1, -2),))", True),
    (lambda: AEFormula(2, [1], [2], [[1, 2]]),
     "AEFormula(num_vars=2, forall_vars=(1,), exists_vars=(2,), clauses=((1, 2),))", True),
    (lambda: PartialAssignment({2: False, 1: True}), "PartialAssignment(values=((1, True), (2, False)))", True),
    (lambda: Additive([[1, Fraction(1, 2)]]), "Additive(rows=((2, 1),), scale=2)", True),
    (lambda: MaxAtomic([[3, 0]]), "MaxAtomic(rows=((3, 0),), scale=1)", True),
    (instance, INSTANCE_TEXT, True),
    (lambda: Allocation((0, None)), "Allocation(owner=(0, None))", True),
    (lambda: UtilityVector((1, Fraction(1, 2))), "UtilityVector(values=(1, Fraction(1, 2)))", True),
    (lambda: SearchBudget(5), "SearchBudget(max_nodes=5)", True),
    (lambda: TriVerdict(VerdictKind.YES, Allocation((0,)), 3),
     "TriVerdict(kind=<VerdictKind.YES: 'yes'>, witness=Allocation(owner=(0,)), nodes=3)", True),
    (lambda: ReductionMap({"a": "clause"}, {}, {"a": {"clause": 0}}, {("clause", 0): 0}, {}),
     "ReductionMap(agent_roles={'a': 'clause'}, resource_roles={}, links={'a': {'clause': 0}}, "
     "agent_key={('clause', 0): 0}, resource_key={})", False),
    (lambda: PoReduction(CnfFormula(1, [[1]]), instance(), Allocation((0, None)), empty_map()),
     f"PoReduction(formula=CnfFormula(num_vars=1, clauses=((1,),)), instance={INSTANCE_TEXT}, "
     f"baseline=Allocation(owner=(0, None)), mapping={EMPTY_MAP_TEXT})", False),
    (lambda: EefReduction(AEFormula(1, [1], [], [[1, -1]]), instance(), empty_map(), Fraction(7, 2)),
     "EefReduction(formula=AEFormula(num_vars=1, forall_vars=(1,), exists_vars=(), clauses=((-1, 1),)), "
     f"instance={INSTANCE_TEXT}, mapping={EMPTY_MAP_TEXT}, big_m=Fraction(7, 2))", False),
    (lambda: WeightMatrix([[1, 2]]), "WeightMatrix(weights=((1, 2),))", True),
    (lambda: Matching([(1, 0), (0, 1)]), "Matching(pairs=((0, 1), (1, 0)))", True),
]


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=[text.split("(")[0] for _, text, _ in RECORDS])
def test_record_equality_hash_repr_and_immutability(build, text, hashable):
    record, twin = build(), build()
    assert record is not twin and record == twin and not record != twin
    assert record != object() and record != text
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert repr(record) == text
    field = text.split("(", 1)[1].split("=", 1)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_utility_models_with_equal_rows_are_unequal():
    additive, max_atomic = Additive([[1, 2], [3, 0]]), MaxAtomic([[1, 2], [3, 0]])
    assert additive.rows == max_atomic.rows and additive.scale == max_atomic.scale
    assert additive != max_atomic and max_atomic != additive
    assert not additive == max_atomic


def test_records_built_by_keyword_equal_those_built_by_position():
    inst, alloc, mapping = instance(), Allocation((0, None)), empty_map()
    assert InstanceDocument(inst) == InstanceDocument(instance=inst, allocation=None, mapping=None)
    assert InstanceDocument(inst, alloc, mapping) == InstanceDocument(inst, mapping=mapping, allocation=alloc)
    assert TriVerdict(VerdictKind.NO) == TriVerdict(kind=VerdictKind.NO, witness=None, nodes=0)
    assert TriVerdict(VerdictKind.YES, alloc, 4) == TriVerdict(VerdictKind.YES, nodes=4, witness=alloc)
    assert TriVerdict.no(4) == TriVerdict(VerdictKind.NO, None, 4)
    assert SearchBudget(7) == SearchBudget(max_nodes=7)
    assert ReductionMap({}, {}, {}, {}, {}) == ReductionMap(agent_roles={}, resource_roles={}, links={},
                                                            agent_key={}, resource_key={})
    formula = CnfFormula(1, [[1]])
    assert PoReduction(formula, inst, alloc, mapping) == PoReduction(
        formula=formula, instance=inst, baseline=alloc, mapping=mapping)
    ae = AEFormula(1, [1], [], [[1, -1]])
    assert EefReduction(ae, inst, mapping, 3) == EefReduction(formula=ae, instance=inst, mapping=mapping, big_m=3)


@pytest.mark.parametrize("bad", [0, -3, True, 2.0, "5", None])
def test_search_budget_rejects_what_is_not_a_positive_int(bad):
    with pytest.raises(ContractError, match="^max_nodes must be a positive int, got "):
        SearchBudget(bad)
