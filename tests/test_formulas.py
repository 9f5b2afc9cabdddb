import pytest

from fairdiv import AEFormula, CnfFormula, PartialAssignment
from fairdiv.formulas import (
    clause_status,
    formula_satisfied,
    literal_holds,
)
from fairdiv.model import ContractError


def test_literal_helpers():
    assert literal_holds(4, True)
    assert literal_holds(-4, False)
    assert not literal_holds(-4, True)


def test_clauses_are_canonicalized():
    f = CnfFormula(3, [[3, -1, 2], [2, 2, -2]])
    assert f.clauses == ((-1, 2, 3), (-2, 2))


def test_clause_validation():
    with pytest.raises(ContractError):
        CnfFormula(2, [[]])
    with pytest.raises(ContractError):
        CnfFormula(2, [[3]])        # literal out of range
    with pytest.raises(ContractError):
        CnfFormula(2, [[0]])
    with pytest.raises(ContractError):
        CnfFormula(True, [[1]])


def test_formula_equality_is_structural():
    assert CnfFormula(2, [[1, 2]]) == CnfFormula(2, [[2, 1]])
    assert CnfFormula(2, [[1]]) != CnfFormula(2, [[2]])


def test_ae_formula_partition_checks():
    f = AEFormula(2, [1], [2], [[1, 2]])
    assert f.forall_vars == (1,)
    assert f.exists_vars == (2,)
    assert f.cnf() == CnfFormula(2, [[1, 2]])
    with pytest.raises(ContractError):
        AEFormula(2, [1, 2], [2], [[1]])     # quantified twice
    with pytest.raises(ContractError):
        AEFormula(2, [1], [], [[1]])         # 2 unquantified
    with pytest.raises(ContractError):
        AEFormula(2, [1], [3], [[1]])        # out of range


def test_ae_formula_blocks_are_sorted():
    f = AEFormula(4, [3, 1], [4, 2], [[1, -3], [2, 4]])
    assert f.forall_vars == (1, 3)
    assert f.exists_vars == (2, 4)


def test_partial_assignment_basics():
    s = PartialAssignment({2: False, 1: True})
    assert s.values == ((1, True), (2, False))
    assert s.as_dict() == {1: True, 2: False}


def test_partial_assignment_validation():
    with pytest.raises(ContractError):
        PartialAssignment({0: True})
    with pytest.raises(ContractError):
        PartialAssignment({1: 1})   # value must be a real bool


def test_clause_status_three_ways():
    assert clause_status([1, -2], {1: True}) is True
    assert clause_status([1, -2], {1: False, 2: True}) is False
    assert clause_status([1, -2], {2: True}) is None


def test_formula_satisfied():
    clauses = [[1, 2], [-1, -2]]
    assert formula_satisfied(clauses, {1: True, 2: False})
    assert not formula_satisfied(clauses, {1: True, 2: True})

