import pytest

from germcalc import jets
from germcalc.fields import BudgetExceededError

from conftest import random_field, random_nilpotent_field, random_unipotent_diffeo

from germcalc.diffeos import FormalDiffeo, exp_field
from germcalc.fields import VectorField
from germcalc.jets import field_to_jet_matrix, jet_basis, poly_to_coords, to_jet_matrix
from germcalc.laurent import LaurentPoly
from germcalc.matrices import (
    identity,
    is_nilpotent_matrix,
    is_unipotent_matrix,
    mat_eq,
    mat_mul,
    mat_sub,
    matrix_exp_nilpotent,
)


def test_jet_basis_size_and_order():
    basis = jet_basis(2, 3)
    # graded-lex, x1-major inside each degree
    assert basis == (
        (1, 0), (0, 1),
        (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
    )
    assert len(jet_basis(3, 4)) == 34  # C(7,4) - 1


def test_to_jet_matrix_example():
    x = LaurentPoly.variable(1, 1)
    phi = FormalDiffeo([x + x ** 2], 2)
    m = to_jet_matrix(phi)
    # images: x -> x + x^2, x^2 -> x^2, as columns over the basis (x, x^2)
    assert m.basis == ((1,), (2,))
    assert [list(col) for col in zip(*m.matrix)] == [
        poly_to_coords(x + x ** 2, m.basis),
        poly_to_coords(x ** 2, m.basis),
    ]


def test_identity_jet_matrix():
    m = to_jet_matrix(FormalDiffeo.identity(2, 3))
    assert mat_eq(m.matrix, identity(m.size))


def test_unipotent_diffeo_gives_unipotent_matrix(rng):
    for _ in range(5):
        phi = random_unipotent_diffeo(rng, 2, 3)
        assert is_unipotent_matrix(to_jet_matrix(phi).matrix)


def test_field_matrix_example():
    x = LaurentPoly.variable(1, 1)
    X = VectorField([x ** 2])
    m = field_to_jet_matrix(X, 2)
    # X(x) = x^2 and X(x^2) = 2x^3, which is cut at order 2
    assert m.matrix == [[0, 0], [1, 0]]
    assert is_nilpotent_matrix(m.matrix)


def test_zero_field_matrix():
    m = field_to_jet_matrix(VectorField.zero(2), 3)
    assert all(not x for row in m.matrix for x in row)


def test_nilpotent_field_gives_nilpotent_matrix(rng):
    for _ in range(5):
        X = random_nilpotent_field(rng, 2, 3)
        assert is_nilpotent_matrix(field_to_jet_matrix(X, 3).matrix)


def test_contravariance(rng):
    for _ in range(10):
        phi = random_unipotent_diffeo(rng, 2, 3)
        psi = random_unipotent_diffeo(rng, 2, 3)
        lhs = to_jet_matrix(phi.compose(psi)).matrix
        rhs = mat_mul(to_jet_matrix(psi).matrix, to_jet_matrix(phi).matrix)
        assert mat_eq(lhs, rhs)


def test_bracket_homomorphism(rng):
    for _ in range(10):
        X = random_field(rng, 2, 3)
        Y = random_field(rng, 2, 3)
        mx = field_to_jet_matrix(X, 3).matrix
        my = field_to_jet_matrix(Y, 3).matrix
        mb = field_to_jet_matrix(X.bracket(Y), 3).matrix
        assert mat_eq(mb, mat_sub(mat_mul(mx, my), mat_mul(my, mx)))


def test_exponential_functoriality(rng):
    for _ in range(10):
        X = random_nilpotent_field(rng, 2, 3)
        lhs = to_jet_matrix(exp_field(X, 1, 3)).matrix
        rhs = matrix_exp_nilpotent(field_to_jet_matrix(X, 3).matrix)
        assert mat_eq(lhs, rhs)


def test_field_matrix_requires_formal():
    X = VectorField([LaurentPoly.monomial(1, {1: -1})])
    with pytest.raises(ValueError):
        field_to_jet_matrix(X, 2)


def test_export_text_round_shape():
    phi = FormalDiffeo.identity(2, 2)
    text = to_jet_matrix(phi).export_text()
    lines = text.splitlines()
    assert lines[0].startswith("basis: x1 x2")
    assert len(lines) == 1 + 5  # header + one line per basis monomial


def test_jet_matrix_budget_is_the_jet_dimension(monkeypatch):
    # C(3 + 4, 3) - 1 = 34 basis monomials at dim 3, order 4
    monkeypatch.setattr(jets, "JET_MATRIX_BUDGET", 34)
    X = VectorField.from_terms(3, (LaurentPoly.monomial(3, {2: 2}), 1))
    assert field_to_jet_matrix(X, 4).size == 34
    monkeypatch.setattr(jets, "JET_MATRIX_BUDGET", 33)
    with pytest.raises(BudgetExceededError):
        field_to_jet_matrix(X, 4)
    with pytest.raises(BudgetExceededError):
        to_jet_matrix(FormalDiffeo.identity(3, 4))
