"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints one PASS line on success (run with -s or -rA to see them);
pytest failure output is the FAIL line.  All expected values are either
frozen from independent derivations in the unit-test modules or are the
family parameters themselves; nothing here is tuned after the fact.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from conftest import random_field, random_nilpotent_field, random_unipotent_diffeo

from germcalc.diffeos import exp_field, log_diffeo
from germcalc.fields import VectorField, nilpotency_degree_a
from germcalc.jets import field_to_jet_matrix, to_jet_matrix
from germcalc.laurent import LaurentPoly
from germcalc.lie import bracket_closure, derived_series, kappa_sequence, nilpotency_class, soluble_length
from germcalc.matrices import (
    charpoly,
    is_unipotent_matrix,
    is_zero_matrix,
    jordan_chevalley,
    mat_eq,
    mat_mul,
    mat_sub,
    matrix_exp_nilpotent,
    poly_eval_matrix,
    squarefree_part,
)
from germcalc.scalars import Scalar
from germcalc.families import (
    build_nilpotent_example,
    build_chain_algebra,
    chain_composition_value,
    chain_exponent,
    expected_a_value,
    expected_nilpotency_class,
)
from germcalc.verification import (
    sample_planar_depth2_words,
    verify_group_witness_fixture,
    verify_intro_nilpotency,
    verify_nilpotent_example,
    verify_solvable_family,
    verify_length_bounds,
)


def _ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_nilpotent_family_lengths():
    """Soluble length n and nilpotency class 3*2^(n-2)-1 for n = 2, 3, 4."""
    t0 = time.monotonic()
    for n, expected_class in ((2, 2), (3, 5), (4, 11)):
        _, _, zs = build_nilpotent_example(n)
        g = bracket_closure(zs)
        assert soluble_length(g) == n
        assert nilpotency_class(g) == expected_class
        assert expected_class == expected_nilpotency_class(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(f"1 (lengths and classes, {elapsed:.1f}s)")


def test_criterion_2_a_values_and_chain():
    """a(u_(n-k)) = 3*2^(k-1)-2 at n = 4, and nonzero chain constants."""
    us, _, zs = build_nilpotent_example(4)
    for k, expected in ((1, 1), (2, 4), (3, 10)):
        assert nilpotency_degree_a(us[4 - k - 1], zs) == expected
        assert expected == expected_a_value(4, k)
    for n in (3, 4):
        for k in range(1, n):
            value = chain_composition_value(n, k)
            assert value.is_constant() and not value.is_zero()
    _ok("2 (a-function values and chain composites)")


def test_criterion_3_family_identities():
    """The six family identities hold exactly for n = 3, 4, 5."""
    for n in (3, 4, 5):
        us, xs, _ = build_nilpotent_example(n)
        for i in range(n):
            for j in range(n):
                assert xs[i].bracket(xs[j]).is_zero()
        assert xs[n - 1].apply(us[n - 2]) == LaurentPoly.constant(n, -1)
        for j in range(n - 1):
            assert xs[j].apply(us[n - 2]).is_zero()
        for k in range(2, n):
            u = us[n - k - 1]
            X = xs[n - k]
            img = X.apply(u)
            for j in range(1, n + 1):
                if j != n - k + 1:
                    assert xs[j - 1].apply(u).is_zero()
                    assert xs[j - 1].apply(img).is_zero()
            assert img == LaurentPoly.monomial(n, {n - k + 1: -1}, -2) * us[n - k]
            assert X.apply(img) == LaurentPoly.constant(n, 2)
            assert img * img == u * 4
    _ok("3 (commuting-family identities, n = 3, 4, 5)")


def test_criterion_4_solvable_chain():
    """Chain lengths 2 and 4 at the pinned jet orders, exact because they
    reach the bound 2n, with the monomial-scaled containments at n = 2."""
    r1 = verify_solvable_family(1, 6)
    assert r1.status == "pass", r1.witness
    assert r1.parameters["soluble_length"] == 2
    r2 = verify_solvable_family(2, 12)
    assert r2.status == "pass", r2.witness
    assert r2.parameters["soluble_length"] == 4
    # explicit spot-check of the scaled containments for j <= 4
    g = build_chain_algebra(2, 0, 12)
    levels = derived_series(g)
    for j in (2, 3, 4):
        c = chain_exponent(j)
        Gj = build_chain_algebra(2, j, 12)
        mono = LaurentPoly.monomial(2, {2: c})
        for X in Gj.basis:
            scaled = VectorField([mono * co for co in X.coeffs]).truncate(12)
            if scaled.is_zero():
                continue
            assert levels[j].contains_field(scaled)
    _ok("4 (solvable chain lengths and containments)")


def test_criterion_5_kappa_sequences():
    """kappa = [2,2,1,1,0] for the two-variable chain; strict two-step drops
    everywhere; strict one-step drop at the top for unipotent full-rank
    families."""
    ks = kappa_sequence(build_chain_algebra(2, 0, 12))
    assert ks.values == (2, 2, 1, 1, 0)
    assert ks.strict_two_step_drop()
    assert kappa_sequence(build_chain_algebra(1, 0, 6)).strict_two_step_drop()
    for n in (2, 3, 4):
        _, _, zs = build_nilpotent_example(n)
        g = bracket_closure(zs)
        seq = kappa_sequence(g)
        assert seq.strict_two_step_drop()
        # all-nilpotent family with full generic rank: kappa(1) < n
        assert all(Z.is_nilpotent() for Z in zs)
        assert seq.values[0] == n
        assert seq.values[1] < n
    _ok("5 (kappa sequences)")


def test_criterion_6_intro_family():
    """Class k-1 at jet order k+3 for k = 3, 4, 5, seed-pinned samples."""
    for k in (3, 4, 5):
        r = verify_intro_nilpotency(k, sample_count=6, seed=0)
        assert r.status == "pass", r.witness
        assert r.witness is not None
    _ok("6 (planar family nilpotency classes)")


def test_criterion_7_exp_log_round_trip():
    """200 seeded random nilpotent fields, n <= 3, k <= 6, exact round trip."""
    rng = random.Random(12345)
    t0 = time.monotonic()
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        k = rng.randint(2, 6)
        X = random_nilpotent_field(rng, n, min(k, 4))
        assert X.is_nilpotent()
        assert log_diffeo(exp_field(X, 1, k)) == X.truncate(k)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(f"7 (200 exp/log round trips, {elapsed:.1f}s)")


def test_criterion_8_structural_suites():
    """>= 100 seeded random instances per identity, all exact."""
    rng = random.Random(777)
    # bracket antisymmetry + Jacobi + Leibniz
    from conftest import random_poly

    for _ in range(100):
        n = rng.choice([1, 2])
        X, Y, Z = (random_field(rng, n, 3) for _ in range(3))
        g = random_poly(rng, n, 3, 3)
        h = random_poly(rng, n, 3, 3)
        assert X.bracket(Y) == VectorField([-c for c in Y.bracket(X).coeffs])
        s1, s2, s3 = X.bracket(Y.bracket(Z)), Y.bracket(Z.bracket(X)), Z.bracket(X.bracket(Y))
        assert all((a + b + c).is_zero() for a, b, c in zip(s1.coeffs, s2.coeffs, s3.coeffs))
        assert X.apply(g * h) == X.apply(g) * h + g * X.apply(h)
    # jet-action contravariance
    for _ in range(100):
        phi = random_unipotent_diffeo(rng, 2, 3)
        psi = random_unipotent_diffeo(rng, 2, 3)
        assert mat_eq(
            to_jet_matrix(phi.compose(psi)).matrix,
            mat_mul(to_jet_matrix(psi).matrix, to_jet_matrix(phi).matrix),
        )
    # bracket homomorphism into jet matrices
    for _ in range(100):
        X = random_field(rng, 2, 3)
        Y = random_field(rng, 2, 3)
        mx, my = field_to_jet_matrix(X, 3).matrix, field_to_jet_matrix(Y, 3).matrix
        assert mat_eq(
            field_to_jet_matrix(X.bracket(Y), 3).matrix,
            mat_sub(mat_mul(mx, my), mat_mul(my, mx)),
        )
    # exponential functoriality
    for _ in range(100):
        X = random_nilpotent_field(rng, 2, 3)
        assert mat_eq(
            to_jet_matrix(exp_field(X, 1, 3)).matrix,
            matrix_exp_nilpotent(field_to_jet_matrix(X, 3).matrix),
        )
    # Jordan-Chevalley: commuting parts, unipotent u, squarefree s, unique
    done = 0
    while done < 100:
        n = rng.randint(2, 4)
        m = [
            [Scalar(Fraction(rng.randint(-3, 3), rng.choice([1, 2]))) for _ in range(n)]
            for _ in range(n)
        ]
        if not charpoly(m)[0]:
            continue
        s, u = jordan_chevalley(m)
        assert mat_eq(mat_mul(s, u), m) and mat_eq(mat_mul(u, s), m)
        assert is_unipotent_matrix(u)
        assert is_zero_matrix(poly_eval_matrix(squarefree_part(charpoly(s)), s))
        s2, u2 = jordan_chevalley(m)
        assert mat_eq(s, s2) and mat_eq(u, u2)
        done += 1
    _ok("8 (structural identity suites, 100 instances each)")


def test_criterion_9_theorem_bounds():
    """Every constructed example respects the applicable global bound: each
    family claim checks its own length, and length-bounds the planar one."""
    chains = [verify_solvable_family(1, 6), verify_solvable_family(2, 12)]
    nilpotent = [verify_nilpotent_example(n) for n in (2, 3, 4)]
    for r in chains + nilpotent:
        assert r.status == "pass", r.witness
    for r in chains:
        assert r.parameters["soluble_length"] <= 2 * r.parameters["n"]
    for r in nilpotent:
        assert r.parameters["soluble_length"] <= r.parameters["n"]
    r = verify_length_bounds(chains + nilpotent, sample_planar_depth2_words())
    assert r.status == "pass", r.witness
    _ok("9 (global length bounds)")


def test_criterion_10_group_witnesses():
    """Fixture words certify soluble length >= 2 (n=1) and >= 4 (n=2), and
    every witness evaluates tangent to the identity."""
    r1 = verify_group_witness_fixture(1)
    assert r1.status == "pass", r1.witness
    assert r1.parameters["depth"] == 1
    r2 = verify_group_witness_fixture(2)
    assert r2.status == "pass", r2.witness
    assert r2.parameters["depth"] == 3
    _ok("10 (group-length witness certificates)")
