import json

import pytest

from germcalc import lie, verification
from germcalc.diffeos import FormalDiffeo, WordComm, WordLeaf
from germcalc.laurent import LaurentPoly
from germcalc.families import build_nilpotent_example
from germcalc.fields import VectorField
from germcalc.lie import KappaSequence, LieAlgebraSpan, bracket_closure, derived_series
from germcalc.verification import (
    VerificationReport,
    _check_first_integral_structure,
    _Claim,
    _triangular_coefficients,
    load_witness_fixture,
    reports_to_json,
    reports_to_text,
    sample_planar_depth2_words,
    verify_group_length_witness,
    verify_group_witness_fixture,
    verify_intro_nilpotency,
    verify_nilpotent_example,
    verify_solvable_family,
    verify_length_bounds,
)


def test_intro_report_passes():
    r = verify_intro_nilpotency(3, sample_count=4, seed=7)
    assert r.status == "pass"
    assert r.witness is not None
    assert r.parameters["k_param"] == 3


def test_intro_abelian_case():
    # k_param = 2: every sampled commutator must be the identity; there is no
    # intermediate depth to witness, so the claim cannot fail on shape
    r = verify_intro_nilpotency(2, sample_count=4, seed=3)
    # the depth-0 witness is any nontrivial member; depth-1 commutators must
    # all be the identity
    assert r.status == "pass"


def test_intro_reproducibility():
    a = verify_intro_nilpotency(4, sample_count=4, seed=11)
    b = verify_intro_nilpotency(4, sample_count=4, seed=11)
    assert a.witness == b.witness and a.status == b.status


def test_intro_fails_on_a_translation_term_above_k_param(monkeypatch):
    # Q is supported in degrees j + 2 .. k_param: a y^(k_param + 1) term
    # added to every commutator breaks the upper end
    commutator = FormalDiffeo.commutator
    y5 = LaurentPoly.monomial(2, {2: 5})

    def shifted(a, b):
        c = commutator(a, b)
        return FormalDiffeo((c.components[0] + y5, c.components[1]), c.order)

    monkeypatch.setattr(FormalDiffeo, "commutator", shifted)
    r = verify_intro_nilpotency(4, sample_count=2, seed=0)
    assert r.status == "fail"
    assert "depth-1 translation has a term of degree 5 > 4" in r.witness


def test_solvable_family_n1():
    r = verify_solvable_family(1, 6)
    assert r.status == "pass"
    assert r.parameters["soluble_length"] == 2
    assert r.parameters["kappa"] == [1, 1, 0]


def test_solvable_family_unstable_at_low_order():
    # at jet order 3 the two-variable chain cannot see the deep derived terms
    r = verify_solvable_family(2, 3)
    assert r.status == "unstable"
    assert r.witness == "soluble length 3 < 4 at jet order 3"


@pytest.mark.parametrize("n, order, length", [(1, 1, 1), (2, 4, 3), (3, 12, 5), (3, 17, 5)])
def test_solvable_family_below_its_bound_is_unstable(n, order, length):
    # the jet values only bound the true ones from below: a short length
    # means the order is too low, not that the claim is false
    r = verify_solvable_family(n, order)
    assert r.status == "unstable"
    assert r.witness == f"soluble length {length} < {2 * n} at jet order {order}"
    assert r.parameters["soluble_length"] == length


def test_solvable_family_n3_passes_from_order_18():
    r = verify_solvable_family(3, 18)
    assert r.status == "pass", r.witness
    assert r.parameters["soluble_length"] == 6
    assert r.parameters["kappa"] == [3, 3, 2, 2, 1, 1, 0]


def test_solvable_family_names_a_kappa_below_its_bound(monkeypatch):
    def short_kappa(g, levels):
        ks = lie.kappa_sequence(g, levels)
        return KappaSequence(ks.values[:3] + (0,) * (len(ks.values) - 3), ks.jet_order)

    monkeypatch.setattr(verification, "kappa_sequence", short_kappa)
    r = verify_solvable_family(2, 12)
    assert r.status == "unstable"
    assert r.witness == "kappa_3 = 0 < 1 at jet order 12"


@pytest.mark.parametrize("order, otherwise", [(12, "pass"), (3, "unstable")])
def test_solvable_family_fails_when_a_derived_term_leaves_its_chain_space(
    monkeypatch, order, otherwise
):
    # G_0 in place of derived term 1: V_2 = x2 d2 is not in G_1
    def escaping_series(g):
        levels = lie.derived_series(g)
        return [levels[0], levels[0]] + levels[2:]

    assert verify_solvable_family(2, order).status == otherwise
    monkeypatch.setattr(verification, "derived_series", escaping_series)
    r = verify_solvable_family(2, order)
    assert r.status == "fail"
    assert r.witness == "derived term 1 leaves the chain space 1"


def test_solvable_family_fails_when_the_series_stabilizes_nonzero(monkeypatch):
    # the jet algebra is a quotient of a soluble algebra, hence soluble
    monkeypatch.setattr(verification, "derived_series", lambda g: [g, g])
    r = verify_solvable_family(2, 12)
    assert r.status == "fail"
    assert r.witness == "derived series stabilizes nonzero at jet order 12"


def test_nilpotent_example_n2():
    r = verify_nilpotent_example(2)
    assert r.status == "pass"
    assert r.parameters["soluble_length"] == 2
    assert r.parameters["nilpotency_class"] == 2


def test_nilpotent_family_with_a_non_nilpotent_generator_fails(monkeypatch):
    us, xs, zs = build_nilpotent_example(2)
    x1 = LaurentPoly.variable(2, 1)
    # x2^2 d1 + x1 d1 has linear part with a nonzero eigenvalue
    bad = VectorField([zs[0].coeffs[0] + x1, zs[0].coeffs[1]])
    monkeypatch.setattr(verification, "build_nilpotent_example", lambda n: (us, xs, [bad, zs[1]]))
    r = verify_nilpotent_example(2)
    assert r.status == "fail"
    failures = r.witness.split("; ")
    assert "family n=2 is not generated by nilpotent formal fields" in failures
    # the algebra stays solvable; its central series names the failure and
    # leaves no class to report
    assert r.parameters["soluble_length"] == 2
    assert "nilpotency_class" not in r.parameters
    assert "central series stabilizes nonzero" in failures


def _nilpotent_levels(n):
    _, xs, zs = build_nilpotent_example(n)
    return xs, derived_series(bracket_closure(zs))


def _add(X, Y):
    return VectorField([a + b for a, b in zip(X.coeffs, Y.coeffs)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_triangular_coefficients_rebuild_the_derived_terms(n):
    xs, levels = _nilpotent_levels(n)
    inverses = [X.coeffs[k].monomial_inverse() for k, X in enumerate(xs)]
    for level in levels:
        for Z in level.basis:
            coeffs = _triangular_coefficients(Z, xs, inverses)
            rebuilt = VectorField([
                sum((a * X.coeffs[i] for a, X in zip(coeffs, xs)), LaurentPoly.zero(n))
                for i in range(n)
            ])
            assert rebuilt == Z


def _first_integral_failures(n, xs, levels):
    claim = _Claim(f"nilpotent-family-n{n}", {"n": n})
    _check_first_integral_structure(claim, n, xs, levels)
    return claim.failures


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_integral_structure_fails_on_a_stray_component(n):
    xs, levels = _nilpotent_levels(n)
    assert _first_integral_failures(n, xs, levels) == []
    # one field of g^(n-1) may only run along X_1; give it an X_n component
    last = levels[n - 1]
    bent = LieAlgebraSpan(last.dim, (_add(last.basis[0], xs[n - 1]),) + last.basis[1:], last.order)
    failures = _first_integral_failures(n, xs, levels[:n - 1] + [bent])
    assert failures == [f"derived term {n - 1} has a component along X{n} > X1"]


def test_first_integral_structure_fails_on_a_non_triangular_basis():
    xs, levels = _nilpotent_levels(3)
    # X_1 + X_2 has a d_2 component; X_2 + x_1 X_2 has a binomial pivot
    x1 = LaurentPoly.variable(3, 1)
    bad = [_add(xs[0], xs[1]), xs[1], xs[2]]
    assert _first_integral_failures(3, bad, levels) == ["X1 is not triangular with a monomial pivot"]
    bad = [xs[0], VectorField([c + x1 * c for c in xs[1].coeffs]), xs[2]]
    assert _first_integral_failures(3, bad, levels) == ["X2 is not triangular with a monomial pivot"]


def test_witness_fixture_loading():
    fx = load_witness_fixture("group_witness_n2.txt")
    assert fx.dim == 2 and fx.order == 12 and fx.depth == 3
    assert len(fx.generators) == 5 and len(fx.words) == 1


def test_witness_reports():
    r1 = verify_group_witness_fixture(1)
    assert r1.status == "pass"
    r2 = verify_group_witness_fixture(2)
    assert r2.status == "pass"
    assert "->" in r2.witness
    assert r2.claim_id == "group-witness-n2"
    assert r2.parameters["fixture"] == "group_witness_n2.txt"
    with pytest.raises(ValueError, match="shipped for n = 1 and n = 2"):
        verify_group_witness_fixture(3)


def test_witness_depth_enforcement():
    x = LaurentPoly.variable(1, 1)
    g = FormalDiffeo([x + x ** 2], 4)
    h = FormalDiffeo([x * 2], 4)
    shallow = WordLeaf(0)
    r = verify_group_length_witness([g, h], 1, [shallow])
    assert r.status == "fail"  # depth 0 < 1


def test_witness_failure_when_all_trivial():
    x = LaurentPoly.variable(1, 1)
    g = FormalDiffeo([x + x ** 2], 4)
    w = WordComm(WordLeaf(0), WordLeaf(0))
    r = verify_group_length_witness([g], 1, [w])
    assert r.status == "fail"
    assert "non-identity" in r.witness


def test_length_bounds():
    reports = [verify_solvable_family(1, 6), verify_solvable_family(2, 12)]
    reports += [verify_nilpotent_example(n) for n in (2, 3, 4)]
    assert verify_length_bounds(reports, sample_planar_depth2_words()).status == "pass"


# a planar sample in which every depth-2 derived word vanished
PLANAR = [True] * 4


def _chain_report(n, length):
    params = {"n": n, "jet_order": 9}
    if length is not None:
        params["soluble_length"] = length
    return VerificationReport(f"solvable-chain-n{n}", params, "pass")


def _nilpotent_report(n, length):
    params = {"n": n}
    if length is not None:
        params["soluble_length"] = length
    return VerificationReport(f"nilpotent-family-n{n}", params, "pass")


def test_length_bounds_fail_on_reported_lengths():
    r = verify_length_bounds([_chain_report(1, 2), _chain_report(2, 5)], PLANAR)
    assert r.status == "fail"
    assert r.witness == "chain algebra n=2 exceeds the solvable bound"
    # a chain report without a length (series did not terminate) fails too
    assert verify_length_bounds([_chain_report(1, None)], PLANAR).status == "fail"
    r = verify_length_bounds([_nilpotent_report(2, 4)], PLANAR)
    assert r.witness == "nilpotent family n=2: length 4 > 2; nilpotent family n=2: length 4 > 3"
    # a nilpotent-family report without a length fails too
    r = verify_length_bounds([_nilpotent_report(3, None)], PLANAR)
    assert r.witness == "nilpotent family n=3 not solvable"


def test_length_bounds_heavy_iff_n3_chain_reported():
    chains = [_chain_report(n, 2 * n) for n in (1, 2)]
    r = verify_length_bounds(chains, PLANAR)
    assert r.status == "pass" and r.parameters == {"heavy": False}
    r = verify_length_bounds(chains + [_chain_report(3, 6)], PLANAR)
    assert r.status == "pass" and r.parameters == {"heavy": True}
    r = verify_length_bounds(chains + [_chain_report(3, 7)], PLANAR)
    assert r.status == "fail" and r.parameters == {"heavy": True}


def test_report_serialization_deterministic():
    reports = [
        verify_solvable_family(1, 6),
        verify_nilpotent_example(2),
    ]
    a = reports_to_json(reports)
    b = reports_to_json(list(reversed(reports)))
    # byte-identical regardless of run order and elapsed time
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == "germcalc-report/1"
    assert all(claim["elapsed"] is None for claim in payload["claims"])
    timed = json.loads(reports_to_json(reports, include_elapsed=True))
    assert all(claim["elapsed"] is not None for claim in timed["claims"])


def test_report_text_format():
    text = reports_to_text([verify_solvable_family(1, 6)])
    assert "[PASS" in text and "solvable-chain-n1" in text


def test_one_variable_group_depth_two_trivial():
    # the one-variable triangular group has soluble length exactly 2: some
    # depth-1 word is nontrivial (the fixture) while depth-2 words vanish
    fx = load_witness_fixture("group_witness_n1.txt")
    g0, g1 = fx.generators
    ident = FormalDiffeo.identity(1, fx.order)
    c1 = g0.commutator(g1)
    assert c1 != ident
    for a, b in ((g0, g1), (g1, g0)):
        inner1 = a.commutator(b)
        inner2 = b.commutator(a.compose(b))
        assert inner1.commutator(inner2) == ident
