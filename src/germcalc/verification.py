"""Verification drivers: machine-checkable pass/fail reports for every claim
the engine can decide about the example families.

Every report is reproducible bit-exactly from (claim_id, parameters, seed):
sampling uses a seeded generator, all comparisons are exact equalities, and
pass for an equality claim means exact equality.  ``elapsed`` is measured but
excluded from deterministic serializations.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import namedtuple
from functools import partial
from importlib import resources

from .diffeos import FormalDiffeo, evaluate_word, word_depth
from .fields import VectorField, is_first_integral, nilpotency_degree_a
from .laurent import LaurentPoly
from .lie import (
    LieAlgebraSpan,
    _term_keys,
    bracket_closure,
    central_series,
    derived_series,
    kappa_sequence,
)
from .families import (
    build_nilpotent_example,
    build_chain_algebra,
    chain_composition_value,
    chain_space_size,
    chain_exponent,
    default_solvable_order,
    expected_a_value,
    expected_nilpotency_class,
    random_intro_member,
)
from .parsing import format_diffeo, format_word, parse_diffeo, parse_word


class VerificationReport:
    """The verdict on one claim; equal to a report with equal fields."""

    __slots__ = ("claim_id", "parameters", "status", "witness", "elapsed", "notes")

    def __init__(
        self,
        claim_id: str,
        parameters: dict,
        status: str,  # "pass" | "fail" | "unstable"
        witness: str | None = None,
        elapsed: float = 0.0,
        notes: tuple[str, ...] = (),
    ):
        self.claim_id = claim_id
        self.parameters = parameters
        self.status = status
        self.witness = witness
        self.elapsed = elapsed
        self.notes = notes

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VerificationReport({shown})"

    def as_dict(self, include_elapsed: bool = False) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": self.parameters,
            "status": self.status,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 6) if include_elapsed else None,
            "notes": list(self.notes),
        }

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def reports_to_json(reports: list[VerificationReport], include_elapsed: bool = False) -> str:
    """Canonical JSON: claims sorted by claim_id, keys sorted, no timing
    unless asked (timing would break byte-identity across runs)."""
    payload = {
        "schema": "germcalc-report/1",
        "claims": [
            r.as_dict(include_elapsed) for r in sorted(reports, key=lambda r: r.claim_id)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def reports_to_text(reports: list[VerificationReport]) -> str:
    lines = []
    for r in sorted(reports, key=lambda r: r.claim_id):
        lines.append(f"[{r.status.upper():8s}] {r.claim_id}  ({r.elapsed:.2f}s)")
        for key, value in sorted(r.parameters.items()):
            lines.append(f"    {key} = {value}")
        if r.witness:
            lines.append(f"    witness: {r.witness}")
        for note in r.notes:
            lines.append(f"    note: {note}")
    return "\n".join(lines)


class _Claim:
    """Collects failures for one claim and times it."""

    def __init__(self, claim_id: str, parameters: dict):
        self.claim_id = claim_id
        self.parameters = parameters
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.witness: str | None = None
        self.unstable = False
        self.t0 = time.monotonic()

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def report(self) -> VerificationReport:
        elapsed = time.monotonic() - self.t0
        if self.failures:
            status = "unstable" if self.unstable else "fail"
            witness = "; ".join(self.failures)
            if self.witness:
                witness += f" | {self.witness}"
            return VerificationReport(
                self.claim_id, self.parameters, status, witness, elapsed, tuple(self.notes)
            )
        return VerificationReport(
            self.claim_id, self.parameters, "pass", self.witness, elapsed, tuple(self.notes)
        )


# -- the planar family with prescribed nilpotency class --------------------------


def verify_intro_nilpotency(
    k_param: int, sample_count: int = 8, seed: int = 0
) -> VerificationReport:
    """Sampled verification that the planar family has nilpotency class
    k_param - 1 with the expected shape at every intermediate depth.

    Checks, on seeded random members at jet order k_param + 3: every
    depth-j iterated commutator for 1 <= j <= k_param-2 has the form
    (x + Q(y), y) with Q supported in degrees j+2 .. k_param; some
    depth-(k_param-2) commutator is nontrivial; every depth-(k_param-1)
    commutator is the identity jet.
    """
    if k_param < 2:
        raise ValueError(f"the family parameter k_param must be >= 2, got {k_param}")
    jet_order = k_param + 3
    claim = _Claim(
        f"intro-nilpotency-k{k_param}",
        {"k_param": k_param, "jet_order": jet_order, "samples": sample_count, "seed": seed},
    )
    claim.notes.append(
        "commutator first components are read as polynomials in the second "
        "variable alone; the two-variable family admits no other dependence"
    )
    rng = random.Random(seed)
    ident = FormalDiffeo.identity(2, jet_order)
    x1 = LaurentPoly.variable(2, 1)
    x2 = LaurentPoly.variable(2, 2)
    witness = None
    for _ in range(sample_count):
        els = [random_intro_member(rng, k_param, jet_order) for _ in range(k_param)]
        c = els[0]
        if k_param == 2 and witness is None and c != ident:
            witness = c  # abelian family: class 1 is witnessed by any member
        for j in range(1, k_param):
            c = els[j].commutator(c)
            if j <= k_param - 2:
                claim.check(c.components[1] == x2, f"depth-{j} second component moved")
                q = c.components[0] - x1
                for exps in q.terms:
                    claim.check(exps[0] == 0, f"depth-{j} first component depends on x1")
                    claim.check(
                        exps[1] >= j + 2,
                        f"depth-{j} translation has a term of degree {exps[1]} < {j + 2}",
                    )
                    claim.check(
                        exps[1] <= k_param,
                        f"depth-{j} translation has a term of degree {exps[1]} > {k_param}",
                    )
                if j == k_param - 2 and witness is None and not q.is_zero():
                    witness = c
            else:
                claim.check(c == ident, f"depth-{j} commutator is not the identity")
    if witness is None:
        # all sampled deepest commutators vanished: cannot certify the class
        claim.unstable = True
        claim.failures.append(f"no nontrivial depth-{k_param - 2} witness in the sample")
    else:
        claim.witness = format_diffeo(witness)
    return claim.report()


# -- the solvable chain -----------------------------------------------------------


def verify_solvable_family(n: int, jet_order: int | None = None) -> VerificationReport:
    """Derived-series verification for the chain algebra in jet mode.

    Checks: every derived term sits inside the matching chain space; the
    monomial-scaled copies of the chain spaces sit inside the derived terms
    (at the exponent schedule 2^j + 2^(j-2) - 2); the soluble length is 2n
    and kappa_j = n - floor(j/2).

    Truncation at the jet order is a surjective Lie homomorphism, and each
    weight component of a derived term is degree-homogeneous (x^a d_i has
    weight a - e_i and degree |a|), so the jet length and each jet kappa_j
    bound the true ones from below.  Derived term j lies in G_j, of generic
    rank n - floor(j/2), and G_2n = 0: the paper's upper bounds.  A jet
    value below its bound is unstable (the order is too low); the claim
    fails only on what truncation cannot cause.
    """
    if n < 1:
        raise ValueError("the solvable chain needs dimension >= 1")
    if jet_order is None:
        jet_order = default_solvable_order(n)
    claim = _Claim(f"solvable-chain-n{n}", {"n": n, "jet_order": jet_order})
    g0 = build_chain_algebra(n, 0, jet_order)
    levels = derived_series(g0)
    if not levels[-1].is_zero():
        # the image of a soluble algebra is soluble
        claim.failures.append(f"derived series stabilizes nonzero at jet order {jet_order}")
        return claim.report()
    length = len(levels) - 1
    kappa = kappa_sequence(g0, levels).values
    # above a bound of the paper: a failure; below one: the order is too low
    claim.check(length <= 2 * n, f"soluble length {length} > {2 * n}")
    missed = [f"soluble length {length} < {2 * n}"] if length < 2 * n else []
    for j, value in enumerate(kappa[:2 * n + 1]):
        bound = n - j // 2
        claim.check(value <= bound, f"kappa_{j} = {value} > {bound}")
        if value < bound:
            missed.append(f"kappa_{j} = {value} < {bound}")
    # containment in the chain spaces G_j, the prefixes of G_0's basis
    sizes = [chain_space_size(n, j, jet_order) for j in range(min(2 * n, len(levels) - 1) + 1)]
    for j, (size, needed) in enumerate(zip(sizes, _chain_prefixes(g0, levels[:len(sizes)]))):
        claim.check(needed <= size, f"derived term {j} leaves the chain space {j}")
    # monomial-scaled copies downstairs
    xn = LaurentPoly.monomial(n, {n: 1})
    for j in range(2, len(sizes)):
        c = chain_exponent(j)
        if c >= jet_order:
            continue
        mono = xn ** c
        checked = 0
        for X in g0.basis[:sizes[j]]:
            scaled = VectorField([co.mul_truncated(mono, jet_order) for co in X.coeffs])
            if scaled.is_zero():
                continue
            checked += 1
            claim.check(
                levels[j].contains_field(scaled),
                f"x{n}^{c} copy of chain space {j} escapes derived term {j}",
            )
        claim.notes.append(f"scaled-copy check at depth {j}: {checked} generators")
    if missed and not claim.failures:
        claim.unstable = True
        claim.failures.append(f"{missed[0]} at jet order {jet_order}")
    claim.parameters["soluble_length"] = length
    claim.parameters["kappa"] = list(kappa)
    return claim.report()


def _chain_prefixes(g0: LieAlgebraSpan, spans) -> list[int]:
    """How many leading basis fields of the chain space G_0 each span needs.

    Every chain-space field is a single monomial term x^a d_i, so a span of
    such fields holds a field exactly when each of its terms is one of
    them: G_j, the first ``chain_space_size(n, j, order)`` fields of G_0,
    holds a span exactly when that size is at least its count here.  A term
    outside G_0 counts past its end.  No echelon is built, and the terms
    are read off the spans' entries, so no field is built."""
    n = g0.dim

    def keys(span):
        return (key for entry in span._own_entries() for key in _term_keys(entry, n))

    entries = g0._own_entries()
    positions = {key: i for i, entry in enumerate(entries) for key in _term_keys(entry, n)}
    outside = len(positions)
    return [
        1 + max((positions.get(key, outside) for key in keys(span)), default=-1) for span in spans
    ]


# -- the nilpotent family -----------------------------------------------------------


def verify_nilpotent_example(n: int) -> VerificationReport:
    """Exact verification of the commuting meromorphic family in dimension n.

    Covers: the six commutation/first-integral identities of the family; the
    a-values 3*2^(k-1) - 2; the maximal-length chain composite landing in a
    nonzero constant; soluble length n and nilpotency class 3*2^(n-2) - 1 of
    the generated algebra (exact mode); and the coefficient-wise
    first-integral containment of the derived terms.
    """
    claim = _Claim(f"nilpotent-family-n{n}", {"n": n})
    us, xs, zs = build_nilpotent_example(n)
    claim.check(
        all(Z.is_formal() and Z.is_nilpotent() for Z in zs),
        f"family n={n} is not generated by nilpotent formal fields",
    )
    # (1) the X family commutes
    for a in range(n):
        for b in range(a + 1, n):
            claim.check(
                xs[a].bracket(xs[b]).is_zero(), f"[X{a + 1}, X{b + 1}] != 0"
            )
    # (2) the last field sends u_(n-1) to -1, the others kill it
    minus_one = LaurentPoly.constant(n, -1)
    claim.check(xs[n - 1].apply(us[n - 2]) == minus_one, "X_n(u_(n-1)) != -1")
    for j in range(n - 1):
        claim.check(xs[j].apply(us[n - 2]).is_zero(), f"X{j + 1}(u_(n-1)) != 0")
    for k in range(2, n):
        u = us[n - k - 1]
        X = xs[n - k]
        img = X.apply(u)
        # (3) only X_(n-k+1) moves u_(n-k)
        for j in range(1, n + 1):
            if j != n - k + 1:
                claim.check(xs[j - 1].apply(u).is_zero(), f"X{j}(u_(n-{k})) != 0")
        # (4) the image and its second application
        expected = LaurentPoly.monomial(n, {n - k + 1: -1}, -2) * us[n - k]
        claim.check(img == expected, f"X(u) has the wrong value at k={k}")
        claim.check(X.apply(img) == LaurentPoly.constant(n, 2), f"X^2(u) != 2 at k={k}")
        # (5) the image is killed by every other field
        for j in range(1, n + 1):
            if j != n - k + 1:
                claim.check(xs[j - 1].apply(img).is_zero(), f"X{j}(X(u)) != 0 at k={k}")
        # (6) the square identity
        claim.check(img * img == u * 4, f"(X(u))^2 != 4u at k={k}")
    # a-values and the chain composite
    for k in range(1, n):
        a = nilpotency_degree_a(us[n - k - 1], zs)
        claim.check(
            a == expected_a_value(n, k),
            f"a(u_(n-{k})) = {a}, expected {expected_a_value(n, k)}",
        )
        chain = chain_composition_value(n, k, (us, xs, zs))
        claim.check(
            chain.is_constant() and not chain.is_zero(),
            f"chain composite at k={k} is not a nonzero constant",
        )
    # lengths of the generated algebra (exact mode)
    g = bracket_closure(zs)
    levels = derived_series(g)
    for key, name, series, expected in (
        ("soluble_length", "derived", levels, n),
        ("nilpotency_class", "central", central_series(g), expected_nilpotency_class(n)),
    ):
        if not series[-1].is_zero():
            claim.failures.append(f"{name} series stabilizes nonzero")
            continue
        value = len(series) - 1
        claim.check(value == expected, f"{key.replace('_', ' ')} {value} != {expected}")
        claim.parameters[key] = value
    # derived terms decompose as (first integral) * X_k with shrinking k
    _check_first_integral_structure(claim, n, xs, levels)
    return claim.report()


def _check_first_integral_structure(claim: _Claim, n: int, xs, levels):
    """Each derived term g^(j) (``levels`` is the derived series) must
    decompose over the X basis with coefficients vanishing past index n-j
    and coefficient k a first integral of X_1..X_k.

    The X basis must be upper triangular with monomial pivots (X_k has no
    d_j component for j > k, and its d_k coefficient is a monomial); then
    every coefficient is a Laurent polynomial, found by
    ``_triangular_coefficients``."""
    triangular = [not any(X.coeffs[k:]) and len(X.coeffs[k - 1].terms) == 1
                  for k, X in enumerate(xs, start=1)]
    for k, ok in enumerate(triangular, start=1):
        claim.check(ok, f"X{k} is not triangular with a monomial pivot")
    if not all(triangular):
        return
    inverses = [X.coeffs[k].monomial_inverse() for k, X in enumerate(xs)]
    for j, level in enumerate(levels[:n]):
        for Z in level.basis:
            for k, vk in enumerate(_triangular_coefficients(Z, xs, inverses), start=1):
                if k > n - j:
                    claim.check(
                        vk.is_zero(),
                        f"derived term {j} has a component along X{k} > X{n - j}",
                    )
                elif not vk.is_zero():
                    claim.check(
                        is_first_integral(vk, xs[:k]),
                        f"coefficient of X{k} in derived term {j} is not a first integral",
                    )


def _triangular_coefficients(Z: VectorField, xs, inverses) -> list[LaurentPoly]:
    """(a_1, ..., a_n) with Z = sum a_k X_k, for fields X_k with no d_j
    component past j = k whose d_k coefficients have the Laurent inverses
    ``inverses``: back-substitution from the last component upward, one
    division by a monomial a step."""
    rest = list(Z.coeffs)
    coeffs = [None] * len(xs)
    for k in reversed(range(len(xs))):
        a = coeffs[k] = rest[k] * inverses[k]
        if a:
            for i, c in enumerate(xs[k].coeffs[:k]):
                if c:
                    rest[i] = rest[i] - a * c
    return coeffs


# -- group-level witnesses -----------------------------------------------------------


class WitnessFixture(namedtuple("WitnessFixture", "dim order depth generators words")):
    """A parsed witness fixture: the generators (``FormalDiffeo``) at
    dimension ``dim`` and jet order ``order``, and the commutator words over
    them, each of depth at least ``depth``."""

    __slots__ = ()


def load_witness_fixture(name: str) -> WitnessFixture:
    """Parse a witness fixture file (format documented in the fixture itself)."""
    text = resources.files("germcalc").joinpath(f"fixtures/{name}").read_text()
    dim = order = depth = None
    gen_texts: list[str] = []
    word_texts: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "dim":
            dim = int(rest)
        elif key == "order":
            order = int(rest)
        elif key == "depth":
            depth = int(rest)
        elif key == "gen":
            gen_texts.append(rest.strip())
        elif key == "word":
            word_texts.append(rest.strip())
        else:
            raise ValueError(f"unknown fixture line {line!r}")
    if dim is None or order is None or depth is None:
        raise ValueError(f"fixture {name} is missing dim/order/depth")
    gens = tuple(parse_diffeo(t, dim, order) for t in gen_texts)
    words = tuple(parse_word(t) for t in word_texts)
    return WitnessFixture(dim, order, depth, gens, words)


def verify_group_length_witness(
    gens, depth: int, words, claim_id: str = "group-witness"
) -> VerificationReport:
    """Pass iff some word of commutator depth >= depth evaluates to a
    non-identity jet (a lower-bound certificate: soluble length >= depth+1).

    Also checks the unipotence of every evaluated depth >= 1 word: elements of
    the first derived group are tangent to the identity.
    """
    claim = _Claim(claim_id, {"depth": depth, "generators": len(gens), "words": len(words)})
    ident = FormalDiffeo.identity(gens[0].dim, gens[0].order)
    witness = None
    for word in words:
        d = word_depth(word)
        claim.check(d >= depth, f"word {format_word(word)} has depth {d} < {depth}")
        value = evaluate_word(word, gens)
        if d >= 1:
            claim.check(
                value.is_tangent_to_identity(),
                f"word {format_word(word)} does not evaluate tangent to the identity",
            )
        if value != ident and witness is None:
            witness = (word, value)
    if witness is None:
        claim.failures.append("no supplied word evaluated to a non-identity jet")
    else:
        claim.witness = f"{format_word(witness[0])} -> {format_diffeo(witness[1])}"
    return claim.report()


def verify_group_witness_fixture(n: int) -> VerificationReport:
    """The claim group-witness-n{n}: ``verify_group_length_witness`` on the
    shipped fixture group_witness_n{n}.txt, for n = 1 or 2."""
    if n not in (1, 2):
        raise ValueError("witness fixtures are shipped for n = 1 and n = 2")
    name = f"group_witness_n{n}.txt"
    fx = load_witness_fixture(name)
    report = verify_group_length_witness(fx.generators, fx.depth, fx.words, f"group-witness-n{n}")
    report.parameters.update({"fixture": name, "dim": fx.dim, "jet_order": fx.order})
    return report


# -- global length-bound sanity ----------------------------------------------------------


def sample_planar_depth2_words() -> list[bool]:
    """Whether each of four seeded depth-2 derived words of the planar family
    (k_param = 5, jet order 8) vanishes.

    The family is unipotent in dimension 2, so its derived length is at most
    3, and its commutator group is abelian, so every depth-2 derived word
    [[a, b], [c, d]] must be the identity.  ``verify_length_bounds`` reads
    the answers.
    """
    rng = random.Random(11)
    order = 8
    ident = FormalDiffeo.identity(2, order)
    vanished = []
    for _ in range(4):
        a, b, c, d = (random_intro_member(rng, 5, order) for _ in range(4))
        vanished.append(a.commutator(b).commutator(c.commutator(d)) == ident)
    return vanished


def verify_length_bounds(
    reports: list[VerificationReport], planar: list[bool]
) -> VerificationReport:
    """Every example the engine builds has to respect the applicable global
    bound: 2n for connected solvable, 2n-1 for unipotent solvable, n for
    nilpotent.  A violation anywhere fails the suite.

    The lengths are not recomputed: they are the ``soluble_length``
    parameters certified by the ``solvable-chain-n*`` reports (bound 2n) and
    the ``nilpotent-family-n*`` reports (bounds n and 2n-1) in ``reports``.
    A report of either family without a length (its derived series did not
    terminate) fails the bound.  The ``heavy`` parameter is true exactly
    when a ``solvable-chain-n3`` report is among them, so the n = 3 chain
    was bound-checked too.  ``planar`` holds the answers of
    ``sample_planar_depth2_words``.
    """
    heavy = any(r.claim_id == "solvable-chain-n3" for r in reports)
    claim = _Claim("length-bounds", {"heavy": heavy})
    for r in reports:
        if r.claim_id.startswith("solvable-chain-n"):
            # chain algebras: connected solvable, bound 2n
            n = r.parameters["n"]
            length = r.parameters.get("soluble_length")
            claim.check(
                length is not None and length <= 2 * n,
                f"chain algebra n={n} exceeds the solvable bound",
            )
        elif r.claim_id.startswith("nilpotent-family-n"):
            # nilpotent family: bound n as nilpotent, 2n-1 as unipotent
            n = r.parameters["n"]
            length = r.parameters.get("soluble_length")
            claim.check(length is not None, f"nilpotent family n={n} not solvable")
            if length is not None:
                claim.check(length <= n, f"nilpotent family n={n}: length {length} > {n}")
                claim.check(length <= 2 * n - 1, f"nilpotent family n={n}: length {length} > {2 * n - 1}")
    # planar family: sampled depth-2 derived words must vanish
    for vanished in planar:
        claim.check(vanished, "planar family has a nontrivial depth-2 derived word")
    return claim.report()


# -- the full suite -------------------------------------------------------------------


def _verification_units(seed: int) -> list[tuple]:
    """The independent work of ``verify all`` as (in_child, call) units: the
    claims in report order, then the planar sample that length-bounds reads.

    With two processes, the units marked in_child run in a forked child, and
    the others, then length-bounds, in the calling process.  The split is
    fixed here from the in-process time of each share, run once in a fresh
    process (seed 0, medians of 15, 2-vCPU Xeon KVM guest, Python 3.11.7):
    20 ms for the child's and 21 ms for the caller's with length-bounds.  A
    stale split costs balance, never a different report."""
    units = [
        (True, partial(verify_intro_nilpotency, 3, 6, seed)),
        (False, partial(verify_intro_nilpotency, 4, 6, seed)),
        (True, partial(verify_intro_nilpotency, 5, 6, seed)),
        (False, partial(verify_solvable_family, 1, 6)),
        (True, partial(verify_solvable_family, 2, 12)),
    ]
    units += [(False, partial(verify_nilpotent_example, n)) for n in (2, 3, 4)]
    units += [(True, partial(verify_group_witness_fixture, n)) for n in (1, 2)]
    units.append((False, sample_planar_depth2_words))
    return units


def _run_units(units: list[tuple], fork: bool) -> list:
    """The results of the (in_child, call) ``units`` in unit order.

    This process runs the units not marked in_child first.  With ``fork``,
    one child made with ``os.fork`` runs the marked units meanwhile and
    writes ``pickle.dumps(results)`` to a pipe only when every call has
    returned; otherwise it leaves with status 1 and writes nothing.  When no
    child delivered, this process runs the marked units itself, so a unit
    that raised in the child raises here as itself.  The units are
    deterministic, so where one ran changes no result.  The child is reaped
    before this returns or raises, and killed first when this process
    raises."""
    there = [i for i, (in_child, _) in enumerate(units) if in_child]
    results = [None] * len(units)
    data = b""
    if fork:
        import pickle
        import signal

        r, w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(r)
                payload = pickle.dumps([units[i][1]() for i in there])
                with open(w, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
    try:
        if fork:
            os.close(w)
        for i, (in_child, call) in enumerate(units):
            if not in_child:
                results[i] = call()
        if fork:
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
    except BaseException:
        if fork:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if fork:
            os.close(r)
            if os.waitpid(pid, 0)[1]:
                data = b""  # a child that failed or was killed delivered nothing
    delivered = pickle.loads(data) if data else [units[i][1]() for i in there]
    for i, value in zip(there, delivered):
        results[i] = value
    return results


def _can_fork() -> bool:
    """Whether ``verify all`` forks a child: only when this process may use
    two or more CPUs, has ``os.fork`` and ``os.sched_getaffinity``, and runs
    no other thread (a forked child could block on a lock that thread
    held)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return False
    return len(os.sched_getaffinity(0)) >= 2


def run_all_verifications(seed: int = 0) -> list[VerificationReport]:
    """Every claim of ``verify all``, then length-bounds, in report order.

    The claims and the planar sample are independent, so they run in two
    processes, split as ``_verification_units`` marks them, when
    ``_can_fork`` allows, and in this process otherwise.  Reports are the
    same either way, except for ``elapsed``, which each claim measures in
    the process that ran it."""
    *reports, planar = _run_units(_verification_units(seed), _can_fork())
    reports.append(verify_length_bounds(reports, planar))
    return reports
