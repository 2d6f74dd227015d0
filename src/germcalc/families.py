"""Constructors for the three explicit example families.

* the planar unipotent family with prescribed nilpotency class
  (x + P(y))/(1+ty)^k in the first slot, a Moebius map in the second,
* the solvable chain: the monomial basis of U_1 + V_1 + ... + U_n + V_n,
  whose prefixes are the nested chain spaces,
* the commuting meromorphic family u_k / X_k / Z_k whose generated Lie
  algebra realizes soluble length n with nilpotency class 3*2^(n-2)-1.

Everything is exact; the only truncation happens where a diffeomorphism is
materialized at a jet order.
"""

from __future__ import annotations

import math
from itertools import islice

from .fields import BudgetExceededError, VectorField
from .laurent import _LAYOUTS, LaurentPoly, _monomials, validate_order
from .lie import LieAlgebraSpan, _monomial_entry
from .scalars import Scalar


# -- the planar family with prescribed nilpotency class ------------------------


def _power_numerators(t, order: int) -> tuple[list[tuple[int, int]], int]:
    """The powers (-t)^j, j = 0..order, as Gaussian-integer numerators over
    one denominator: with -t = (a + i*b) / q, (a + i*b)^j * q^(order - j)
    over q^order."""
    t = Scalar.of(t)
    q = math.lcm(t.re.denominator, t.im.denominator)
    a = -t.re.numerator * (q // t.re.denominator)
    b = -t.im.numerator * (q // t.im.denominator)
    powers = []
    re, im = 1, 0  # (a + i*b)^j
    for j in range(order + 1):
        scale = q ** (order - j)
        powers.append((re * scale, im * scale))
        re, im = re * a - im * b, re * b + im * a
    return powers, q ** order


def intro_member(k_param: int, P: LaurentPoly, t: Scalar, order: int) -> FormalDiffeo:
    """The member ((x + P(y))/(1+ty)^k, y/(1+ty)) at the jet order, with
    k = k_param, built from closed-form numerators.

    With (-t)^j = w_j / q^order (``_power_numerators``), (1 + ty)^(-k) is
    sum_j G_j y^j / q^order with G_j = C(k + j - 1, j) w_j.  For
    P = sum_p P_p y^p / pden the first component has, over pden * q^order,
    the numerator pden * G_j on x y^j and sum_p P_p G_(s-p) on y^s; the
    second, y/(1 + ty), has w_j on y^(j+1) over q^order.
    """
    # imported here, so that the chain and the nilpotent family load no group side
    from .diffeos import FormalDiffeo

    validate_order(order)
    if k_param < 2:
        raise ValueError(f"the family parameter must be >= 2, got {k_param}")
    if P.dim != 2:
        raise ValueError("P must live in two variables (as a polynomial in y)")
    if not P.is_polynomial():
        raise ValueError("P must be a polynomial")
    nums, pden = P.numerators()
    unpack = _LAYOUTS[2].unpack
    ys = []  # (p, numerator of y^p)
    for key in sorted(nums):  # the order of P.terms
        e0, p = unpack(key)
        if e0 != 0:
            raise ValueError("P may only involve the second variable")
        if p < 2:
            raise ValueError("P must lie in (y^2)")
        if p > k_param:
            raise ValueError(f"deg P must be <= {k_param}")
        ys.append((p, nums[key]))
    powers, den = _power_numerators(t, order)
    geo = []  # the G_j
    for j, (r, i) in enumerate(powers):
        c = math.comb(k_param + j - 1, j)
        geo.append((c * r, c * i))
    first = {(1, j): (pden * r, pden * i) for j, (r, i) in enumerate(geo[:order])}
    for s in range(2, order + 1):
        re = im = 0
        for p, (pr, pi) in ys:
            if p > s:
                break
            gr, gi = geo[s - p]
            re += pr * gr - pi * gi
            im += pr * gi + pi * gr
        first[(0, s)] = (re, im)
    second = {(0, j + 1): power for j, power in enumerate(powers[:order])}
    # polynomial, in m, truncated at order and tangent to the identity
    return FormalDiffeo._trusted(2, order, (
        LaurentPoly.from_numerators(2, first, pden * den),
        LaurentPoly.from_numerators(2, second, den),
    ))


def random_intro_member(rng, k_param: int, order: int) -> FormalDiffeo:
    """A pseudo-random family member with small rational parameters."""
    pool = [-2, -1, 1, 2, 0, 0]
    terms = {}  # numerators over 2
    for d in range(2, k_param + 1):
        c = rng.choice(pool)
        if c:
            terms[(0, d)] = (c * 2 // rng.choice([1, 2]), 0)
    P = LaurentPoly.from_numerators(2, terms, 2)
    t = Scalar.rational(rng.choice(pool), rng.choice([1, 2]))
    return intro_member(k_param, P, t, order)


# -- the solvable chain ---------------------------------------------------------


# The most monomial generators build_chain_algebra builds; n = 3 at its
# default jet order 41 needs 1,842, while n = 4 at its default order 161
# would need 1,456,882.
CHAIN_GENERATOR_BUDGET = 5000


def chain_space_size(dim: int, index: int, order: int) -> int:
    """How many generators ``build_chain_algebra(dim, index, order)`` has,
    counted without building them: for j < dim, U_j has the monomials of
    degree 2..order and V_j those of degree 1..order-1 in the dim - j
    variables after x_j; V_dim has one, and so has U_dim from order 2.

    Chain space 2n is zero, and dropping the index by one appends the next
    summand of U_1 + V_1 + ... + U_n + V_n, so chain space ``index`` holds
    the first 2n - index summands."""
    if not 0 <= index <= 2 * dim:
        raise ValueError(f"chain index {index} out of range 0..{2 * dim}")
    total = 0
    for pos in range(2 * dim - index):
        m = dim - 1 - pos // 2  # the variables after x_j, j = pos // 2 + 1
        if pos % 2 == 0:  # U_j
            total += math.comb(m + order, m) - 1 - m if m else int(order >= 2)
        else:  # V_j
            total += math.comb(m + order - 1, m) - 1 if m else 1
    return total


def _chain_entries(dim: int, order: int):
    """The monomial fields of chain space 0 up to total degree ``order``,
    summand by summand: U_j = a(x_(j+1), ..., x_n) d/dx_j with a in m^2 and
    V_j = x_j b(x_(j+1), ..., x_n) d/dx_j with b in m, for j < n, then
    U_n = x_n^2 d/dx_n and V_n = x_n d/dx_n.  Within a summand the tails
    come degree by degree, each degree in ascending lex order.  Each field
    x^a d/dx_j comes as its entry, of weight u = a - e_j, without the field."""
    for j in range(dim):  # the direction d/dx_(j+1)
        m = dim - 1 - j  # the variables after x_(j+1)
        # (exponent of x_(j+1), lowest tail degree) of U, then of V; with
        # no variables after x_n the tail is 1, of degree 0
        for lead, low in ((0, 2), (1, 1)) if m else ((2, 0), (1, 0)):
            head = (0,) * j + (lead - 1,)
            for d in range(low, order - lead + 1):
                for tail in reversed(_monomials(m, d)):
                    yield _monomial_entry(dim, head + tail, j)


def build_chain_algebra(dim: int, index: int, order: int) -> LieAlgebraSpan:
    """Jet-mode span generated by all monomial generators of the chain space:
    the first ``chain_space_size(dim, index, order)`` fields of chain space 0.

    Every chain space is a Lie algebra in jet mode, so the span is marked
    closed.  Its fields are built only when something reads its basis.
    Raises BudgetExceededError, before building any generator, when there
    are more than CHAIN_GENERATOR_BUDGET of them.
    """
    if dim < 1:
        raise ValueError("the solvable chain needs dimension >= 1")
    validate_order(order)
    count = chain_space_size(dim, index, order)
    if count > CHAIN_GENERATOR_BUDGET:
        raise BudgetExceededError(
            f"the chain space needs {count} generators at jet order {order}, "
            f"over the budget of {CHAIN_GENERATOR_BUDGET}"
        )
    # No span reduction: the generators are distinct monomial fields (each
    # an exponent and a direction), hence independent, and none has degree
    # above the order, so truncation leaves them as they are.
    entries = list(islice(_chain_entries(dim, order), count))
    return LieAlgebraSpan(dim, None, order, closed=True, _entries=entries)


def chain_exponent(j: int) -> int:
    """The exponent c_j = 2^j + 2^(j-2) - 2 controlling how deep the j-th
    derived algebra still contains a monomial copy of the j-th chain space."""
    if j < 2:
        raise ValueError("chain exponents are defined for j >= 2")
    return 2 ** j + 2 ** (j - 2) - 2


def default_solvable_order(dim: int) -> int:
    """Default jet order for the solvable-chain verification."""
    if dim == 1:
        return 6
    return chain_exponent(2 * dim - 1) + 3


# -- the nilpotent family ----------------------------------------------------------


def nilpotent_seed_functions(dim: int) -> list[LaurentPoly]:
    """u_1, ..., u_(n-1): u_(n-1) = x_n^(-1) and
    u_(n-k) = x_(n-k+1)^(-2) * u_(n-k+1)^2."""
    if dim < 2:
        raise ValueError("the nilpotent family needs dimension >= 2")
    us: dict[int, LaurentPoly] = {dim - 1: LaurentPoly.monomial(dim, {dim: -1})}
    for k in range(2, dim):
        idx = dim - k
        us[idx] = LaurentPoly.monomial(dim, {idx + 1: -2}) * (us[idx + 1] ** 2)
    return [us[i] for i in range(1, dim)]


def nilpotent_generator_fields(dim: int) -> list[VectorField]:
    """The polynomial generators Z_1, ..., Z_n of the nilpotent example.

    Z_k is u_k X_k, which cancels the u_k^(-1) prefactor and leaves the
    polynomial part; Z_n = X_n.  The generic last-field pattern
    -x_(n-1) x_n d(n-1) + x_n^2 dn only commutes with the rest of the family
    for n >= 4; at n = 2 and n = 3 the unique fields of the same monomial
    shape that make the whole family commute are

        n = 2:  3 x1 x2 d1 + x2^2 d2
        n = 3:  -2 x1 x3 d1 - x2 x3 d2 + x3^2 d3

    and with these the commutation/first-integral package (and the resulting
    lengths and classes) checks out exactly.
    """
    if dim < 2:
        raise ValueError("the nilpotent family needs dimension >= 2")
    n = dim
    fields: list[VectorField] = []
    # Z_1 = x2^2 d1 in every dimension
    fields.append(VectorField.from_terms(n, (LaurentPoly.monomial(n, {2: 2}), 1)))
    if n == 2:
        fields.append(
            VectorField.from_terms(
                2,
                (LaurentPoly.monomial(2, {1: 1, 2: 1}, 3), 1),
                (LaurentPoly.monomial(2, {2: 2}), 2),
            )
        )
        return fields
    # Z_2 = 4 x1 x2 d1 + x2^2 d2
    fields.append(
        VectorField.from_terms(
            n,
            (LaurentPoly.monomial(n, {1: 1, 2: 1}, 4), 1),
            (LaurentPoly.monomial(n, {2: 2}), 2),
        )
    )
    if n == 3:
        fields.append(
            VectorField.from_terms(
                3,
                (LaurentPoly.monomial(3, {1: 1, 3: 1}, -2), 1),
                (LaurentPoly.monomial(3, {2: 1, 3: 1}, -1), 2),
                (LaurentPoly.monomial(3, {3: 2}), 3),
            )
        )
        return fields
    # Z_3 = -4 x1 x3 d1 - 2 x2 x3 d2 + x3^2 d3
    fields.append(
        VectorField.from_terms(
            n,
            (LaurentPoly.monomial(n, {1: 1, 3: 1}, -4), 1),
            (LaurentPoly.monomial(n, {2: 1, 3: 1}, -2), 2),
            (LaurentPoly.monomial(n, {3: 2}), 3),
        )
    )
    # Z_k = -2 x_(k-1) x_k d(k-1) + x_k^2 dk for 4 <= k <= n-1
    for k in range(4, n):
        fields.append(
            VectorField.from_terms(
                n,
                (LaurentPoly.monomial(n, {k - 1: 1, k: 1}, -2), k - 1),
                (LaurentPoly.monomial(n, {k: 2}), k),
            )
        )
    # Z_n = -x_(n-1) x_n d(n-1) + x_n^2 dn
    fields.append(
        VectorField.from_terms(
            n,
            (LaurentPoly.monomial(n, {n - 1: 1, n: 1}, -1), n - 1),
            (LaurentPoly.monomial(n, {n: 2}), n),
        )
    )
    return fields


def build_nilpotent_example(dim: int):
    """(u functions, X fields, Z fields) of the nilpotent family.

    X_k = u_k^(-1) Z_k for k < n (Laurent coefficients), X_n = Z_n; the Z's
    are verified polynomial by construction.
    """
    us = nilpotent_seed_functions(dim)
    zs = nilpotent_generator_fields(dim)
    xs = []
    for k, Z in enumerate(zs, start=1):
        if k < dim:
            u_inv = us[k - 1].monomial_inverse()
            xs.append(VectorField([u_inv * c for c in Z.coeffs]))
        else:
            xs.append(Z)
    return us, xs, zs


def expected_nilpotency_class(dim: int) -> int:
    """3 * 2^(n-2) - 1."""
    return 3 * 2 ** (dim - 2) - 1


def expected_a_value(dim: int, k: int) -> int:
    """a(u_(n-k)) = 3 * 2^(k-1) - 2 for 1 <= k <= n-1."""
    if not 1 <= k <= dim - 1:
        raise ValueError(f"k = {k} out of range 1..{dim - 1}")
    return 3 * 2 ** (k - 1) - 2


def chain_composition_value(dim: int, k: int, family=None) -> LaurentPoly:
    """The maximal-length composite applied to u_(n-k):

        Z_n^(2^(k-1)) o Z_(n-1)^(2^(k-1)) o Z_(n-2)^(2^(k-2)) o ...
            o Z_(n-k+2)^(2^2) o Z_(n-k+1)^2   applied to u_(n-k),

    a composition of exactly 3*2^(k-1) - 2 derivations.  The family realizes
    its nilpotency class iff this evaluates to a nonzero constant.
    ``family`` is ``build_nilpotent_example(dim)`` when the caller has
    already built it, so that a loop over k builds it once.
    """
    us, _, zs = build_nilpotent_example(dim) if family is None else family
    if not 1 <= k <= dim - 1:
        raise ValueError(f"k = {k} out of range 1..{dim - 1}")
    v = us[dim - k - 1]  # u_(n-k)
    if k == 1:
        return zs[dim - 1].apply(v)
    # apply right-to-left: Z_(n-k+1)^2 first, then rising powers, then the
    # top two indices both at 2^(k-1)
    plan: list[tuple[int, int]] = [(dim - k + 1, 2)]
    for idx in range(dim - k + 2, dim - 1):
        plan.append((idx, 2 ** (idx - (dim - k))))
    if dim - 1 >= dim - k + 2:
        plan.append((dim - 1, 2 ** (k - 1)))
    plan.append((dim, 2 ** (k - 1)))
    for idx, power in plan:
        Z = zs[idx - 1]
        for _ in range(power):
            v = Z.apply(v)
    return v
