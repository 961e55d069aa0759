"""The registry of verifiable torus-integral identities.

Each identity is stored as a recipe: assemble the integrand (polynomial
times density), integrate by constant-term extraction, build the closed
form, and compare.  All normalized statements are checked by
cross-multiplication (integral times the closed form's denominator against
the closed form's numerator times the normalization integral), so nothing
is ever divided in the truncated ring.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Tuple

from .densities import (
    DensityProduct,
    ct_integrate,
    gustafson_rhs,
    koornwinder_density,
    positive_roots,
    selberg_density,
)
from .errors import DomainError, ResourceLimitError
from .hall_littlewood import Mono, const_arg, hl_full, pm_args, var_arg
from .laurent import LaurentPoly
from .partitions import DominantWeight, Partition, classify_shape
from .pfaffian import build_a_matrix, build_m_minus, build_m_plus, pfaffian
from .series import ParamSeries, SeriesRing
from .tcomb import TComb

# Koornwinder parameter quadruples for the orthogonal components.
K_PLUS_EVEN = (1, -1, (1, 1), (-1, 1))
K_MINUS_EVEN = ((1, 2), (-1, 2), (1, 1), (-1, 1))
K_PLUS_ODD = ((1, 2), -1, (1, 1), (-1, 1))
K_MINUS_ODD = (1, (-1, 2), (1, 1), (-1, 1))
K_SYMPLECTIC = ((1, 1), (-1, 1), 0, 0)
K_KAWANAKA = (1, (1, 1), 0, 0)

_Z_CACHE = {}


def _znorm(dens: DensityProduct, order) -> ParamSeries:
    key = (dens.key(), order)
    hit = _Z_CACHE.get(key)
    if hit is None:
        hit = ct_integrate(dens, None, order)
        _Z_CACHE[key] = hit
    return hit


def clear_caches():
    _Z_CACHE.clear()


def _var_names(prefix, n):
    return tuple("%s%d" % (prefix, i + 1) for i in range(n))


def _plain_args(nvars):
    return tuple(var_arg(nvars, i) for i in range(nvars))


def _inverse_args(nvars):
    return tuple(var_arg(nvars, i, power=-1) for i in range(nvars))


def _linear_factors(vars_, order, values):
    """prod over variables and both powers of (1 - value * x_i^{+-1})."""
    ring = SeriesRing(order)
    nv = len(vars_)
    acc = LaurentPoly.unit(vars_, order)
    for value in values:
        for i in range(nv):
            for power in (1, -1):
                exps = [0] * nv
                exps[i] = power
                acc = acc * LaurentPoly(
                    vars_, {(0,) * nv: ring.one(), tuple(exps): -value}, order
                )
    return acc


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def t_multinomial_of(parts, order, base=2) -> ParamSeries:
    """[N]!/prod [m_i]! over all stored parts (the phi/v/(1-t) quotient)."""
    tc = TComb(SeriesRing(order), base=base)
    mults = list(Partition(tuple(sorted(parts, reverse=True))).multiplicities().values())
    return tc.t_multinomial(len(tuple(parts)), mults)


def _minus_alpha_power(ring, e):
    return ring.monomial(ea=e, coeff=-1 if e % 2 else 1)


def rhs_orthogonality(lam: Partition, mu: Partition, n, order):
    """(numerator, denominator) of delta_{lambda mu} n! / v_mu(t)."""
    ring = SeriesRing(order)
    if lam.parts != mu.parts:
        return ring.zero(), ring.one()
    tc = TComb(ring)
    return ring.const(factorial(n)), tc.v_of(lam.parts)


def rhs_orthogonal_alpha(component, lam: Partition, order) -> ParamSeries:
    """The one-parameter closed forms for the four orthogonal components."""
    ring = SeriesRing(order)
    odd, even = lam.parity_counts()
    sign = 1 if component in ("plus_even", "plus_odd") else -1
    bracket = _minus_alpha_power(ring, odd) + _minus_alpha_power(ring, even) * sign
    return t_multinomial_of(lam.parts, order) * bracket


def _alpha_shifted_rs(tc, ring, m) -> ParamSeries:
    """(-alpha)^m H_m(beta/alpha; t), assembled directly as a polynomial."""
    acc = ring.zero()
    neg = -1 if m % 2 else 1
    for j in range(m + 1):
        acc = acc + tc.t_binomial(m, j) * ring.monomial(ea=m - j, eb=j, coeff=neg)
    return acc


def _rs_brackets(lam: Partition, order):
    """The two Rogers-Szego bracket summands of the two-parameter values."""
    ring = SeriesRing(order)
    tc = TComb(ring)
    z_ab = ring.monomial(ea=1, eb=1)
    even_h = ring.one()
    odd_h = ring.one()
    even_g = ring.one()
    odd_g = ring.one()
    for value, mult in lam.multiplicities().items():
        if value % 2 == 0:
            even_h = even_h * tc.rogers_szego(mult, z_ab)
            even_g = even_g * _alpha_shifted_rs(tc, ring, mult)
        else:
            odd_h = odd_h * tc.rogers_szego(mult, z_ab)
            odd_g = odd_g * _alpha_shifted_rs(tc, ring, mult)
    # (-alpha)^{# odd parts} is absorbed into the shifted factors
    return even_h * odd_g, odd_h * even_g


def rhs_ab(component, lam: Partition, order) -> ParamSeries:
    """Two-parameter closed forms; polynomial in (s, alpha, beta) by design."""
    b1, b2 = _rs_brackets(lam, order)
    sign = 1 if component in ("plus_even", "plus_odd") else -1
    return t_multinomial_of(lam.parts, order) * (b1 + b2 * sign)


def rhs_ab_sum(lam: Partition, order) -> ParamSeries:
    b1, _ = _rs_brackets(lam, order)
    return t_multinomial_of(lam.parts, order) * b1 * 2


def rhs_alpha_minus_one(lam: Partition, order) -> ParamSeries:
    ring = SeriesRing(order)
    tc = TComb(ring)
    minus_beta = ring.monomial(eb=1, coeff=-1)
    acc = t_multinomial_of(lam.parts, order) * 2
    for mult in lam.multiplicities().values():
        acc = acc * tc.rogers_szego(mult, minus_beta)
    return acc


def rhs_alpha_eq_minus_beta(lam: Partition, order) -> ParamSeries:
    ring = SeriesRing(order)
    tc = TComb(ring)
    z_sq = ring.monomial(ea=2, coeff=-1)
    minus_one = ring.const(-1)
    e_sq = o_sq = e_m1 = o_m1 = ring.one()
    for value, mult in lam.multiplicities().items():
        if value % 2 == 0:
            e_sq = e_sq * tc.rogers_szego(mult, z_sq)
            e_m1 = e_m1 * tc.rogers_szego(mult, minus_one)
        else:
            o_sq = o_sq * tc.rogers_szego(mult, z_sq)
            o_m1 = o_m1 * tc.rogers_szego(mult, minus_one)
    odd, even = lam.parity_counts()
    bracket = e_sq * o_m1 * _minus_alpha_power(ring, odd) + o_sq * e_m1 * _minus_alpha_power(ring, even)
    return t_multinomial_of(lam.parts, order) * bracket


def rhs_symplectic(lam: Partition, n, order) -> ParamSeries:
    """t^2-multinomial value when lambda = mu^2, zero otherwise."""
    shape = classify_shape(lam.padded(2 * n))
    if shape.double_mult is None:
        return SeriesRing(order).zero()
    mu = shape.double_mult.padded(n)
    return t_multinomial_of(mu.parts, order, base=4)


def rhs_kawanaka(lam: Partition, n, order) -> ParamSeries:
    return t_multinomial_of(lam.padded(2 * n).parts, order, base=1)


def _c_ratio_pair(mu: Partition, args, order):
    """(C0 numerator, C- denominator) for the mu = nu values."""
    tc = TComb(SeriesRing(order))
    num = tc.c_symbol("0", mu.parts, args)
    den = tc.c_symbol("-", mu.parts)
    return num, den


def rhs_special(case, lam: Partition, n, order) -> ParamSeries:
    """Closed forms of the parameter specializations, by case name."""
    if case == "symplectic":
        return rhs_symplectic(lam, n, order)
    if case == "kawanaka":
        return rhs_kawanaka(lam, n, order)
    if case == "alpha_minus_one":
        return rhs_alpha_minus_one(lam.padded(2 * n), order)
    if case == "alpha_eq_minus_beta":
        return rhs_alpha_eq_minus_beta(lam.padded(2 * n), order)
    raise DomainError("unknown special case %r" % (case,))


def rhs_section8(case, weight, n, m=None, order=12):
    """(numerator, denominator) of the cross-block closed forms.

    Returns the zero series with denominator one when the weight fails the
    shape predicate.  For ``double_cover`` the pair encodes the verified
    value t^{-|mu|} C0/C- (see the registry notes).
    """
    ring = SeriesRing(order)
    weight = weight if isinstance(weight, DominantWeight) else DominantWeight(tuple(weight))
    if case == "unm":
        mu, nu = weight.positive_part(), weight.negative_part()
        if mu.parts != nu.parts or mu.length_nonzero() > m:
            return ring.zero(), ring.one()
        return _c_ratio_pair(mu, ((1, 2 * n), (1, 2 * m)), order)
    if case == "u2n":
        mu, nu = weight.positive_part(), weight.negative_part()
        if mu.parts != nu.parts:
            return ring.zero(), ring.one()
        return _c_ratio_pair(mu, ((1, 2 * n), (-1, 2 * n)), order)
    if case == "double_cover":
        shape = classify_shape(weight.parts)
        if shape.palindrome is None:
            return ring.zero(), ring.one()
        num, den = _c_ratio_pair(shape.palindrome, ((1, 2 * n), (-1, 2 * n)), order)
        return num, den * ring.t(shape.palindrome.weight())
    if case == "t2_branching":
        shape = classify_shape(weight.parts)
        if shape.palindrome is None:
            return ring.zero(), ring.one()
        mu = shape.palindrome
        ell = mu.length_nonzero()
        tc2 = TComb(ring, base=2)
        tc4 = TComb(ring, base=4)
        num = ring.t(mu.weight())
        for j in range(n - 2 * ell + 1, n + 1):
            num = num * tc2.one_minus_t_power(j)
        den = tc4.one_minus_t_pow(ell) * tc4.v_of(mu.parts, include_zeros=False)
        return num, den
    raise DomainError("unknown cross-block case %r" % (case,))


# ---------------------------------------------------------------------------
# left-hand sides for the orthogonal components
# ---------------------------------------------------------------------------


def _component_setup(component, n):
    if component == "plus_even":
        nv = n
        args = pm_args(n)
        dens = koornwinder_density(n, K_PLUS_EVEN)
    elif component == "minus_even":
        nv = n - 1
        args = pm_args(nv) + (const_arg(nv, 1), const_arg(nv, -1))
        dens = koornwinder_density(nv, K_MINUS_EVEN)
    elif component == "plus_odd":
        nv = n
        args = pm_args(n) + (const_arg(n, 1),)
        dens = koornwinder_density(n, K_PLUS_ODD)
    elif component == "minus_odd":
        nv = n
        args = pm_args(n) + (const_arg(n, -1),)
        dens = koornwinder_density(n, K_MINUS_ODD)
    else:
        raise DomainError("unknown component %r" % (component,))
    return nv, args, dens


def component_integral(component, n, lam: Partition, order, factor_values):
    """(integral, normalization) for one orthogonal component.

    ``factor_values`` are the series multiplying x_i^{+-1} inside the
    deformation factors prod (1 - value x_i^{+-1}).
    """
    nv, args, dens = _component_setup(component, n)
    names = _var_names("x", nv)
    p = hl_full(lam.parts, args, names, order)
    mult = p * _linear_factors(names, order, factor_values)
    return ct_integrate(dens, mult, order), _znorm(dens, order)


def pfaffian_bridge(n, lam: Partition, order):
    """(unnormalized integral * 2^n (1-t)^n * v_lambda, Pfaffian) pair."""
    ring = SeriesRing(order)
    lam = lam.padded(2 * n)
    integral, _ = component_integral("plus_even", n, lam, order, [ring.alpha()])
    tc = TComb(ring)
    lhs = integral * tc.v_of(lam.parts) * tc.one_minus_t_pow(n) * (2 ** n)
    rhs = pfaffian(build_a_matrix(lam.parts, order))
    return lhs, rhs


def pfaffian_bridge_minus(n, lam: Partition, order):
    """The bordered-matrix bridge for the even minus component.

    The unnormalized integral times 2^n (1-t)^(n-1) equals
    (1+t) Pf[M] with M the bordered matrix; both sides are returned.
    """
    ring = SeriesRing(order)
    lam = lam.padded(2 * n)
    integral, _ = component_integral("minus_even", n, lam, order, [ring.alpha()])
    tc = TComb(ring)
    lhs = integral * tc.v_of(lam.parts) * tc.one_minus_t_pow(n - 1) * (2 ** n)
    rhs = pfaffian(build_m_minus(lam.parts, order)) * (ring.one() + ring.t())
    return lhs, rhs


def pfaffian_bridge_plus_odd(n, lam: Partition, order):
    """The bordered-matrix bridge for the odd plus component."""
    ring = SeriesRing(order)
    lam = lam.padded(2 * n + 1)
    integral, _ = component_integral("plus_odd", n, lam, order, [ring.alpha()])
    tc = TComb(ring)
    lhs = integral * tc.v_of(lam.parts) * tc.one_minus_t_pow(n) * (2 ** n)
    rhs = pfaffian(build_m_plus(lam.parts, order))
    return lhs, rhs


# ---------------------------------------------------------------------------
# section-8 style densities
# ---------------------------------------------------------------------------


def two_block_density(m, n) -> DensityProduct:
    """The U(n) x U(m) density: a t-Selberg density on each of two blocks.

    The full density is prod over each block of prod_{i != j}
    (1-x_i/x_j)/(1-t x_i/x_j), with prefactor 1/(n! m!); only the i < j
    factors are stored, and the two blocks are recorded for the Weyl factor
    (see ``hltorus.densities``).
    """
    vars_ = _var_names("x", m) + _var_names("y", n)
    roots = positive_roots(m + n, 0, m) + positive_roots(m + n, m, n)
    num = [(1, exps) for exps in roots]
    geo = [((2, 0, 0), 1, exps) for exps in roots]
    pref = Fraction(1, factorial(n) * factorial(m))
    return DensityProduct(vars_, num, geo, pref, label="two_block(%d,%d)" % (m, n),
                          blocks=((0, m, 2), (m, n, 2)))


def cross_block_density(n) -> DensityProduct:
    """The U(2n) density: cross-block geometric factors only.

    The full density is prod over each block of prod_{i != j} (1-x_i/x_j)
    times prod_{i,j} 1/((1-t x_i/y_j)(1-t y_i/x_j)), with prefactor
    1/(n!)^2.  Each block's numerator keeps only its i < j factors; that is
    the t=0 case of the Weyl factor, where [n]_0! = 1.
    """
    vars_ = _var_names("x", n) + _var_names("y", n)
    total = 2 * n
    num = [(1, exps) for exps in positive_roots(total, 0, n) + positive_roots(total, n, n)]
    geo = []
    for i in range(n):
        for j in range(n):
            exps = [0] * total
            exps[i] += 1
            exps[n + j] -= 1
            geo.append(((2, 0, 0), 1, tuple(exps)))
            geo.append(((2, 0, 0), 1, tuple(-e for e in exps)))
    pref = Fraction(1, factorial(n) ** 2)
    return DensityProduct(vars_, num, geo, pref, label="cross_block(%d)" % n,
                          blocks=((0, n, None), (n, n, None)))


def halved_density(n) -> DensityProduct:
    """The t^2 Selberg density with the 1/n! prefactor (double-cover case).

    Stored over the positive roots, as ``selberg_density`` with tpow 4.
    """
    return selberg_density(n, tpow=4, prefix="z", prefactor=Fraction(1, factorial(n)))


# ---------------------------------------------------------------------------
# verification plumbing
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    identity: str
    n: Optional[int]
    m: Optional[int]
    weight: Optional[str]
    mu: Optional[str]
    order: int
    status: str
    first_discrepancy_degree: Optional[int]
    achieved_order: int
    wall_time_ms: Optional[float]
    notes: Tuple[str, ...] = ()

    def to_json_obj(self, include_timing=False):
        return {
            "identity": self.identity,
            "n": self.n,
            "m": self.m,
            "weight": self.weight,
            "mu": self.mu,
            "order": self.order,
            "status": self.status,
            "first_discrepancy_degree": self.first_discrepancy_degree,
            "achieved_order": self.achieved_order,
            "wall_time_ms": self.wall_time_ms if include_timing else None,
            "notes": list(self.notes),
        }

    def text_line(self):
        bits = [self.identity]
        if self.n is not None:
            bits.append("n=%d" % self.n)
        if self.m is not None:
            bits.append("m=%d" % self.m)
        if self.weight is not None:
            bits.append("weight=%s" % (self.weight or "0"))
        if self.mu is not None:
            bits.append("mu=%s" % (self.mu or "0"))
        bits.append("order=%d" % self.achieved_order)
        line = " ".join(bits) + ": " + self.status
        if self.first_discrepancy_degree is not None:
            line += " (first discrepancy at degree %d)" % self.first_discrepancy_degree
        if self.wall_time_ms is not None:
            line += " [%.0f ms]" % self.wall_time_ms
        for note in self.notes:
            line += "\n  note: " + note
        return line


@dataclass(frozen=True)
class IdentityDef:
    name: str
    description: str
    weight_shape: str
    build: Callable
    rank_of: Optional[Callable] = None
    params: Tuple[str, ...] = ()
    needs_weight: bool = True
    needs_mu: bool = False
    needs_m: bool = False
    allows_negative: bool = False
    min_n: int = 1

    def rank(self, n, m=None):
        return self.rank_of(n, m) if self.rank_of else None


def _pad_weight(defn: IdentityDef, weight, n, m):
    rank = defn.rank(n, m)
    if defn.allows_negative:
        w = weight if isinstance(weight, DominantWeight) else DominantWeight(tuple(weight))
        return w.padded(rank)
    w = weight if isinstance(weight, Partition) else Partition(tuple(weight))
    return w.padded(rank)


# -- builders; each returns (lhs, rhs, notes) as comparable series ----------


def _build_orthogonality(inst):
    n, order = inst.n, inst.order
    lam = inst.weight
    mu = inst.mu
    names = _var_names("x", n)
    p = hl_full(lam.parts, _plain_args(n), names, order)
    pinv = hl_full(mu.parts, _inverse_args(n), names, order)
    integral = ct_integrate(selberg_density(n), p * pinv, order)
    num, den = rhs_orthogonality(lam, mu, n, order)
    return integral * den, num, ()


def _build_normalization(item):
    def build(inst):
        n, order = inst.n, inst.order
        if item == "i":
            dens = koornwinder_density(n, K_SYMPLECTIC)
        elif item == "ii":
            dens = koornwinder_density(n, K_KAWANAKA)
        elif item == "iii":
            dens = koornwinder_density(n, K_PLUS_EVEN)
        elif item == "iv":
            dens = koornwinder_density(n - 1, K_MINUS_EVEN)
        elif item == "v":
            dens = koornwinder_density(n, K_PLUS_ODD)
        else:
            dens = koornwinder_density(n, K_MINUS_ODD)
        return _znorm(dens, order), gustafson_rhs(item, n, order), ()

    return build


def _alpha_prefactor(component, ring):
    alpha = ring.alpha()
    one = ring.one()
    if component == "plus_even":
        return one
    if component == "minus_even":
        return one - alpha * alpha
    if component == "plus_odd":
        return one - alpha
    return one + alpha


def _ab_prefactor(component, ring):
    alpha, beta, one = ring.alpha(), ring.beta(), ring.one()
    if component == "plus_even":
        return one
    if component == "minus_even":
        return (one - alpha * alpha) * (one - beta * beta)
    if component == "plus_odd":
        return (one - alpha) * (one - beta)
    return (one + alpha) * (one + beta)


def _build_alpha_component(component):
    def build(inst):
        ring = SeriesRing(inst.order)
        integral, z = component_integral(
            component, inst.n, inst.weight, inst.order, [ring.alpha()]
        )
        lhs = _alpha_prefactor(component, ring) * integral
        rhs = rhs_orthogonal_alpha(component, inst.weight, inst.order) * z
        return lhs, rhs, ()

    return build


def _build_ab_component(component):
    def build(inst):
        ring = SeriesRing(inst.order)
        integral, z = component_integral(
            component, inst.n, inst.weight, inst.order, [ring.alpha(), ring.beta()]
        )
        lhs = _ab_prefactor(component, ring) * integral
        rhs = rhs_ab(component, inst.weight, inst.order) * z
        return lhs, rhs, ()

    return build


def _build_ab_sum(parity):
    def build(inst):
        ring = SeriesRing(inst.order)
        values = [ring.alpha(), ring.beta()]
        if parity == "even":
            c1, c2 = "plus_even", "minus_even"
        else:
            c1, c2 = "plus_odd", "minus_odd"
        i1, z1 = component_integral(c1, inst.n, inst.weight, inst.order, values)
        i2, z2 = component_integral(c2, inst.n, inst.weight, inst.order, values)
        lhs = _ab_prefactor(c1, ring) * i1 * z2 + _ab_prefactor(c2, ring) * i2 * z1
        rhs = rhs_ab_sum(inst.weight, inst.order) * z1 * z2
        return lhs, rhs, ()

    return build


def _build_alpha_minus_one(inst):
    ring = SeriesRing(inst.order)
    integral, z = component_integral(
        "plus_even", inst.n, inst.weight, inst.order, [ring.const(-1), ring.beta()]
    )
    return integral, rhs_alpha_minus_one(inst.weight, inst.order) * z, ()


def _build_alpha_eq_minus_beta(inst):
    ring = SeriesRing(inst.order)
    alpha = ring.alpha()
    nv, args, dens = _component_setup("plus_even", inst.n)
    names = _var_names("x", nv)
    p = hl_full(inst.weight.parts, args, names, inst.order)
    mult = p * _linear_factors(names, inst.order, [alpha, -alpha])
    integral = ct_integrate(dens, mult, inst.order)
    z = _znorm(dens, inst.order)
    return integral, rhs_alpha_eq_minus_beta(inst.weight, inst.order) * z, ()


def _build_symplectic(inst):
    n, order = inst.n, inst.order
    dens = koornwinder_density(n, K_SYMPLECTIC)
    names = _var_names("x", n)
    p = hl_full(inst.weight.parts, pm_args(n), names, order)
    integral = ct_integrate(dens, p, order)
    z = _znorm(dens, order)
    return integral, rhs_symplectic(inst.weight, n, order) * z, ()


def _build_kawanaka(inst):
    n, order = inst.n, inst.order
    dens = koornwinder_density(n, K_KAWANAKA)
    names = _var_names("x", n)
    p = hl_full(inst.weight.parts, pm_args(n), names, order)
    integral = ct_integrate(dens, p, order)
    z = _znorm(dens, order)
    return integral, rhs_kawanaka(inst.weight, n, order) * z, ()


def _build_unm(inst):
    n, m, order = inst.n, inst.m, inst.order
    if m is None or not 0 <= m <= n:
        raise DomainError("need 0 <= m <= n")
    weight = inst.weight
    dens = two_block_density(m, n)
    total = m + n
    p = hl_full(weight.parts, _plain_args(total), dens.vars, order)
    integral = ct_integrate(dens, p, order)
    z = _znorm(dens, order)
    num, den = rhs_section8("unm", weight, n, m, order)
    return integral * den, num * z, ()


def _build_u2n(inst):
    n, order = inst.n, inst.order
    weight = inst.weight
    dens = cross_block_density(n)
    p = hl_full(weight.parts, _plain_args(2 * n), dens.vars, order)
    integral = ct_integrate(dens, p, order)
    z = _znorm(dens, order)
    num, den = rhs_section8("u2n", weight, n, order=order)
    return integral * den, num * z, ()


def _build_double_cover(inst):
    n, order = inst.n, inst.order
    weight = inst.weight
    # slots t^{1/2} z_i and t^{-1/2} z_i, rescaled by z -> sqrt(t) z so that
    # the slots become (t z_i, z_i); the constant term is unchanged, and the
    # weight is shifted by k = -min part so no negative s-powers appear.
    # The computed series is then t^{nk} times the true integral; that power
    # is moved to the closed-form side, never divided out, because the true
    # value carries a genuine pole of order |mu| in t.
    k = max(0, -weight.parts[-1]) if len(weight.parts) else 0
    shifted = tuple(p + k for p in weight.parts)
    inner = order + 2 * n * k
    names = _var_names("z", n)
    args = []
    for i in range(n):
        args.append(Mono(1, 2, var_arg(n, i).exps))
        args.append(var_arg(n, i))
    p = hl_full(shifted, tuple(args), names, inner)
    if k:
        back = LaurentPoly.monomial(names, (-2 * k,) * n, 1, inner)
        p = p * back
    dens = halved_density(n)
    raw = ct_integrate(dens, p, inner)
    ring = SeriesRing(inner)
    shape = classify_shape(weight.parts)
    if shape.palindrome is None:
        return raw, ring.zero(), ()
    mu = shape.palindrome
    notes = []
    num, den = rhs_section8("double_cover", weight, n, order=inner)
    z = _znorm(dens, inner)
    if mu.weight():
        notes.append(
            "value differs from the stated closed form by t^|mu|: the "
            "verified statement is t^|mu| * integral = C-ratio"
        )
    if n - mu.length_nonzero() >= 2:
        notes.append(
            "padding-sensitive value: v is taken over mu padded to rank n"
        )
    # den already carries t^{|mu|}; the computed series carries t^{nk}
    lhs = raw * den
    rhs = num * z * ring.t(n * k)
    return lhs, rhs, tuple(notes)


def _build_t2_branching(inst):
    n, order = inst.n, inst.order
    weight = inst.weight
    names = _var_names("x", n)
    p = hl_full(weight.parts, _plain_args(n), names, order, tbase=4)
    dens = selberg_density(n, prefactor=Fraction(1, factorial(n)))
    integral = ct_integrate(dens, p, order)
    z = _znorm(dens, order)
    num, den = rhs_section8("t2_branching", weight, n, order=order)
    return integral * den, num * z, ()


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _partition_rank(expr):
    return {
        "n": lambda n, m: n,
        "2n": lambda n, m: 2 * n,
        "2n+1": lambda n, m: 2 * n + 1,
        "n+m": lambda n, m: n + m,
    }[expr]


REGISTRY = {}


def _register(defn: IdentityDef):
    REGISTRY[defn.name] = defn


_register(IdentityDef(
    name="orthogonality",
    description="Hall-Littlewood orthogonality under the Selberg density",
    weight_shape="pair of partitions, at most n parts each",
    build=_build_orthogonality,
    rank_of=_partition_rank("n"),
    needs_mu=True,
))

_NORMALIZATION_DESCRIPTIONS = {
    "i": "normalization of the symplectic-type density",
    "ii": "normalization of the Kawanaka-type density",
    "iii": "normalization of the even orthogonal plus-component density",
    "iv": "normalization of the even orthogonal minus-component density",
    "v": "normalization of the odd orthogonal plus-component density",
    "vi": "normalization of the odd orthogonal minus-component density",
}
for _item in ("i", "ii", "iii", "iv", "v", "vi"):
    _register(IdentityDef(
        name="normalization_%s" % _item,
        description=_NORMALIZATION_DESCRIPTIONS[_item],
        weight_shape="no weight",
        build=_build_normalization(_item),
        needs_weight=False,
    ))

for _comp, _nm, _desc, _rk in (
    ("plus_even", "o_plus_even", "plus component, even rank: one-parameter average", "2n"),
    ("minus_even", "o_minus_even", "minus component, even rank: one-parameter average", "2n"),
    ("plus_odd", "o_plus_odd", "plus component, odd rank: one-parameter average", "2n+1"),
    ("minus_odd", "o_minus_odd", "minus component, odd rank: one-parameter average", "2n+1"),
):
    _register(IdentityDef(
        name=_nm,
        description=_desc,
        weight_shape="partition padded to %s parts" % _rk,
        build=_build_alpha_component(_comp),
        rank_of=_partition_rank(_rk),
        params=("alpha",),
    ))

for _comp, _nm, _rk in (
    ("plus_even", "ab_oplus_even", "2n"),
    ("minus_even", "ab_ominus_even", "2n"),
    ("plus_odd", "ab_oplus_odd", "2n+1"),
    ("minus_odd", "ab_ominus_odd", "2n+1"),
):
    _register(IdentityDef(
        name=_nm,
        description="two-parameter average with Rogers-Szego value (%s)" % _comp.replace("_", " "),
        weight_shape="partition padded to %s parts" % _rk,
        build=_build_ab_component(_comp),
        rank_of=_partition_rank(_rk),
        params=("alpha", "beta"),
    ))

_register(IdentityDef(
    name="ab_sum_even",
    description="two-parameter sum over both even-rank components",
    weight_shape="partition padded to 2n parts",
    build=_build_ab_sum("even"),
    rank_of=_partition_rank("2n"),
    params=("alpha", "beta"),
))
_register(IdentityDef(
    name="ab_sum_odd",
    description="two-parameter sum over both odd-rank components",
    weight_shape="partition padded to 2n+1 parts",
    build=_build_ab_sum("odd"),
    rank_of=_partition_rank("2n+1"),
    params=("alpha", "beta"),
))
_register(IdentityDef(
    name="alpha_minus_one",
    description="alpha = -1 specialization: single Rogers-Szego product",
    weight_shape="partition padded to 2n parts",
    build=_build_alpha_minus_one,
    rank_of=_partition_rank("2n"),
    params=("beta",),
))
_register(IdentityDef(
    name="alpha_eq_minus_beta",
    description="alpha = -beta specialization: even-multiplicity structure",
    weight_shape="partition padded to 2n parts",
    build=_build_alpha_eq_minus_beta,
    rank_of=_partition_rank("2n"),
    params=("alpha",),
))
_register(IdentityDef(
    name="symplectic",
    description="symplectic average: vanishes unless lambda = mu^2",
    weight_shape="partition padded to 2n parts; nonzero only for lambda = mu^2",
    build=_build_symplectic,
    rank_of=_partition_rank("2n"),
))
_register(IdentityDef(
    name="kawanaka",
    description="Kawanaka-type average: sqrt(t)-multinomial value",
    weight_shape="partition padded to 2n parts",
    build=_build_kawanaka,
    rank_of=_partition_rank("2n"),
))
_register(IdentityDef(
    name="unm_vanishing",
    description="two-block unitary average: nonzero only for mu = nu, l(mu) <= m",
    weight_shape="dominant weight mu nu-bar with n+m parts",
    build=_build_unm,
    rank_of=_partition_rank("n+m"),
    needs_m=True,
    allows_negative=True,
))
_register(IdentityDef(
    name="u2n_vanishing",
    description="cross-block unitary average: nonzero only for mu = nu",
    weight_shape="dominant weight mu nu-bar with 2n parts",
    build=_build_u2n,
    rank_of=_partition_rank("2n"),
    allows_negative=True,
))
_register(IdentityDef(
    name="double_cover",
    description="t^{1/2}-shifted slots against the t^2 Selberg density",
    weight_shape="dominant weight with 2n parts; nonzero only for mu mu-bar",
    build=_build_double_cover,
    rank_of=_partition_rank("2n"),
    allows_negative=True,
))
_register(IdentityDef(
    name="t2_branching",
    description="t^2 polynomial against the t density: branching coefficient",
    weight_shape="dominant weight with n parts; nonzero only for mu mu-bar",
    build=_build_t2_branching,
    rank_of=_partition_rank("n"),
    allows_negative=True,
))


class _Instance:
    __slots__ = ("n", "m", "weight", "mu", "order")

    def __init__(self, n, m, weight, mu, order):
        self.n = n
        self.m = m
        self.weight = weight
        self.mu = mu
        self.order = order


def verify(name, n=None, m=None, weight=None, mu=None, order=12) -> VerificationReport:
    """Run one identity instance and report the comparison outcome."""
    if name not in REGISTRY:
        raise KeyError("unknown identity %r" % (name,))
    defn = REGISTRY[name]
    if n is None or n < defn.min_n:
        raise DomainError("identity %r needs n >= %d" % (name, defn.min_n))
    if order < 1:
        raise DomainError("order must be at least 1")
    if defn.needs_weight:
        if weight is None:
            weight = ()
        weight = _pad_weight(defn, weight, n, m)
    else:
        weight = None
    if defn.needs_mu:
        mu = _pad_weight(defn, mu if mu is not None else (), n, m)
    else:
        mu = None
    inst = _Instance(n, m, weight, mu, order)
    start = time.perf_counter()
    notes = ()
    achieved = order
    try:
        lhs, rhs, notes = defn.build(inst)
        status, first_disc = _compare(lhs, rhs)
    except ResourceLimitError as exc:
        # partial report: descend until an order fits within the ceiling
        status = "resource-limit"
        first_disc = None
        achieved = 0
        notes = (str(exc),)
        for lower in range(order - 2, 0, -2):
            try:
                lhs, rhs, inner_notes = defn.build(_Instance(n, m, weight, mu, lower))
            except ResourceLimitError:
                continue
            status, first_disc = _compare(lhs, rhs)
            achieved = lower
            notes = tuple(inner_notes) + (
                "resource ceiling hit at order %d; results cover order %d"
                % (order, lower),
            )
            break
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        identity=name,
        n=n,
        m=m,
        weight=weight.text() if weight is not None else None,
        mu=mu.text() if mu is not None else None,
        order=order,
        status=status,
        first_discrepancy_degree=first_disc,
        achieved_order=achieved,
        wall_time_ms=elapsed,
        notes=tuple(notes),
    )


def _compare(lhs: ParamSeries, rhs: ParamSeries):
    diff = lhs - rhs
    if diff.is_zero():
        if lhs.is_zero():
            return "vanished-as-predicted", None
        return "match", None
    return "mismatch", diff.min_total_degree()


def sweep_weights(name, n, m=None, max_weight=4, max_parts=None):
    """The default weight grid for an identity, in deterministic order."""
    from .partitions import partitions_up_to

    defn = REGISTRY[name]
    if not defn.needs_weight:
        return [None]
    rank = defn.rank(n, m)
    if defn.allows_negative:
        pairs = partitions_up_to(max_weight, rank, max_part=max_parts)
        out = []
        for mu_ in pairs:
            for nu_ in pairs:
                if mu_.length_nonzero() + nu_.length_nonzero() <= rank:
                    out.append(DominantWeight.from_pair(mu_, nu_, rank))
        seen = set()
        uniq = []
        for w in out:
            if w.parts not in seen:
                seen.add(w.parts)
                uniq.append(w)
        return uniq
    return [
        p
        for p in partitions_up_to(max_weight, rank, max_part=max_parts)
    ]
