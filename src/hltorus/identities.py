"""The registry of verifiable torus-integral identities, as data.

Each identity integrates P_lambda at a list of slots, times linear factors,
against a density and compares the result with a closed form.  It is one
row of ``REGISTRY`` (an ``IdentityDef``), which names

* its integrands, keys of ``INTEGRANDS``: each maps (n, m) to a density,
  the slot list of P and P's t-base (2 for t, 4 for t^2);
* its linear-factor values, signed monomials (coefficient, alpha-power,
  beta-power) such as alpha, beta, -1 or -alpha;
* whether it is normalized, and a closed form: a function of the instance
  returning (num, den), built from the row's own data where it can be;
* its weight rank ("n", "2n", "2n+1", "n+m", or None for no weight), from
  which, with the values, follow whether it takes m and its parameters.

The slot rule: the linear factor is prod_v prod_y (1 - v y) over the values
v and every slot y of P.  A torus slot x_i^{+-1} gives the Laurent factor
(1 - v x_i^{+-1}); a constant slot +-1 gives the scalar (1 -+ v), which
multiplies the integral: the component prefactors, such as (1 - alpha^2)
for the even minus component, are these scalars.  P and the Laurent factor
are each invariant under the density's Weyl group, so their product is
formed on its dominant chamber (``chamber_product`` in
``hltorus.densities``): only the term pairs whose exponent sum is dominant
are multiplied, and each such term is copied over its orbit.

With I_k the integral of the k-th integrand and Z_k its bare density
integral, the one builder ``_build`` checks

    den * sum_k I_k prod_{j != k} Z_j  ==  num * prod_j Z_j,

with Z_j = 1 for an unnormalized row, so nothing is divided in the
truncated ring.  A row that takes mu multiplies P_lambda by P_mu at the
inverted slots.  A weight that ends in -k < 0 at slots that carry
s-powers is lifted (``_lift``): P_{lambda+k} is built in its place, and the
order and the closed-form side are raised to match.  A row's ``notes``, if
set, add remarks to its reports.

Two general closed forms serve eighteen rows.  The twelve orthogonal-
component rows (o_*, ab_o*, ab_sum_*, alpha_minus_one, alpha_eq_minus_beta)
take ``rogers_szego_value`` at their values (a, b), summed over their
integrands with the sign of each component; the six normalization rows take
``koornwinder_normalization`` (``hltorus.densities``) at their integrand's
parameter quadruple and variable count.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial
from operator import add
from typing import Callable, Optional, Tuple

from .densities import (
    DensityProduct,
    chamber_product,
    ct_integrate,
    koornwinder_density,
    koornwinder_normalization,
    positive_roots,
    selberg_density,
)
from .errors import ConfigurationError, DomainError, ResourceLimitError
from .hall_littlewood import Mono, const_arg, hl_full, pm_args, var_arg
from .laurent import LaurentPoly
from .partitions import DominantWeight, Partition, classify_shape
from .pfaffian import build_a_matrix, build_m_minus, build_m_plus, pfaffian
from .series import ZERO_KEY, ParamSeries, SeriesRing, mul_into
from .tcomb import TComb

# Koornwinder parameter quadruples for the orthogonal components.
K_PLUS_EVEN = (1, -1, (1, 1), (-1, 1))
K_MINUS_EVEN = ((1, 2), (-1, 2), (1, 1), (-1, 1))
K_PLUS_ODD = ((1, 2), -1, (1, 1), (-1, 1))
K_MINUS_ODD = (1, (-1, 2), (1, 1), (-1, 1))
K_SYMPLECTIC = ((1, 1), (-1, 1), 0, 0)
K_KAWANAKA = (1, (1, 1), 0, 0)

# Linear-factor values as (coefficient, alpha-power, beta-power).
ALPHA = (1, 1, 0)
BETA = (1, 0, 1)
MINUS_ONE = (-1, 0, 0)
MINUS_ALPHA = (-1, 1, 0)

def _var_names(prefix, n):
    return tuple("%s%d" % (prefix, i + 1) for i in range(n))


def _plain_args(nvars):
    return tuple(var_arg(nvars, i) for i in range(nvars))


def _times(x: ParamSeries, c: ParamSeries) -> ParamSeries:
    """x * c, skipping the product when c is one."""
    return x if c == 1 else x * c


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def t_multinomial_of(parts, order, base=2) -> ParamSeries:
    """[N]!/prod [m_i]! over all stored parts."""
    tc = TComb(SeriesRing(order), base=base)
    mults = list(Partition(tuple(sorted(parts, reverse=True))).multiplicities().values())
    return tc.t_multinomial(len(tuple(parts)), mults)


def _zero_pair(order):
    ring = SeriesRing(order)
    return ring.zero(), ring.one()


def rhs_orthogonality(lam: Partition, mu: Partition, n, order):
    """(numerator, denominator) of delta_{lambda mu} n! / v_mu(t)."""
    if lam.parts != mu.parts:
        return _zero_pair(order)
    ring = SeriesRing(order)
    return ring.const(factorial(n)), TComb(ring).v_of(lam.parts)


def rogers_szego_value(sign, lam: Partition, a: ParamSeries, b: ParamSeries, order) -> ParamSeries:
    """The Rogers-Szego value of one orthogonal component at the values a, b.

    With the parts of lambda grouped by value i with multiplicity m_i (zeros
    count as even), H_m(z) the Rogers-Szego polynomial and
    G_m(a, b) = sum_j [m j] (-a)^(m-j) (-b)^j, it is

        [N]!/prod [m_i]! (prod_{i even} H_{m_i}(ab) prod_{i odd} G_{m_i}(a, b)
                          + sign prod_{i odd} H_{m_i}(ab) prod_{i even} G_{m_i}(a, b)),

    with sign +1 for a plus and -1 for a minus component, and b = 0 for a
    row with one value.
    """
    ring = SeriesRing(order)
    tc = TComb(ring)
    ab = a * b
    h, g = [ring.one(), ring.one()], [ring.one(), ring.one()]  # by parity of the value
    for value, mult in lam.multiplicities().items():
        h[value % 2] *= tc.rogers_szego(mult, ab)
        g[value % 2] *= sum((tc.t_binomial(mult, j) * (-a) ** (mult - j) * (-b) ** j
                             for j in range(mult + 1)), ring.zero())
    return t_multinomial_of(lam.parts, order) * (h[0] * g[1] + h[1] * g[0] * sign)


def rhs_rogers_szego(integrands, values, inst):
    """(sum of rogers_szego_value over the row's components, 1).

    A component's sign is read from its integrand key (plus_* or minus_*);
    a and b are the row's values, b = 0 when it has one.
    """
    ring = SeriesRing(inst.order)
    a, b = ([ring.monomial(ea=ea, eb=eb, coeff=c) for c, ea, eb in values] + [ring.zero()])[:2]
    signs = (1 if key.startswith("plus_") else -1 for key in integrands)
    return sum((rogers_szego_value(sign, inst.weight, a, b, inst.order) for sign in signs),
               ring.zero()), ring.one()


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
    return tc.c_symbol("0", mu.parts, args), tc.c_symbol("-", mu.parts)


def rhs_unm(weight: DominantWeight, n, m, order):
    """(C0, C-) for mu = nu with l(mu) <= m, zero otherwise."""
    mu, nu = weight.positive_part(), weight.negative_part()
    if mu.parts != nu.parts or mu.length_nonzero() > m:
        return _zero_pair(order)
    return _c_ratio_pair(mu, ((1, 2 * n), (1, 2 * m)), order)


def rhs_u2n(weight: DominantWeight, n, order):
    """(C0, C-) for mu = nu, zero otherwise."""
    mu, nu = weight.positive_part(), weight.negative_part()
    if mu.parts != nu.parts:
        return _zero_pair(order)
    return _c_ratio_pair(mu, ((1, 2 * n), (-1, 2 * n)), order)


def rhs_double_cover(weight: DominantWeight, n, order):
    """(C0, t^{|mu|} C-) for a palindrome mu mu-bar, zero otherwise.

    The pair encodes the verified value t^{-|mu|} C0/C- (see
    ``notes_double_cover``).
    """
    shape = classify_shape(weight.parts)
    if shape.palindrome is None:
        return _zero_pair(order)
    num, den = _c_ratio_pair(shape.palindrome, ((1, 2 * n), (-1, 2 * n)), order)
    return num, den * SeriesRing(order).t(shape.palindrome.weight())


def notes_double_cover(inst):
    """The notes of a ``double_cover`` report on a palindrome mu mu-bar."""
    mu = classify_shape(inst.weight.parts).palindrome
    if mu is None:
        return ()
    notes = []
    if mu.weight():
        notes.append(
            "value differs from the stated closed form by t^|mu|: the "
            "verified statement is t^|mu| * integral = C-ratio"
        )
    if inst.n - mu.length_nonzero() >= 2:
        notes.append(
            "padding-sensitive value: v is taken over mu padded to rank n"
        )
    return tuple(notes)


def rhs_t2_branching(weight: DominantWeight, n, order):
    """The branching coefficient for a palindrome mu mu-bar, zero otherwise."""
    shape = classify_shape(weight.parts)
    if shape.palindrome is None:
        return _zero_pair(order)
    ring = SeriesRing(order)
    mu = shape.palindrome
    ell = mu.length_nonzero()
    tc2 = TComb(ring, base=2)
    tc4 = TComb(ring, base=4)
    num = ring.t(mu.weight())
    for j in range(n - 2 * ell + 1, n + 1):
        num = num * tc2.one_minus_t_power(j)
    return num, tc4.c_symbol("-", mu.parts)


def _bridge_den(lam: Partition, n, k, order):
    """v_lambda(t) (1-t)^k 2^n."""
    tc = TComb(SeriesRing(order))
    return tc.v_of(lam.parts) * tc.one_minus_t_pow(k) * (2 ** n)


def rhs_bridge_plus_even(lam: Partition, n, order):
    """(Pf A, v_lambda (1-t)^n 2^n) for the plus-even term integral."""
    return pfaffian(build_a_matrix(lam.parts, order)), _bridge_den(lam, n, n, order)


def rhs_bridge_minus_even(lam: Partition, n, order):
    """((1+t)(1-alpha^2) Pf M-, v_lambda (1-t)^(n-1) 2^n).

    1 - alpha^2 is the scalar of the slots +1 and -1; it multiplies both sides.
    """
    ring = SeriesRing(order)
    pf = pfaffian(build_m_minus(lam.parts, order))
    num = pf * (ring.one() + ring.t()) * (ring.one() - ring.alpha(2))
    return num, _bridge_den(lam, n, n - 1, order)


def rhs_bridge_plus_odd(lam: Partition, n, order):
    """((1-alpha) Pf M+, v_lambda (1-t)^n 2^n); 1 - alpha is the slot +1's scalar."""
    ring = SeriesRing(order)
    num = pfaffian(build_m_plus(lam.parts, order)) * (ring.one() - ring.alpha())
    return num, _bridge_den(lam, n, n, order)


# ---------------------------------------------------------------------------
# integrands and the generic builder
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
                          blocks=(("A", 0, m, 2), ("A", m, n, 2)))


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
                          blocks=(("A", 0, n, None), ("A", n, n, None)))


def halved_density(n) -> DensityProduct:
    """The t^2 Selberg density with the 1/n! prefactor (double-cover case)."""
    return selberg_density(n, tpow=4, prefix="z", prefactor=Fraction(1, factorial(n)))


class _Koornwinder:
    """The Koornwinder density on n - drop variables; P at x_i^{+-1} and ``consts``.

    With a ``pair`` (a, b) of the parameters the density is halved over
    W(B_n), a "B" block; without one only over W(D_n), a "D" block (see
    ``koornwinder_density``).  P at x_i^{+-1} and the slot rule's linear
    factors are invariant under x_n -> 1/x_n, as the "B" block needs.
    """

    def __init__(self, params, pair=None, drop=0, consts=()):
        self.params, self.pair, self.drop, self.consts = params, pair, drop, consts

    def __call__(self, n, m):
        nv = n - self.drop
        slots = pm_args(nv) + tuple(const_arg(nv, c) for c in self.consts)
        return koornwinder_density(nv, self.params, pair=self.pair), slots, 2

    def whole(self):
        """The same integrand without its pair, on the "D" block."""
        return _Koornwinder(self.params, drop=self.drop, consts=self.consts)


# key -> function of (n, m) giving (density, slots of P, t-base of P)
INTEGRANDS = {
    "selberg": lambda n, m: (selberg_density(n), _plain_args(n), 2),
    "symplectic": _Koornwinder(K_SYMPLECTIC, pair=((1, 1), (-1, 1))),
    "kawanaka": _Koornwinder(K_KAWANAKA, pair=(1, (1, 1))),
    # +1 and -1 must both be in a pair, which leaves ab = -1 without s-degree
    "plus_even": _Koornwinder(K_PLUS_EVEN),
    "minus_even": _Koornwinder(K_MINUS_EVEN, pair=((1, 1), (-1, 1)), drop=1, consts=(1, -1)),
    "plus_odd": _Koornwinder(K_PLUS_ODD, pair=(-1, (1, 2)), consts=(1,)),
    "minus_odd": _Koornwinder(K_MINUS_ODD, pair=(1, (-1, 2)), consts=(-1,)),
    "two_block": lambda n, m: (two_block_density(m, n), _plain_args(m + n), 2),
    "cross_block": lambda n, m: (cross_block_density(n), _plain_args(2 * n), 2),
    "t2_selberg": lambda n, m: (
        selberg_density(n, prefactor=Fraction(1, factorial(n))), _plain_args(n), 4
    ),
    # the slots t^{1/2} z_i and t^{-1/2} z_i, rescaled by z -> sqrt(t) z to
    # (t z_i, z_i): the constant term is unchanged and no s-power is negative
    "double_cover": lambda n, m: (halved_density(n), tuple(
        y for i in range(n) for y in (var_arg(n, i, spow=2), var_arg(n, i))), 2),
}


def _inverted(slots):
    return tuple(Mono(y.sign, y.spow, tuple(-e for e in y.exps)) for y in slots)


def _linear_factors(slots, values, names, order):
    """The slot rule: prod over the values v and slots y of (1 - v y).

    Returns the product over the torus slots as a LaurentPoly (None when
    there are no values) and the product over the constant slots as a
    series, accumulated binomial by binomial on its coefficient dict.
    """
    ring = SeriesRing(order)
    torus = LaurentPoly.unit(names, order) if values else None
    scalar = {ZERO_KEY: 1}
    for coeff, ea, eb in values:
        for y in slots:
            key, c = (y.spow, ea, eb), -coeff * y.sign
            if any(y.exps):
                binomial = {(0,) * len(names): ring.one(), y.exps: ring.monomial(*key, coeff=c)}
                torus = torus * LaurentPoly(names, binomial, order)
            else:
                out = {}
                mul_into(out, scalar, (ring.one() + ring.monomial(*key, coeff=c)).coeffs, order)
                scalar = out
    return torus, ParamSeries(scalar, order, clean=False)


def _symmetrizes(dens, slots, tbase):
    """Whether P at ``slots`` can be integrated by ``ct_integrate``'s ``lead``.

    True when the density is one "A" block over all its variables, in P's
    t, and the slots are those variables themselves.
    """
    nv = len(dens.vars)
    return dens.blocks == (("A", 0, nv, tbase),) and slots == _plain_args(nv)


# The plan of an integrand, everything ``_integral`` reads that depends on
# (key, n, m, weightless) alone: the density, P's slots and their inverses,
# P's t-base and whether ``_symmetrizes`` holds.
_Plan = namedtuple("_Plan", "dens slots inverted tbase symmetrizes")
_PLANS = {}


def clear_caches():
    _PLANS.clear()


def _plan(key, n, m, weightless):
    """The cached plan of the integrand ``key``; its "D" form when ``weightless``."""
    plan_key = (key, n, m, weightless)
    plan = _PLANS.get(plan_key)
    if plan is None:
        integrand = INTEGRANDS[key]
        if weightless:
            integrand = integrand.whole()
        dens, slots, tbase = integrand(n, m)
        plan = _PLANS[plan_key] = _Plan(dens, slots, _inverted(slots), tbase,
                                        _symmetrizes(dens, slots, tbase))
    return plan


def _integral(key, inst, values=(), normalized=False, lift=0):
    """(I, Z) for the integrand ``key`` of one instance.

    I integrates P_lambda at the integrand's slots (times P_mu at the
    inverted slots when the instance has mu) and the slot rule's linear
    factors against the density, or the bare density without a weight.
    Where ``_symmetrizes`` holds, P_lambda is not formed: lambda is passed
    to ``ct_integrate`` as its ``lead``.  With a ``lift`` k (see ``_lift``)
    P_lambda is read off P_{lambda+k}.  Z is the bare integral when
    ``normalized``, else one.  Without a weight (the normalization_* rows)
    a Koornwinder integrand keeps the "D" block: on the "B" block the bare
    integral of a one-sided density is 2^n n!/W(t; ab) times its
    prefactor, which is Gustafson's product by construction, so the row
    would integrate nothing.  The density and the slots come from the
    integrand's cached plan (``_plan``).
    """
    plan = _plan(key, inst.n, inst.m, inst.weight is None)
    dens, slots, tbase = plan.dens, plan.slots, plan.tbase
    order = inst.order
    if inst.weight is None:
        integral = ct_integrate(dens, None, order)
    else:
        lead = inst.weight.parts if plan.symmetrizes else None
        factors = []
        if lift:
            factors.append(_lifted(inst.weight.parts, lift, slots, dens.vars, order, tbase))
        elif lead is None:
            factors.append(hl_full(inst.weight.parts, slots, dens.vars, order, tbase))
        if inst.mu is not None:
            factors.append(hl_full(inst.mu.parts, plan.inverted, dens.vars, order, tbase))
        torus, scalar = _linear_factors(slots, values, dens.vars, order)
        if torus is not None:
            factors.append(torus)
        mult = chamber_product(dens, factors) if factors else None
        integral = _times(ct_integrate(dens, mult, order, lead=lead), scalar)
    z = ct_integrate(dens, None, order) if normalized else SeriesRing(order).one()
    return integral, z


def _lift(defn, inst):
    """(k, p) for a weight that ends in -k < 0 at slots that carry s-powers.

    P_lambda has negative s-powers there, so P_{lambda+k} =
    (prod of the slots)^k P_lambda is built in its place and re-keyed by the
    slots' torus exponents times -k, which leaves s^p P_lambda with p = k
    times the slots' s-powers.  The order is raised by p and the closed-form
    side multiplied by s^p: s^p is carried to the other side, never divided
    out, because the true integral has a pole of order |mu| in t.  (0, 0)
    for every other instance, which does no lift work.
    """
    parts = inst.weight.parts if inst.weight is not None else ()
    if not parts or parts[-1] >= 0:
        return 0, 0
    k = -parts[-1]
    spows = {sum(y.spow for y in _plan(key, inst.n, inst.m, False).slots)
             for key in defn.integrands}
    if len(spows) > 1:
        raise ConfigurationError("the integrands of %r lift the weight differently" % defn.name)
    p = k * spows.pop()
    return (k, p) if p else (0, 0)


def _lifted(weight, k, slots, names, order, tbase):
    """s^p P_weight at ``slots``: P_{weight+k}, re-keyed (see ``_lift``)."""
    p = hl_full(tuple(w + k for w in weight), slots, names, order, tbase)
    shift = [-k * sum(col) for col in zip(*(y.exps for y in slots))]
    return LaurentPoly(names, {tuple(map(add, e, shift)): c for e, c in p.terms.items()},
                       order, clean=False)


def _build(defn, inst):
    """(lhs, rhs, notes) of a table row; see the module docstring."""
    lift, p = _lift(defn, inst)
    if p:
        inst = inst._replace(order=inst.order + p)
    parts = [_integral(key, inst, defn.values, defn.normalized, lift) for key in defn.integrands]
    num, den = defn.closed(inst)
    lhs = SeriesRing(inst.order).zero()
    for k, (integral, _) in enumerate(parts):
        for j, (_, z) in enumerate(parts):
            if j != k:
                integral = _times(integral, z)
        lhs = lhs + integral
    rhs = num
    for _, z in parts:
        rhs = _times(rhs, z)
    if p:
        rhs = rhs * SeriesRing(inst.order).s(p)
    return _times(lhs, den), rhs, defn.notes(inst) if defn.notes else ()


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
    """One registry row (see the module docstring).  ``notes``, if set, maps
    an instance to the notes of its report."""

    name: str
    description: str
    weight_shape: str
    integrands: Tuple[str, ...] = ()
    values: Tuple[Tuple[int, int, int], ...] = ()
    normalized: bool = False
    closed: Optional[Callable] = None
    rank: Optional[str] = None
    needs_mu: bool = False
    allows_negative: bool = False
    min_n: int = 1
    notes: Optional[Callable] = None

    @property
    def params(self):
        return tuple(p for p, i in (("alpha", 1), ("beta", 2)) if any(v[i] for v in self.values))

    @property
    def needs_weight(self):
        return self.rank is not None

    @property
    def needs_m(self):
        return self.rank is not None and "m" in self.rank

    def rank_of(self, n, m=None):
        """The number of parts of the weight, or None without a weight."""
        if self.rank == "n+m":
            if m is None:
                raise DomainError("identity %r needs 0 <= m <= n" % (self.name,))
            return n + m
        return {"n": n, "2n": 2 * n, "2n+1": 2 * n + 1}.get(self.rank)


def _pad_weight(defn: IdentityDef, weight, n, m):
    kind = DominantWeight if defn.allows_negative else Partition
    w = weight if isinstance(weight, kind) else kind(tuple(weight))
    return w.padded(defn.rank_of(n, m))


def _value(closed):
    """A closed form with denominator one."""
    return lambda inst: (closed(inst), SeriesRing(inst.order).one())


_COMPONENTS = (
    ("plus_even", "2n"), ("minus_even", "2n"), ("plus_odd", "2n+1"), ("minus_odd", "2n+1")
)
_NORMALIZATIONS = (
    ("i", "symplectic", "symplectic-type"),
    ("ii", "kawanaka", "Kawanaka-type"),
    ("iii", "plus_even", "even orthogonal plus-component"),
    ("iv", "minus_even", "even orthogonal minus-component"),
    ("v", "plus_odd", "odd orthogonal plus-component"),
    ("vi", "minus_odd", "odd orthogonal minus-component"),
)


def _rows():
    yield IdentityDef(
        "orthogonality", "Hall-Littlewood orthogonality under the Selberg density",
        "pair of partitions, at most n parts each", ("selberg",), rank="n", needs_mu=True,
        closed=lambda i: rhs_orthogonality(i.weight, i.mu, i.n, i.order),
    )
    for item, key, kind in _NORMALIZATIONS:
        yield IdentityDef(
            "normalization_" + item, "normalization of the %s density" % kind, "no weight",
            (key,), closed=_value(lambda i, k=INTEGRANDS[key]: koornwinder_normalization(
                i.n - k.drop, k.params, i.order)),
        )

    def rogers_szego_row(name, description, integrands, values, rank):
        return IdentityDef(
            name, description, "partition padded to %s parts" % rank, integrands, values, True,
            rank=rank, closed=partial(rhs_rogers_szego, integrands, values),
        )

    for comp, rank in _COMPONENTS:
        sign, parity = comp.split("_")
        yield rogers_szego_row(
            "o_" + comp, "%s component, %s rank: one-parameter average" % (sign, parity),
            (comp,), (ALPHA,), rank,
        )
        yield rogers_szego_row(
            "ab_o" + comp, "two-parameter average with Rogers-Szego value (%s %s)" % (sign, parity),
            (comp,), (ALPHA, BETA), rank,
        )
    for parity, rank in (("even", "2n"), ("odd", "2n+1")):
        yield rogers_szego_row(
            "ab_sum_" + parity, "two-parameter sum over both %s-rank components" % parity,
            ("plus_" + parity, "minus_" + parity), (ALPHA, BETA), rank,
        )
    yield rogers_szego_row(
        "alpha_minus_one", "alpha = -1 specialization: single Rogers-Szego product",
        ("plus_even",), (MINUS_ONE, BETA), "2n",
    )
    yield rogers_szego_row(
        "alpha_eq_minus_beta", "alpha = -beta specialization: even-multiplicity structure",
        ("plus_even",), (ALPHA, MINUS_ALPHA), "2n",
    )
    yield IdentityDef(
        "symplectic", "symplectic average: vanishes unless lambda = mu^2",
        "partition padded to 2n parts; nonzero only for lambda = mu^2", ("symplectic",),
        normalized=True, rank="2n", closed=_value(lambda i: rhs_symplectic(i.weight, i.n, i.order)),
    )
    yield IdentityDef(
        "kawanaka", "Kawanaka-type average: sqrt(t)-multinomial value",
        "partition padded to 2n parts", ("kawanaka",), normalized=True, rank="2n",
        closed=_value(lambda i: rhs_kawanaka(i.weight, i.n, i.order)),
    )
    yield IdentityDef(
        "unm_vanishing", "two-block unitary average: nonzero only for mu = nu, l(mu) <= m",
        "dominant weight mu nu-bar with n+m parts", ("two_block",), normalized=True,
        rank="n+m", allows_negative=True,
        closed=lambda i: rhs_unm(i.weight, i.n, i.m, i.order),
    )
    yield IdentityDef(
        "u2n_vanishing", "cross-block unitary average: nonzero only for mu = nu",
        "dominant weight mu nu-bar with 2n parts", ("cross_block",), normalized=True,
        rank="2n", allows_negative=True, closed=lambda i: rhs_u2n(i.weight, i.n, i.order),
    )
    yield IdentityDef(
        "double_cover", "t^{1/2}-shifted slots against the t^2 Selberg density",
        "dominant weight with 2n parts; nonzero only for mu mu-bar", ("double_cover",),
        normalized=True, rank="2n", allows_negative=True,
        closed=lambda i: rhs_double_cover(i.weight, i.n, i.order), notes=notes_double_cover,
    )
    yield IdentityDef(
        "t2_branching", "t^2 polynomial against the t density: branching coefficient",
        "dominant weight with n parts; nonzero only for mu mu-bar", ("t2_selberg",),
        normalized=True, rank="n", allows_negative=True,
        closed=lambda i: rhs_t2_branching(i.weight, i.n, i.order),
    )
    # the Pfaffian bridges: unnormalized term integrals at value alpha
    yield IdentityDef(
        "pfaffian_plus_even", "Pfaffian bridge, plus component, even rank: "
        "v_lambda (1-t)^n 2^n I = Pf A", "partition padded to 2n parts",
        ("plus_even",), (ALPHA,), rank="2n",
        closed=lambda i: rhs_bridge_plus_even(i.weight, i.n, i.order),
    )
    yield IdentityDef(
        "pfaffian_minus_even", "Pfaffian bridge, minus component, even rank: "
        "v_lambda (1-t)^(n-1) 2^n I = (1+t) Pf M-", "partition padded to 2n parts",
        ("minus_even",), (ALPHA,), rank="2n",
        closed=lambda i: rhs_bridge_minus_even(i.weight, i.n, i.order),
    )
    yield IdentityDef(
        "pfaffian_plus_odd", "Pfaffian bridge, plus component, odd rank: "
        "v_lambda (1-t)^n 2^n I = Pf M+", "partition padded to 2n+1 parts",
        ("plus_odd",), (ALPHA,), rank="2n+1", min_n=0,
        closed=lambda i: rhs_bridge_plus_odd(i.weight, i.n, i.order),
    )


REGISTRY = {row.name: row for row in _rows()}


_Instance = namedtuple("_Instance", "n m weight mu order")


def verify(name, n=None, m=None, weight=None, mu=None, order=12) -> VerificationReport:
    """Run one identity instance and report the comparison outcome."""
    if name not in REGISTRY:
        raise KeyError("unknown identity %r" % (name,))
    defn = REGISTRY[name]
    if n is None or n < defn.min_n:
        raise DomainError("identity %r needs n >= %d" % (name, defn.min_n))
    if order < 1:
        raise DomainError("order must be at least 1")
    for arg, value, used in (("m", m, defn.needs_m), ("weight", weight, defn.needs_weight),
                             ("mu", mu, defn.needs_mu)):
        if value is not None and not used:
            raise DomainError("identity %r takes no %s" % (name, arg))
    if defn.needs_m and (m is None or not 0 <= m <= n):
        raise DomainError("identity %r needs 0 <= m <= n" % (name,))
    if defn.needs_weight:
        weight = _pad_weight(defn, weight if weight is not None else (), n, m)
    if defn.needs_mu:
        mu = _pad_weight(defn, mu if mu is not None else (), n, m)
    start = time.perf_counter()
    achieved = order
    try:
        lhs, rhs, notes = _build(defn, _Instance(n, m, weight, mu, order))
        status, first_disc = _compare(lhs, rhs)
    except ResourceLimitError as exc:
        # partial report: descend until an order fits within the ceiling
        status = "resource-limit"
        first_disc = None
        achieved = 0
        notes = (str(exc),)
        for lower in range(order - 2, 0, -2):
            try:
                lhs, rhs, inner_notes = _build(defn, _Instance(n, m, weight, mu, lower))
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
    """The default weight grid for an identity, in deterministic order.

    Raises ``DomainError`` for a negative ``max_weight`` or ``max_parts``.
    """
    from .partitions import partitions_up_to

    for arg, value in (("max_weight", max_weight), ("max_parts", max_parts)):
        if value is not None and value < 0:
            raise DomainError("%s must be at least 0, not %d" % (arg, value))
    defn = REGISTRY[name]
    if not defn.needs_weight:
        return [None]
    rank = defn.rank_of(n, m)
    parts = partitions_up_to(max_weight, rank, max_part=max_parts)
    if not defn.allows_negative:
        return list(parts)
    grid = {}
    for mu_ in parts:
        for nu_ in parts:
            if mu_.length_nonzero() + nu_.length_nonzero() <= rank:
                w = DominantWeight.from_pair(mu_, nu_, rank)
                grid.setdefault(w.parts, w)
    return list(grid.values())
