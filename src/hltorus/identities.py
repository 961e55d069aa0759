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
for the even minus component, are these scalars.  Every variable carries
the same series l(x_i), and P and the Laurent factor prod_i l(x_i) are
each invariant under the density's Weyl group, so the Laurent factor is
never formed: ``ct_integrate`` takes l as its ``linear`` and integrates
the product one orbit of the factor at a time.

With I_k the integral of the k-th integrand and Z_k its bare density
integral, the one builder ``_build`` checks

    den * sum_k I_k prod_{j != k} Z_j  ==  num * prod_j Z_j,

with Z_j = 1 for an unnormalized row, so nothing is divided in the
truncated ring.  A row that takes mu multiplies P_lambda by P_mu at the
inverted slots, on the "lead" route alone.  A weight that ends in -k < 0
at slots that carry s-powers is lifted (``_lift``): the class route
integrates s^p P_lambda, p = k times the slots' s-powers, so the order and
the closed-form side are raised by s^p to match.  A row's ``notes``, if
set, add remarks to its reports.

Each integrand's route (``_route``) follows from its density and slots.
The t-Selberg density with P at its own variables (``orthogonality``) takes
``ct_integrate``'s ``lead``, through the expansion: that row checks the very
orthogonality the class route rests on.  The densities of ``two_block``,
``t2_selberg`` and ``double_cover`` are t-Selberg blocks
(``SelbergBlocks``), the weights of the Hall-Littlewood inner product, and
take the class route (``selberg_average`` in ``hltorus.hall_littlewood``):
P_lambda = sum_nu c_{lambda nu} m_nu, each m_nu at the slots is expanded
over the blocks' classes, and each class integrates to its moment
<m_kappa>/<1>, solved from <P_nu> = 0 for nu != 0.  Neither P nor the
density is formed, and Z is the blocks' Weyl factor times the prefactor.
Every other integrand forms P and the multiplier, and ``ct_integrate``
expands the density or, for ``CrossBlock``, takes the Cauchy sum.

Four general closed forms, each read from the row's own data, serve
twenty-four rows: ``rogers_szego_value`` the twelve orthogonal-component
rows (o_*, ab_o*, ab_sum_*, alpha_minus_one, alpha_eq_minus_beta), summed
over their integrands with each component's sign; ``koornwinder_normalization``
(``hltorus.densities``) the six normalization rows; the C-symbol ratio
``rhs_c_ratio`` the vanishing averages over U(n) x U(m), U(2n) and the
double cover; and ``rhs_bridge`` the three Pfaffian bridges.  Every
t-analog in them is a quotient of binomials 1 - t^k (``binomial_ratio``).
"""

from __future__ import annotations

import time
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Optional, Tuple

from .densities import (
    CrossBlock,
    SelbergBlocks,
    ct_integrate,
    env_ceiling,
    koornwinder_density,
    koornwinder_normalization,
    max_terms,
    selberg_density,
)
from .errors import ConfigurationError, DomainError, ResourceLimitError
from .hall_littlewood import Mono, const_arg, hl_full, pm_args, selberg_average, var_arg
from .partitions import DominantWeight, Partition, classify_shape
from .pfaffian import build_a_matrix, build_m_minus, build_m_plus, pfaffian
from .series import ZERO_KEY, ParamSeries, SeriesRing, binomial_ratio, mul_into

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

def _plain_args(nvars):
    return tuple(var_arg(nvars, i) for i in range(nvars))


def _times(x: ParamSeries, c: ParamSeries) -> ParamSeries:
    """x * c, skipping the product when c is one."""
    return x if c == 1 else x * c


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _factorials(mults, base):
    """The factors of prod_m (t;t)_m, t = s^base, for ``binomial_ratio``."""
    return [(1, base * j) for m in mults for j in range(1, m + 1)]


def t_binomial(m, i, order, base=2) -> ParamSeries:
    """The Gaussian binomial [m i] = (t;t)_m / ((t;t)_i (t;t)_(m-i))."""
    if not 0 <= i <= m:
        return SeriesRing(order).zero()
    return binomial_ratio(_factorials((m,), base), _factorials((i, m - i), base), order)


def t_multinomial_of(parts, order, base=2) -> ParamSeries:
    """[N]!/prod [m_i]! over all stored parts."""
    parts = tuple(parts)
    return binomial_ratio(_factorials((len(parts),), base),
                          _factorials(Counter(parts).values(), base), order)


def v_lambda(parts, order, base=2) -> ParamSeries:
    """v_lambda(t) = prod [m_i]! over all stored parts, zeros included."""
    parts = tuple(parts)
    return binomial_ratio(_factorials(Counter(parts).values(), base),
                          [(1, base)] * len(parts), order)


def c_minus(parts, order, base=2) -> ParamSeries:
    """The q=0 C-symbol at x = t: prod (t;t)_(m_i) over the nonzero parts."""
    return binomial_ratio(_factorials(Counter(p for p in parts if p).values(), base), (), order)


def _zero_pair(order):
    ring = SeriesRing(order)
    return ring.zero(), ring.one()


def rhs_orthogonality(lam: Partition, mu: Partition, n, order):
    """(numerator, denominator) of delta_{lambda mu} n! / v_mu(t)."""
    if lam.parts != mu.parts:
        return _zero_pair(order)
    return SeriesRing(order).const(factorial(n)), v_lambda(lam.parts, order)


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
    ab = a * b
    h, g = [ring.one(), ring.one()], [ring.one(), ring.one()]  # by parity of the value
    for value, mult in lam.multiplicities().items():
        row = [t_binomial(mult, j, order) for j in range(mult + 1)]
        h[value % 2] *= sum((c * ab ** j for j, c in enumerate(row)), ring.zero())
        g[value % 2] *= sum((c * (-a) ** (mult - j) * (-b) ** j
                             for j, c in enumerate(row)), ring.zero())
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
    """(C0, C-) for the mu = nu values.

    C0 = prod_{i < l(mu)} prod over the signed s-monomials (sign, k) in
    ``args`` of 1 - sign t^(-i) s^k.
    """
    ell = mu.length_nonzero()
    c0 = [(sign, k - 2 * i) for sign, k in args for i in range(ell)]
    return binomial_ratio(c0, (), order), c_minus(mu.parts, order)


def rhs_c_ratio(args, cap, shift, inst):
    """(num, den) of the paper's vanishing averages: C0_mu(args; t) /
    (t^(shift |mu|) C-_mu(t)) on a palindrome mu mu-bar with l(mu) <= the
    size ``cap`` names (or no cap), zero otherwise (``_c_ratio_pair``).

    ``args`` are (sign, "n" or "m") for sign t^n, sign t^m: U(n) x U(m)
    takes (t^n, t^m) with cap m, U(2n) (t^n, -t^n), and the double cover
    (t^n, -t^n) with shift 1 (``notes_double_cover``).
    """
    mu = classify_shape(inst.weight.parts).palindrome
    sizes = {"n": inst.n, "m": inst.m}
    if mu is None or cap and mu.length_nonzero() > sizes[cap]:
        return _zero_pair(inst.order)
    num, den = _c_ratio_pair(mu, [(sign, 2 * sizes[size]) for sign, size in args], inst.order)
    return num, _times(den, SeriesRing(inst.order).t(shift * mu.weight()))


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
    mu = shape.palindrome
    ell = mu.length_nonzero()
    num = binomial_ratio([(1, 2 * j) for j in range(n - 2 * ell + 1, n + 1)], (), order)
    return SeriesRing(order).t(mu.weight()) * num, c_minus(mu.parts, order, base=4)


def rhs_bridge(matrix, drop, extra, inst):
    """(extra Pf B(lambda), v_lambda(t) (1-t)^(n - drop) 2^n): the paper's
    Pfaffian bridges v_lambda (1-t)^n 2^n I = Pf A and = Pf M+, and
    v_lambda (1-t)^(n-1) 2^n I = (1+t) Pf M-, B = ``matrix``.

    ``extra`` lists binomials (sign, key), 1 - sign s^e_s alpha^e_a beta^e_b:
    (1+t) for M-, and the constant slots' scalar on both sides.
    """
    parts, n, order = inst.weight.parts, inst.n, inst.order
    num = pfaffian(matrix(parts, order))
    for sign, key in extra:
        num = num * ParamSeries({ZERO_KEY: 1, key: -sign}, order)
    den = _factorials(Counter(parts).values(), 2) + [(1, 2)] * (n - drop)
    return num, binomial_ratio(den, [(1, 2)] * len(parts), order, 2 ** n)


# ---------------------------------------------------------------------------
# integrands and the generic builder
# ---------------------------------------------------------------------------


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
    # U(m) x U(n): a t-Selberg density on each of two blocks
    "two_block": lambda n, m: (SelbergBlocks((("x", m), ("y", n)), 2), _plain_args(m + n), 2),
    # integrated by the Cauchy identity, not expanded (see ``CrossBlock``)
    "cross_block": lambda n, m: (CrossBlock(n), _plain_args(2 * n), 2),
    "t2_selberg": lambda n, m: (SelbergBlocks((("x", n),), 2), _plain_args(n), 4),
    # the t^2 Selberg density against the slots t^{1/2} z_i and t^{-1/2} z_i,
    # rescaled by z -> sqrt(t) z to (t z_i, z_i): the constant term is
    # unchanged and no s-power is negative
    "double_cover": lambda n, m: (SelbergBlocks((("z", n),), 4), tuple(
        y for i in range(n) for y in (var_arg(n, i, spow=2), var_arg(n, i))), 2),
}


def _inverted(slots):
    return tuple(Mono(y.sign, y.spow, tuple(-e for e in y.exps)) for y in slots)


def _linear_factors(slots, values, names, order):
    """The slot rule: prod over the values v and slots y of (1 - v y).

    Returns the series l(x) in which the binomials of each torus variable
    multiply out, as {power: coefficient dict}, so that the torus factor is
    prod_i l(x_i), which is never formed (None without values or torus
    slots), and the product over the constant slots as a series.  A slot
    that moves two variables, and slots that give two variables different
    series, raise ``ConfigurationError``.
    """
    one = {ZERO_KEY: 1}
    # variable index, or None for the constant slots -> {power: coefficient dict}
    factors = {}
    for coeff, ea, eb in values:
        for y in slots:
            touched = [i for i, e in enumerate(y.exps) if e]
            if len(touched) > 1:
                raise ConfigurationError("slot %r is not a power of one torus variable" % (y,))
            var = touched[0] if touched else None
            binomial = ((0, one), (y.exps[var] if touched else 0,
                                   {(y.spow, ea, eb): -coeff * y.sign}))
            out = {}
            for k, c in factors.get(var, {0: one}).items():
                for shift, b in binomial:
                    mul_into(out.setdefault(k + shift, {}), c, b, order)
            factors[var] = {k: c for k, c in out.items() if c}
    scalar = ParamSeries(factors.pop(None, {0: one}).get(0, {}), order, clean=False)
    if not factors:
        return None, scalar
    series = [factors.get(var, {0: one}) for var in range(len(names))]
    if any(f != series[0] for f in series):
        raise ConfigurationError("slots %r give the torus variables different linear factors"
                                 % (slots,))
    return series[0], scalar


def _route(dens, slots, tbase):
    """How ``_integral`` integrates P at ``slots`` against ``dens``.

    "classes" for ``SelbergBlocks`` (``selberg_average``); "lead" where the
    density is one "A" block over all its variables, in P's t, and the
    slots are those variables themselves, so that ``ct_integrate`` takes P
    as its ``lead``; "product" for every other integrand, where P is formed
    and ``ct_integrate`` expands the density or, for ``CrossBlock``, takes
    the Cauchy sum.
    """
    if isinstance(dens, SelbergBlocks):
        return "classes"
    nv = len(dens.vars)
    if dens.blocks == (("A", 0, nv, tbase),) and slots == _plain_args(nv):
        return "lead"
    return "product"


# The plan of an integrand, everything ``_integral`` reads that depends on
# (key, n, m, weightless) alone: the density, P's slots and their inverses,
# P's t-base and its ``_route``.
_Plan = namedtuple("_Plan", "dens slots inverted tbase route")
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
                                        _route(dens, slots, tbase))
    return plan


def _integral(key, inst, values=(), normalized=False):
    """(I, Z) for the integrand ``key`` of one instance.

    I integrates P_lambda at the integrand's slots (times P_mu at the
    inverted slots when the instance has mu) and the slot rule's linear
    factors against the density, or the bare density without a weight.
    On the "lead" route P_lambda is not formed: lambda is passed to
    ``ct_integrate`` as its ``lead``, and P_mu, if any, is the multiplier;
    mu on any other route raises ``ConfigurationError``.  On the "classes"
    route, whose rows take a weight alone, with no mu and no values, nothing
    is formed or expanded (``selberg_average``), and I is s^p times the
    integral, p the lift's s-power (``_lift``).  Z is the bare integral when
    ``normalized``, else one.
    Without a weight (the normalization_* rows) a Koornwinder integrand
    keeps the "D" block: on the "B" block the bare integral of a one-sided
    density is 2^n n!/W(t; ab) times its prefactor, which is Gustafson's
    product by construction, so the row would integrate nothing.  The
    density, the slots and the route come from the integrand's cached plan
    (``_plan``).
    """
    plan = _plan(key, inst.n, inst.m, inst.weight is None)
    dens, slots, tbase = plan.dens, plan.slots, plan.tbase
    order = inst.order
    one = SeriesRing(order).one()
    if plan.route == "classes":
        z = dens.bare_integral(order)
        average = selberg_average(inst.weight.parts, slots, dens.blocks, tbase, order,
                                  max_terms())
        return z * average, z if normalized else one
    if inst.weight is None:
        integral = ct_integrate(dens, None, order)
    else:
        lead = inst.weight.parts if plan.route == "lead" else None
        if lead is None and inst.mu is not None:
            raise ConfigurationError("only the lead route takes mu, not %r" % key)
        weight, at = (inst.weight, slots) if lead is None else (inst.mu, plan.inverted)
        mult = None if weight is None else hl_full(weight.parts, at, dens.vars, order, tbase)
        linear, scalar = _linear_factors(slots, values, dens.vars, order)
        integral = _times(ct_integrate(dens, mult, order, lead=lead, linear=linear), scalar)
    z = ct_integrate(dens, None, order) if normalized else one
    return integral, z


def _lift(defn, inst):
    """The lift's s-power p, for a weight that ends in -k < 0 at s-scaled slots.

    P_lambda has negative s-powers there, and the class route integrates
    s^p P_lambda in its place (``selberg_average``), p = k times the slots'
    s-powers.  The order is raised by p and the closed-form side multiplied
    by s^p: s^p is carried to the other side, never divided out, because
    the true integral has a pole of order |mu| in t.  0 for every other
    instance, which does no lift work.
    """
    parts = inst.weight.parts if inst.weight is not None else ()
    if not parts or parts[-1] >= 0:
        return 0
    spows = {sum(y.spow for y in _plan(key, inst.n, inst.m, False).slots)
             for key in defn.integrands}
    if len(spows) > 1:
        raise ConfigurationError("the integrands of %r lift the weight differently" % defn.name)
    return -parts[-1] * spows.pop()


def _build(defn, inst):
    """(lhs, rhs, notes, p) of a table row; see the module docstring.

    p is the lift's s-power (``_lift``): lhs and rhs are compared in the
    ring raised by s^p, so a discrepancy there at degree d is one at degree
    d - p in the instance's own ring.
    """
    p = _lift(defn, inst)
    if p:
        inst = inst._replace(order=inst.order + p)
    parts = [_integral(key, inst, defn.values, defn.normalized) for key in defn.integrands]
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
    return _times(lhs, den), rhs, defn.notes(inst) if defn.notes else (), p


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
        # vars, not dataclasses.asdict: every field is immutable, and asdict's
        # deep copy costs 30x more on a sweep's per-instance path
        return {**vars(self), "wall_time_ms": self.wall_time_ms if include_timing else None,
                "notes": list(self.notes)}

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
    # the exact type: a Partition is a DominantWeight but pads as a partition
    w = weight if type(weight) is kind else kind(weight)
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
        closed=partial(rhs_c_ratio, ((1, "n"), (1, "m")), "m", 0),
    )
    yield IdentityDef(
        "u2n_vanishing", "cross-block unitary average: nonzero only for mu = nu",
        "dominant weight mu nu-bar with 2n parts", ("cross_block",), normalized=True,
        rank="2n", allows_negative=True,
        closed=partial(rhs_c_ratio, ((1, "n"), (-1, "n")), None, 0),
    )
    yield IdentityDef(
        "double_cover", "t^{1/2}-shifted slots against the t^2 Selberg density",
        "dominant weight with 2n parts; nonzero only for mu mu-bar", ("double_cover",),
        normalized=True, rank="2n", allows_negative=True,
        closed=partial(rhs_c_ratio, ((1, "n"), (-1, "n")), None, 1), notes=notes_double_cover,
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
        closed=partial(rhs_bridge, build_a_matrix, 0, ()),
    )
    yield IdentityDef(
        "pfaffian_minus_even", "Pfaffian bridge, minus component, even rank: "
        "v_lambda (1-t)^(n-1) 2^n I = (1+t) Pf M-", "partition padded to 2n parts",
        ("minus_even",), (ALPHA,), rank="2n",
        closed=partial(rhs_bridge, build_m_minus, 1, ((-1, (2, 0, 0)), (1, (0, 2, 0)))),
    )
    yield IdentityDef(
        "pfaffian_plus_odd", "Pfaffian bridge, plus component, odd rank: "
        "v_lambda (1-t)^n 2^n I = Pf M+", "partition padded to 2n+1 parts",
        ("plus_odd",), (ALPHA,), rank="2n+1", min_n=0,
        closed=partial(rhs_bridge, build_m_plus, 0, ((1, (0, 1, 0)),)),
    )


REGISTRY = {row.name: row for row in _rows()}


_Instance = namedtuple("_Instance", "n m weight mu order")


def verify(name, n=None, m=None, weight=None, mu=None, order=12) -> VerificationReport:
    """Run one identity instance and report the comparison outcome.

    A bad ``HLTORUS_MAX_TERMS`` is refused before any work, on every route,
    the cross-block one too, which expands nothing.
    """
    env_ceiling("HLTORUS_MAX_TERMS")
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
    status, first_disc, achieved, notes = "resource-limit", None, 0, ()
    # past the ceiling, a partial report: descend until an order fits
    for lower in range(order, 0, -2):
        try:
            lhs, rhs, found, p = _build(defn, _Instance(n, m, weight, mu, lower))
        except ResourceLimitError as exc:
            notes = notes or (str(exc),)
            continue
        status, first_disc = _compare(lhs, rhs, p)
        achieved, notes = lower, tuple(found)
        if lower < order:
            notes += ("resource ceiling hit at order %d; results cover order %d"
                      % (order, lower),)
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


def _compare(lhs: ParamSeries, rhs: ParamSeries, p=0):
    """The status, and the first discrepancy's degree less the lift's p."""
    diff = lhs - rhs
    if diff.is_zero():
        if lhs.is_zero():
            return "vanished-as-predicted", None
        return "match", None
    return "mismatch", diff.min_total_degree() - p


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
