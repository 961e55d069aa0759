"""Torus densities as numerator factors times expandable geometric factors.

A density is stored in factored form: binomial numerator factors (1 - c x^m
with c = +-1) and geometric denominator factors 1/(1 - c x^m) whose
coefficient c carries positive parameter degree.  That degree requirement is
the expandability certificate: every such factor expands as a finite
geometric sum at the working truncation order, so the constant-term
integrator never meets an on-contour pole.

Every density with a Weyl-group symmetry is stored over the positive roots
only, and its symmetric blocks are recorded in ``DensityProduct.blocks``.
A type-A block of n variables carries the q=0 Selberg density
prod_{i != j} (1-x_i/x_j)/(1-t x_i/x_j), of which only the factors with
i < j are kept.  The q=0 Koornwinder density is the product over the roots
+-e_i+-e_j (i != j) of (1-x^a)/(1-t x^a), times, per variable,
(1-x_i^2)(1-x_i^-2) over (1-p x_i)(1-p/x_i) for each of its parameters p.
Of the pair factors only the positive roots x_i/x_j and x_i x_j (i < j)
are kept.  A type-D block keeps the single-variable factors whole.  A
type-B block names a pair (a, b) of the parameters and keeps per variable
only (1-x_i^2)/((1-a x_i)(1-b x_i)), the x_i side of the numerator and of
the a, b factors; the other two parameters' factors stay whole.

For f invariant under the block's Weyl group W, CT[f * full density] =
(|W|/W(t)) CT[f * stored half], where W(t) = sum_{w in W} w(Phi) and Phi is
the stored half over the full density: prod_{a > 0} (1-t x^-a)/(1-x^-a)
over the halved roots, times prod_i (1-a/x_i)(1-b/x_i)/(1-x_i^-2) for a
"B" block.  For S_n and W(D_n), W(t) = prod_d (1-t^d)/(1-t) over the
degrees d of W: 1, 2, ..., n for S_n (so the factor is n!/[n]_t!) and 2, 4,
..., 2n-2 and n for W(D_n), of order 2^(n-1) n!.  This is Macdonald's
Poincare-series identity ("The Poincare series of a Coxeter group", Math.
Ann. 199 (1972); for S_n, Symmetric Functions and Hall Polynomials, III
(1.4)).  For W(B_n), of order 2^n n!, with the unequal parameters t on the
long roots and -ab on the short ones, it is W(t; ab) = prod_{i<n}
(1-t^(i+1))(1-ab t^i)/(1-t) (Macdonald, "Spherical functions on a group of
p-adic type", 1971; at q=0 for the Koornwinder density, Venkateswaran,
arXiv:1209.2933); at n = 1, Phi(x) + Phi(1/x) = 1 - ab.  The identity
needs f * stored half to have no pole on the torus, so a parameter +-1 must
be in the pair, where it cancels against the numerator.  The integrator
multiplies by the Weyl factor per block, so a density still means the full
product times its prefactor, and it refuses a multiplier that is not
invariant under each block's Weyl group.  Each orbit of exponents meets
the group's closed dominant chamber exactly once (``_dominant``), so the
guard compares the terms orbit by orbit, and an invariant P times a
linear factor prod_i l(x_i) integrates without its product
(``ct_integrate``'s ``linear``): the table is summed over each orbit once,
and each orbit of the linear factor takes one packed product per term of P
(``_orbit_convolution``).  ``koornwinder_normalization`` states the bare
Koornwinder integral in closed form, Gustafson's product at q = 0, parsing
the same parameter quadruple as ``koornwinder_density``.

On a density with one "A" block over all its variables, P_lambda(x; t)
times a symmetric g integrates without forming P_lambda, by Macdonald's
symmetrization (Symmetric Functions and Hall Polynomials, III (2.2)):
P_lambda = (1/v_lambda(t)) sum_{w in S_n} w(x^lambda prod_{i<j}
(x_i - t x_j)/(x_i - x_j)), and the quotient cancels the i > j half of the
Selberg density, so CT[P_lambda g * all roots] = (n!/v_lambda(t))
CT[x^lambda g * positive roots].  Here v_lambda(t) = prod_i [m_i]_t! over
the runs of equal parts of lambda padded to n parts, zeros included: the
Weyl factors of the stabilizer of x^lambda, a product of S_{m_i}.
``ct_integrate`` takes lambda as its ``lead``: it reads the table at the
offset -lambda, which stands for x^lambda g without forming that product,
and multiplies by n!/v_lambda(t) = (n!/prod m_i!) prod_i m_i!/[m_i]_t! in
place of n!/[n]_t!, which is the lambda = 0 case.

Integration is the extraction of the torus-degree-zero coefficient.  The
density is expanded once into a table over the window of torus exponents
the shifted multiplier can cancel, one signed interval (lo_i, hi_i) =
(-max e_i - lambda_i, -min e_i - lambda_i) per variable over the
multiplier's support (x^lambda g is one-sided in most variables, and a box
would keep states for the side never read), and the table is convolved
with the multiplier.  The factors on each line through the origin form
one truncated Laurent series, built once per distinct set of factors by
dividing out the geometric ones (``_factor_sequence``), and the lines are
applied in an order fixed by the block kind (``_line_key``).  A state is
two integers, its exponent coded in fixed-width fields and its series in
s packed (``series.pack``): a step by a line's term is one addition and
one product, dropped once its s-degree plus a lower bound on what the
remaining lines must add (``_movement``, ``_budget``) exceeds the order.
No factor lowers the s-degree, so the table is exact in the window.  The
table keeps its series packed, and the convolution unpacks only what it
reads.

Two kinds of density are never expanded.  The U(2n) density of two t = 0
blocks and the cross factors 1/((1-t x_i/y_j)(1-t y_i/x_j)) (``CrossBlock``)
is integrated by ``ct_integrate`` as a finite signed sum over the
multiplier's terms, from the Cauchy identity and Weyl's character formula.
A product of t-Selberg blocks (``SelbergBlocks``) is integrated through the
Hall-Littlewood inner product (``hltorus.hall_littlewood.selberg_average``).
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, groupby, product
from math import factorial, gcd, prod
from operator import add, sub

from .errors import ConfigurationError, DomainError, ResourceLimitError
from .laurent import LaurentPoly
from .partitions import partitions_up_to
from .series import (ZERO_KEY, ParamSeries, absolute_series, binomial_ratio, divide_binomial,
                     mul_into, pack, pack_width, unpack)


def env_ceiling(name):
    """The positive integer the ceiling variable ``name`` is set to.

    None when it is unset or empty; any other value is a usage error.
    """
    text = os.environ.get(name)
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise DomainError("%s=%r is not a positive integer" % (name, text))
    return value


def max_terms():
    return env_ceiling("HLTORUS_MAX_TERMS") or 4000000


def _unit_exps(n, i, power):
    e = [0] * n
    e[i] = power
    return tuple(e)


class DensityProduct:
    """Numerator factors, geometric factors and an exact rational prefactor.

    ``num_factors`` is a tuple of (sign, exps) pairs, each meaning the
    binomial (1 - sign * x^exps).  ``geo_factors`` is a tuple of
    ((e_s, e_alpha, e_beta), sign, exps) triples, each meaning the factor
    1/(1 - sign * s^e_s a^e_a b^e_b * x^exps).  Every exps must be
    nonzero, and every coefficient key nonnegative of positive degree, the
    expandability certificate; anything else raises ``DomainError``.

    ``blocks`` lists the symmetric blocks as (kind, first variable, size,
    tpow) tuples.  Within an "A" block only the positive-root factors
    (i < j) of the q=0 Selberg density in t = s^tpow are stored, or of its
    numerator alone when tpow is None (t = 0); the density meant is the
    full product over i != j, which ``ct_integrate`` recovers through the
    factor n!/[n]_t!.  Within a "D" block only the pair factors at the
    positive roots x_i/x_j and x_i x_j (i < j) of the D_n root system are
    stored; the density meant is the product over all the roots
    +-e_i+-e_j, recovered through the factor 2^(n-1) n!/W_D(t).  A "B"
    block (kind, first, size, tpow, ab) also stores its single-variable
    factors on the x_i side only of the pair (a, b) whose product is the
    signed s-monomial ab; the factor 2^n n!/W(t; ab) restores them.

    A density is immutable once built: no code changes its fields
    afterwards.  ``key()``, which names its expansion in the cache, is
    computed once, in ``__init__``, and relies on that.
    """

    __slots__ = ("vars", "num_factors", "geo_factors", "prefactor", "blocks", "label", "_key")

    def __init__(self, vars, num_factors, geo_factors, prefactor=Fraction(1), label="",
                 blocks=()):
        self.vars = tuple(vars)
        self.num_factors = tuple((s, tuple(e)) for s, e in num_factors)
        self.geo_factors = tuple((tuple(c), sign, tuple(e)) for c, sign, e in geo_factors)
        for ckey, _, _ in self.geo_factors:
            if min(ckey) < 0 or sum(ckey) < 1:
                raise DomainError("geometric coefficient %r is not a monomial of positive"
                                  " degree, so the factor is not expandable" % (ckey,))
        for *_, exps in self.num_factors + self.geo_factors:
            if not any(exps):
                raise DomainError("a factor with exponent vector %r lies on no line"
                                  % (exps,))
        self.prefactor = Fraction(prefactor)
        self.blocks = tuple(tuple(b) for b in blocks)
        self.label = label
        self._key = (self.vars, tuple(sorted(self.num_factors)),
                     tuple(sorted(self.geo_factors)), self.prefactor, self.blocks)

    def key(self):
        return self._key

    def __repr__(self):
        return "DensityProduct(%s: %d numerator, %d geometric, prefactor %s)" % (
            ",".join(self.vars), len(self.num_factors), len(self.geo_factors), self.prefactor)


def positive_roots(nvars, first, size):
    """Exponent vectors of x_i/x_j for i < j within one block of variables."""
    out = []
    for i in range(first, first + size):
        for j in range(i + 1, first + size):
            exps = [0] * nvars
            exps[i] = 1
            exps[j] = -1
            out.append(tuple(exps))
    return out


def selberg_density(n, tpow=2, prefix="x", prefactor=Fraction(1)) -> DensityProduct:
    """The q=0 Selberg density prod_{i != j} (1-x_i/x_j)/(1-t x_i/x_j).

    ``tpow`` is the s-exponent of the deformation parameter (2 for t,
    4 for t^2).  Only the factors with i < j are stored, as one block; see
    the module docstring for the Weyl factor that restores the rest.
    """
    if n < 1:
        raise DomainError("need at least one variable")
    vars = tuple("%s%d" % (prefix, i + 1) for i in range(n))
    roots = positive_roots(n, 0, n)
    num = [(1, exps) for exps in roots]
    geo = [((tpow, 0, 0), 1, exps) for exps in roots]
    return DensityProduct(vars, num, geo, prefactor, label="selberg(%d)" % n,
                          blocks=(("A", 0, n, tpow),))


def _koornwinder_params(params):
    """The nonzero parameters as (sign, s-exponent): +-1 as (+-1, 0).

    Rejects a parameter that is not 0, +-1 or a signed s-monomial of
    positive degree, and +1 or -1 given twice.
    """
    norm = []
    for p in params:
        if p == 0 or p is None:
            continue
        if isinstance(p, int):
            if p in (1, -1):
                norm.append((p, 0))
                continue
            raise DomainError("parameter %r has modulus >= 1" % (p,))
        sign, spow = p
        if sign not in (1, -1) or spow < 0:
            raise DomainError("parameter %r is not a signed s-monomial" % (p,))
        if spow == 0:
            raise DomainError("parameter %r has modulus >= 1" % (p,))
        norm.append((sign, spow))
    if sum(1 for s, k in norm if k == 0 and s == 1) > 1:
        raise DomainError("parameter +1 may appear at most once")
    if sum(1 for s, k in norm if k == 0 and s == -1) > 1:
        raise DomainError("parameter -1 may appear at most once")
    return norm


def koornwinder_density(n, params, pair=None) -> DensityProduct:
    """The symmetric q=0 Koornwinder density with parameters (a,b,c,d).

    Each parameter is 0, +1, -1 or a signed s-monomial (sign, s-exponent)
    of positive degree.  Parameters equal to +-1 are cancelled symbolically
    against a matching numerator factor; any other parameter of modulus >= 1
    is rejected since there is no cancellation recipe for it.

    Of the pair factors (1-x^a)/(1-t x^a) over the roots a = +-e_i+-e_j
    only those at the positive roots x_i/x_j and x_i x_j (i < j) are stored.
    Without ``pair`` the single-variable factors are stored whole and the
    block is "D" (when n >= 2).  With ``pair``, two nonzero parameters
    (a, b) of the four, each variable keeps only (1-x_i^2)/((1-a x_i)(1-b
    x_i)), with +-1 cancelled as above, while the other two parameters'
    factors stay whole; the block is ("B", 0, n, 2, ab), ab the signed
    s-monomial a*b (when n >= 1).  A +-1 outside the pair would leave a
    pole on the torus, and a parameter-free ab a Weyl factor that does not
    expand, so both are rejected.  The prefactor 1/(2^n n!) still refers to
    the full density.
    """
    if n < 0:
        raise DomainError("negative variable count")
    norm = _koornwinder_params(params)
    half = [] if pair is None else _koornwinder_params(pair)
    whole = list(norm)
    for p in half:
        if p not in whole:
            raise DomainError("pair %r is not two of the parameters %r" % (pair, params))
        whole.remove(p)
    if pair is not None and (len(half) != 2 or any(k == 0 for _, k in whole)
                             or half[0][1] + half[1][1] == 0):
        raise DomainError("pair %r cannot halve the parameters %r" % (pair, params))
    vars = tuple("x%d" % (i + 1) for i in range(n))
    has_plus = any(k == 0 and s == 1 for s, k in norm)
    has_minus = any(k == 0 and s == -1 for s, k in norm)
    num = []
    geo = []
    for i in range(n):
        for side in (1,) if half else (1, -1):
            e = _unit_exps(n, i, side)
            if has_plus and has_minus:
                pass  # (1-x^2) fully cancelled
            elif has_plus or has_minus:
                num.append((-1 if has_plus else 1, e))
            else:
                num.append((1, _unit_exps(n, i, 2 * side)))
            geo += [((spow, 0, 0), sign, e) for sign, spow in half if spow]
        for side in (1, -1):
            e = _unit_exps(n, i, side)
            geo += [((spow, 0, 0), sign, e) for sign, spow in whole if spow]
    for i, j in combinations(range(n), 2):
        for pj in (-1, 1):
            exps = tuple((k == i) + pj * (k == j) for k in range(n))
            num.append((1, exps))
            geo.append(((2, 0, 0), 1, exps))
    pref = Fraction(1, (2 ** n) * factorial(n))
    body = "%d;%s" % (n, ",".join(repr(p) for p in params))
    if half:
        (sa, ka), (sb, kb) = half
        label = "koornwinder_B(%s;pair %r)" % (body, tuple(pair))
        blocks = (("B", 0, n, 2, (sa * sb, ka + kb)),) if n >= 1 else ()
    else:
        label = "koornwinder(%s)" % body
        blocks = (("D", 0, n, 2),) if n >= 2 else ()
    return DensityProduct(vars, num, geo, pref, label=label, blocks=blocks)


def koornwinder_normalization(n, params, order) -> ParamSeries:
    """The q=0 Gustafson value of the bare Koornwinder integral on n variables.

    With the parameters (a, b, c, d) of ``koornwinder_density`` it is

        prod_{j<n} (1-t)(1 - t^(2n-j-2) abcd) / ((1 - t^(j+1)) prod_{e<f} (1 - t^j ef)),

    where abcd is 0 unless all four parameters are nonzero and a pair with
    ef = 0 contributes 1 (Gustafson, Bull. AMS 22 (1990), at q = 0).  The
    only parameter-free denominator, 1 - (+1)(-1) = 2, is the one constant
    factor of the ``binomial_ratio``.
    """
    norm = _koornwinder_params(params)
    num, den = [], []
    for j in range(n):
        num.append((1, 2))
        den.append((1, 2 * (j + 1)))
        if len(norm) == 4:
            num.append((prod(s for s, _ in norm), 2 * (2 * n - j - 2) + sum(k for _, k in norm)))
        den += [(s1 * s2, 2 * j + k1 + k2) for (s1, k1), (s2, k2) in combinations(norm, 2)]
    return binomial_ratio(num, den, order)


# ---------------------------------------------------------------------------
# expansion and constant-term extraction
# ---------------------------------------------------------------------------

_EXPANSION_CACHE = {}


def clear_caches():
    _EXPANSION_CACHE.clear()
    _weyl_factor.cache_clear()
    _runs.cache_clear()


def _factor_sequence(dens, order):
    """The density's factors multiplied into one series per line through the origin.

    A list of (d, terms): d is a primitive direction with its first nonzero
    entry positive, and ``terms`` the product of every factor whose exponent
    is a multiple of d, a Laurent series in y = x^d truncated at ``order``,
    as (k, coefficient dict) pairs in increasing k.  Lines with the same
    factors, as (sign, m) for 1 - sign y^m and (m, key, sign) for 1/(1 -
    sign s^key y^m), share one series, built by ``_line_series``.

    The order of the lines is the order of the expansion's steps, and it is
    fixed by the kind of the density's blocks (``_line_key``).  The table
    is the same in the window under every order; the intermediate states
    are not.
    """
    lines = {}

    def factors(exps):
        # exps = m d with d primitive, its first nonzero entry positive
        m = gcd(*exps) * (1 if next(e for e in exps if e) > 0 else -1)
        return m, lines.setdefault(tuple(e // m for e in exps), ([], []))

    for sign, exps in dens.num_factors:
        m, (num, _) = factors(exps)
        num.append((sign, m))
    for ckey, sign, exps in dens.geo_factors:
        m, (_, geo) = factors(exps)
        geo.append((m, ckey, sign))
    built = {}
    out = []
    for d in sorted(lines, key=_line_key(dens.blocks)):
        num, geo = lines[d]
        key = (tuple(sorted(num)), tuple(sorted(geo)))
        if key not in built:
            built[key] = _line_series(*key, order)
        out.append((d, built[key]))
    return out


def _line_series(num, geo, order):
    """prod (1 - sign y^m) over ``num`` / prod (1 - sign s^key y^m) over ``geo``.

    The numerator is multiplied out in integers, each geometric factor is
    divided out by ``divide_binomial`` on keys (m, e_s, e_a, e_b), and one
    ``LaurentPoly`` product joins the two.
    """
    top = {0: 1}
    for sign, m in num:
        nxt = dict(top)
        for k, c in top.items():
            nxt[k + m] = nxt.get(k + m, 0) - sign * c
        top = {k: c for k, c in nxt.items() if c}
    low = {(0, 0, 0, 0): 1}
    for m, ckey, sign in geo:
        low = divide_binomial(low, (m, *ckey), sign, order)
    rows = {}
    for (k, *key), c in low.items():
        rows.setdefault((k,), {})[tuple(key)] = c
    y = ("y",)
    joined = (LaurentPoly(y, {(k,): {ZERO_KEY: c} for k, c in top.items()}, order)
              * LaurentPoly(y, rows, order))
    return sorted((k, c) for (k,), c in joined.terms.items())


def _line_key(blocks):
    """The sort key of the lines of a density with these blocks.

    With a "B" or "D" block, every Koornwinder density, it is (-|d|, d)
    elementwise: all of x_1's lines, its pair lines nearest partner first
    and then its single-variable line, then all of x_2's, and so on.  Each
    variable is then done as soon as its lines are, and the budget pins it
    into its interval from there on, the bucket-elimination order (Dechter,
    "Bucket elimination", Artificial Intelligence 113, 1999); the summed
    states of ``normalization_v`` n=4 fall from 3537 to 1131.  Otherwise it
    is (|d|, d), which applies the lines of the last variables first; on
    "A" blocks x_1 first takes 1812 states in place of 624 on the
    ``sweep-pairs`` builds (seed 3).
    """
    if any(kind in ("B", "D") for kind, *_ in blocks):
        return lambda d: (tuple(-abs(x) for x in d), d)
    return lambda d: (tuple(map(abs, d)), d)


def _movement(lines, nv):
    """What the lines from each position on can do to each variable.

    Entry ``pos`` holds, per variable, (free up, free down, rate up, rate
    down).  A line's free move each way is the largest move by a term of
    its series whose coefficient has a degree-0 part.  Its rate each way is
    the pair (deg, step) of the term beyond the free move with the least
    deg/step, ``deg`` the term's least s-degree and ``step`` its move past
    the free one.  Per variable the free moves of the lines add up and the
    rate is the least of theirs; None when no line left moves it that way.
    """
    free, rate = [[0, 0] for _ in range(nv)], [[None, None] for _ in range(nv)]
    out = [None] * len(lines) + [((0, 0, None, None),) * nv]
    for pos in range(len(lines) - 1, -1, -1):
        d, terms = lines[pos]
        for side in (1, -1):
            steps = [(k * side, min(map(sum, c))) for k, c in terms if k * side > 0]
            kfree = max([k for k, deg in steps if not deg], default=0)
            for v, dv in enumerate(d):
                if not dv:
                    continue
                way = 0 if dv * side > 0 else 1
                free[v][way] += kfree * abs(dv)
                for k, deg in steps:
                    step, best = (k - kfree) * abs(dv), rate[v][way]
                    if step > 0 and (best is None or deg * best[1] < best[0] * step):
                        rate[v][way] = (deg, step)
        out[pos] = tuple((f[0], f[1], r[0], r[1]) for f, r in zip(free, rate))
    return out


def _budget(exps, window, moves, order):
    """``order`` less the least s-degree that brings ``exps`` into the window.

    ``exps``, ``window`` and ``moves`` run over the same variables: the
    window holds one signed interval (lo, hi) per variable, and ``moves``
    is one entry of ``_movement`` or its part for those variables.  Per
    variable outside its interval, the distance left after the free moves
    is priced at the least rate, rounded up to a whole s-degree; one term
    can move several variables at once, so the bound is the max over the
    variables, not the sum.  Negative when no degree <= ``order`` can.
    """
    need = 0
    for x, (lo, hi), (fup, fdown, rup, rdown) in zip(exps, window, moves):
        if x > hi:
            dist, rate = x - hi - fdown, rdown
        elif x < lo:
            dist, rate = lo - x - fup, rup
        else:
            continue
        if dist <= 0:
            continue
        if rate is None:
            return -1
        cost = -(-dist * rate[0] // rate[1])
        if cost > need:
            need = cost
    return order - need


def _walks(d, row, twindow, field):
    """The two sides of a line's packed series ``row``, each walked outward from k = 0.

    Per side, the (shift k d coded at ``field`` bits per variable, touched
    variables' shift, packed coefficient, least degree of this term and
    every term beyond it) of its terms, and per touched variable the pair
    (s, m) such that the side moves it away from its interval (lo, hi) in
    ``twindow`` from every x with s x >= m: (1, lo) if the side moves it
    up, else (-1, -hi).
    """
    step, out = sum(x << field * v for v, x in enumerate(d)), []
    touched = [x for x in d if x]
    for side in (1, -1):
        walk = [term for term in row if (term[0] >= 0 if side > 0 else term[0] < 0)][::side]
        lows = list(accumulate([low for _, _, low in walk][::-1], min))[::-1]
        out.append(([(k * step, [k * x for x in touched], c, low)
                     for (k, c, _), low in zip(walk, lows)],
                    [(1, lo) if x * side > 0 else (-1, -hi)
                     for x, (lo, hi) in zip(touched, twindow)]))
    return out


def _reach(te, walks, singles, order):
    """Per side of ``walks``, the terms (shift, packed coefficient, least degree,
    budget, whether skipping it ends the walk) from the touched exponents
    ``te``, up to the first that ends every state's walk.  The budget is the
    least of the touched variables' own, which ``singles`` memoize per line
    and coordinate, one (memo, window, moves) each."""
    out = []
    for walk, stops in walks:
        out.append([])
        for shift, tshift, c, low in walk:
            cap, stop = order, True
            for x, (memo, w, mv), (s, m) in zip(map(add, te, tshift), singles, stops):
                b = memo.get(x)
                if b is None:
                    b = memo[x] = _budget((x,), w, mv, order)
                if b < cap:
                    cap = b
                if s * x < m:
                    stop = False
            if stop and cap < low:
                break
            out[-1].append((shift, c, low, cap, stop))
    return out


class _Table(dict):
    """{torus exponent: series packed at ``width``}, with the entries that
    ``ct_integrate`` has unpacked (``read``) and the orbit sums of
    ``_orbit_convolution`` (``orbits``), each filled on first use."""

    __slots__ = ("width", "read", "orbits")


def _expansion(dens, order, window, spare=0):
    """Expand the density into {torus exponent: packed series}, a ``_Table``.

    The table is exact, through s-degree ``order``, for every exponent
    within the requested window, one signed interval (lo, hi) per variable.
    The lines of ``_factor_sequence`` are applied one at a time: each state
    (exponent, series) is shifted by every term k of the line's series and
    multiplied by its coefficient, keeping only the terms that can still
    end inside the window at degree <= ``order``: ``_budget`` bounds below
    the degree the remaining lines must add, per state for the variables
    the line leaves alone and per term (``_reach``) for the touched ones,
    less the state's least degree.  Each side of the series is walked
    outward from k = 0 and stops at a term where that is below the least
    degree of every term beyond it while each touched variable moves away
    from its interval.

    An exponent e is one code, sum_v (e_v + 2^(F-1)) 2^(F v), F the bit
    length of 2R + 1, R = sum over the lines of max |k| max |d_v|: no
    coordinate a state reaches from 0 passes R, so no field carries and a
    step adds the term's shift code.  Per line, the budgets and ``_reach``
    rows are memoized on the fields they read, decoded on a miss, and the
    table is decoded once.  A series is one integer (``series.pack``), a
    step one product cut to its low digits; a digit of a state, product or
    partial sum is a sum of products of one coefficient per line, so digits
    of ``series.pack_width`` never carry, and an alpha or beta degree or a
    non-integer coefficient raises ``ConfigurationError`` there; the table
    keeps ``spare`` more bits.  Cached per density and order with the
    lines, their movement, their width and their terms, packed once per
    distinct series: a request outside the cached window or for more bits
    rebuilds for the union of the windows at the larger width, repacking
    only for a new width; the term ceiling caps the states of each line.
    """
    cache_key = (dens.key(), order)
    cached = _EXPANSION_CACHE.get(cache_key)
    if cached is not None:
        cached_window, table, lines, moves, base, packed = cached
        if table.width >= base + spare and all(
                clo <= lo and hi <= chi for (lo, hi), (clo, chi) in zip(window, cached_window)):
            return table
        window = [(min(lo, clo), max(hi, chi))
                  for (lo, hi), (clo, chi) in zip(window, cached_window)]
        spare = max(spare, table.width - base)
    else:
        lines = _factor_sequence(dens, order)
        moves = _movement(lines, len(dens.vars))
        base, packed = pack_width(([c for _, c in terms] for _, terms in lines), order), None
    limit = max_terms()
    width = base + spare
    if packed is None or packed[0] != width:
        once = {}  # lines with the same factors share one series object
        for _, terms in lines:
            if id(terms) not in once:
                once[id(terms)] = [(k, pack(c, width), min(map(sum, c))) for k, c in terms]
        packed = width, [once[id(terms)] for _, terms in lines]
    # per cap, the half and the mask that keep and re-centre the digits up to it
    trims = [(h, 2 * h - 1) for h in (1 << width * (cap + 1) - 1 for cap in range(order + 1))]
    field = (2 * sum(max(abs(k) for k, _ in terms) * max(map(abs, d)) for d, terms in lines)
             + 1).bit_length()
    off, fmask, nv = 1 << field - 1, (1 << field) - 1, len(dens.vars)

    def decode(code, vs):
        return [(code >> field * v & fmask) - off for v in vs]

    acc = {sum(off << field * v for v in range(nv)): 1}
    for (d, _), terms, after in zip(lines, packed[1], moves[1:]):
        touched, others = [v for v in range(nv) if d[v]], [v for v in range(nv) if not d[v]]
        tmask = sum(fmask << field * v for v in touched)
        omask = ((1 << field * nv) - 1) ^ tmask
        obox = [window[v] for v in others], [after[v] for v in others]
        walks = _walks(d, terms, [window[v] for v in touched], field)
        singles = [({}, (window[v],), (after[v],)) for v in touched]
        tops, reach, new = {}, {}, {}
        while acc:
            code, cd = acc.popitem()
            dmin = ((cd & -cd).bit_length() - 1) // width  # from the lowest set bit
            top = tops.get(code & omask)
            if top is None:
                top = tops[code & omask] = _budget(decode(code, others), *obox, order)
            rows = reach.get(code & tmask) or reach.setdefault(
                code & tmask, _reach(decode(code, touched), walks, singles, order))
            for row in rows:
                for shift, c, low, cap, stop in row:
                    if top < cap:
                        cap = top
                    if cap < low + dmin:
                        if stop:
                            break
                        continue
                    e2 = code + shift
                    half, mask = trims[cap]
                    v = new.get(e2, 0) + ((cd * c + half) & mask) - half
                    if v:
                        new[e2] = v
                    elif e2 in new:
                        del new[e2]
            if len(new) > limit:
                break
        acc = new
        if len(acc) > limit:
            raise ResourceLimitError("density expansion exceeded %d terms" % limit)
    table = _Table((tuple(decode(code, range(nv))), v) for code, v in acc.items())
    table.width, table.read, table.orbits = width, {}, None
    _EXPANSION_CACHE[cache_key] = (window, table, lines, moves, base, packed)
    return table


def ct_integrate(dens: DensityProduct, multiplier, order, lead=None, linear=None) -> ParamSeries:
    """Torus integral (constant term) of multiplier times the density.

    Exact through the given order; a ``multiplier`` of None gives the bare
    normalization integral.  The density is expanded over the window of
    exponents the convolution reads, the entries -(e + lead) for the
    exponents e of the multiplier (lead = 0 without one), as one signed
    interval per variable, and each entry read is unpacked once per table
    (``_Table.read``).  The multiplier is read term by term; its exponent
    range and the guard's verdict on it are memoized on it (``_reading``),
    so a cached multiplier is refused or accepted the same way every time.

    With ``linear``, a series {power: coefficient dict} in one variable,
    the integrand is the multiplier times L = prod_i linear(x_i), and L is
    never formed (``_orbit_convolution``).  Before any table entry is read,
    ``linear`` must equal linear(1/x) on a "B" or "D" block, and
    ``ConfigurationError`` refuses it with a lead or a ``CrossBlock``.

    With ``lead``, a weakly decreasing weight with one part per variable,
    the integrand is P_lead(x; t) times the multiplier g, and P_lead is
    never formed (see the module docstring): g, guarded as without ``lead``,
    is read against the table at the offset -lead and restored by
    n!/v_lead(t).  A lead that is not weakly decreasing or has the wrong
    length, and a density that is not one "A" block over all its variables,
    raise ``ConfigurationError``.  A ``CrossBlock`` density is not
    expanded: once the guard passes the multiplier, ``_cauchy_sum`` sums it.
    A ``SelbergBlocks`` density is refused: ``selberg_average`` in
    ``hltorus.hall_littlewood`` integrates it.
    """
    if order < 0:
        raise ConfigurationError("truncation order must be nonnegative")
    if isinstance(dens, SelbergBlocks):
        raise ConfigurationError("Selberg blocks %r are integrated by class coefficients, "
                                 "not expanded" % (dens.blocks,))
    if multiplier is None:
        multiplier = LaurentPoly.unit(dens.vars, order)
    if multiplier.vars != dens.vars:
        raise ConfigurationError("multiplier variables %r do not match density variables %r"
                                 % (multiplier.vars, dens.vars))
    if multiplier.trunc != order:
        raise ConfigurationError("multiplier truncation differs from the order")
    ranges, invariant = _reading(multiplier, dens.blocks)
    if not invariant:
        # the Weyl factor is exact only for Weyl-invariant multipliers
        raise ConfigurationError("multiplier is not invariant under the blocks' Weyl groups"
                                 " in %r" % (dens,))
    if linear is not None:
        if lead is not None or isinstance(dens, CrossBlock):
            raise ConfigurationError("a linear factor is integrated only against an expanded"
                                     " density without a lead, not %r" % (dens,))
        if any(kind != "A" for kind, *_ in dens.blocks) and any(
                linear.get(-k) != c for k, c in linear.items()):
            raise ConfigurationError("linear factor is not invariant under x -> 1/x, which"
                                     " the blocks' Weyl groups in %r need" % (dens,))
    blocks, neg = dens.blocks, [0] * len(dens.vars)
    if lead is not None:
        blocks, count = _stabilizer(dens, lead)
        neg = [-a for a in lead]
    elif isinstance(dens, CrossBlock):
        return _cauchy_sum(multiplier.terms.items(), len(dens.vars) // 2, order)
    prefactor = dens.prefactor if lead is None else dens.prefactor * count
    if linear is not None:
        out = _orbit_convolution(dens, multiplier, linear, ranges, order)
    else:
        table = _expansion(dens, order, [(b - hi, b - lo) for (hi, lo), b in zip(ranges, neg)])
        out, read, width = {}, table.read, table.width
        for e, coeff in multiplier.terms.items():
            key = tuple(map(sub, neg, e))
            packed = table.get(key)
            if packed is not None:
                dcoef = read.get(key) or read.setdefault(key, unpack(packed, width))
                mul_into(out, coeff, dcoef, order)
    result = ParamSeries(out, order, clean=False)
    if blocks:
        result = result * _weyl_factor(blocks, order)
    if prefactor != 1:
        result = result * prefactor
    return result


def _orbit_convolution(dens, poly, linear, ranges, order):
    """sum_e (poly L)[e] T[-e] as a coefficient dict, T the density's table
    and L = prod_i linear(x_i), both factors invariant under the Weyl group
    W of ``dens.blocks``; ``ranges`` is ``poly``'s (max, min) per variable.

    With dom the point of each orbit in the closed dominant chamber
    (``_dominant``), S[y] = |Stab y| sum over the orbit of y of T[u] =
    sum_{w in W} T[w y], and b_0 the dominant exponents of L, it is
    sum_{b_0} L[b_0] / |Stab b_0| sum_a poly[a] S[dom(-a - b_0)], since L
    is constant on the orbit of b_0, which sum_{w in W} w b_0 covers
    |Stab b_0| times, and a -> w a permutes poly's terms.  The window, the
    box of poly's range plus linear's, holds each orbit read.  S is folded
    once per table (``_Table.orbits``) and poly packed, so each (term,
    b_0) pair is one integer product and each b_0 one ``unpack``, a checked
    exact division by ``_stabilizer_order`` and one ``mul_into``.  A digit
    of the inner sum is at most |W| sum |c| over poly's coefficients through
    the order (``series.absolute_series``) times one of T, so the table is
    asked for that many more bits.
    """
    blocks, nv = dens.blocks, len(dens.vars)
    total = sum(absolute_series(poly.terms.values(), order))  # refuses what does not pack
    group = _stabilizer_order(blocks, (0,) * nv)
    top, low = max(linear, default=0), min(linear, default=0)
    table = _expansion(dens, order, [(-hi - top, -lo - low) for hi, lo in ranges],
                       (group * total).bit_length())
    width, dominant, sums = table.width, _dominant(blocks, nv), table.orbits
    if sums is None:
        sums = table.orbits = {}
        for u, v in table.items():
            y = dominant(u)
            sums[y] = sums.get(y, 0) + v
        for y in sums:
            sums[y] *= _stabilizer_order(blocks, y)
    terms = [(a, pack(c, width)) for a, c in poly.terms.items()]
    half = 1 << width * (order + 1) - 1
    out = {}
    for b in product(sorted(linear), repeat=nv):
        if dominant(b) != b:
            continue
        acc, nb = 0, [-x for x in b]
        for a, c in terms:
            s = sums.get(dominant(tuple(map(sub, nb, a))))
            if s:
                acc += c * s
        acc = ((acc + half) & (2 * half - 1)) - half
        if not acc:
            continue
        lb = {ZERO_KEY: 1}
        for k in b:
            lb, prev = {}, lb
            mul_into(lb, prev, linear[k], order)
        stab, quotient = _stabilizer_order(blocks, b), {}
        for key, v in unpack(acc, width).items():
            quotient[key], r = divmod(v, stab)
            if r:
                raise ConfigurationError("orbit sum %d at %r is not divisible by |Stab| = %d"
                                         % (v, b, stab))
        mul_into(out, lb, quotient, order)
    return out


class CrossBlock:
    """The U(2n) density, integrated by the Cauchy identity and never expanded.

    On x_1..x_n, y_1..y_n it is prod_{i != j} (1-x_i/x_j)(1-y_i/y_j) prod_{i,j}
    1/((1-t x_i/y_j)(1-t y_i/x_j)) / (n!)^2: two t = 0 "A" blocks, which the
    guard reads, and the cross factors.  These are sum_{kappa, rho}
    t^(|kappa|+|rho|) s_kappa(x) s_kappa(1/y) s_rho(y) s_rho(1/x) by the
    Cauchy identity (Macdonald, Symmetric Functions and Hall Polynomials, I
    (4.3)), and s_rho(1/x) prod_{i<j} (1-x_i/x_j) = sum_w eps(w) x^(delta -
    w(rho+delta)), delta = (n-1, ..., 0), by Weyl's character formula (I
    (3.1)).  So, for a multiplier invariant under S_n x S_n, a term x^a y^b
    adds eps1 eps2 t^(|kappa|+|rho|) times its coefficient for each
    partition kappa such that a + kappa + delta sorts, with sign eps1, to
    rho + delta, rho a partition, and b + rho + delta sorts, with sign eps2,
    to kappa + delta (``_cauchy_sum``).
    """

    __slots__ = ("vars", "blocks")

    def __init__(self, n):
        self.vars = tuple("%s%d" % (p, i + 1) for p in "xy" for i in range(n))
        self.blocks = (("A", 0, n, None), ("A", n, n, None))

    def __repr__(self):
        return "CrossBlock(%d)" % (len(self.vars) // 2)


class SelbergBlocks:
    """t-Selberg densities on consecutive blocks of variables, never expanded.

    Each block ("A", first, size, tpow) carries prod_{i != j} (1-x_i/x_j)/(1-t
    x_i/x_j) / size! over its variables, t = s^tpow: the weight of the
    Hall-Littlewood inner product in those variables.  P_lambda integrates
    against it, normalized, from class coefficients
    (``hltorus.hall_littlewood.selberg_average``), with no density expanded.
    """

    __slots__ = ("blocks",)

    def __init__(self, sizes, tpow):
        """One block per entry of ``sizes``, in order."""
        firsts = accumulate(sizes, initial=0)
        self.blocks = tuple(("A", first, size, tpow) for first, size in zip(firsts, sizes))


def _sort_sign(v):
    """(v sorted decreasing, the sign of that sort), or None for a repeated entry."""
    sign = 1
    for i, x in enumerate(v):
        for y in v[i + 1:]:
            if x == y:
                return None
            if x < y:
                sign = -sign
    return sorted(v, reverse=True), sign


def _cauchy_sum(terms, n, order):
    """CT[multiplier * ``CrossBlock(n)``] through ``order``, from the
    multiplier's (exponent, coefficient) pairs ``terms`` alone.

    The terms are grouped by their x-part a, since rho and eps1 depend only
    on (a, kappa).  As |rho| = |kappa| + |a|, the s-degree 2(|kappa| +
    |rho|) bounds |kappa| per group by its least coefficient degree.
    """
    delta = range(n - 1, -1, -1)
    groups = {}
    for e, c in terms:
        groups.setdefault(e[:n], []).append((e[n:], c))
    kappas = [(sum(k.parts), tuple(map(add, k.padded(n).parts, delta)))
              for k in partitions_up_to(order // 2, n)]
    out = {}
    for a, members in groups.items():
        size = sum(a)
        room = (order - min(min(map(sum, c)) for _, c in members)) // 2 - size
        for k, kd in kappas:
            if 2 * k > room:
                break
            hit = _sort_sign(tuple(map(add, a, kd)))
            if hit is None or hit[0][-1] < 0:
                continue
            rd, sign = hit
            shift, target = 2 * (2 * k + size), set(kd)
            for b, c in members:
                w = tuple(map(add, b, rd))
                if set(w) == target:
                    mul_into(out, c, {(shift, 0, 0): sign * _sort_sign(w)[1]}, order)
    return ParamSeries(out, order, clean=False)


def _reading(multiplier, blocks):
    """The multiplier's per-variable (max, min) exponents, and whether it is
    invariant under the Weyl groups of ``blocks``.

    Both depend on the terms alone, so they are kept in the polynomial's
    ``_memo``: the ranges, (0, 0) per variable for no terms, read once, and
    ``_block_symmetric``'s verdict once per block tuple, in a dict.
    """
    memo = multiplier._memo
    if memo is None:
        terms = multiplier.terms
        columns = zip(*terms) if terms else ((0,),) * len(multiplier.vars)
        memo = multiplier._memo = (tuple((max(c), min(c)) for c in columns), {})
    ranges, verdicts = memo
    verdict = verdicts.get(blocks)
    if verdict is None:
        verdict = verdicts[blocks] = not blocks or _block_symmetric(blocks, multiplier.terms)
    return ranges, verdict


def _stabilizer(dens, lead):
    """The "A" blocks of the runs of equal parts of ``lead``, in the density's
    t, and the multinomial n!/prod m_i! over the runs' sizes m_i.

    The blocks stand for the stabilizer of x^lead in S_n, whose Weyl factors
    give v_lead(t) = prod over the runs of [m]_t!; zero parts form a run too.
    Refuses a density that is not one "A" block over all its variables and
    a lead that is not weakly decreasing with one part per variable, on
    every call; only the runs are cached, per (tpow, lead), in ``_runs``.
    """
    nv = len(dens.vars)
    if len(dens.blocks) != 1 or dens.blocks[0][:3] != ("A", 0, nv):
        raise ConfigurationError("a lead weight needs one \"A\" block over all of %r" % (dens,))
    lead = tuple(lead)
    if len(lead) != nv or any(a < b for a, b in zip(lead, lead[1:])):
        raise ConfigurationError("lead %r is not a weakly decreasing weight with %d parts"
                                 % (lead, nv))
    return _runs(dens.blocks[0][3], lead)


@lru_cache(maxsize=64)
def _runs(tpow, lead):
    blocks, first = [], 0
    for _, run in groupby(lead):
        size = len(tuple(run))
        blocks.append(("A", first, size, tpow))
        first += size
    return tuple(blocks), factorial(len(lead)) // prod(factorial(b[2]) for b in blocks)


def _weyl_group(kind, size):
    """|W| and the degrees of the Weyl group of one block: S_n, W(D_n) or W(B_n).

    For a "B" block the degrees 1, ..., n are those of the t-part of
    W(t; ab); ``_weyl_factor`` adds its ab-part.
    """
    if kind == "A":
        return factorial(size), range(1, size + 1)
    if kind == "B":
        return 2 ** size * factorial(size), range(1, size + 1)
    return 2 ** (size - 1) * factorial(size), [*range(2, 2 * size - 1, 2), size]


@lru_cache(maxsize=64)
def _weyl_factor(blocks, order):
    """prod over blocks of |W|/W(t) = |W| prod_d (1-t)/(1-t^d), d the degrees.

    A block with tpow None has t = 0, where W(0) = 1.  A "B" block's W(t; ab)
    also has the factors 1 - ab t^i for i < n.
    """
    num, den, scale = [], [], 1
    for kind, _, size, tpow, *ab in blocks:
        count, degrees = _weyl_group(kind, size)
        scale *= count
        if tpow is not None:
            num += [(1, tpow)] * len(degrees)
            den += [(1, tpow * d) for d in degrees]
        den += [(sign, spow + tpow * i) for sign, spow in ab for i in range(size)]
    return binomial_ratio(num, den, order, scale)


def _dominant(blocks, nv):
    """The map from an exponent on ``nv`` variables to the point of its
    orbit under the blocks' Weyl groups in their closed dominant chamber,
    per block e_1 >= ... >= e_n, and e_n >= 0 for "B", e_(n-1) >= |e_n|
    for "D" (Humphreys, Reflection Groups and Coxeter Groups, 1990, 1.12):
    "A" sorts the entries decreasing, "B" their absolute values, and "D"
    too, negating the last when no entry is 0 and an odd number are
    negative (W(D_n) changes an even number of signs; on one variable it
    is trivial, and so is the map).
    """
    spans = [(kind, slice(first, first + size)) for kind, first, size, *_ in blocks]

    def dominant(e):
        e = list(e)
        for kind, span in spans:
            part = e[span]
            if kind == "A":
                part.sort(reverse=True)
            else:
                odd = kind == "D" and prod(part) < 0  # no 0 and an odd number negative
                part = sorted(map(abs, part), reverse=True)
                if odd:
                    part[-1] = -part[-1]
            e[span] = part
        return tuple(e)

    return dominant


def _stabilizer_order(blocks, e):
    """|Stab e| in the blocks' Weyl groups for a dominant e: generated by the
    simple reflections that fix e (Humphreys 1.12), it is per block S_m on
    each run of m equal entries (equal absolute values in "B" or "D") and
    W(B_z) or W(D_z) on z zeros.  At e = 0 it is |W|.
    """
    out = 1
    for kind, first, size, *_ in blocks:
        part = e[first:first + size]
        for x, run in groupby(part if kind == "A" else map(abs, part)):
            m = len(tuple(run))
            out *= _weyl_group(kind if x == 0 else "A", m)[0]
    return out


def _block_symmetric(blocks, terms):
    """Whether the terms are invariant under the Weyl groups W of ``blocks``:
    the terms with one dominant point (``_dominant``) must share one
    coefficient and number |W| / |Stab|, the whole orbit.  Coefficients are
    compared, not just the exponent support."""
    if not terms:
        return True
    nv = len(next(iter(terms)))
    dominant, orbits = _dominant(blocks, nv), {}
    for e, c in terms.items():
        seen = orbits.setdefault(dominant(e), [c, 0])
        if seen[0] != c:
            return False
        seen[1] += 1
    group = _stabilizer_order(blocks, (0,) * nv)
    return all(count * _stabilizer_order(blocks, y) == group for y, (_, count) in orbits.items())
