"""Exact truncated series in the small parameters s (= sqrt t), alpha, beta.

This is the coefficient ring for the whole package.  Elements are formal
series over exact rationals, graded by total degree in (s, alpha, beta) and
truncated at a fixed order D.  t never appears directly: it is stored as
s**2 so that sqrt(t) is an honest monomial, and q is identically zero and
never represented.

Coefficients are Python ints wherever possible and ``fractions.Fraction``
otherwise; arithmetic never rounds.

Every product of coefficient dicts goes through :func:`mul_into`, which
accumulates into a plain dict in place.  Callers that sum many products,
such as the torus products of ``LaurentPoly`` and the constant-term
convolution, keep one raw dict per result instead of building and adding a
series per term pair.  ``LaurentPoly`` terms are such dicts; a scalar
result is wrapped in a ``ParamSeries`` once.  The density expansion, whose
coefficients are integer series in s alone, holds each one as a single
integer instead (:func:`pack`, :func:`unpack`), so its products are
integer products, and so does the orbit-by-orbit convolution of
``hltorus.densities``.  The one division, by a binomial 1 - c x^k with c
of positive degree, is the exact recurrence of :func:`divide_binomial`,
walked chain by chain for the density's line series and the closed forms
alike, and every closed form in the binomials 1 +- s^k is the one
quotient :func:`binomial_ratio`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import ConfigurationError, DomainError

ZERO_KEY = (0, 0, 0)

_PARAM_NAMES = ("s", "a", "b")


def mul_into(dst, a, b, cap):
    """Add the product of the coefficient dicts ``a`` and ``b`` into ``dst``.

    The dicts map (e_s, e_alpha, e_beta) to nonzero coefficients.  Terms of
    total degree above ``cap`` are skipped, and an entry of ``dst`` that
    cancels to zero is deleted, so ``dst`` keeps only nonzero values.  This
    is the product loop of the package's coefficient dicts: series
    products, the torus products of ``LaurentPoly``, the class table and
    the slot DP of ``hall_littlewood`` and the constant-term convolution all
    accumulate through it.  The density expansion multiplies packed integers
    (``pack``) instead, and so does the convolution within one orbit.
    """
    if len(a) > len(b):
        a, b = b, a
    bitems = list(b.items())
    get = dst.get
    for (s1, a1, b1), c1 in a.items():
        room = cap - s1 - a1 - b1
        for (s2, a2, b2), c2 in bitems:
            if s2 + a2 + b2 > room:
                continue
            k = (s1 + s2, a1 + a2, b1 + b2)
            v = get(k, 0) + c1 * c2
            if v:
                dst[k] = v
            elif k in dst:
                del dst[k]


def pack_width(groups, order):
    """The digit width at which ``pack`` holds, through s-degree ``order``,
    every sum of products of one coefficient from each of the first groups,
    a group being coefficient dicts.

    Such a sum at s^k is at most the s^k coefficient of the product of
    those groups' absolute series, sum |c| s^j over their terms, so the bit
    length of the largest one through ``order``, over every prefix, plus 2
    bits holds it with room to spare.  A term that does not pack raises
    ``ConfigurationError`` (``absolute_series``).
    """
    bound, most = [1] + [0] * order, 1
    for group in groups:
        line = absolute_series(group, order)
        bound = [sum(bound[i] * line[k - i] for i in range(k + 1)) for k in range(order + 1)]
        most = max(most, *bound)
    return most.bit_length() + 2


def absolute_series(group, order):
    """The sum over the coefficient dicts of ``group`` of their absolute
    series, as the list of its s^k coefficients through ``order``.  Only
    series in s alone with int coefficients pack: any other term raises
    ``ConfigurationError``.
    """
    line = [0] * (order + 1)
    for coeffs in group:
        for (k, a, b), c in coeffs.items():
            if a or b or not isinstance(c, int):
                raise ConfigurationError("term %r * %r is not an integer multiple of a"
                                         " power of s" % (c, (k, a, b)))
            if k <= order:
                line[k] += abs(c)
    return line


def pack(coeffs, width):
    """A coefficient dict in s alone as one integer, by Kronecker substitution.

    The coefficient c of s^k becomes the digit c 2^(width k) of a balanced
    base-2^width number (Schonhage, EUROCAM 1982), so a product of series
    is one integer product, exact while every digit stays below 2^(width -
    1) in absolute value, as at a ``pack_width``.
    """
    return sum(c << width * k for (k, _, _), c in coeffs.items())


def unpack(value, width):
    """The coefficient dict of a packed series: ``pack``'s inverse."""
    out = {}
    half, mask = 1 << (width - 1), (1 << width) - 1
    k = 0
    while value:
        digit = ((value + half) & mask) - half
        if digit:
            out[(k, 0, 0)] = digit
        value = (value - digit) >> width
        k += 1
    return out


def divide_binomial(coeffs, step, sign, cap):
    """``coeffs`` divided by 1 - sign * x^step, through total degree ``cap``.

    Keys and ``step`` are exponent tuples ending in the (s, alpha, beta)
    degrees, which alone count for the degree; any entries before them are
    torus exponents.  The step needs positive degree, and then the quotient
    is exact by the recurrence out[k] = coeffs[k] + sign * out[k - step],
    walked up each chain k, k + step, ... from its lowest key to the cap:
    one step per key walked.  Every division of the package, the line
    series of ``hltorus.densities`` and the t-analogs of
    :func:`binomial_ratio`, takes this one walk.
    """
    lift = sum(step[-3:])
    if lift < 1:
        raise DomainError("a geometric factor needs positive parameter degree")
    out = {}
    walked = set()
    for k in sorted(coeffs, key=lambda k: sum(k[-3:])):
        if k in walked:
            continue
        v, deg = 0, sum(k[-3:])
        while deg <= cap:
            walked.add(k)
            v = coeffs.get(k, 0) + sign * v
            if v:
                out[k] = v
            k, deg = tuple(map(add, k, step)), deg + lift
    return out


def binomial_ratio(num, den, order, scale=1):
    """``scale`` * prod_num (1 - sign s^k) / prod_den (1 - sign s^k) through ``order``.

    ``num`` and ``den`` list (sign, k) factors.  Factors common to both
    cancel first; the rest of the numerator is multiplied out through
    ``mul_into`` and each denominator factor divided out by
    ``divide_binomial``, so the coefficients stay integers until ``scale``
    is applied, once, at the end.  A factor with k = 0 is the constant
    1 - sign and goes into the scale.
    """
    den = list(den)
    rest = []
    for factor in num:
        if factor in den:
            den.remove(factor)
        else:
            rest.append(factor)
    if any(k < 0 for _, k in rest + den):
        raise DomainError("a factor 1 - c s^k needs k >= 0")
    coeffs = {ZERO_KEY: 1}
    for sign, k in rest:
        if k:
            out = {}
            mul_into(out, coeffs, {ZERO_KEY: 1, (k, 0, 0): -sign}, order)
            coeffs = out
        else:
            scale *= 1 - sign
    for sign, k in den:
        if k:
            coeffs = divide_binomial(coeffs, (k, 0, 0), sign, order)
        elif sign == 1:
            raise DomainError("division by 1 - s^0 = 0")
        else:
            scale = Fraction(scale, 2)
    if scale != 1:
        coeffs = {key: c * scale for key, c in coeffs.items()} if scale else {}
    return ParamSeries(coeffs, order, clean=False)


def _cleaned(coeffs, trunc):
    return {
        k: c
        for k, c in coeffs.items()
        if c and k[0] + k[1] + k[2] <= trunc
    }


class ParamSeries:
    """A truncated graded series in (s, alpha, beta).

    ``coeffs`` maps exponent triples to nonzero exact rationals; every key
    has total degree <= ``trunc``.  Instances are immutable by convention
    and safe to share across threads.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc, clean=True):
        self.coeffs = _cleaned(coeffs, trunc) if clean else coeffs
        self.trunc = trunc

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def min_total_degree(self):
        """Lowest total degree with a nonzero coefficient, or None if zero."""
        if not self.coeffs:
            return None
        return min(k[0] + k[1] + k[2] for k in self.coeffs)

    def sorted_items(self):
        return sorted(
            self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0])
        )

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if self.trunc != other.trunc:
            raise ConfigurationError(
                "truncation orders differ: %d vs %d" % (self.trunc, other.trunc)
            )

    def __add__(self, other):
        if not isinstance(other, ParamSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _const(other, self.trunc)
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return ParamSeries(out, self.trunc, clean=False)

    def __neg__(self):
        return ParamSeries(
            {k: -c for k, c in self.coeffs.items()}, self.trunc, clean=False
        )

    def __sub__(self, other):
        if not isinstance(other, ParamSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _const(other, self.trunc)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ParamSeries):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return ParamSeries({}, self.trunc, clean=False)
            return ParamSeries(
                {k: c * other for k, c in self.coeffs.items()},
                self.trunc,
                clean=False,
            )
        self._check(other)
        out = {}
        mul_into(out, self.coeffs, other.coeffs, self.trunc)
        return ParamSeries(out, self.trunc, clean=False)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise DomainError("series powers must be nonnegative integers")
        result = _const(1, self.trunc)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, ParamSeries):
            return self.trunc == other.trunc and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return self.coeffs == {ZERO_KEY: other}
        return NotImplemented

    __hash__ = None

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for key, c in self.sorted_items():
            mono = "".join(
                "%s^%d" % (_PARAM_NAMES[i], e) if e > 1 else _PARAM_NAMES[i]
                for i, e in enumerate(key)
                if e
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (c, mono))
        text = " + ".join(bits).replace("+ -", "- ")
        return text


def _const(c, trunc):
    return ParamSeries({ZERO_KEY: c} if c else {}, trunc, clean=False)


class SeriesRing:
    """Factory handle for a fixed truncation order."""

    __slots__ = ("trunc",)

    def __init__(self, trunc):
        if trunc < 0:
            raise ConfigurationError("truncation order must be nonnegative")
        self.trunc = trunc

    def zero(self):
        return ParamSeries({}, self.trunc, clean=False)

    def one(self):
        return _const(1, self.trunc)

    def const(self, c):
        return _const(c, self.trunc)

    def monomial(self, es=0, ea=0, eb=0, coeff=1):
        return ParamSeries({(es, ea, eb): coeff}, self.trunc)

    def s(self, power=1):
        return self.monomial(es=power)

    def t(self, power=1):
        return self.monomial(es=2 * power)

    def alpha(self, power=1):
        return self.monomial(ea=power)
