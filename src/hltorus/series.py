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
such as the torus products of ``LaurentPoly``, the chamber product of
``hltorus.densities`` and the constant-term convolution, keep one raw dict per result and wrap it in a ``ParamSeries``
once, instead of building and adding a series per term pair.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigurationError, DomainError

ZERO_KEY = (0, 0, 0)

_PARAM_NAMES = ("s", "a", "b")


def mul_into(dst, a, b, cap):
    """Add the product of the coefficient dicts ``a`` and ``b`` into ``dst``.

    The dicts map (e_s, e_alpha, e_beta) to nonzero coefficients.  Terms of
    total degree above ``cap`` are skipped, and an entry of ``dst`` that
    cancels to zero is deleted, so ``dst`` keeps only nonzero values.  This
    is the one product loop of the package: series products, the torus
    products of ``LaurentPoly`` and ``chamber_product``, the branching rule of ``hall_littlewood``,
    every step of the density expansion and the constant-term convolution
    all accumulate through it.
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

    def geometric(self, es=0, ea=0, eb=0, sign=1):
        """1/(1 - sign * s^es a^ea b^eb) as a truncated geometric series.

        The monomial must carry positive total degree; that is the
        expandability certificate for every denominator in the package.
        """
        deg = es + ea + eb
        if deg < 1:
            raise DomainError("geometric factor needs positive parameter degree")
        out = {}
        k = 0
        while k * deg <= self.trunc:
            out[(k * es, k * ea, k * eb)] = 1 if (sign > 0 or k % 2 == 0) else -1
            k += 1
        return ParamSeries(out, self.trunc, clean=False)
