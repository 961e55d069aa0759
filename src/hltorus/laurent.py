"""Multivariate Laurent polynomials in the torus variables.

Exponents may be negative; coefficients live in the truncated parameter
ring (:class:`~hltorus.series.ParamSeries`).  The representation is sparse
in the torus variables and dense in the parameters, matching how the
integrands in this package actually look.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import ConfigurationError
from .series import ParamSeries, SeriesRing, mul_into


class LaurentPoly:
    """Sparse Laurent polynomial with ParamSeries coefficients.

    A polynomial is immutable once built: no code changes ``vars``,
    ``terms`` or a coefficient afterwards, and every operation returns a
    new polynomial.  ``_memo`` relies on that.  It starts as None and is
    filled lazily by :func:`~hltorus.densities.ct_integrate` and
    :func:`~hltorus.densities.chamber_product` with what they read off the
    terms alone (their exponent range and the Weyl-group
    guard's verdicts), so a cached polynomial integrated many times is
    ranged and checked once.
    """

    __slots__ = ("vars", "terms", "trunc", "_memo")

    def __init__(self, vars, terms, trunc, clean=True):
        self.vars = tuple(vars)
        if clean:
            terms = {tuple(e): c for e, c in terms.items() if not c.is_zero()}
        self.terms = terms
        self.trunc = trunc
        self._memo = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars, trunc):
        return cls(vars, {}, trunc, clean=False)

    @classmethod
    def unit(cls, vars, trunc):
        one = SeriesRing(trunc).one()
        return cls(vars, {(0,) * len(tuple(vars)): one}, trunc, clean=False)

    @classmethod
    def monomial(cls, vars, exps, coeff, trunc):
        if isinstance(coeff, (int, Fraction)):
            coeff = SeriesRing(trunc).const(coeff)
        return cls(vars, {tuple(exps): coeff}, trunc)

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ConfigurationError(
                "variable lists differ: %r vs %r" % (self.vars, other.vars)
            )
        if self.trunc != other.trunc:
            raise ConfigurationError("truncation orders differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(self.vars, out, self.trunc, clean=False)

    def __neg__(self):
        return LaurentPoly(
            self.vars, {e: -c for e, c in self.terms.items()}, self.trunc, clean=False
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with a polynomial, a series or a rational scalar.

        For two polynomials, the coefficient dicts of every term pair are
        accumulated in place, one raw dict per torus exponent, through
        :func:`~hltorus.series.mul_into`; exponents whose coefficients
        cancel are dropped and each surviving dict is wrapped in a
        ``ParamSeries`` once.
        """
        if isinstance(other, (int, Fraction, ParamSeries)):
            if isinstance(other, ParamSeries) and other.trunc != self.trunc:
                raise ConfigurationError("truncation orders differ")
            out = {}
            for e, c in self.terms.items():
                p = c * other
                if not p.is_zero():
                    out[e] = p
            return LaurentPoly(self.vars, out, self.trunc, clean=False)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        bitems = [(e, c.coeffs) for e, c in b.items()]
        D = self.trunc
        raw = {}
        for ea, ca in a.items():
            ca = ca.coeffs
            for eb, cb in bitems:
                key = tuple(map(add, ea, eb))
                dst = raw.get(key)
                if dst is None:
                    dst = raw[key] = {}
                mul_into(dst, ca, cb, D)
        out = {e: ParamSeries(c, D, clean=False) for e, c in raw.items() if c}
        return LaurentPoly(self.vars, out, D, clean=False)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    __hash__ = None

    # -- display ------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                "%s^%d" % (v, k) if k != 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            coeff = repr(c)
            if " " in coeff or "+" in coeff:
                coeff = "(%s)" % coeff
            bits.append("%s*%s" % (coeff, mono) if mono else coeff)
        return " + ".join(bits)
