"""Multivariate Laurent polynomials in the torus variables.

Exponents may be negative; coefficients live in the truncated parameter
ring, stored as the raw (e_s, e_alpha, e_beta)-keyed dicts that
:func:`~hltorus.series.mul_into` reads.  The representation is sparse in
the torus variables and dense in the parameters, matching how the
integrands in this package actually look.
"""

from __future__ import annotations

from operator import add

from .errors import ConfigurationError
from .series import ZERO_KEY, ParamSeries, mul_into


class LaurentPoly:
    """Sparse Laurent polynomial whose terms map exponents to coefficient dicts.

    ``terms`` maps exponent tuples to {(e_s, e_alpha, e_beta): c} dicts,
    the layout of :func:`~hltorus.series.mul_into`.  Every producer keeps
    the invariant: no dict is empty, no key has total degree above
    ``trunc``, and no value is zero.  Wrap one term as
    ``ParamSeries(c, trunc, clean=False)`` for ring arithmetic on it.

    A polynomial is immutable once built: no code changes ``vars``,
    ``terms`` or a coefficient dict afterwards, and every operation returns
    a new polynomial.  ``_memo`` relies on that.  It starts as None and is
    filled lazily by :func:`~hltorus.densities.ct_integrate` with what it
    reads off the terms alone (their exponent range and the Weyl-group
    guard's verdicts), so a cached polynomial integrated many times is
    ranged and checked once.
    """

    __slots__ = ("vars", "terms", "trunc", "_memo")

    def __init__(self, vars, terms, trunc):
        self.vars = tuple(vars)
        self.terms = terms
        self.trunc = trunc
        self._memo = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, vars, trunc):
        if trunc < 0:
            raise ConfigurationError("truncation order must be nonnegative")
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): {ZERO_KEY: 1}}, trunc)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ConfigurationError(
                "variable lists differ: %r vs %r" % (self.vars, other.vars)
            )
        if self.trunc != other.trunc:
            raise ConfigurationError("truncation orders differ")

    def __mul__(self, other):
        """Product with another polynomial.

        The coefficient dicts of every term pair are accumulated in place,
        one dict per torus exponent, through
        :func:`~hltorus.series.mul_into`; exponents whose coefficients
        cancel are dropped.
        """
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
        D = self.trunc
        raw = {}
        for ea, ca in a.items():
            for eb, cb in bitems:
                key = tuple(map(add, ea, eb))
                dst = raw.get(key)
                if dst is None:
                    dst = raw[key] = {}
                mul_into(dst, ca, cb, D)
        return LaurentPoly(self.vars, {e: c for e, c in raw.items() if c}, D)

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
            mono = "*".join(
                "%s^%d" % (v, k) if k != 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            coeff = repr(ParamSeries(self.terms[e], self.trunc, clean=False))
            if " " in coeff or "+" in coeff:
                coeff = "(%s)" % coeff
            bits.append("%s*%s" % (coeff, mono) if mono else coeff)
        return " + ".join(bits)
