"""t-analog combinatorics over the truncated parameter ring.

Everything here is a polynomial in a chosen base monomial: "t" may stand
for s^2, for s (when sqrt(t) plays the role of t), or for s^4 (t^2).  All
quotients of t-factorials are produced by recurrences or explicit factored
cancellation, never by series division, so the results stay exact in the
truncated ring.
"""

from __future__ import annotations

from .errors import DomainError
from .series import ParamSeries, SeriesRing


class TComb:
    """t-combinatorics helper bound to a ring and a base s-power.

    ``base`` is the s-exponent of the monomial playing "t": 2 for t itself,
    1 for sqrt(t), 4 for t^2.
    """

    def __init__(self, ring: SeriesRing, base: int = 2):
        if base < 1:
            raise DomainError("base must be a positive s-power")
        self.ring = ring
        self.base = base
        self._binom_cache = {}

    # -- elementary building blocks ----------------------------------------

    def t_power(self, k):
        """t**k as a monomial (k >= 0)."""
        if k < 0:
            raise DomainError("negative t-powers are not ring elements")
        return self.ring.s(self.base * k)

    def one_minus_t_power(self, k):
        """1 - t**k."""
        return self.ring.one() - self.ring.monomial(es=self.base * k)

    def t_integer(self, i):
        """[i] = 1 + t + ... + t^(i-1)."""
        if i < 0:
            raise DomainError("t-integers need i >= 0")
        out = {}
        for j in range(i):
            if self.base * j <= self.ring.trunc:
                out[(self.base * j, 0, 0)] = 1
            else:
                break
        return ParamSeries(out, self.ring.trunc, clean=False)

    def t_factorial(self, m):
        acc = self.ring.one()
        for i in range(2, m + 1):
            acc = acc * self.t_integer(i)
        return acc

    def one_minus_t_pow(self, n):
        """(1-t)**n."""
        return self.one_minus_t_power(1) ** n

    # -- partition statistics ------------------------------------------------

    def v_of(self, parts, include_zeros=True):
        """Product of [m_i]! over the part values of ``parts``.

        With ``include_zeros`` the zero parts contribute; without, only the
        positive values do.  Works for dominant weights too (negative part
        values count as ordinary values).
        """
        mults = {}
        for p in parts:
            if not include_zeros and p == 0:
                continue
            mults[p] = mults.get(p, 0) + 1
        acc = self.ring.one()
        for m in mults.values():
            acc = acc * self.t_factorial(m)
        return acc

    # -- binomials and friends -------------------------------------------------

    def t_binomial(self, m, i):
        """Gaussian binomial via the Pascal recurrence (exact, no division)."""
        if i < 0 or i > m or m < 0:
            return self.ring.zero()
        if i == 0 or i == m:
            return self.ring.one()
        key = (m, i)
        hit = self._binom_cache.get(key)
        if hit is not None:
            return hit
        val = self.t_binomial(m - 1, i - 1) + self.t_power(i) * self.t_binomial(
            m - 1, i
        )
        self._binom_cache[key] = val
        return val

    def t_multinomial(self, total, mults):
        """[total]! / prod [m]!, assembled from binomials (polynomial)."""
        if sum(mults) != total:
            raise DomainError("multiplicities must sum to the total")
        acc = self.ring.one()
        rest = total
        for m in mults:
            acc = acc * self.t_binomial(rest, m)
            rest -= m
        return acc

    def rogers_szego(self, m, z: ParamSeries):
        """H_m(z;t) = sum_i z^i [m choose i]."""
        if m < 0:
            raise DomainError("Rogers-Szego index must be nonnegative")
        acc = self.ring.zero()
        zp = self.ring.one()
        for i in range(m + 1):
            acc = acc + zp * self.t_binomial(m, i)
            if i < m:
                zp = zp * z
        return acc

    # -- C-symbols at q = 0 -----------------------------------------------------

    def c_symbol(self, kind, mu, args=()):
        """The q=0 specializations of the C-symbols.

        ``kind`` is "0" or "-".  For kind "0" the arguments are signed
        s-monomials (sign, s-exponent) and the value is the product over the
        nonzero parts of mu of (1 - t^(1-i) x); exponents must stay
        nonnegative or the product is not polynomial in s.  Kind "-" is the
        principal specialization at x = t, which collapses to
        (1-t)^l(mu) v_{mu+}(t) = b_mu(t).
        """
        mu = tuple(mu)
        ell = sum(1 for p in mu if p)
        if kind == "-":
            return self.one_minus_t_pow(ell) * self.v_of(mu, include_zeros=False)
        if kind != "0":
            raise DomainError("unknown C-symbol kind %r" % (kind,))
        if isinstance(args, tuple) and args and isinstance(args[0], int):
            args = (args,)
        acc = self.ring.one()
        for sign, spow in args:
            for i in range(1, ell + 1):
                e = spow + self.base * (1 - i)
                if e < 0:
                    raise DomainError(
                        "C-symbol factor t^%d * x is not polynomial in s" % (1 - i)
                    )
                acc = acc * (self.ring.one() - self.ring.monomial(es=e, coeff=sign))
        return acc
