"""Hall-Littlewood polynomials evaluated at lists of signed monomials.

P_lambda is built by Macdonald's branching rule (Symmetric Functions and
Hall Polynomials, III (5.11')), which needs no division:

    P_lambda(y_1..y_N) = sum_mu psi_{lambda/mu}(t) y_N^{|lambda|-|mu|} P_mu(y_1..y_{N-1})

over the mu with lambda/mu a horizontal strip, where
psi_{lambda/mu}(t) = prod_{j in J} (1 - t^{m_j(mu)}) and J is the set of
j >= 1 with theta'_j = 0 and theta'_{j+1} = 1 for theta = lambda - mu.
The recursion is memoized on mu (whose length is the number of slots it
uses) within one call.  A weight whose last part is nonzero is first
shifted to end in 0 by the factor (y_1 ... y_N)^{lambda_N}.

Argument slots are signed torus monomials optionally scaled by a power of
s, which covers x_i, x_i^{-1}, +-1 and t^{+-1/2} z_i (after the caller
rescales the torus variable so that no negative s-powers appear).  Every
term then has nonnegative s-degree, so truncating at the working order
along the way is exact, and the coefficients stay integers.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Tuple

from .errors import DomainError
from .laurent import LaurentPoly
from .series import ParamSeries


class Mono(NamedTuple):
    """A signed torus monomial scaled by s**spow."""

    sign: int
    spow: int
    exps: Tuple[int, ...]


def var_arg(nvars, i, power=1, sign=1, spow=0) -> Mono:
    exps = [0] * nvars
    exps[i] = power
    return Mono(sign, spow, tuple(exps))


def const_arg(nvars, sign) -> Mono:
    return Mono(sign, 0, (0,) * nvars)


def pm_args(nvars) -> Tuple[Mono, ...]:
    """The slot list x_1, x_1^{-1}, ..., x_n, x_n^{-1}."""
    out = []
    for i in range(nvars):
        out.append(var_arg(nvars, i, 1))
        out.append(var_arg(nvars, i, -1))
    return tuple(out)


def _mono_pow(m: Mono, k: int) -> Mono:
    sign = -1 if (m.sign < 0 and k % 2) else 1
    return Mono(sign, m.spow * k, tuple(e * k for e in m.exps))


# ---------------------------------------------------------------------------
# raw polynomials: dict[exps tuple] -> dict[s exponent] -> coefficient
# ---------------------------------------------------------------------------


def _psi(lam, mu, tbase, cap):
    """psi_{lam/mu}(t) as an s-polynomial, for a horizontal strip lam/mu."""
    cols = [0] * (lam[0] + 2)
    for hi, lo in zip(lam, mu + (0,)):
        for j in range(lo + 1, hi + 1):
            cols[j] += 1
    psi = {0: 1}
    for j in range(1, lam[0]):
        if cols[j] == 0 and cols[j + 1] == 1:
            # m_j(mu) >= 1 here: the strip row that starts at column j+1
            # has mu_i = j
            step = tbase * mu.count(j)
            out = dict(psi)
            for e, c in psi.items():
                if e + step <= cap:
                    out[e + step] = out.get(e + step, 0) - c
            psi = {e: c for e, c in out.items() if c}
    return psi


def _branching(lam, args, nvars, cap, tbase):
    """P_lam(args) as a raw polynomial, for a partition lam padded to len(args)."""
    memo = {(): {(0,) * nvars: {0: 1}}}

    def build(lam):
        hit = memo.get(lam)
        if hit is not None:
            return hit
        k = len(lam)
        size = sum(lam)
        acc = {}
        for mu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(k - 1))):
            y = _mono_pow(args[k - 1], size - sum(mu))
            factor = {
                e + y.spow: y.sign * c
                for e, c in _psi(lam, mu, tbase, cap).items()
                if e + y.spow <= cap
            }
            if not factor:
                continue
            for exps, sd in build(mu).items():
                key = tuple(a + b for a, b in zip(exps, y.exps))
                dst = acc.setdefault(key, {})
                for ea, ca in sd.items():
                    for eb, cb in factor.items():
                        e = ea + eb
                        if e <= cap:
                            dst[e] = dst.get(e, 0) + ca * cb
        out = {}
        for exps, sd in acc.items():
            sd = {e: c for e, c in sd.items() if c}
            if sd:
                out[exps] = sd
        memo[lam] = out
        return out

    return build(lam)


def _raw_to_laurent(poly, var_names, order):
    terms = {}
    for e, sd in poly.items():
        coeffs = {(es, 0, 0): c for es, c in sd.items() if es <= order}
        if coeffs:
            terms[e] = ParamSeries(coeffs, order, clean=False)
    return LaurentPoly(var_names, terms, order, clean=False)


_CACHE = {}


def clear_caches():
    _CACHE.clear()


def hl_full(weight, args, var_names, order, tbase=2):
    """P_lambda(args; t) as a LaurentPoly, exact through the given order.

    ``weight`` is a weakly decreasing integer tuple with one entry per
    argument slot; ``args`` are Mono slots; ``tbase`` is the s-exponent of
    the Hall-Littlewood parameter (2 for t, 4 for t^2).
    """
    weight = tuple(weight)
    args = tuple(args)
    var_names = tuple(var_names)
    if len(weight) != len(args):
        raise DomainError(
            "weight has %d parts but %d argument slots" % (len(weight), len(args))
        )
    for a, b in zip(weight, weight[1:]):
        if a < b:
            raise DomainError("weight must be weakly decreasing")
    if weight and weight[-1] < 0 and any(m.spow for m in args):
        raise DomainError(
            "negative weight parts with s-scaled slots: shift the weight first"
        )
    key = (weight, args, var_names, order, tbase)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    nvars = len(var_names)
    shift = weight[-1] if weight else 0
    poly = _branching(tuple(w - shift for w in weight), args, nvars, order, tbase)
    if shift:
        sign = 1
        for m in args:
            sign *= m.sign
        y = _mono_pow(
            Mono(sign, sum(m.spow for m in args),
                 tuple(sum(col) for col in zip(*(m.exps for m in args)))),
            shift,
        )
        poly = {
            tuple(a + b for a, b in zip(exps, y.exps)):
                {e + y.spow: y.sign * c for e, c in sd.items()}
            for exps, sd in poly.items()
        }
    result = _raw_to_laurent(poly, var_names, order)
    _CACHE[key] = result
    return result
