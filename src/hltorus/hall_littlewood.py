"""Hall-Littlewood polynomials evaluated at lists of signed monomials.

P_lambda is built by Macdonald's branching rule (Symmetric Functions and
Hall Polynomials, III (5.11')), which needs no division:

    P_lambda(y_1..y_N) = sum_mu psi_{lambda/mu}(t) y_N^{|lambda|-|mu|} P_mu(y_1..y_{N-1})

over the mu with lambda/mu a horizontal strip, where
psi_{lambda/mu}(t) = prod_{j in J} (1 - t^{m_j(mu)}) and J is the set of
j >= 1 with theta'_j = 0 and theta'_{j+1} = 1 for theta = lambda - mu.
The recursion is memoized on mu (whose length is the number of slots it
uses) within one call.  A weight whose last part is nonzero is shifted to
end in 0: P_lambda = (y_1 ... y_N)^{lambda_N} P_{lambda - lambda_N}, and the
recursion starts from that monomial in place of P_() = 1.  Coefficients are
the package's (e_s, e_alpha, e_beta)-keyed dicts, with e_alpha = e_beta = 0,
and every product of them goes through ``series.mul_into``.

Argument slots are signed torus monomials optionally scaled by a power of
s, which covers x_i, x_i^{-1}, +-1 and t^{+-1/2} z_i (after the caller
rescales the torus variable so that no negative s-powers appear).  Every
term then has nonnegative s-degree, so truncating at the working order
along the way is exact, and the coefficients stay integers.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple, Tuple

from .errors import DomainError
from .laurent import LaurentPoly
from .series import ZERO_KEY, mul_into


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


def _psi(lam, mu, tbase, cap, y):
    """psi_{lam/mu}(t) times the scalar y.sign * s**y.spow of the slot power y.

    lam/mu is a horizontal strip; the result is an (e_s, 0, 0)-keyed dict
    truncated at ``cap``.
    """
    cols = [0] * (lam[0] + 2)
    for hi, lo in zip(lam, mu + (0,)):
        for j in range(lo + 1, hi + 1):
            cols[j] += 1
    psi = {(y.spow, 0, 0): y.sign} if y.spow <= cap else {}
    for j in range(1, lam[0]):
        if cols[j] == 0 and cols[j + 1] == 1:
            # m_j(mu) >= 1 here: the strip row that starts at column j+1
            # has mu_i = j
            out = {}
            mul_into(out, psi, {ZERO_KEY: 1, (tbase * mu.count(j), 0, 0): -1}, cap)
            psi = out
    return psi


def _branching(lam, args, memo, cap, tbase):
    """P_lam(args) times the seed term, for a partition lam padded to len(args).

    Polynomials map exponent tuples to (e_s, 0, 0)-keyed coefficient dicts.
    ``memo`` maps each partition already built to its polynomial, and ()
    to the seed, the one-term polynomial that P_() stands for.  The
    recursion goes through the module-level name, not a closure that refers
    to itself, so the memo is freed when the caller drops it rather than
    left for the cycle collector.
    """
    hit = memo.get(lam)
    if hit is not None:
        return hit
    k = len(lam)
    size = sum(lam)
    acc = {}
    for mu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(k - 1))):
        y = _mono_pow(args[k - 1], size - sum(mu))
        factor = _psi(lam, mu, tbase, cap, y)
        if not factor:
            continue
        for exps, cd in _branching(mu, args, memo, cap, tbase).items():
            key = tuple(a + b for a, b in zip(exps, y.exps))
            mul_into(acc.setdefault(key, {}), cd, factor, cap)
    memo[lam] = acc
    return acc


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
    # the recursion is linear, so the shift by (y_1 ... y_N)^{lambda_N}
    # enters once, as the seed term
    shift = weight[-1] if weight else 0
    y = _mono_pow(
        Mono(prod(m.sign for m in args), sum(m.spow for m in args),
             tuple(sum(m.exps[i] for m in args) for i in range(nvars))),
        shift,
    )
    poly = _branching(tuple(w - shift for w in weight), args,
                      {(): {y.exps: {(y.spow, 0, 0): y.sign}}}, order, tbase)
    result = LaurentPoly(var_names, {e: cd for e, cd in poly.items() if cd}, order)
    _CACHE[key] = result
    return result
