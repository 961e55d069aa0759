"""Hall-Littlewood polynomials evaluated at lists of signed monomials.

P_lambda is built from its coefficients in the monomial symmetric
functions, P_lambda = sum_mu c_{lambda mu}(t) m_mu over the partitions
mu <= lambda in dominance (``ClassTable``), with each m_mu formed at the
slots by one DP (``_monomials``).  The coefficients follow from Macdonald's
branching rule (Symmetric Functions and Hall Polynomials, III (5.11')),
which needs no division:

    P_lambda(y_1..y_N) = sum_mu psi_{lambda/mu}(t) y_N^{|lambda|-|mu|} P_mu(y_1..y_{N-1})

over the mu with lambda/mu a horizontal strip, where
psi_{lambda/mu}(t) = prod_{j in J} (1 - t^{m_j(mu)}) and J is the set of
j >= 1 with theta'_j = 0 and theta'_{j+1} = 1 for theta = lambda - mu.
So the coefficient of y^mu, mu sorted decreasing, is the sum over the
strips lambda/nu of size mu_N of psi_{lambda/nu}(t) c_{nu, (mu_1, ...,
mu_{N-1})}, since the last slot takes the least part.  A row of the table
holds one entry per class mu.  A weight whose last part h is nonzero is
shifted to end in 0: P_lambda = (y_1 ... y_N)^h P_{lambda - h}, and
(y_1 ... y_N)^h m_mu = m_{mu + h} on N slots, so the DP places the parts of
mu + h.  Coefficients are the package's (e_s, e_alpha, e_beta)-keyed dicts,
with e_alpha = e_beta = 0, and every product of them goes through
``series.mul_into``.

The class coefficients also integrate P_lambda against t-Selberg densities,
the weights of the Hall-Littlewood inner product, with neither factor
formed (``selberg_average``; Macdonald, SFHP III (2.2)): the moments
<m_mu>/<1> follow from the orthogonality <P_nu> = 0, nu != 0, by a
triangular solve over the dominance interval.

Argument slots are signed torus monomials optionally scaled by a power of
s, which covers x_i, x_i^{-1}, +-1 and t^{+-1/2} z_i (after the caller
rescales the torus variable so that no negative s-powers appear).  Every
term then has nonnegative s-degree, so truncating at the working order
along the way is exact, and the coefficients stay integers.
"""

from __future__ import annotations

from itertools import product
from math import inf
from typing import NamedTuple, Tuple

from .errors import ConfigurationError, DomainError, ResourceLimitError
from .laurent import LaurentPoly
from .series import ZERO_KEY, ParamSeries, mul_into


class Mono(NamedTuple):
    """A signed torus monomial scaled by s**spow."""

    sign: int
    spow: int
    exps: Tuple[int, ...]


def var_arg(nvars, i, power=1, spow=0) -> Mono:
    exps = [0] * nvars
    exps[i] = power
    return Mono(1, spow, tuple(exps))


def const_arg(nvars, sign) -> Mono:
    return Mono(sign, 0, (0,) * nvars)


def pm_args(nvars) -> Tuple[Mono, ...]:
    """The slot list x_1, x_1^{-1}, ..., x_n, x_n^{-1}."""
    out = []
    for i in range(nvars):
        out.append(var_arg(nvars, i, 1))
        out.append(var_arg(nvars, i, -1))
    return tuple(out)


def _strip_multiplicities(lam, mu):
    """m_j(mu) for each j in J, the set of psi_{lam/mu}, for the horizontal strip lam/mu.

    Row i of the strip covers the columns mu_i < j <= lam_i (mu_N = 0), and
    each row's columns lie left of the row above's.  So j is in J when a
    nonempty row starts right of it, j = mu_i >= 1, and the nearest nonempty
    row below does not end at j.
    """
    out, reach = [], 0
    for lo, hi in zip(reversed(mu + (0,)), reversed(lam)):
        if lo < hi:
            if lo and lo != reach:
                out.append(mu.count(lo))
            reach = hi
    return out


class ClassTable:
    """The class coefficients c_{lam mu}(t) of P_lam, t = s^tbase, through ``order``.

    ``row(lam)``, for a partition lam padded with zeros to its number of
    variables, maps each partition mu <= lam of the same size and length to
    c_{lam mu}, an (e_s, 0, 0)-keyed dict; c_{lam lam} = 1.  ``row(lam,
    floor)`` keeps only the mu whose parts are all at least ``floor``: for a
    strip lam/nu of size r the branching rule reads the row of nu at the
    floor r, as the last slot takes the least part (see the module
    docstring).  Rows are kept per (lam, floor) and each distinct psi, a
    product over the multiset of its m_j, once, so every row that reaches a
    strip shares them.  A table lives for one caller's computation: its
    entries count toward ``limit``, and a row that takes the count past it
    raises ``ResourceLimitError``.
    """

    __slots__ = ("order", "tbase", "limit", "size", "_rows", "_psis")

    def __init__(self, order, tbase=2, limit=None):
        if order < 0:
            raise ConfigurationError("truncation order must be nonnegative")
        self.order, self.tbase, self.limit = order, tbase, limit
        self.size = 0
        self._rows = {}
        self._psis = {(): {ZERO_KEY: 1}}

    def _psi(self, ms):
        hit = self._psis.get(ms)
        if hit is None:
            hit = self._psis[ms] = {}
            mul_into(hit, self._psi(ms[:-1]), {ZERO_KEY: 1, (self.tbase * ms[-1], 0, 0): -1},
                     self.order)
        return hit

    def row(self, lam, floor=0):
        if not lam:
            return {(): {ZERO_KEY: 1}}
        hit = self._rows.get((lam, floor))
        if hit is not None:
            return hit
        k, size = len(lam), sum(lam)
        acc = {}
        for nu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(k - 1))):
            rest = sum(nu)
            last = size - rest
            # the row of nu at the floor ``last`` is empty below this size
            if last < floor or rest < last * (k - 1):
                continue
            factor = self._psi(tuple(sorted(_strip_multiplicities(lam, nu))))
            for mu, c in self.row(nu, last).items():
                mul_into(acc.setdefault(mu + (last,), {}), c, factor, self.order)
        acc = {mu: c for mu, c in acc.items() if c}
        self.size += len(acc)
        if self.limit is not None and self.size > self.limit:
            raise ResourceLimitError("class table exceeded %d terms" % self.limit)
        self._rows[lam, floor] = acc
        return acc


def selberg_average(weight, slots, blocks, tbase, order, limit=None):
    """s^p <P_weight(slots; t)> / <1> against t-Selberg densities on ``blocks``.

    ``blocks`` are ("A", first, size, tpow) tuples over consecutive
    variables, each the density prod_{i != j} (1-x_i/x_j)/(1-t x_i/x_j) in t
    = s^tpow, so <f>/<1> is a product of Hall-Littlewood inner products.
    Each slot is s^q x_v for a variable x_v of the blocks, and the variables
    of a block carry the same s-powers; P is in t = s^tbase.  With h the
    last part of the weight, P_weight = (prod of the slots)^h sum_nu
    c_{weight-h, nu} m_nu at the slots (``ClassTable``); m_nu at the slots
    is expanded over the blocks' classes by ``_at_slots``, where each class
    integrates to its moment (``_moment``), and the torus part x^h of each
    slot shifts its variable.  The s-power of (prod of the slots)^h is left
    out: the result is s^p times the average, p = -h times the sum of the
    slots' s-powers when h < 0, else 0, so no negative s-power is formed.
    A weight of nonzero size gives zero, as P at the slots is homogeneous of
    that degree and the density of degree 0; so h > 0 gives zero.  The
    tables, one per t-base, each with ``limit`` entries, and the moments
    live for this call, so the limit counts the same entries on every call.
    """
    if order < 0:
        raise ConfigurationError("truncation order must be nonnegative")
    if sum(weight):
        return ParamSeries({}, order, clean=False)
    powers = [()] * sum(size for _, _, size, _ in blocks)
    for y in slots:
        powers[y.exps.index(1)] += (y.spow,)
    tables, moments, fills = {}, {}, {}

    def table(tb):
        if tb not in tables:
            tables[tb], moments[tb] = ClassTable(order, tb, limit), {}
        return tables[tb]

    def moment(tb, kappa):
        return _moment(table(tb), kappa, moments[tb])

    h = weight[-1]
    total = {}
    for nu, c in table(tbase).row(tuple(p - h for p in weight)).items():
        mul_into(total, c, _at_slots(nu, blocks, powers, h, moment, fills, order), order)
    return ParamSeries(total, order, clean=False)


def _at_slots(nu, blocks, powers, shift, moment, fills, order):
    """<m_nu(slots) x^(shift per slot)> / <1> over the blocks.

    ``powers`` lists the s-powers of each variable's slots, and ``moment``
    maps a block's t-base and sorted exponents to ``_moment``.  A DP over
    the blocks: a state is the multiset of parts of nu not yet placed, a
    partition, with its coefficient.  Within a block the paths from one
    state run over its variables, keyed by the parts left and the exponents
    so far, with their count per s-power.  A variable takes one part per
    slot (``_fills``, kept in ``fills`` for every nu of a call), and its
    exponent, their sum, may not exceed the one before it in the block, so
    that each class of the block is reached at its sorted exponents alone.
    In the last block no part left may exceed the exponent just placed, as a
    later variable could not take it.  At the end of a block its exponents
    kappa integrate to their moment, zero unless they sum to zero once
    shifted.
    """
    states = {nu: {ZERO_KEY: 1}}
    for _, first, size, tpow in blocks:
        last_block = first + size == len(powers)
        new = {}
        for start, coeff in states.items():
            paths = {(start, ()): {0: 1}}
            for v in range(first, first + size):
                step = {}
                for (left, kappa), counts in paths.items():
                    bound = kappa[-1] if kappa else inf
                    key = (left, powers[v])
                    if key not in fills:
                        fills[key] = list(_fills(left, powers[v]))
                    for rest, e, spow in fills[key]:
                        if e > bound or spow > order or last_block and rest and rest[0] > e:
                            continue
                        dst = step.setdefault((rest, kappa + (e,)), {})
                        for p, n in counts.items():
                            if p + spow <= order:
                                dst[p + spow] = dst.get(p + spow, 0) + n
                paths = step
            for (left, kappa), counts in paths.items():
                if sum(kappa) + shift * sum(map(len, powers[first:first + size])):
                    continue
                weight = {}
                mul_into(weight, {(p, 0, 0): n for p, n in counts.items()}, moment(tpow, kappa),
                         order)
                mul_into(new.setdefault(left, {}), coeff, weight, order)
        states = {left: c for left, c in new.items() if c}
    return states.get((), {})


def _fills(left, spows):
    """Each way to give the slots with s-powers ``spows`` one part each.

    Yields (parts left, sum of the parts, sum of part times s-power) over
    the ordered choices of distinct values from the partition ``left``.
    """
    if not spows:
        yield left, 0, 0
        return
    for i, x in enumerate(left):
        if not i or left[i - 1] != x:
            for out, e, spow in _fills(left[:i] + left[i + 1:], spows[1:]):
                yield out, e + x, spow + spows[0] * x


def _moment(table, mu, solved):
    """<m_{mu-j}> / <1> in len(mu) variables, |mu| = j len(mu), in the table's t.

    <f> integrates against the t-Selberg density.  With b_mu this ratio,
    b_(j^N) = 1, and sum_{rho <= nu} c_{nu rho} b_rho = <P_{nu-j}>/<1> = 0 for
    every other nu of size jN by orthogonality (Macdonald, SFHP III (2.2),
    (5.11')), so b is solved upward through the row of mu in lexicographic
    order, which extends dominance: the row of each nu it meets lies in the
    row of mu below nu.  b depends on mu - mu_N alone, the key of ``solved``;
    the empty mu, a block of no variables, has b = 1.
    """
    def key(nu):
        return tuple(p - nu[-1] for p in nu) if nu else ()

    top = key(mu)
    if top not in solved:
        for nu in map(key, sorted(table.row(top))):
            if nu in solved:
                continue
            acc = {}
            for rho, c in table.row(nu).items():
                if rho != nu:
                    mul_into(acc, c, solved[key(rho)], table.order)
            solved[nu] = {e: -x for e, x in acc.items()} if any(nu) else {ZERO_KEY: 1}
    return solved[top]


_CACHE = {}


def clear_caches():
    _CACHE.clear()


def hl_full(weight, args, var_names, order, tbase=2):
    """P_lambda(args; t) as a LaurentPoly, exact through the given order.

    ``weight`` is a weakly decreasing integer tuple with one entry per
    argument slot; ``args`` are Mono slots; ``tbase`` is the s-exponent of
    the Hall-Littlewood parameter (2 for t, 4 for t^2).
    """
    if order < 0:
        raise ConfigurationError("truncation order must be nonnegative")
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

    shift = weight[-1] if weight else 0
    row = ClassTable(order, tbase).row(tuple(w - shift for w in weight))
    result = LaurentPoly(var_names, _monomials(row, shift, args, len(var_names), order), order)
    _CACHE[key] = result
    return result


def _monomials(row, shift, args, nvars, order):
    """sum_mu row[mu] m_{mu + shift}(args), as exponent tuple -> coefficient dict.

    A DP over the slots: a state is the multiset of parts not yet placed, a
    tuple sorted decreasing, with the exponents so far, and maps to its
    coefficient.  Each slot y takes one distinct part x left, which moves
    the exponents by x y.exps and multiplies the coefficient by
    y.sign^x s^(y.spow x); x % 2 is the parity of a negative x too.  States
    of every mu start at once, so equal exponents merge as soon as the
    parts left agree.  A failed allocation empties the states before it
    propagates.
    """
    states = {(tuple(p + shift for p in mu), (0,) * nvars): c for mu, c in row.items()}
    step = {}
    try:
        for y in args:
            step = {}
            for (left, exps), coeff in states.items():
                for i, x in enumerate(left):
                    spow = y.spow * x
                    if i and left[i - 1] == x or spow > order:
                        continue
                    key = (left[:i] + left[i + 1:], tuple(e + x * d for e, d in zip(exps, y.exps)))
                    mul_into(step.setdefault(key, {}), coeff,
                             {(spow, 0, 0): -1 if y.sign < 0 and x % 2 else 1}, order)
            states = step
    except MemoryError:
        # under a memory ceiling the handlers further up need room: without
        # this, a process could spin at the ceiling instead of reporting it
        states.clear()
        step.clear()
        raise
    return {exps: c for (_, exps), c in states.items() if c}
