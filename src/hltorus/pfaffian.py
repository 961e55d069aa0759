"""Antisymmetric matrices over the parameter ring and their Pfaffians.

Includes the a-matrix and the two bordered matrix constructors whose
Pfaffians enumerate the orthogonal-component term integrals.  The registry
rows ``pfaffian_plus_even``, ``pfaffian_minus_even`` and ``pfaffian_plus_odd``
(``hltorus.identities``) check those Pfaffians against the integrals.
"""

from __future__ import annotations

from .errors import DomainError
from .series import ParamSeries, SeriesRing


class AntisymMatrix:
    """Square antisymmetric matrix; only the upper triangle is stored."""

    __slots__ = ("size", "upper", "trunc")

    def __init__(self, size, upper, trunc):
        self.size = size
        self.trunc = trunc
        self.upper = {}
        for (j, k), val in upper.items():
            if not 0 <= j < k < size:
                raise DomainError("upper entries need 0 <= j < k < size")
            if not val.is_zero():
                self.upper[(j, k)] = val

    def entry(self, j, k):
        if j == k:
            return SeriesRing(self.trunc).zero()
        if j < k:
            val = self.upper.get((j, k))
            return val if val is not None else SeriesRing(self.trunc).zero()
        val = self.upper.get((k, j))
        return -val if val is not None else SeriesRing(self.trunc).zero()


def pfaffian(a: AntisymMatrix) -> ParamSeries:
    """Pfaffian by recursive expansion along the first active row."""
    if a.size % 2:
        raise DomainError("Pfaffian needs even size")
    ring = SeriesRing(a.trunc)
    memo = {}

    def rec(idx):
        if not idx:
            return ring.one()
        hit = memo.get(idx)
        if hit is not None:
            return hit
        first = idx[0]
        rest = idx[1:]
        total = ring.zero()
        for pos, k in enumerate(rest):
            e = a.entry(first, k)
            if e.is_zero():
                continue
            sub = rest[:pos] + rest[pos + 1:]
            term = e * rec(sub)
            total = total + (term if pos % 2 == 0 else -term)
        memo[idx] = total
        return total

    return rec(tuple(range(a.size)))


# ---------------------------------------------------------------------------
# the term-integral matrices for the orthogonal components
# ---------------------------------------------------------------------------


def _a_entries(lam, trunc, offset):
    """The a-matrix entries of lam, with rows and columns shifted by offset.

    Entry (j, k) is 1 + alpha^2 when (lambda_j - j) - (lambda_k - k) is odd
    and -2 alpha when it is even.
    """
    ring = SeriesRing(trunc)
    odd_entry = ring.one() + ring.alpha(2)
    even_entry = ring.alpha() * (-2)
    upper = {}
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            diff = (lam[j] - j) - (lam[k] - k)
            upper[(j + offset, k + offset)] = odd_entry if diff % 2 else even_entry
    return upper


def build_a_matrix(lam, trunc) -> AntisymMatrix:
    """The a-matrix of lambda (see ``_a_entries``), for an even number of parts."""
    lam = tuple(lam)
    if len(lam) % 2:
        raise DomainError("the a-matrix needs an even number of parts")
    return AntisymMatrix(len(lam), _a_entries(lam, trunc, 0), trunc)


def build_m_minus(lam, trunc) -> AntisymMatrix:
    """The bordered matrix for the minus component in even rank.

    Size 2n+2 for 2n parts: row one holds (-1)^(lambda_k - k), row two holds
    ones, and the inner block is the a-matrix.
    """
    lam = tuple(lam)
    if len(lam) % 2:
        raise DomainError("expected an even number of parts")
    ring = SeriesRing(trunc)
    size = len(lam) + 2
    upper = _a_entries(lam, trunc, 2)
    for k in range(2, size):
        sign = -1 if (lam[k - 2] - (k - 2 + 1)) % 2 else 1
        # exponent lambda_{k-2} - (k-2) with 1-based indexing of parts
        upper[(0, k)] = ring.const(sign)
        upper[(1, k)] = ring.one()
    return AntisymMatrix(size, upper, trunc)


def build_m_plus(lam, trunc) -> AntisymMatrix:
    """The bordered matrix for odd rank: a row of ones over the a-block."""
    lam = tuple(lam)
    if len(lam) % 2 == 0:
        raise DomainError("expected an odd number of parts")
    ring = SeriesRing(trunc)
    upper = _a_entries(lam, trunc, 1)
    for k in range(1, len(lam) + 1):
        upper[(0, k)] = ring.one()
    return AntisymMatrix(len(lam) + 1, upper, trunc)
