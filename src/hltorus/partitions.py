"""Partitions and dominant weights, with the statistics used downstream.

Zero parts are explicit and significant throughout: the stored length of a
partition is the ambient rank demanded by each identity, and the
multiplicity of zero enters all the closed-form values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DomainError


def _as_parts(parts):
    parts = tuple(int(p) for p in parts)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise DomainError("parts must be weakly decreasing: %r" % (parts,))
    return parts


class DominantWeight:
    """Weakly decreasing integer vector; negative parts allowed."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = _as_parts(parts)

    @classmethod
    def from_pair(cls, mu, nu, rank):
        """The weight (mu_1, ..., 0, ..., -nu_l) of the given rank."""
        mu = Partition(mu).stripped()
        nu = Partition(nu).stripped()
        if len(mu) + len(nu) > rank:
            raise DomainError("mu and nu do not fit in rank %d" % rank)
        middle = (0,) * (rank - len(mu) - len(nu))
        return cls(mu.parts + middle + tuple(-p for p in reversed(nu.parts)))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        other_parts = other.parts if isinstance(other, DominantWeight) else tuple(other)
        return self.parts == other_parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ",".join(map(str, self.parts)) or "-")

    def text(self):
        return ",".join(map(str, self.parts))

    def weight(self):
        return sum(self.parts)

    def multiplicities(self):
        """Mapping part value -> multiplicity over all stored parts."""
        return dict(Counter(self.parts))

    def positive_part(self):
        return Partition(tuple(p for p in self.parts if p > 0))

    def negative_part(self):
        """The partition nu with trailing parts -nu reversed."""
        return Partition(tuple(-p for p in reversed(self.parts) if p < 0))

    def padded(self, rank):
        if len(self.parts) > rank:
            raise DomainError("weight has more than %d parts" % rank)
        mu = self.positive_part()
        nu = self.negative_part()
        return DominantWeight.from_pair(mu, nu, rank)


class Partition(DominantWeight):
    """Weakly decreasing tuple of nonnegative integers, zeros kept."""

    __slots__ = ()

    def __init__(self, parts):
        super().__init__(parts)
        if self.parts and self.parts[-1] < 0:
            raise DomainError("partitions cannot have negative parts")

    def length_nonzero(self):
        return sum(1 for p in self.parts if p)

    def padded(self, rank):
        if len(self.parts) > rank:
            raise DomainError(
                "partition %s has more than %d parts" % (self.text(), rank)
            )
        return Partition(self.parts + (0,) * (rank - len(self.parts)))

    def stripped(self):
        """Drop trailing zeros."""
        return Partition(tuple(p for p in self.parts if p))


@dataclass(frozen=True)
class ShapeInfo:
    """Shape classification of a partition or dominant weight.

    Each field holds the witness mu when the shape matches, else None:
    ``double_mult`` for lambda = mu^2 (all multiplicities even), and
    ``palindrome`` for lambda_i + lambda_{l+1-i} = 0.
    """

    double_mult: Optional[Partition]
    palindrome: Optional[Partition]


def classify_shape(lam) -> ShapeInfo:
    parts = tuple(lam)
    double_mult = None
    palindrome = None
    n = len(parts)
    if n % 2 == 0 and all(
        parts[2 * i] == parts[2 * i + 1] for i in range(n // 2)
    ):
        if not parts or parts[-1] >= 0:
            double_mult = Partition(parts[::2])
    if all(parts[i] + parts[n - 1 - i] == 0 for i in range(n)):
        palindrome = Partition(tuple(p for p in parts if p > 0))
    return ShapeInfo(double_mult, palindrome)


def partitions_up_to(max_total, max_len, max_part=None) -> Tuple[Partition, ...]:
    """All partitions with |lambda| <= max_total and at most max_len parts."""
    if max_part is None:
        max_part = max_total
    out = []

    def rec(prefix, remaining, bound):
        out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for p in range(min(bound, remaining), 0, -1):
            prefix.append(p)
            rec(prefix, remaining - p, p)
            prefix.pop()

    rec([], max_total, max_part)
    uniq = sorted(set(out), key=lambda t: (sum(t), t))
    return tuple(Partition(t) for t in uniq)
