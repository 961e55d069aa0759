"""The t-analog closed forms of ``hltorus.identities``: Gaussian binomials
and multinomials, v_lambda, the C-symbols and the Rogers-Szego sums over
the binomials, against classical identities and against the division-free
oracles of ``oracles.py``."""

import pytest

from hltorus.errors import DomainError
from hltorus.identities import _c_ratio_pair, c_minus, t_binomial, t_multinomial_of, v_lambda
from hltorus.partitions import Partition, partitions_up_to
from hltorus.series import SeriesRing

from helpers import q_pochhammer, rogers_szego_sum, truncated
from oracles import (c_symbols, multiset_inversion_sum, pascal_t_binomial, rogers_szego,
                     t_factorial, v_by_factorials)

D = 16
R = SeriesRing(D)


def test_v_values():
    one_plus_t = R.one() + R.t()
    assert v_lambda((0, 0), D) == one_plus_t
    assert v_lambda((2, 2, 1), D) == one_plus_t
    # zero parts count in v_lambda, not in C-
    assert c_minus((1, 1, 0), D) == (R.one() - R.t()) ** 2 * one_plus_t


def test_t_binomial_values():
    assert t_binomial(3, 1, D) == R.one() + R.t() + R.t(2)
    assert t_binomial(2, 3, D).is_zero()
    assert t_binomial(2, -1, D).is_zero()
    assert t_binomial(7, 0, D) == R.one()


def test_t_binomial_against_factorials():
    for m in range(7):
        for i in range(m + 1):
            lhs = t_binomial(m, i, D) * t_factorial(R, m - i) * t_factorial(R, i)
            assert lhs == t_factorial(R, m)


def test_rogers_szego_small_values():
    z = R.monomial(ea=1, eb=1)
    assert rogers_szego_sum(1, z, D) == R.one() + z
    assert rogers_szego_sum(2, R.const(-1), D) == R.one() - R.t()
    assert rogers_szego_sum(3, R.const(-1), D).is_zero()


def test_rogers_szego_recurrence():
    for z in (R.alpha(), R.monomial(ea=1, eb=1), R.const(-1), R.s()):
        for m in range(2, 11):
            lhs = rogers_szego_sum(m, z, D)
            rhs = (R.one() + z) * rogers_szego_sum(m - 1, z, D) - (
                R.one() - R.t(m - 1)
            ) * z * rogers_szego_sum(m - 2, z, D)
            assert lhs == rhs, m
            assert lhs == rogers_szego(R, m, z), m


def test_rogers_szego_minus_one_even_law():
    for m in range(0, 11):
        val = rogers_szego_sum(m, R.const(-1), D)
        if m % 2:
            assert val.is_zero()
        else:
            assert val == q_pochhammer(R, (1, 2), (1, 4), m // 2)


def test_rogers_szego_sqrt_t_product_law():
    for m in range(0, 9):
        prod = R.one()
        for j in range(1, m + 1):
            prod = prod * (R.one() + R.s(j))
        assert rogers_szego_sum(m, R.s(), D) == prod


def test_macmahon_inversion_identity():
    for zeros in range(5):
        for ones in range(5):
            assert t_binomial(zeros + ones, ones, D) == multiset_inversion_sum(
                zeros, ones, D
            )


def test_c_symbols():
    num, _ = _c_ratio_pair(Partition((1,)), ((1, 4),), D)
    assert num == R.one() - R.t(2)
    assert c_minus((2, 2), D) == (R.one() - R.t()) ** 2 * (R.one() + R.t())
    with pytest.raises(DomainError):
        _c_ratio_pair(Partition((1, 1)), ((1, 0),), D)  # t^{-1} x not polynomial


def test_q_pochhammer():
    r = R
    assert q_pochhammer(r, (1, 4), (1, 4), 2) == (r.one() - r.t(2)) * (r.one() - r.t(4))
    assert q_pochhammer(r, (1, 1), (1, 1), 2) == (r.one() - r.s()) * (r.one() - r.s(2))
    assert q_pochhammer(r, (1, 2), (1, 2), 0) == r.one()
    inf = q_pochhammer(r, (1, 2), (1, 2), None)
    fin = q_pochhammer(r, (1, 2), (1, 2), D)
    assert inf == fin  # stabilized at the truncation order
    with pytest.raises(DomainError):
        q_pochhammer(r, (1, 2), (1, 0), None)


def test_multinomial_matches_factorials():
    for lam in partitions_up_to(4, 4):
        padded = lam.padded(4)
        lhs = t_multinomial_of(padded.parts, D)
        for m in padded.multiplicities().values():
            lhs = lhs * t_factorial(R, m)
        assert lhs == t_factorial(R, 4)


def _weights(most):
    """Every weight with values 2, 1, 0 and at most ``most`` parts."""
    for m2 in range(most + 1):
        for m1 in range(most + 1 - m2):
            for m0 in range(most + 1 - m2 - m1):
                yield (2,) * m2 + (1,) * m1 + (0,) * m0


@pytest.mark.parametrize("base", (1, 2, 4))
def test_t_analogs_match_the_division_free_oracles(base):
    """The ``binomial_ratio`` closed forms against the Pascal recurrence and
    the t-integer products, at every order 1-16 and multiplicity m <= 9.
    The oracles are formed once, at order 16, and truncated to each order."""
    binomials = {(m, i): pascal_t_binomial(R, m, i, base) for m in range(10)
                 for i in range(-1, m + 2)}
    forms = {}
    for parts in _weights(9):
        multinomial = R.one()
        rest = len(parts)
        for m in Partition(parts).multiplicities().values():
            multinomial = multinomial * binomials[rest, m]
            rest -= m
        forms[parts] = (multinomial, v_by_factorials(R, parts, base),
                        c_symbols(R, parts, (), base)[1])
    for order in range(1, D + 1):
        for (m, i), want in binomials.items():
            assert t_binomial(m, i, order, base) == truncated(want, order), (m, i)
        for parts, (multinomial, v, c) in forms.items():
            assert t_multinomial_of(parts, order, base) == truncated(multinomial, order), parts
            assert v_lambda(parts, order, base) == truncated(v, order), parts
            assert c_minus(parts, order, base) == truncated(c, order), parts
