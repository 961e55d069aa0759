import pytest

from hltorus.errors import DomainError
from hltorus.partitions import partitions_up_to
from hltorus.series import SeriesRing
from hltorus.tcomb import TComb

from helpers import q_pochhammer
from oracles import multiset_inversion_sum

D = 16


def tc(base=2, d=D):
    return TComb(SeriesRing(d), base=base)


def test_v_values():
    t = tc()
    r = t.ring
    one_plus_t = r.one() + r.t()
    assert t.v_of((0, 0)) == one_plus_t
    assert t.v_of((2, 2, 1)) == one_plus_t
    assert t.v_of((1, 1, 0), include_zeros=False) == one_plus_t


def test_t_binomial_values():
    t = tc()
    r = t.ring
    assert t.t_binomial(3, 1) == r.one() + r.t() + r.t(2)
    assert t.t_binomial(2, 3).is_zero()
    assert t.t_binomial(7, 0) == r.one()


def test_t_binomial_against_factorials():
    t = tc()
    for m in range(7):
        for i in range(m + 1):
            lhs = t.t_binomial(m, i) * t.t_factorial(m - i) * t.t_factorial(i)
            assert lhs == t.t_factorial(m)


def test_rogers_szego_small_values():
    t = tc()
    r = t.ring
    z = r.monomial(ea=1, eb=1)
    assert t.rogers_szego(1, z) == r.one() + z
    assert t.rogers_szego(2, r.const(-1)) == r.one() - r.t()
    assert t.rogers_szego(3, r.const(-1)).is_zero()


def test_rogers_szego_recurrence():
    t = tc()
    r = t.ring
    for z in (r.alpha(), r.monomial(ea=1, eb=1), r.const(-1), r.s()):
        for m in range(2, 11):
            lhs = t.rogers_szego(m, z)
            rhs = (r.one() + z) * t.rogers_szego(m - 1, z) - (
                r.one() - r.t(m - 1)
            ) * z * t.rogers_szego(m - 2, z)
            assert lhs == rhs, m


def test_rogers_szego_minus_one_even_law():
    t = tc()
    for m in range(0, 11):
        val = t.rogers_szego(m, t.ring.const(-1))
        if m % 2:
            assert val.is_zero()
        else:
            assert val == q_pochhammer(t.ring, (1, 2), (1, 4), m // 2)


def test_rogers_szego_sqrt_t_product_law():
    t = tc()
    r = t.ring
    for m in range(0, 9):
        prod = r.one()
        for j in range(1, m + 1):
            prod = prod * (r.one() + r.s(j))
        assert t.rogers_szego(m, r.s()) == prod


def test_macmahon_inversion_identity():
    t = tc()
    for zeros in range(5):
        for ones in range(5):
            assert t.t_binomial(zeros + ones, ones) == multiset_inversion_sum(
                zeros, ones, D
            )


def test_c_symbols():
    t = tc()
    r = t.ring
    assert t.c_symbol("0", (1,), ((1, 4),)) == r.one() - r.t(2)
    expected = t.one_minus_t_pow(2) * (r.one() + r.t())
    assert t.c_symbol("-", (2, 2)) == expected
    with pytest.raises(DomainError):
        t.c_symbol("+", (3, 1))  # only the kinds "0" and "-" remain
    with pytest.raises(DomainError):
        t.c_symbol("0", (1, 1), ((1, 0),))  # t^{-1} x not polynomial


def test_q_pochhammer():
    t = tc()
    r = t.ring
    assert q_pochhammer(r, (1, 4), (1, 4), 2) == (r.one() - r.t(2)) * (r.one() - r.t(4))
    assert q_pochhammer(r, (1, 1), (1, 1), 2) == (r.one() - r.s()) * (r.one() - r.s(2))
    assert q_pochhammer(r, (1, 2), (1, 2), 0) == r.one()
    inf = q_pochhammer(r, (1, 2), (1, 2), None)
    fin = q_pochhammer(r, (1, 2), (1, 2), D)
    assert inf == fin  # stabilized at the truncation order
    with pytest.raises(DomainError):
        q_pochhammer(r, (1, 2), (1, 0), None)


def test_multinomial_matches_factorials():
    t = tc()
    for lam in partitions_up_to(4, 4):
        padded = lam.padded(4)
        mults = list(padded.multiplicities().values())
        lhs = t.t_multinomial(4, mults)
        for m in mults:
            lhs = lhs * t.t_factorial(m)
        assert lhs == t.t_factorial(4)
