from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hltorus.errors import ConfigurationError, DomainError
from hltorus.series import (ZERO_KEY, ParamSeries, SeriesRing, binomial_ratio, divide_binomial,
                            mul_into, pack, pack_width, unpack)

from helpers import (InternalConsistencyError, divide_by_s_power, drop_param, from_coeffs, geometric,
                     negate_param, truncated, unit_inverse)
from oracles import pascal_t_binomial


def ring(d=8):
    return SeriesRing(d)


def test_difference_of_squares_truncated():
    r = ring(4)
    assert (r.one() + r.s()) * (r.one() - r.s()) == r.one() - r.t()


def test_truncation_boundary_kills_top_degree():
    r = ring(6)
    assert (r.s(6) * r.s()).is_zero()


def test_alpha_beta_binomial_product():
    r = ring(4)
    prod = (r.one() + r.alpha()) * (r.one() + r.monomial(eb=1))
    assert prod == from_coeffs(
        r, {(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1}
    )


def test_trunc_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        SeriesRing(4).one() * SeriesRing(5).one()
    with pytest.raises(ConfigurationError):
        SeriesRing(4).one() + SeriesRing(5).one()


def test_scalar_arithmetic_and_equality():
    r = ring(5)
    x = r.t() * 3 - 1
    assert x == from_coeffs(r, {(0, 0, 0): -1, (2, 0, 0): 3})
    assert r.const(Fraction(1, 2)) * 2 == r.one()
    assert r.zero() == 0 and not r.one().is_zero()


def test_powers_and_geometric():
    r = ring(9)
    geo = geometric(r, es=2)
    assert (r.one() - r.t()) * geo == r.one()
    assert r.s() ** 3 == r.s(3)
    with pytest.raises(DomainError):
        geometric(r)  # parameter-free


def test_unit_inverse_and_divide_by_s():
    r = ring(8)
    u = r.one() + r.t() + r.alpha()
    assert u * unit_inverse(u) == r.one()
    with pytest.raises(DomainError):
        unit_inverse(r.s())
    assert divide_by_s_power(r.s(3), 2) == r.s()
    with pytest.raises(InternalConsistencyError):
        divide_by_s_power(r.one() + r.s(2), 1)


def test_param_substitutions():
    r = ring(6)
    x = r.one() + r.alpha() + r.monomial(eb=1) * r.alpha()
    assert drop_param(x, 2) == r.one() + r.alpha()
    assert negate_param(x, 1) == r.one() - r.alpha() - r.monomial(eb=1) * r.alpha()


def _series_strategy(trunc):
    keys = st.tuples(
        st.integers(0, trunc), st.integers(0, 2), st.integers(0, 2)
    )
    return st.dictionaries(
        keys, st.integers(-5, 5), max_size=6
    ).map(lambda d: ParamSeries(d, trunc))


@settings(max_examples=60, deadline=None)
@given(_series_strategy(8), _series_strategy(8), _series_strategy(8))
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(_series_strategy(12), _series_strategy(12))
def test_truncation_is_ring_homomorphism(a, b):
    d = 6
    full = truncated(a * b, d)
    cut = truncated(a, d) * truncated(b, d)
    assert full == cut


_steps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)).filter(
    lambda k: sum(k) >= 1)
_dicts = st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 2), st.integers(0, 2)),
                         st.integers(-5, 5).filter(bool), max_size=6)


@settings(max_examples=150, deadline=None)
@given(_dicts, _steps, st.sampled_from((1, -1)), st.integers(0, 10), st.booleans())
@example({}, (1, 0, 0), 1, 5, False)
@example({(0, 0, 0): 1, (1, 1, 0): -2}, (2, 1, 0), -1, 2, False)
@example({(0, 0, 0): 3, (1, 0, 0): 1}, (1, 0, 0), 1, 6, True)
@example({(0, 2, 2): 1, (1, 0, 0): 3, (2, 1, 0): -2, (5, 0, 1): 4}, (2, 0, 0), -1, 3, False)
def test_divide_binomial_matches_the_geometric_product(coeffs, step, sign, cap, cancel):
    """The recurrence equals the product with the whole geometric series,
    for caps below and above the step's degree; with ``cancel`` the input
    is g (1 - sign x^step), whose terms cancel down to g.  A step in s alone
    takes the walk per (alpha, beta) degree, also for a degree above the
    cap and a key beyond it."""
    r = ring(cap)
    series = ParamSeries(coeffs, cap)
    if cancel:
        series = series * (r.one() - r.monomial(*step, coeff=sign))
    got = divide_binomial(series.coeffs, step, sign, cap)
    assert got == (series * geometric(r, *step, sign=sign)).coeffs
    if cancel:
        assert got == ParamSeries(coeffs, cap).coeffs


@pytest.mark.parametrize("base", (1, 2, 3))
def test_divide_binomial_gives_the_pascal_binomials(base):
    """[m i] = [m i-1] (1 - t^(m-i+1)) / (1 - t^i), t = s^base, each
    division a walk in s alone, against the Pascal recurrence at every
    order 0-14 and m <= 7."""
    for order in range(15):
        r = ring(order)
        for m in range(8):
            cur = r.one()
            for i in range(1, m + 1):
                num = cur * (r.one() - r.s(base * (m - i + 1)))
                cur = ParamSeries(divide_binomial(num.coeffs, (base * i, 0, 0), 1, order), order)
                assert cur == pascal_t_binomial(r, m, i, base), (order, m, i)


def test_divide_binomial_needs_positive_degree():
    with pytest.raises(DomainError):
        divide_binomial({(0, 0, 0): 1}, (0, 0, 0), 1, 4)
    with pytest.raises(DomainError):
        divide_binomial({(0, 0, 0, 0): 1}, (1, 0, 0, 0), 1, 4)  # a torus step alone


_factors = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 9)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_factors, _factors, _factors, st.lists(st.integers(1, 9), max_size=2),
       st.integers(0, 12), st.sampled_from((1, -3, Fraction(1, 2), Fraction(-5, 6))))
@example([], [], [], [], 0, 1)
@example([(1, 2)], [(1, 2), (1, 4)], [(1, 2)], [], 8, Fraction(1, 2))
@example([(-1, 3)], [(1, 3)], [], [3], 9, 1)
def test_binomial_ratio_matches_the_geometric_product(num, den, common, opposite, cap, scale):
    """The quotient equals the numerator's binomials times the denominator's
    geometric series times the scale.  ``common`` factors are in both lists
    and cancel; each k in ``opposite`` is 1 - s^k above and 1 + s^k below,
    which must not cancel."""
    r = ring(cap)
    num = num + common + [(1, k) for k in opposite]
    den = common + den + [(-1, k) for k in opposite]
    want = r.const(scale)
    for sign, k in num:
        want = want * (r.one() - r.monomial(es=k, coeff=sign))
    for sign, k in den:
        want = want * geometric(r, es=k, sign=sign)
    assert binomial_ratio(num, den, cap, scale) == want


def test_binomial_ratio_constant_factors():
    """A factor with k = 0 is the constant 1 - sign: 2 or 0."""
    r = ring(6)
    assert binomial_ratio([(1, 2)], [(-1, 0)], 6) == (r.one() - r.t()) * Fraction(1, 2)
    assert binomial_ratio([(-1, 0), (1, 1)], [], 6, 3) == (r.one() - r.s()) * 6
    assert binomial_ratio([(1, 0)], [(1, 1)], 6).is_zero()
    with pytest.raises(DomainError):
        binomial_ratio([], [(1, 0)], 6)
    with pytest.raises(DomainError):
        binomial_ratio([(1, -2)], [], 6)


_s_series = st.dictionaries(st.tuples(st.integers(0, 6), st.just(0), st.just(0)),
                            st.integers(-40, 40).filter(bool), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_s_series, min_size=1, max_size=3), max_size=5), st.integers(0, 8))
@example([[{(0, 0, 0): 1, (1, 0, 0): -1}]] * 3, 2)
@example([[{(9, 0, 0): 7}], [{(0, 0, 0): -1}]], 4)
def test_pack_width_holds_the_worst_sum_of_products(groups, order):
    """The largest sum of products of one coefficient per group, through
    the order, is the product of the groups' absolute series.  Packed at
    ``pack_width`` it survives every integer product of a prefix, cut to
    the order, and the width is two bits above its largest digit."""
    width = pack_width(groups, order)
    worst, packed, most = {ZERO_KEY: 1}, 1, 1
    half = 1 << width * (order + 1) - 1
    for group in groups:
        total = {}
        for coeffs in group:
            for key, c in coeffs.items():
                total[key] = total.get(key, 0) + abs(c)
        worst, prev = {}, worst
        mul_into(worst, prev, total, order)
        packed = ((packed * pack(total, width) + half) & (2 * half - 1)) - half
        assert unpack(packed, width) == worst
        most = max(most, *worst.values(), 1)
    assert width == most.bit_length() + 2
