import pytest
from hypothesis import given, settings, strategies as st

from hltorus.errors import ConfigurationError, DomainError
from hltorus.hall_littlewood import Mono, const_arg, hl_full, pm_args, var_arg
from hltorus.identities import ALPHA, BETA, INTEGRANDS, MINUS_ALPHA, _linear_factors
from hltorus.laurent import LaurentPoly
from hltorus.series import ParamSeries, SeriesRing

from helpers import (coefficient, constant_term, max_total_degree, monomial, poly_of, poly_sum,
                     rename_vars, scalar, specialize, torus_factor)
from oracles import FACTORED, product_by_nested_loops


D = 8
V = ("x1", "x2")


def ring():
    return SeriesRing(D)


def mono(exps, coeff=1):
    return monomial(V, exps, coeff, D)


def test_inverse_monomials_cancel():
    assert mono((1, 0)) * mono((-1, 0)) == LaurentPoly.unit(V, D)


def test_square_of_sum():
    p = poly_sum(mono((1, 0)), mono((0, 1)))
    sq = p * p
    assert sq == poly_sum(mono((2, 0)), mono((0, 2)), mono((1, 1), 2))


def test_param_coefficient_product():
    one = LaurentPoly.unit(V, D)
    p = poly_sum(one, mono((1, 1), -ring().t()))
    q = mono((-1, -1))
    assert p * q == poly_sum(mono((-1, -1)), mono((0, 0), -ring().t()))


def test_constant_term_examples():
    p = poly_sum(mono((-1, -1)), mono((0, 0), ring().t()))
    assert scalar(constant_term(p, V)) == ring().t()
    assert not constant_term(mono((2, 0)), ("x1",)).terms
    q = poly_sum(mono((0, 0), 3), mono((1, -1)))
    r = constant_term(q, ("x1",))
    assert r.vars == ("x2",) and scalar(r) == 3


def test_constant_term_full_equals_zero_coefficient():
    p = poly_sum(mono((1, -1)), mono((0, 0), 5), mono((-2, 1)))
    assert scalar(constant_term(p, V)) == coefficient(p, (0, 0))


def test_constant_term_unknown_variable():
    with pytest.raises(ConfigurationError):
        constant_term(mono((1, 0)), ("zz",))


def test_specialize_to_minus_one():
    p = poly_sum(mono((1, 0)), mono((-1, 0)))
    out = specialize(p, {"x1": -1})
    assert coefficient(out, (0, 0)) == -2


def test_specialize_to_inverse_variable():
    p = mono((1, 1))
    out = specialize(p, {"x2": (1, "x1", -1)})
    assert out == LaurentPoly.unit(V, D)


def test_specialize_rejects_scaled_targets():
    with pytest.raises(DomainError):
        specialize(mono((2, 0)), {"x1": (1, "x1", 2)})
    with pytest.raises(DomainError):
        specialize(mono((2, 0)), {"x1": 2})


def test_variable_mismatch_rejected():
    other = LaurentPoly.unit(("y1",), D)
    with pytest.raises(ConfigurationError):
        mono((1, 0)) * other


def test_rename_vars():
    p = poly_sum(mono((3, -2)), mono((-1, 0)))
    assert rename_vars(p, ("a", "b")).vars == ("a", "b")


def _poly_strategy(trunc=6):
    coeff = st.dictionaries(
        st.tuples(st.integers(0, trunc), st.integers(0, 1), st.integers(0, 1)),
        st.integers(-3, 3),
        max_size=3,
    ).map(lambda d: ParamSeries(d, trunc))
    return st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff, max_size=4
    ).map(lambda t: poly_of(V, t, trunc))


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(), _poly_strategy(), _poly_strategy())
def test_laurent_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * poly_sum(b, c) == poly_sum(a * b, a * c)


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(), _poly_strategy())
def test_constant_term_is_linear_and_degrees_stay_truncated(a, b):
    lhs = scalar(constant_term(poly_sum(a, b), V))
    assert lhs == scalar(constant_term(a, V)) + scalar(constant_term(b, V))
    prod = a * b
    for e in prod.terms:
        d = max_total_degree(coefficient(prod, e))
        assert d is None or d <= prod.trunc


TRUNC = 5


def _raw_sum(a, b, sign):
    out = {e: dict(c) for e, c in a.items()}
    for e, c in b.items():
        inner = out.setdefault(e, {})
        for k, v in c.items():
            inner[k] = inner.get(k, 0) + sign * v
    return out


@st.composite
def _raw_factor_pairs(draw):
    """Two raw {exps: {key: coeff}} dicts in 2 or 3 torus variables.

    Keys reach past ``TRUNC`` and carry alpha and beta, values mix int and
    Fraction and may be 0.  Half the pairs are (u + v, u - v), whose cross
    terms u(-v) and vu cancel inside the product.
    """
    nv = draw(st.sampled_from((2, 3)))
    value = st.one_of(
        st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3)
    )
    key = st.tuples(st.integers(0, TRUNC), st.integers(0, 2), st.integers(0, 2))
    poly = st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * nv),
        st.dictionaries(key, value, max_size=4),
        max_size=4,
    )
    u, v = draw(poly), draw(poly)
    if draw(st.booleans()):
        return nv, _raw_sum(u, v, 1), _raw_sum(u, v, -1)
    return nv, u, v


def _assert_clean(coeffs):
    assert coeffs, "empty coefficient kept"
    for k, c in coeffs.items():
        assert c != 0 and sum(k) <= TRUNC, (k, c)


@settings(max_examples=150, deadline=None)
@given(_raw_factor_pairs())
def test_products_match_nested_loop_oracle(case):
    nv, a, b = case
    names = ("x1", "x2", "x3")[:nv]

    def poly(raw):
        return poly_of(names, {e: ParamSeries(c, TRUNC) for e, c in raw.items()}, TRUNC)

    expected = product_by_nested_loops(a, b, TRUNC)
    for prod in (poly(a) * poly(b), poly(b) * poly(a)):
        got = prod.terms
        assert got == expected
        for coeffs in got.values():
            _assert_clean(coeffs)
    for ca in a.values():
        for cb in b.values():
            prod = ParamSeries(ca, TRUNC) * ParamSeries(cb, TRUNC)
            want = product_by_nested_loops({(): ca}, {(): cb}, TRUNC)
            assert prod.coeffs == want.get((), {})
            if prod.coeffs:
                _assert_clean(prod.coeffs)


def _assert_layout(poly):
    """The ``LaurentPoly`` invariant: no empty coefficient dict, no zero
    value and no key of total degree above ``trunc``."""
    for e, c in poly.terms.items():
        assert c, ("empty coefficient", e)
        for k, v in c.items():
            assert v != 0 and sum(k) <= poly.trunc, (e, k, v)


def test_producers_keep_the_coefficient_layout():
    order = 5
    plain = tuple(var_arg(2, i) for i in range(2))
    consts = (const_arg(2, 1), const_arg(2, -1))
    scaled = (Mono(1, 2, (1, 0)), var_arg(2, 0), Mono(1, 2, (0, 1)), var_arg(2, 1))
    # a last part > 0 at s-scaled slots seeds the branching above the order
    cases = (((3, 1), plain), ((2, 1, 0, -1), pm_args(2)), ((2, 1, 1, 0), consts + plain),
             ((2, 2, 1, 0), scaled), ((2, 2, 2, 1), scaled), ((2, 2, 2, 2), scaled))
    polys = [hl_full(w, args, V, order, tbase) for w, args in cases for tbase in (2, 4)]
    slots, names = INTEGRANDS["double_cover"](2, None)[1], FACTORED["double_cover"](2, None).vars
    polys.append(torus_factor(_linear_factors(slots, (ALPHA, BETA), names, order)[0],
                              names, order))
    dens, slots, tbase = INTEGRANDS["symplectic"](2, None)
    p = hl_full((2, 1, 0, 0), slots, dens.vars, order, tbase)
    # 1 - alpha^2 y^2 per slot: the odd powers of alpha cancel, in the slot
    # rule and in the product of its two halves
    torus = torus_factor(_linear_factors(slots, (ALPHA, MINUS_ALPHA), dens.vars, order)[0],
                         dens.vars, order)
    halves = [torus_factor(_linear_factors(slots, (v,), dens.vars, order)[0], dens.vars, order)
              for v in (ALPHA, MINUS_ALPHA)]
    polys += [p, torus, p * torus, halves[0] * halves[1]]
    # (x1 + 1)(x1 - 1): the x1 terms cancel; t^2 x1 times t x2 passes the order
    x1, one = monomial(V, (1, 0), 1, order), LaurentPoly.unit(V, order)
    polys.append(poly_sum(x1, one) * poly_sum(x1, monomial(V, (0, 0), -1, order)))
    r = SeriesRing(order)
    polys.append(monomial(V, (1, 0), r.t(2), order) * monomial(V, (0, 1), r.t(), order))
    for poly in polys:
        _assert_layout(poly)
    # the unit's constant key has degree 0, above any negative order
    with pytest.raises(ConfigurationError):
        LaurentPoly.unit(V, -1)
