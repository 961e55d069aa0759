from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest

from hltorus import densities
from hltorus.densities import (
    DensityProduct,
    chamber_product,
    ct_integrate,
    koornwinder_density,
    koornwinder_normalization,
    selberg_density,
)
from hltorus.errors import ConfigurationError, DomainError, ResourceLimitError
from hltorus.hall_littlewood import hl_full, pm_args, var_arg
from hltorus import identities
from hltorus.identities import (
    ALPHA,
    BETA,
    K_KAWANAKA,
    K_MINUS_EVEN,
    K_MINUS_ODD,
    K_PLUS_EVEN,
    K_PLUS_ODD,
    K_SYMPLECTIC,
    INTEGRANDS,
    MINUS_ALPHA,
    MINUS_ONE,
    REGISTRY,
    _Instance,
    _linear_factors,
    cross_block_density,
    sweep_weights,
    two_block_density,
)
from hltorus.laurent import LaurentPoly
from hltorus.series import ParamSeries, SeriesRing
from hltorus.tcomb import TComb

from helpers import from_coeffs, monomial, poly_sum, scaled, unit_inverse
from oracles import gustafson_rhs

D = 12
K_QUADRUPLES = (K_PLUS_EVEN, K_MINUS_EVEN, K_PLUS_ODD, K_MINUS_ODD, K_SYMPLECTIC, K_KAWANAKA)
# the integrands halved over W(B_n), with the values of the rows that use them
HALVED = {"symplectic": (), "kawanaka": (), "minus_even": (ALPHA,), "plus_odd": (ALPHA,),
          "minus_odd": (ALPHA,)}


def test_selberg_structure():
    d1 = selberg_density(1)
    assert d1.num_factors == () and d1.geo_factors == ()
    assert d1.blocks == (("A", 0, 1, 2),)
    # only the positive roots x_i/x_j, i < j, are stored
    d3 = selberg_density(3, tpow=4)
    roots = [(1, -1, 0), (1, 0, -1), (0, 1, -1)]
    assert sorted(d3.num_factors) == sorted((1, e) for e in roots)
    assert sorted(d3.geo_factors) == sorted(((4, 0, 0), 1, e) for e in roots)
    assert d3.blocks == (("A", 0, 3, 4),)
    # the integral depends on the blocks, so the cache keys must too
    bare = DensityProduct(d3.vars, d3.num_factors, d3.geo_factors)
    assert bare.key() != d3.key()


def test_selberg_normalization_value():
    r = SeriesRing(D)
    z = ct_integrate(selberg_density(2), None, D)
    # independent closed form: 2/(1+t)
    assert z == r.const(2) * unit_inverse(r.one() + r.t())
    assert z * (r.one() + r.t()) == r.const(2)


def test_koornwinder_structures():
    # (sqrt t, -sqrt t, 0, 0): numerator survives, four geometric factors
    d = koornwinder_density(1, ((1, 1), (-1, 1), 0, 0))
    assert sorted(d.num_factors) == [(1, (-2,)), (1, (2,))]
    assert sorted(d.geo_factors) == [
        ((1, 0, 0), -1, (-1,)),
        ((1, 0, 0), -1, (1,)),
        ((1, 0, 0), 1, (-1,)),
        ((1, 0, 0), 1, (1,)),
    ]
    assert d.prefactor == Fraction(1, 2)
    # (+-1, +-sqrt t): the +-1 parameters cancel the numerator entirely
    d = koornwinder_density(1, (1, -1, (1, 1), (-1, 1)))
    assert d.num_factors == ()
    # (t, -1, +-sqrt t): only the -1 parameter cancels, leaving (1-x)(1-1/x)
    d = koornwinder_density(1, ((1, 2), -1, (1, 1), (-1, 1)))
    assert sorted(d.num_factors) == [(1, (-1,)), (1, (1,))]
    assert d.blocks == ()
    # of the pair factors only the positive roots x1/x2 and x1 x2 are stored
    d = koornwinder_density(2, (1, -1, (1, 1), (-1, 1)))
    assert sorted(d.num_factors) == [(1, (1, -1)), (1, (1, 1))]
    assert sorted(d.geo_factors)[-2:] == [((2, 0, 0), 1, (1, -1)), ((2, 0, 0), 1, (1, 1))]
    assert d.blocks == (("D", 0, 2, 2),)
    # with the pair (sqrt t, -sqrt t) only the x side of the single-variable
    # factors is stored, and the block is "B" with ab = -t
    d = koornwinder_density(1, K_SYMPLECTIC, pair=((1, 1), (-1, 1)))
    assert d.num_factors == ((1, (2,)),)
    assert sorted(d.geo_factors) == [((1, 0, 0), -1, (1,)), ((1, 0, 0), 1, (1,))]
    assert d.blocks == (("B", 0, 1, 2, (-1, 2)),)
    assert d.prefactor == Fraction(1, 2)
    # (t, -1, +-sqrt t) with the pair (-1, t): (1-x)/(1-t x), +-sqrt t stay whole
    d = koornwinder_density(2, K_PLUS_ODD, pair=(-1, (1, 2)))
    single = lambda fs: sorted(f for f in fs if sum(map(bool, f[-1])) == 1)
    assert single(d.num_factors) == [(1, (0, 1)), (1, (1, 0))]
    assert single(d.geo_factors) == sorted(
        [((2, 0, 0), 1, e) for e in ((1, 0), (0, 1))]
        + [((1, 0, 0), s, e) for s in (1, -1) for e in ((1, 0), (-1, 0), (0, 1), (0, -1))])
    assert d.blocks == (("B", 0, 2, 2, (-1, 2)),)


def test_koornwinder_cancellation_reproduces_full_product():
    # multiplying the cancelled numerator by the +-1 denominator factors
    # must reproduce (1 - x^{+-2}) * (1 - x^{+-1} x^{+-1}) exactly
    for params in ((1, -1, (1, 1), (-1, 1)), ((1, 2), -1, (1, 1), (-1, 1)),
                   (1, (-1, 2), (1, 1), (-1, 1))):
        for n in (1, 2):
            dens = koornwinder_density(n, params)
            got = _numerator(dens, D)
            for p in params:
                if p in (1, -1):
                    vals = [SeriesRing(D).const(p)]
                    for i in range(n):
                        for power in (1, -1):
                            e = [0] * n
                            e[i] = power
                            binom = LaurentPoly(
                                dens.vars,
                                {(0,) * n: SeriesRing(D).one(),
                                 tuple(e): -vals[0]},
                                D,
                            )
                            got = got * binom
            full = koornwinder_density(n, ((1, 1), (-1, 1), (1, 2), (-1, 2)))
            assert got == _numerator(full, D), (params, n)


def test_koornwinder_rejections():
    with pytest.raises(DomainError):
        koornwinder_density(1, (2, 0, 0, 0))
    with pytest.raises(DomainError):
        koornwinder_density(1, ((1, 0), 0, 0, 0))
    with pytest.raises(DomainError):
        koornwinder_density(1, (1, 1, 0, 0))
    # a pair must be two nonzero parameters of the four
    for pair in (((1, 2), (1, 1)), ((1, 1), 0), ((1, 1),), (1, (1, 1), (-1, 1))):
        with pytest.raises(DomainError, match="pair"):
            koornwinder_density(1, K_SYMPLECTIC, pair=pair)
    # plus_even has no valid pair: a +-1 outside it leaves a pole on the
    # torus, and the pair (1, -1) has ab = -1, without s-degree
    for a, b in combinations(K_PLUS_EVEN, 2):
        with pytest.raises(DomainError, match="pair"):
            koornwinder_density(2, K_PLUS_EVEN, pair=(a, b))
    with pytest.raises(DomainError, match="pair"):
        koornwinder_density(2, K_PLUS_ODD, pair=((1, 1), (-1, 1)))


def test_expandability_certificate():
    with pytest.raises(DomainError):
        DensityProduct(("x1",), (), (((0, 0, 0), 1, (1,)),))
    # a negative parameter exponent would integrate outside the ring
    with pytest.raises(DomainError):
        DensityProduct(("x1",), [], [((2, -1, 0), 1, (1,)), ((2, 0, 0), 1, (-1,))])
    # a zero exponent vector lies on no line through the origin
    with pytest.raises(DomainError):
        DensityProduct(("x1",), [(1, (0,))], [])
    with pytest.raises(DomainError):
        DensityProduct(("x1",), [], [((2, 0, 0), 1, (0,))])


def test_single_geometric_factor_integral():
    r = SeriesRing(D)
    dens = DensityProduct(("x1", "x2"), (), (((2, 0, 0), 1, (1, 1)),))
    mult = monomial(("x1", "x2"), (-1, -1), 1, D)
    assert ct_integrate(dens, mult, D) == r.t()


NORMALIZATION_ROWS = sorted(name for name in REGISTRY if name.startswith("normalization_"))


def test_gustafson_normalizations_match():
    # each row's closed form against the integral of its own density
    assert len(NORMALIZATION_ROWS) == 6
    for name in NORMALIZATION_ROWS:
        defn = REGISTRY[name]
        integrand = INTEGRANDS[defn.integrands[0]]
        for n in range(1, (3 if name == "normalization_i" else 2) + 1):
            num, den = defn.closed(_Instance(n, None, None, None, D))
            for route in (integrand, integrand.whole()):
                dens = route(n, None)[0]
                assert ct_integrate(dens, None, D) * den == num, (name, n, dens.blocks)


def test_koornwinder_normalization_matches_specialized_oracle():
    # the general product at each row's quadruple and variable count against
    # the row's hand-specialized product, n = 1..5 at order 12
    for name in NORMALIZATION_ROWS:
        integrand = INTEGRANDS[REGISTRY[name].integrands[0]]
        item = name[len("normalization_"):]
        for n in range(1, 6):
            got = koornwinder_normalization(n - integrand.drop, integrand.params, 12)
            assert got == gustafson_rhs(item, n, 12), (name, n)


def test_known_series_coefficients():
    # (1-t)/(t^2;t^2)_1 = (1-t)/(1-t^2) = 1 - s^2 + s^4 - ...
    r = SeriesRing(8)
    val = koornwinder_normalization(1, K_SYMPLECTIC, 8)
    expected = from_coeffs(r, {(0, 0, 0): 1, (2, 0, 0): -1, (4, 0, 0): 1,
                               (6, 0, 0): -1, (8, 0, 0): 1})
    assert val == expected
    # (1-t)/(s;s)_2 = (1-s^2)/(1-s^2)(1-s)(1-s^2)... spot-check low degrees
    val2 = koornwinder_normalization(1, K_KAWANAKA, 6)
    assert val2.coeffs[(0, 0, 0)] == 1
    assert val2.coeffs[(1, 0, 0)] == 1


def _full_product(vars_, num_factors, geo_factors, order):
    """Every factor expanded as a LaurentPoly and multiplied out, unpruned.

    Factors at complementary monomials are multiplied next to each other,
    which keeps the intermediate products small.
    """
    ring = SeriesRing(order)
    nv = len(vars_)
    factors = []
    for sign, exps in num_factors:
        factors.append((exps, LaurentPoly(
            vars_, {(0,) * nv: ring.one(), exps: ring.const(-sign)}, order)))
    for ckey, sign, exps in geo_factors:
        cdeg = sum(ckey)
        terms = {}
        k = 0
        while k * cdeg <= order:
            coeff = ring.monomial(
                es=k * ckey[0], ea=k * ckey[1], eb=k * ckey[2],
                coeff=(-1) ** k if sign < 0 else 1,
            )
            terms[tuple(k * e for e in exps)] = coeff
            k += 1
        factors.append((exps, LaurentPoly(vars_, terms, order)))
    factors.sort(key=lambda f: (tuple(abs(e) for e in f[0]), f[0]))
    acc = LaurentPoly.unit(vars_, order)
    for _, factor in factors:
        acc = acc * factor
    return acc


def _numerator(dens, order):
    """The stored numerator factors of a density, multiplied out."""
    return _full_product(dens.vars, dens.num_factors, (), order)


def _ct_bruteforce(full, prefactor, multiplier):
    """CT of multiplier times a density multiplied out by ``_full_product``.

    The constant term of the product is read off term by term: the sum of
    each multiplier coefficient times the density's at the opposite exponent.
    """
    ring = SeriesRing(full.trunc)
    if multiplier is None:
        multiplier = LaurentPoly.unit(full.vars, full.trunc)
    acc = ring.zero()
    for e, c in multiplier.terms.items():
        d = full.terms.get(tuple(-x for x in e))
        if d is not None:
            acc = acc + c * d
    return acc * prefactor


def _root(nv, i, j):
    e = [0] * nv
    e[i] += 1
    e[j] -= 1
    return tuple(e)


def _full_block(nv, first, size, tpow):
    """All i != j factors of one Selberg block; tpow None means t = 0."""
    num, geo = [], []
    for i in range(first, first + size):
        for j in range(first, first + size):
            if i != j:
                num.append((1, _root(nv, i, j)))
                if tpow is not None:
                    geo.append(((tpow, 0, 0), 1, _root(nv, i, j)))
    return num, geo


def _full_two_block(m, n):
    num1, geo1 = _full_block(m + n, 0, m, 2)
    num2, geo2 = _full_block(m + n, m, n, 2)
    return num1 + num2, geo1 + geo2


def _full_cross_block(n):
    num1, _ = _full_block(2 * n, 0, n, None)
    num2, _ = _full_block(2 * n, n, n, None)
    geo = []
    for i in range(n):
        for j in range(n):
            geo.append(((2, 0, 0), 1, _root(2 * n, i, n + j)))
            geo.append(((2, 0, 0), 1, _root(2 * n, n + j, i)))
    return num1 + num2, geo


def _full_koornwinder(dens):
    """A Koornwinder density's single-variable factors and every pair factor.

    The pair factors (1-x^a)/(1-t x^a) are built here at all four roots
    a = +-e_i+-e_j of each i < j, not read from the density.
    """
    nv = len(dens.vars)
    num = [(s, e) for s, e in dens.num_factors if sum(map(bool, e)) == 1]
    geo = [(c, s, e) for c, s, e in dens.geo_factors if sum(map(bool, e)) == 1]
    for i, j in combinations(range(nv), 2):
        for pi in (1, -1):
            for pj in (1, -1):
                e = [0] * nv
                e[i], e[j] = pi, pj
                num.append((1, tuple(e)))
                geo.append(((2, 0, 0), 1, tuple(e)))
    return num, geo


def test_ct_matches_bruteforce_oracle():
    order = 8
    dens = koornwinder_density(2, K_PLUS_EVEN)
    full = _full_product(dens.vars, *_full_koornwinder(dens), order)
    p = hl_full((2, 2, 0, 0), pm_args(2), dens.vars, order)
    got = ct_integrate(dens, p, order)
    assert not got.is_zero()
    assert got == _ct_bruteforce(full, dens.prefactor, p)

    dens = selberg_density(2)
    names = dens.vars
    p = hl_full((2, 0), (var_arg(2, 0), var_arg(2, 1)), names, order)
    q = hl_full((2, 0), (var_arg(2, 0, -1), var_arg(2, 1, -1)), names, order)
    full = _full_product(names, *_full_block(2, 0, 2, 2), order)
    assert ct_integrate(dens, p * q, order) == _ct_bruteforce(full, 1, p * q)
    assert ct_integrate(dens, None, order) == _ct_bruteforce(full, 1, None)


def _multipliers(names, weight, order):
    """None, P * Pbar and P for one weight, over all the variables."""
    nv = len(names)
    p = hl_full(weight, tuple(var_arg(nv, i) for i in range(nv)), names, order)
    pbar = hl_full(weight, tuple(var_arg(nv, i, -1) for i in range(nv)), names, order)
    return (None, p * pbar, p)


def _assert_halved_matches_full(dens, full, prefactor, weights, order):
    full = _full_product(dens.vars, *full, order)
    for weight in weights:
        for mult in _multipliers(dens.vars, weight, order):
            got = ct_integrate(dens, mult, order)
            want = _ct_bruteforce(full, prefactor, mult)
            assert got == want, (dens.label, weight, mult is None)


def test_positive_root_densities_match_full_density():
    """Each halved density against its full density over all the roots."""
    order = 8
    for n in (1, 2, 3):
        for tpow in (2, 4):
            for pref in (Fraction(1), Fraction(1, factorial(n))):
                dens = selberg_density(n, tpow=tpow, prefactor=pref)
                weights = [(1,) + (0,) * (n - 1), (2,) + (1,) * (n - 1)]
                _assert_halved_matches_full(
                    dens, _full_block(n, 0, n, tpow), pref, weights, order)
    for m, n in ((1, 1), (1, 2), (2, 3)):
        dens = two_block_density(m, n)
        pref = Fraction(1, factorial(m) * factorial(n))
        weights = [(1,) + (0,) * (m + n - 2) + (-1,), (2, 1) + (0,) * (m + n - 2)]
        _assert_halved_matches_full(dens, _full_two_block(m, n), pref, weights, order)
    for n in (1, 2):
        dens = cross_block_density(n)
        pref = Fraction(1, factorial(n) ** 2)
        weights = [(1,) + (0,) * (2 * n - 2) + (-1,), (1, 1) + (0,) * (2 * n - 2)]
        _assert_halved_matches_full(dens, _full_cross_block(n), pref, weights, order)
    # Koornwinder: P_lambda at x_i^{+-1}, the multiplier of every BC identity
    for params in K_QUADRUPLES:
        for n in (1, 2, 3):
            order = 8 if n < 3 else 6
            dens = koornwinder_density(n, params)
            full = _full_product(dens.vars, *_full_koornwinder(dens), order)
            pad = (0,) * (2 * n - 2)
            for weight in (None, (2, 2) + pad, (1, 1) + pad):
                mult = None if weight is None else hl_full(weight, pm_args(n), dens.vars,
                                                           order)
                got = ct_integrate(dens, mult, order)
                assert got == _ct_bruteforce(full, dens.prefactor, mult), (dens.label, weight)
                # (1, 1) vanishes against K_PLUS_EVEN for n >= 2
                assert weight == (1, 1) + pad or not got.is_zero(), (dens.label, weight)


def _expansion_cases():
    for params in K_QUADRUPLES:
        for n in (1, 2):
            yield koornwinder_density(n, params)
    for key in HALVED:
        yield INTEGRANDS[key](2 + INTEGRANDS[key].drop, None)[0]
    for n in (2, 3):
        for tpow in (2, 4):
            yield selberg_density(n, tpow=tpow)
    yield two_block_density(1, 2)
    # two-sided lines with no free move, where the outward walk stops early
    for n in (1, 2):
        yield cross_block_density(n)


def _restrict(table, window):
    return {e: c for e, c in table.items()
            if all(lo <= x <= hi for x, (lo, hi) in zip(e, window))}


@pytest.mark.parametrize("dens", list(_expansion_cases()), ids=lambda d: d.label)
def test_pruned_expansion_matches_full_product(dens):
    """The budget-pruned table against the unpruned, window-free product.

    Inside the window every exponent must be present with every
    coefficient term through the order; outside it nothing is kept.  The
    windows are symmetric boxes, one-sided intervals, intervals that miss
    the origin, and a different side per variable.
    """
    top = 8
    full = _full_product(dens.vars, dens.num_factors, dens.geo_factors, top)
    nv = len(dens.vars)
    windows = [((-b, b),) * nv for b in (0, 1, 2)]
    windows.append(tuple((-b, b) for b in range(nv))[::-1])
    windows += [((0, 2),) * nv, ((-2, 0),) * nv, ((1, 2),) * nv]
    windows.append(tuple(((0, 2), (-2, 0), (-1, 1))[v % 3] for v in range(nv)))
    windows.append(tuple(((-2, -1), (1, 1))[v % 2] for v in range(nv)))
    for order in range(4, top + 1):
        for window in windows:
            want = {}
            for e, c in _restrict(full.terms, window).items():
                kept = {k: v for k, v in c.coeffs.items() if sum(k) <= order}
                if kept:
                    want[e] = kept
            densities.clear_caches()
            got = densities._expansion(dens, order, window)
            assert got == want, (order, window)
    densities.clear_caches()


@pytest.mark.parametrize("dens", [selberg_density(3), koornwinder_density(2, K_QUADRUPLES[0]),
                                  cross_block_density(2)], ids=lambda d: d.label)
def test_expansion_cache_serves_subwindows_and_widens_to_the_union(dens):
    """A narrow request, one on the other side, a sub-window of their union
    and one a step past the union at one end: each table agrees with a cold
    build on its window, the sub-window gets the cached table itself, and
    every other request rebuilds, still exact on the earlier windows."""
    order = 6
    nv = len(dens.vars)
    narrow = tuple(((0, 2), (-1, 1), (-2, 0))[v % 3] for v in range(nv))
    other = tuple((-hi, -lo) for lo, hi in narrow)
    union = tuple((min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(narrow, other))
    sub = ((-1, 1),) * nv
    past = ((union[0][0] - 1, union[0][1]),) + union[1:]
    windows = (narrow, other, sub, past)
    want = {}
    for window in windows:
        densities.clear_caches()
        want[window] = _restrict(densities._expansion(dens, order, window), window)
    densities.clear_caches()
    got = [densities._expansion(dens, order, w) for w in windows]
    for table, window in zip(got, windows):
        assert _restrict(table, window) == want[window], window
    assert _restrict(got[1], narrow) == want[narrow]
    assert _restrict(got[3], union) == _restrict(got[1], union)
    assert got[1] is not got[0] and got[2] is got[1] and got[3] is not got[2]
    densities.clear_caches()


def test_budget_is_tight_on_hand_cases():
    """Exact budgets, so a weaker (still sound) bound shows up too.

    A window is one interval (lo, hi) per variable."""
    def budget(num, geo, exps, window, order=10):
        vars_ = tuple("x%d" % (i + 1) for i in range(len(exps)))
        dens = DensityProduct(vars_, num, geo)
        moves = densities._movement(densities._factor_sequence(dens, order), len(vars_))
        assert densities._budget(exps, window, moves[-1], order) == (
            order if all(lo <= x <= hi for x, (lo, hi) in zip(exps, window)) else -1)
        return densities._budget(exps, window, moves[0], order)

    step3 = (((2, 0, 0), 1, (3,)),)
    assert budget((), step3, (-4,), ((0, 0),)) == 10 - 3  # ceil(4 * 2/3)
    assert budget((), step3, (-4,), ((-1, 1),)) == 10 - 2
    assert budget((), step3, (4,), ((0, 0),)) == -1  # nothing moves x1 down
    assert budget((), step3, (-4,), ((0, 0),), order=2) < 0
    # one-sided windows: the distance is to the nearer end
    assert budget((), step3, (-4,), ((-2, 0),)) == 10 - 2
    assert budget((), step3, (-4,), ((1, 3),)) == 10 - 4  # ceil(5 * 2/3)
    assert budget((), step3, (4,), ((5, 7),)) == 10 - 1
    assert budget((), step3, (4,), ((-2, 0),)) == -1
    assert budget((), step3, (4,), ((0, 5),)) == 10
    # a numerator factor moves x1 up by one for free, once
    assert budget(((1, (1,)),), step3, (-4,), ((0, 0),)) == 10 - 2
    assert budget(((1, (1,)),), step3, (-1,), ((0, 0),)) == 10
    assert budget(((1, (1,)),), step3, (-1,), ((1, 2),)) == 10 - 1
    # the cheapest rate per unit of move prices the distance
    geo = (((2, 0, 0), 1, (1,)), ((3, 0, 0), -1, (2,)), ((1, 1, 0), 1, (-1,)))
    assert budget((), geo, (-4,), ((0, 0),)) == 10 - 6
    assert budget((), geo, (3,), ((0, 0),)) == 10 - 6
    # geometric factors at t on x1 and on 1/x1 price both ways
    two_sided = (((2, 0, 0), 1, (1,)), ((2, 0, 0), 1, (-1,)))
    assert budget((), two_sided, (-3,), ((0, 0),)) == 10 - 6
    assert budget((), two_sided, (3,), ((0, 0),)) == 10 - 6
    assert budget((), two_sided, (3,), ((-5, -1),)) == 10 - 8
    assert budget((), two_sided, (3,), ((4, 6),)) == 10 - 2
    # one step moves both variables, so the needs are not added up
    both = (((2, 0, 0), 1, (1, 1)),)
    assert budget((), both, (-1, -1), ((0, 0), (0, 0))) == 10 - 2
    assert budget((), both, (-1, -2), ((0, 0), (-1, 1))) == 10 - 2
    assert budget((), both, (-3, 0), ((-1, 1), (0, 0))) == 10 - 4
    assert budget((), both, (-1, -3), ((0, 2), (-5, -3))) == 10 - 2
    assert budget((), both, (-1, 3), ((0, 2), (-5, -3))) == -1
    # one step raises x1 and lowers x2, each against its own side
    apart = (((2, 0, 0), 1, (1, -1)),)
    assert budget((), apart, (-2, 2), ((0, 1), (-1, 0))) == 10 - 4
    assert budget((), apart, (-2, 2), ((-1, 0), (0, 1))) == 10 - 2
    assert budget((), apart, (-2, 2), ((-1, 0), (3, 4))) == -1


def _fresh(poly):
    """A copy of ``poly`` sharing no object with it, so nothing memoized on it."""
    terms = {e: ParamSeries(dict(c.coeffs), c.trunc) for e, c in poly.terms.items()}
    return LaurentPoly(poly.vars, terms, poly.trunc)


def _guarded_ct(dens, mult, order, **kwargs):
    """``ct_integrate``, then the guard's verdict memoized on ``mult`` checked
    against ``_block_symmetric`` on a fresh copy of its terms."""
    try:
        return ct_integrate(dens, mult, order, **kwargs)
    finally:
        verdict = densities._block_symmetric(dens.blocks, _fresh(mult).terms)
        assert mult._memo[1][dens.blocks] is verdict, (dens, mult)


def test_non_symmetric_multiplier_rejected():
    dens = selberg_density(2)
    x1 = monomial(dens.vars, (1, 0), 1, D)
    x2 = monomial(dens.vars, (0, 1), 1, D)
    for mult in (x1, x2, poly_sum(x1, scaled(x2, 2))):  # the last has x1 + x2's support
        with pytest.raises(ConfigurationError):
            _guarded_ct(dens, mult, D)
    assert _guarded_ct(dens, poly_sum(x1, x2), D) == SeriesRing(D).zero()
    # symmetric within each block is enough for two blocks
    dens = two_block_density(1, 2)
    x = monomial(dens.vars, (1, 0, 0), 1, D)
    assert _guarded_ct(dens, x, D) == SeriesRing(D).zero()
    with pytest.raises(ConfigurationError):
        _guarded_ct(dens, monomial(dens.vars, (0, 1, 0), 1, D), D)


def test_guard_verdict_is_kept_per_multiplier_and_block_set():
    """The guard's verdict is memoized on the multiplier object per block
    tuple: a refused multiplier is refused again on the same object, and a
    multiplier accepted on one block set is still checked on another."""
    dens = selberg_density(2)
    x1 = monomial(dens.vars, (1, 0), 1, D)
    x2 = monomial(dens.vars, (0, 1), 1, D)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="not invariant"):
            ct_integrate(dens, x1, D)
    both = poly_sum(x1, x2)
    assert ct_integrate(dens, both, D) == SeriesRing(D).zero()
    # x2 -> 1/x2 breaks x1 + x2 on the "B" block over the same variables
    b_dens = koornwinder_density(2, K_SYMPLECTIC, pair=((1, 1), (-1, 1)))
    assert b_dens.vars == dens.vars and b_dens.blocks[0][0] == "B"
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="not invariant"):
            ct_integrate(b_dens, both, D)
    assert ct_integrate(dens, both, D) == SeriesRing(D).zero()
    assert both._memo[1] == {dens.blocks: True, b_dens.blocks: False}


def test_d_block_guard():
    """A D block needs W(D_n) invariance: S_n symmetry is not enough, and
    x_i -> 1/x_i symmetry of a single variable is not needed."""
    dens = koornwinder_density(3, K_PLUS_ODD)
    x = [monomial(dens.vars, e, 1, D) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    with pytest.raises(ConfigurationError):
        _guarded_ct(dens, poly_sum(*x), D)
    # D_2 = A_1 x A_1: invariance under x1 <-> x2 and (x1, x2) -> (1/x2, 1/x1)
    order = 8
    for params in (K_PLUS_ODD, K_SYMPLECTIC):
        dens = koornwinder_density(2, params)
        full = _full_product(dens.vars, *_full_koornwinder(dens), order)

        def poly(*exps):
            return LaurentPoly(dens.vars, {e: SeriesRing(order).one() for e in exps}, order)

        for mult in (poly((1, 0), (0, 1)), poly((1, 0)), poly((1, 1), (-1, 1))):
            with pytest.raises(ConfigurationError):
                _guarded_ct(dens, mult, order)
        # D-invariant but not BC-invariant, then BC-invariant
        for mult in (poly((1, 1), (-1, -1)), poly((1, -1), (-1, 1)),
                     poly((2, 0), (-2, 0), (0, 2), (0, -2))):
            got = _guarded_ct(dens, mult, order)
            assert got == _ct_bruteforce(full, dens.prefactor, mult), (params, mult)
            assert not got.is_zero()


def _closure(e, reflections):
    """The orbit of ``e``: its closure under the reflections."""
    orbit = {e}
    todo = [e]
    while todo:
        x = todo.pop()
        for *_, image in reflections:
            y = image(x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _signed_permutations(e, kind):
    """The orbit of ``e`` under S_n ("A"), W(B_n) ("B") or W(D_n) ("D"),
    listed from the groups' definitions: permutations, then sign changes,
    an even number of them for "D"."""
    out = set()
    for perm in permutations(e):
        for signs in product((1, -1), repeat=len(e) if kind != "A" else 0):
            if kind == "D" and prod(signs) == -1:
                continue
            out.add(tuple(x * sg for x, sg in zip(perm, signs)) if signs else perm)
    return out


@pytest.mark.parametrize("kind", "ABD")
def test_each_orbit_meets_the_chamber_once(kind):
    """Every point of [-3, 3]^n lies in the orbit of exactly one point of
    the closed dominant chamber, e_i >= s e_j for each reflection (i, j, s)
    of ``_reflections``, the reflections the guard checks; and closing a
    point under them gives its orbit under the whole group."""
    for n in range(1, 5):
        block = (kind, 0, n, 2) + (((-1, 2),) if kind == "B" else ())
        reflections = densities._reflections((block,), n)
        group = "A" if (kind, n) == ("D", 1) else kind  # W(D_1) is trivial, as S_1
        seen = set()
        for e in product(range(-3, 4), repeat=n):
            if e in seen:
                continue
            orbit = _closure(e, reflections)
            assert orbit == _signed_permutations(e, group)
            dominant = [x for x in orbit if all(x[i] >= s * x[j] for i, j, s, _ in reflections)]
            assert len(dominant) == 1, (kind, n, e, dominant)
            seen |= orbit


def _koornwinder_routes(key, n):
    """The densities and slots of a Koornwinder integrand on n + drop slots'
    variables: its own route and, when it has a pair, its "D" route."""
    integrand = INTEGRANDS[key]
    own = integrand(n + integrand.drop, None)
    routes = [own]
    if integrand.pair is not None:
        routes.append(integrand.whole()(n + integrand.drop, None))
    return routes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chamber_product_matches_plain_product(n):
    """The chamber product of P at an integrand's slots and the slot rule's
    linear factor has the very terms of ``LaurentPoly.__mul__``, for every
    Koornwinder integrand on its "B" and "D" routes and the registry's
    value sets."""
    keys = [key for key, integrand in INTEGRANDS.items() if hasattr(integrand, "params")]
    order = 6 if n < 4 else 4
    blockless = 0
    for key in keys:
        for dens, slots, tbase in _koornwinder_routes(key, n):
            blockless += not dens.blocks
            for weight in ((2, 1),) if n == 4 else ((1,), (2, 1), (1, 1, 1)):
                if len(weight) > len(slots):
                    continue
                p = hl_full(weight + (0,) * (len(slots) - len(weight)), slots, dens.vars,
                            order, tbase)
                for values in ((ALPHA,), (ALPHA, BETA), (MINUS_ONE, BETA), (ALPHA, MINUS_ALPHA)):
                    torus, _ = _linear_factors(slots, values, dens.vars, order)
                    want = p * torus
                    got = chamber_product(dens, [p, torus])
                    assert got.terms == want.terms, (key, dens.blocks, weight, values)
                    assert chamber_product(dens, [torus, p]).terms == want.terms
    # on one variable plus_even and the five "D" routes keep no block, as W(D_1)
    # is trivial, and there the product is the plain one
    assert blockless == (6 if n == 1 else 0)


def test_chamber_product_matches_plain_product_on_type_a():
    """On "A" blocks: P and the linear factor at every variable on the
    Selberg and two-block densities, and on the two-block density factors
    symmetric within one block only, P in the x's times a factor in the
    y's, and three factors at once."""
    order = 6
    for n in (1, 2, 3, 4):
        dens = selberg_density(n)
        slots = tuple(var_arg(n, i) for i in range(n))
        p = hl_full((2, 1, 1, 0)[:n], slots, dens.vars, order)
        torus, _ = _linear_factors(slots, (ALPHA, BETA), dens.vars, order)
        assert chamber_product(dens, [p, torus]).terms == (p * torus).terms, n
    for m, n in ((1, 2), (2, 2), (2, 3)):
        dens = two_block_density(m, n)
        nv = m + n
        every = tuple(var_arg(nv, i) for i in range(nv))
        p = hl_full((2, 1) + (0,) * (nv - 2), every, dens.vars, order)
        torus, _ = _linear_factors(every, (ALPHA,), dens.vars, order)
        assert chamber_product(dens, [p, torus]).terms == (p * torus).terms, (m, n)
        px = hl_full((2, 1, 0)[:m] if m > 1 else (2,), every[:m], dens.vars, order)
        ly, _ = _linear_factors(every[m:], (ALPHA, BETA), dens.vars, order)
        ybar = tuple(var_arg(nv, i, -1) for i in range(m, nv))
        pybar = hl_full((1,) + (0,) * (n - 1), ybar, dens.vars, order)
        assert chamber_product(dens, [px, ly]).terms == (px * ly).terms, (m, n)
        assert chamber_product(dens, [px, ly, pybar]).terms == (px * ly * pybar).terms


def test_chamber_product_guards_each_factor(monkeypatch):
    """A factor that is not invariant is refused, again on the same object,
    before anything is multiplied; so are x1 and x2 on two variables, though
    their product x1 x2 is symmetric."""
    dens = selberg_density(2)
    x1 = monomial(dens.vars, (1, 0), 1, D)
    x2 = monomial(dens.vars, (0, 1), 1, D)
    both = poly_sum(x1, x2)

    def no_product(*args):
        raise AssertionError("multiplied before the guard")

    monkeypatch.setattr(densities, "_chamber_mul", no_product)
    for factors in ([both, x1], [x1, both], [x1, x2]):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="not invariant"):
                chamber_product(dens, factors)
    assert x1._memo[1] == {dens.blocks: False} and both._memo[1] == {dens.blocks: True}
    monkeypatch.undo()
    assert chamber_product(dens, [both, both]).terms == (both * both).terms
    # on a "B" block x1 + x2 is not invariant either
    b_dens = koornwinder_density(2, K_SYMPLECTIC, pair=((1, 1), (-1, 1)))
    with pytest.raises(ConfigurationError, match="not invariant"):
        chamber_product(b_dens, [both, both])
    with pytest.raises(ConfigurationError):
        chamber_product(dens, [both, LaurentPoly.unit(dens.vars, D + 1)])


def test_weyl_factor_of_small_blocks():
    # D_2 = A_1 x A_1 with degrees (2, 2): the factor is 4/(1+t)^2
    r = SeriesRing(D)
    d2 = densities._weyl_factor((("D", 0, 2, 2),), D)
    assert d2 * (r.one() + r.t()) ** 2 == r.const(4)
    assert d2 == densities._weyl_factor((("A", 0, 2, 2), ("A", 2, 2, 2)), D)
    # D_3 = A_3: degrees (2, 4, 3) against (1, 2, 3, 4), and |W| = 24 both ways
    assert densities._weyl_factor((("D", 0, 3, 4),), D) == densities._weyl_factor(
        (("A", 0, 4, 4),), D)
    assert densities._weyl_factor((("D", 0, 1, 2),), D) == r.one()
    # B_n with ab = -t: the degrees of W(C_n), 2, 4, ..., 2n, and |W| = 2^n n!
    for n in (1, 2, 3):
        got = densities._weyl_factor((("B", 0, n, 2, (-1, 2)),), D)
        want = r.const(2 ** n * factorial(n)) * (r.one() - r.t()) ** n
        for i in range(1, n + 1):
            want = want * unit_inverse(r.one() - r.t(2 * i))
        assert got == want, n


def _poincare_b(ring, n, ab):
    """W(t; ab) = prod_{i<n} (1 + t + ... + t^i)(1 - ab t^i), ab = (sign, s-power)."""
    sign, spow = ab
    acc = ring.one()
    for i in range(n):
        acc = acc * sum((ring.t(k) for k in range(i + 1)), ring.zero())
        acc = acc * (ring.one() - ring.monomial(es=spow + 2 * i, coeff=sign))
    return acc


def test_poincare_series_of_b_inverts_gustafson():
    """W(t; ab) times Gustafson's product at (a, b, 0, 0) is one, and the
    "B" Weyl factor is 2^n n! times that product, for every halving pair."""
    order = 12
    r = SeriesRing(order)
    for key in HALVED:
        a, b = INTEGRANDS[key].pair
        for n in range(1, 6):
            gustafson = koornwinder_normalization(n, (a, b, 0, 0), order)
            ab = koornwinder_density(n, (a, b, 0, 0), pair=(a, b)).blocks[0][4]
            assert _poincare_b(r, n, ab) * gustafson == r.one(), (key, n)
            block = ("B", 0, n, 2, ab)
            assert densities._weyl_factor((block,), order) == gustafson * (
                2 ** n * factorial(n)), (key, n)


def _b_multiplier(key, n, weight, order):
    """The "B" and "D" densities of an integrand on n variables, and P_weight
    at its slots times the linear factors of the rows that use it."""
    integrand = INTEGRANDS[key]
    dens, slots, _ = integrand(n + integrand.drop, None)
    whole = integrand.whole()(n + integrand.drop, None)[0]
    if weight is None:
        return dens, whole, None
    mult = hl_full(weight + (0,) * (len(slots) - len(weight)), slots, dens.vars, order)
    torus, _ = _linear_factors(slots, HALVED[key], dens.vars, order)
    return dens, whole, mult if torus is None else mult * torus


def test_b_block_matches_full_and_d_routes():
    """Each halved integrand against its full density, multiplied out over
    every root and both sides of every single-variable factor, and against
    its "D" route, at n = 1, 2, 3 with P at the integrand's slots."""
    for key in HALVED:
        nonzero = 0
        for n in (1, 2, 3):
            order = 8 if n < 3 else 6
            _, whole, _ = _b_multiplier(key, n, None, order)
            full = _full_product(whole.vars, *_full_koornwinder(whole), order)
            for weight in (None, (2, 2), (2, 1, 1), (1, 1), (3, 1)):
                if weight is not None and len(weight) > 2 * n + len(INTEGRANDS[key].consts):
                    continue
                dens, whole, mult = _b_multiplier(key, n, weight, order)
                assert dens.blocks[0][0] == "B" and whole.blocks[:1] in ((), (("D", 0, n, 2),))
                got = ct_integrate(dens, mult, order)
                assert got == _ct_bruteforce(full, whole.prefactor, mult), (key, n, weight)
                assert got == ct_integrate(whole, mult, order), (key, n, weight)
                nonzero += not got.is_zero()
        assert nonzero >= 8, key


@pytest.mark.parametrize("key, n, weight, order", [
    ("kawanaka", 4, (2, 1), 8),
    ("symplectic", 4, (2, 2, 1, 1), 10),
])
def test_b_block_matches_d_route_on_larger_cases(key, n, weight, order):
    dens, whole, mult = _b_multiplier(key, n, weight, order)
    got = ct_integrate(dens, mult, order)
    assert not got.is_zero()
    assert got == ct_integrate(whole, mult, order)


def test_b_block_guard():
    """A "B" block needs invariance under x_n -> 1/x_n too: S_n symmetry,
    and W(D_n) symmetry, are not enough."""
    order = 8
    for key in HALVED:
        dens, whole, _ = _b_multiplier(key, 2, None, order)
        full = _full_product(whole.vars, *_full_koornwinder(whole), order)

        def poly(*exps):
            return LaurentPoly(dens.vars, {e: SeriesRing(order).one() for e in exps}, order)

        # S_2-invariant; the second and third are W(D_2)-invariant too
        for mult in (poly((1, 0), (0, 1)), poly((1, 1), (-1, -1)), poly((1, -1), (-1, 1))):
            with pytest.raises(ConfigurationError, match="not invariant"):
                _guarded_ct(dens, mult, order)
        # one variable, where W(B_1) is x -> 1/x alone
        x = monomial(("x1",), (1,), 1, order)
        one_var = _b_multiplier(key, 1, None, order)[0]
        with pytest.raises(ConfigurationError, match="not invariant"):
            _guarded_ct(one_var, x, order)
        # W(B_2)-invariant
        for mult in (poly((1, 1), (-1, -1), (1, -1), (-1, 1)),
                     poly((2, 0), (-2, 0), (0, 2), (0, -2))):
            got = _guarded_ct(dens, mult, order)
            assert got == _ct_bruteforce(full, whole.prefactor, mult), (key, mult)


def test_blocks_by_integrand_and_row(monkeypatch):
    """Five integrands take a "B" block; plus_even keeps its "D" block, and
    so do the bare integrals of the normalization rows."""
    kinds = {key: integrand(3, None)[0].blocks[0][0] for key, integrand in INTEGRANDS.items()
             if hasattr(integrand, "params")}
    assert kinds == {"plus_even": "D", **{key: "B" for key in HALVED}}
    seen = []

    def recording(dens, *args, **kwargs):
        seen.append(dens.blocks[0][0])
        return ct_integrate(dens, *args, **kwargs)

    monkeypatch.setattr(identities, "ct_integrate", recording)
    for name in NORMALIZATION_ROWS:
        assert identities.verify(name, n=3, order=4).status == "match", name
    assert seen == ["D"] * 6
    seen.clear()
    assert identities.verify("o_plus_odd", n=2, weight=(1, 1), order=6).status == "match"
    assert seen == ["B", "B"]  # I and Z


def _slots(n, power=1):
    return tuple(var_arg(n, i, power) for i in range(n))


@pytest.mark.parametrize("n, max_weight", [(2, 4), (3, 4), (4, 6)])
def test_lead_matches_product_route(n, max_weight):
    """P_lambda as ``lead`` against the product P_lambda * Pbar_mu, on every
    pair of the orthogonality grid."""
    order = 10
    dens = selberg_density(n)
    grid = [w.padded(n).parts for w in sweep_weights("orthogonality", n, max_weight=max_weight)]
    ps = {w: hl_full(w, _slots(n), dens.vars, order) for w in grid}
    pbars = {w: hl_full(w, _slots(n, -1), dens.vars, order) for w in grid}
    nonzero = 0
    for lam in grid:
        for mu in grid:
            got = ct_integrate(dens, pbars[mu], order, lead=lam)
            assert got == ct_integrate(dens, ps[lam] * pbars[mu], order), (lam, mu)
            nonzero += not got.is_zero()
    assert nonzero == len(grid)  # the diagonal, as orthogonality says


def test_window_is_the_range_of_the_exponents_read(monkeypatch):
    """``ct_integrate`` asks for the exponents -(e + lead) it reads, per
    variable from the least to the largest: a narrower window would drop
    terms, a wider one only costs time.  The range is memoized on the
    multiplier, so the same object, integrated again with another lead,
    must ask for the window a fresh copy of it asks for."""
    n, order = 3, 8
    dens = selberg_density(n)
    pbar = _fresh(hl_full((2, 1, 0), _slots(n, -1), dens.vars, order))
    asked = []
    expansion = densities._expansion
    monkeypatch.setattr(densities, "_expansion",
                        lambda d, o, w: asked.append(tuple(map(tuple, w))) or expansion(d, o, w))
    for lead in (None, (2, 1, 0), (3, 1, 1)):
        asked.clear()
        ct_integrate(dens, pbar, order, lead=lead)
        ct_integrate(dens, _fresh(pbar), order, lead=lead)
        shift = lead or (0,) * n
        reads = [tuple(-x - a for x, a in zip(e, shift)) for e in pbar.terms]
        assert asked == [tuple((min(c), max(c)) for c in zip(*reads))] * 2, lead
    densities.clear_caches()


def test_lead_counts_zero_parts_in_v_lambda():
    """(2,1,0,0) has the run of zeros m_0 = 2, so v_lambda = [2]_t! = 1 + t:
    <P_lambda, P_lambda> = 4!/v_lambda(t), not 4!."""
    n, order, lam = 4, 10, (2, 1, 0, 0)
    dens = selberg_density(n)
    pbar = hl_full(lam, _slots(n, -1), dens.vars, order)
    got = ct_integrate(dens, pbar, order, lead=lam)
    ring = SeriesRing(order)
    assert got * TComb(ring).v_of(lam) == ring.const(factorial(n))
    assert got * (ring.one() + ring.t()) == ring.const(factorial(n))
    p = hl_full(lam, _slots(n), dens.vars, order)
    assert got == ct_integrate(dens, p * pbar, order)
    # without a multiplier: the bare integral of P_lambda, zero unless lambda = 0
    assert ct_integrate(dens, None, order, lead=lam).is_zero()
    assert ct_integrate(dens, None, order, lead=(0,) * n) == ct_integrate(dens, None, order)


def test_lead_refusals():
    """A bad lead or density is refused on every call, though the runs of a
    good lead are cached, until ``clear_caches``."""
    densities.clear_caches()
    dens = selberg_density(2)
    one = LaurentPoly.unit(dens.vars, D)
    for lead in ((0, 1), (1, 0, 0), (1,), (1, 1, 0)):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="weakly decreasing"):
                ct_integrate(dens, one, D, lead=lead)
        if len(lead) == 2:
            ct_integrate(dens, one, D, lead=lead[::-1])
    assert densities._runs.cache_info().currsize == 1
    for other in (koornwinder_density(2, K_PLUS_EVEN), two_block_density(1, 2)):
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="one \"A\" block"):
                ct_integrate(other, None, D, lead=(1,) * len(other.vars))
    densities.clear_caches()
    assert densities._runs.cache_info().currsize == 0
    # the multiplier is still guarded
    x1 = monomial(dens.vars, (1, 0), 1, D)
    with pytest.raises(ConfigurationError, match="not invariant"):
        _guarded_ct(dens, x1, D, lead=(1, 0))


def test_ct_requires_matching_variables_and_order():
    dens = selberg_density(2)
    with pytest.raises(ConfigurationError):
        ct_integrate(dens, LaurentPoly.unit(("y1",), D), D)
    with pytest.raises(ConfigurationError):
        ct_integrate(dens, LaurentPoly.unit(dens.vars, D + 1), D)


def test_term_ceiling_trips(monkeypatch):
    monkeypatch.setenv("HLTORUS_MAX_TERMS", "1")
    from hltorus import densities as dmod

    dmod.clear_caches()
    # the bare positive-root expansion has one state, so give it a window
    dens = selberg_density(3)
    e1e1bar = _multipliers(dens.vars, (1, 0, 0), D)[1]
    with pytest.raises(ResourceLimitError):
        ct_integrate(dens, e1e1bar, D)
    monkeypatch.delenv("HLTORUS_MAX_TERMS")
    dmod.clear_caches()
