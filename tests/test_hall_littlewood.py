import gc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hltorus import hall_littlewood
from hltorus.errors import DomainError
from hltorus.hall_littlewood import (
    Mono,
    const_arg,
    hl_full,
    pm_args,
    var_arg,
)
from hltorus.laurent import LaurentPoly
from hltorus.partitions import partitions_up_to
from hltorus.series import ParamSeries, SeriesRing

from helpers import coefficient, hl_q, monomial, permute_vars, scalar, truncated
from oracles import (
    degenerate_check,
    hl_by_point_evaluation,
    monomial_sym,
    schur_by_tableaux,
    slot_value,
)

D = 12


def plain(n):
    return tuple(var_arg(n, i) for i in range(n))


def names(n):
    return tuple("x%d" % (i + 1) for i in range(n))


def test_leading_cases_two_variables():
    r = SeriesRing(D)
    v = names(2)
    p1 = hl_full((1, 0), plain(2), v, D)
    assert p1 == LaurentPoly(v, {(1, 0): r.one(), (0, 1): r.one()}, D)
    p2 = hl_full((2, 0), plain(2), v, D)
    assert p2 == LaurentPoly(
        v, {(2, 0): r.one(), (0, 2): r.one(), (1, 1): r.one() - r.t()}, D
    )
    p11 = hl_full((1, 1), plain(2), v, D)
    assert p11 == LaurentPoly(v, {(1, 1): r.one()}, D)


def test_q_normalization():
    r = SeriesRing(D)
    v1 = names(1)
    q1 = hl_q((1,), plain(1), v1, D)
    assert q1 == LaurentPoly(v1, {(1,): r.one() - r.t()}, D)
    q0 = hl_q((0,), plain(1), v1, D)
    assert q0 == LaurentPoly.unit(v1, D)
    v2 = names(2)
    q11 = hl_q((1, 1), plain(2), v2, D)
    expected = (r.one() - r.t()) * (r.one() - r.t(2))
    assert q11 == LaurentPoly(v2, {(1, 1): expected}, D)


def test_symmetry_under_variable_permutation():
    for lam in partitions_up_to(4, 3):
        for n in (2, 3):
            if len(lam) > n:
                continue
            padded = lam.padded(n).parts
            p = hl_full(padded, plain(n), names(n), 8)
            swapped = permute_vars(p, (1, 0) + tuple(range(2, n)))
            assert p == swapped, (lam, n)


def test_monic_leading_coefficient():
    for lam in partitions_up_to(4, 3):
        padded = lam.padded(3).parts
        p = hl_full(padded, plain(3), names(3), 8)
        assert coefficient(p, padded) == 1, lam


def test_shift_law():
    for lam in partitions_up_to(3, 2):
        padded = lam.padded(2).parts
        p = hl_full(padded, plain(2), names(2), 8)
        shifted = hl_full(tuple(x + 1 for x in padded), plain(2), names(2), 8)
        assert p * monomial(names(2), (1, 1), 1, 8) == shifted


def test_pm_argument_list():
    r = SeriesRing(D)
    p = hl_full((1, 1), pm_args(1), ("x1",), D)
    assert p == LaurentPoly.unit(("x1",), D)
    c = hl_full((2, 0), (const_arg(0, 1), const_arg(0, -1)), (), D)
    assert scalar(c) == r.one() + r.t()


def test_dominant_weight_slots():
    r = SeriesRing(D)
    p = hl_full((1, -1), plain(2), names(2), D)
    expected = LaurentPoly(
        names(2), {(1, -1): r.one(), (-1, 1): r.one(), (0, 0): r.one() - r.t()}, D
    )
    assert p == expected


def test_scaled_slots_match_substitution():
    # evaluate with slots (t z1, z1, t z2, z2) directly, then compare with
    # substituting into the plain four-variable polynomial; a last part > 0
    # checks the (y_1 ... y_N)^{lambda_N} shift against the truncation
    for w in ((3, 1, 0, 0), (2, 2, 1, 0), (2, 1, 1, 0), (3, 2, 1, 1), (2, 2, 2, 1)):
        direct = hl_full(
            w,
            (Mono(1, 2, (1, 0)), Mono(1, 0, (1, 0)), Mono(1, 2, (0, 1)), Mono(1, 0, (0, 1))),
            ("z1", "z2"),
            D,
        )
        p4 = hl_full(w, plain(4), names(4), D)
        out = {}
        for e, c in p4.terms.items():
            spow = 2 * (e[0] + e[2])
            key = (e[0] + e[1], e[2] + e[3])
            cc = ParamSeries(
                {(k[0] + spow, k[1], k[2]): v for k, v in c.coeffs.items()}, D
            )
            cur = out.get(key)
            s = cc if cur is None else cur + cc
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        assert direct == LaurentPoly(("z1", "z2"), out, D), w


def test_negative_weight_with_scaled_slots_rejected():
    with pytest.raises(DomainError):
        hl_full((0, -1), (Mono(1, 2, (1,)), Mono(1, 0, (1,))), ("z1",), D)


def test_degenerations_schur_and_monomial():
    for lam in partitions_up_to(4, 3):
        for n in (1, 2, 3):
            if lam.length_nonzero() > n:
                continue
            report = degenerate_check(lam.parts, n, order=24)
            assert report["certified_untruncated"], (lam, n)
            assert report["schur_ok"], (lam, n)
            assert report["monomial_ok"], (lam, n)


def test_tableau_oracle_values():
    # s_(2,1) in two variables: x1^2 x2 + x1 x2^2
    assert schur_by_tableaux((2, 1), 2) == {(2, 1): 1, (1, 2): 1}
    assert monomial_sym((1,), 3) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert schur_by_tableaux((0, 0), 2) == {(0, 0): 1}


def _at_point(poly, point, s):
    return sum(
        v * slot_value(Mono(1, k[0], exps), point, s)
        for exps, c in poly.terms.items()
        for k, v in c.coeffs.items()
    )


def _certifying_order(weight, args, tbase):
    # P_lambda v_lambda(t) is the permutation sum, whose t-degree is at most
    # N(N-1)/2; the slots add at most max(spow) * |lambda| (negative parts
    # only come with spow 0).  One above that bound nothing is truncated.
    n = len(args)
    top = tbase * n * (n - 1) // 2 + max((m.spow for m in args), default=0) * sum(weight)
    return top + 1


def _assert_matches_oracle(weight, args, point, s, tbase=2):
    order = _certifying_order(weight, args, tbase)
    names = tuple("x%d" % (i + 1) for i in range(len(point)))
    p = hl_full(weight, args, names, order, tbase)
    assert _at_point(p, point, s) == hl_by_point_evaluation(weight, args, point, s, tbase)


NV = 3
POINTS = (Fraction(2), Fraction(-3, 2), Fraction(5, 3), Fraction(-7, 4), Fraction(3))
S_VALUES = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5))


@st.composite
def hl_cases(draw):
    """Up to six slots from x^{+-1} pairs, +-1 and (t z, z) pairs."""
    tbase = draw(st.sampled_from((2, 4)))
    pairs = draw(st.lists(st.sampled_from(("pm", "scaled")), max_size=NV))
    signs = draw(st.sets(st.sampled_from((1, -1))))
    assume(1 <= 2 * len(pairs) + len(signs) <= 6)
    args = [const_arg(NV, sign) for sign in sorted(signs)]
    for i, kind in enumerate(pairs):
        if kind == "pm":
            args += [var_arg(NV, i, 1), var_arg(NV, i, -1)]
        else:
            args += [Mono(1, tbase, var_arg(NV, i).exps), var_arg(NV, i)]
    low = 0 if "scaled" in pairs else -2
    weight = draw(st.lists(st.integers(low, 3), min_size=len(args), max_size=len(args)))
    point = tuple(draw(st.permutations(POINTS))[:NV])
    s = draw(st.sampled_from(S_VALUES))
    return tuple(sorted(weight, reverse=True)), tuple(args), point, s, tbase


@settings(max_examples=60, deadline=None)
@given(hl_cases())
def test_matches_point_evaluation_oracle(case):
    weight, args, point, s, tbase = case
    assume(len({slot_value(m, point, s) for m in args}) == len(args))
    _assert_matches_oracle(weight, args, point, s, tbase)


def test_u2n_frontier_weight_builds():
    # eight pm slots with a dominant weight of both signs, the weight of
    # u2n_vanishing at n=4
    weight = (1, 1, 0, 0, 0, 0, -1, -1)
    point = (Fraction(2), Fraction(3), Fraction(-5, 2), Fraction(7, 3))
    p = hl_full(weight, pm_args(4), names(4), 8)
    _assert_matches_oracle(weight, pm_args(4), point, Fraction(1, 2))
    full = hl_full(weight, pm_args(4), names(4), _certifying_order(weight, pm_args(4), 2))
    assert p == LaurentPoly(names(4), {e: truncated(c, 8) for e, c in full.terms.items()}, 8)


def test_branching_leaves_no_cyclic_garbage():
    """The memo of intermediate P_mu is freed by reference counting: with
    the collector off, a large weight leaves no more for it than a small
    one."""
    def garbage_after(weight):
        hall_littlewood.clear_caches()
        gc.collect()
        hl_full(weight, pm_args(3), names(3), 8)
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        small = garbage_after((1, 0, 0, 0, 0, 0))
        assert garbage_after((3, 3, 2, 2, 1, 1)) <= small
    finally:
        if enabled:
            gc.enable()
        hall_littlewood.clear_caches()
