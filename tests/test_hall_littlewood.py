import gc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hltorus import hall_littlewood
from hltorus.errors import ConfigurationError, DomainError, ResourceLimitError
from hltorus.hall_littlewood import (
    ClassTable,
    Mono,
    const_arg,
    hl_full,
    pm_args,
    selberg_average,
    var_arg,
)
from hltorus.identities import INTEGRANDS, _Koornwinder
from hltorus.laurent import LaurentPoly
from hltorus.partitions import partitions_up_to
from hltorus.series import ParamSeries, SeriesRing

from helpers import coefficient, hl_q, monomial, permute_vars, poly_of, scalar, truncated
from oracles import (
    degenerate_check,
    hl_by_branching,
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
    assert p1 == poly_of(v, {(1, 0): r.one(), (0, 1): r.one()}, D)
    p2 = hl_full((2, 0), plain(2), v, D)
    assert p2 == poly_of(
        v, {(2, 0): r.one(), (0, 2): r.one(), (1, 1): r.one() - r.t()}, D
    )
    p11 = hl_full((1, 1), plain(2), v, D)
    assert p11 == poly_of(v, {(1, 1): r.one()}, D)


def test_q_normalization():
    r = SeriesRing(D)
    v1 = names(1)
    q1 = hl_q((1,), plain(1), v1, D)
    assert q1 == poly_of(v1, {(1,): r.one() - r.t()}, D)
    q0 = hl_q((0,), plain(1), v1, D)
    assert q0 == LaurentPoly.unit(v1, D)
    v2 = names(2)
    q11 = hl_q((1, 1), plain(2), v2, D)
    expected = (r.one() - r.t()) * (r.one() - r.t(2))
    assert q11 == poly_of(v2, {(1, 1): expected}, D)


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
    expected = poly_of(
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
                {(k[0] + spow, k[1], k[2]): v for k, v in c.items()}, D
            )
            cur = out.get(key)
            s = cc if cur is None else cur + cc
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        assert direct == poly_of(("z1", "z2"), out, D), w


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
        for k, v in c.items()
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
    """Up to six slots from x^{+-1} pairs, +-1, (t z, z) pairs and lone x^{-1}."""
    tbase = draw(st.sampled_from((2, 4)))
    pairs = draw(st.lists(st.sampled_from(("pm", "scaled", "inv")), max_size=NV))
    signs = draw(st.sets(st.sampled_from((1, -1))))
    assume(1 <= sum(1 if kind == "inv" else 2 for kind in pairs) + len(signs) <= 6)
    args = [const_arg(NV, sign) for sign in sorted(signs)]
    for i, kind in enumerate(pairs):
        if kind == "pm":
            args += [var_arg(NV, i, 1), var_arg(NV, i, -1)]
        elif kind == "scaled":
            args += [Mono(1, tbase, var_arg(NV, i).exps), var_arg(NV, i)]
        else:
            args.append(var_arg(NV, i, -1))
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
    assert p == poly_of(names(4), {e: truncated(coefficient(full, e), 8) for e in full.terms}, 8)


def test_branching_leaves_no_cyclic_garbage():
    """The class table and the slot DP's states are freed by reference
    counting: with the collector off, a large weight leaves no more for it
    than a small one."""
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


def _by_class(lam, order, tbase):
    """P by the branching oracle at the plain variables, its terms at sorted
    exponents: one per class."""
    n = len(lam)
    p = hl_by_branching(lam, tuple(var_arg(n, i) for i in range(n)),
                        tuple("x%d" % (i + 1) for i in range(n)), order, tbase)
    return {e: c for e, c in p.terms.items() if list(e) == sorted(e, reverse=True)}


@pytest.mark.parametrize("tbase", [2, 4])
def test_class_table_matches_hl_full_by_class(tbase):
    """Each row of the class table is the branching oracle's P collected by
    class, at one to four variables, every partition of size at most 5 and
    orders 0, 3 and 8; a table shares its rows across the weights it is
    asked for, and every entry keeps the coefficient layout."""
    for order in (0, 3, 8):
        table = ClassTable(order, tbase)
        for n in range(1, 5):
            for lam in partitions_up_to(5, n):
                lam = lam.padded(n).parts
                row = table.row(lam)
                assert row == _by_class(lam, order, tbase), (lam, order)
                assert row[lam] == {(0, 0, 0): 1}
                for c in row.values():
                    assert c and all(v and sum(k) <= order for k, v in c.items())
    # a floor keeps the classes whose parts all reach it
    row = ClassTable(6, tbase).row((3, 2, 1, 0))
    assert ClassTable(6, tbase).row((3, 2, 1, 0), 1) == {
        mu: c for mu, c in row.items() if min(mu) >= 1}


def _differential_cases():
    """(weight, slots, nvars, tbase) over the slot lists the identities build."""
    kinds = sorted({(k.drop, k.consts) for k in INTEGRANDS.values()
                    if isinstance(k, _Koornwinder)})
    for n in range(1, 6):
        for drop, consts in kinds:
            nv = n - drop
            if nv < 1:
                continue
            slots = pm_args(nv) + tuple(const_arg(nv, c) for c in consts)
            k = len(slots)
            weights = [(1,) + (0,) * (k - 2) + (-1,), (2, 1) + (0,) * (k - 2)]
            if n <= 3:
                weights += [lam.padded(k).parts for lam in partitions_up_to(4, k)]
                if k >= 3:
                    weights.append((2,) + (0,) * (k - 3) + (-1, -1))
            yield from ((w, slots, nv, 2) for w in weights)
    # o_plus_even at n=5
    yield (2, 2, 1, 1) + (0,) * 6, pm_args(5), 5, 2
    for n in range(1, 5):
        # the plain slots and the inverted ones of a P-bar, negative parts too
        for slots in (plain(n), tuple(var_arg(n, i, -1) for i in range(n))):
            for lam in partitions_up_to(4, n):
                yield lam.padded(n).parts, slots, n, 2
            if n >= 2:
                yield (1,) + (0,) * (n - 2) + (-1,), slots, n, 2
                yield (2,) + (0,) * (n - 2) + (-3,), slots, n, 2
    for tbase in (2, 4):
        for n in range(1, 4):
            # (t z, z) pairs
            slots = tuple(y for i in range(n) for y in (var_arg(n, i, spow=tbase), var_arg(n, i)))
            for lam in partitions_up_to(3, 2 * n):
                yield lam.padded(2 * n).parts, slots, n, tbase


def test_hl_full_matches_branching_oracle():
    """hl_full, a class table row and a DP over the slots, equals P built
    monomial by monomial by the branching rule on every slot list the
    identities use, at orders 0, 3 and 8."""
    for weight, slots, nv, tbase in _differential_cases():
        for order in (0, 3, 8):
            hall_littlewood.clear_caches()
            got = hl_full(weight, slots, names(nv), order, tbase)
            assert got == hl_by_branching(weight, slots, names(nv), order, tbase), (
                weight, slots, order, tbase)
    hall_littlewood.clear_caches()


def test_build_failure_caches_nothing(monkeypatch):
    """A MemoryError partway through a build propagates, leaves no cache
    entry, and the next call builds the whole P."""
    weight, slots, order = (2, 1, 1, 0, 0, -1), pm_args(3), 8
    key = (weight, slots, names(3), order, 2)
    real, calls = hall_littlewood.mul_into, []

    def failing(*args):
        # the class table takes the first 43 calls, the slot DP the next 614
        calls.append(None)
        if len(calls) == 300:
            raise MemoryError
        real(*args)

    hall_littlewood.clear_caches()
    monkeypatch.setattr(hall_littlewood, "mul_into", failing)
    with pytest.raises(MemoryError):
        hl_full(weight, slots, names(3), order)
    assert key not in hall_littlewood._CACHE
    monkeypatch.setattr(hall_littlewood, "mul_into", real)
    assert hl_full(weight, slots, names(3), order) == hl_by_branching(
        weight, slots, names(3), order)
    hall_littlewood.clear_caches()


def test_class_table_counts_toward_its_limit():
    # (2, 1, 0) has the classes (2, 1, 0), (1, 1, 1); its strips' rows add 5
    assert len(ClassTable(4, 2, limit=7).row((2, 1, 0))) == 2
    with pytest.raises(ResourceLimitError, match="class table"):
        ClassTable(4, 2, limit=6).row((2, 1, 0))


def test_negative_order_is_refused():
    slots = tuple(var_arg(2, i) for i in range(2))
    with pytest.raises(ConfigurationError, match="nonnegative"):
        hl_full((1, 1), slots, ("x1", "x2"), -1)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        ClassTable(-1)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        selberg_average((1, -1), slots, (("A", 0, 2, 2),), 2, -1)
    # order 0 is the constant term alone
    assert hl_full((1, 1), slots, ("x1", "x2"), 0).terms == {(1, 1): {(0, 0, 0): 1}}
