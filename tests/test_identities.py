import dataclasses
import json
from fractions import Fraction
from functools import partial

import pytest

from hltorus.densities import ct_integrate, selberg_density
from hltorus.errors import ConfigurationError, DomainError, ResourceLimitError
from hltorus.hall_littlewood import Mono, const_arg, hl_full, pm_args, var_arg
from hltorus.identities import (
    ALPHA,
    BETA,
    INTEGRANDS,
    REGISTRY,
    _build,
    _integral,
    _Instance,
    _lift,
    _linear_factors,
    _plan,
    _route,
    rhs_kawanaka,
    rhs_orthogonality,
    rhs_rogers_szego,
    rhs_symplectic,
    rhs_t2_branching,
    sweep_weights,
    verify,
)
from hltorus.partitions import DominantWeight, Partition, partitions_up_to
from hltorus.series import SeriesRing

from helpers import (bounded_partitions, drop_param, from_coeffs, lifted,
                     linear_factor_by_binomials, monomial, negate_param, parity_counts,
                     row_closed_form, torus_factor, truncated)
from oracles import (FACTORED, c_symbols, hl_by_point_evaluation, rhs_ab, rhs_ab_sum,
                     rhs_alpha_eq_minus_beta, rhs_alpha_minus_one, rhs_orthogonal_alpha,
                     slot_value)

D = 10


def ok(report):
    return report.status in ("match", "vanished-as-predicted")


def test_registry_catalog():
    assert len(REGISTRY) >= 18
    for name in ("orthogonality", "normalization_iv", "o_plus_even",
                 "ab_ominus_odd", "symplectic", "kawanaka", "unm_vanishing",
                 "u2n_vanishing", "double_cover", "t2_branching"):
        assert name in REGISTRY
        assert REGISTRY[name].description
        assert REGISTRY[name].weight_shape


def test_every_registry_row_verifies_at_small_rank():
    # each row at n = max(min_n, 1), order 6: once with the empty weight and
    # once with one nonzero weight (rows without a weight run once)
    for name, defn in sorted(REGISTRY.items()):
        n = max(defn.min_n, 1)
        m = 1 if defn.needs_m else None
        weights = [None]
        if defn.needs_weight:
            nonzero = (1, -1) if defn.allows_negative and defn.rank_of(n, m) >= 2 else (1,)
            weights = [(), nonzero]
        for w in weights:
            mu = w if defn.needs_mu else None
            rep = verify(name, n=n, m=m, weight=w, mu=mu, order=6)
            assert ok(rep), rep.text_line()


def test_arguments_a_row_does_not_take_are_rejected():
    with pytest.raises(DomainError, match="takes no m"):
        verify("orthogonality", n=2, m=5, weight=(1,), mu=(1,), order=6)
    with pytest.raises(DomainError, match="takes no weight"):
        verify("normalization_i", n=1, weight=(3, 1), order=6)
    with pytest.raises(DomainError, match="takes no mu"):
        verify("o_plus_even", n=1, weight=(), mu=(7, 7), order=6)
    for m in (None, -1, 3):
        with pytest.raises(DomainError, match="0 <= m <= n"):
            verify("unm_vanishing", n=2, m=m, weight=(), order=6)


def test_sweep_weights_without_m_is_a_domain_error():
    with pytest.raises(DomainError, match="0 <= m <= n"):
        sweep_weights("unm_vanishing", 2)


@pytest.mark.parametrize("kwargs", [dict(max_weight=-1), dict(max_weight=-3),
                                    dict(max_weight=2, max_parts=-1)])
def test_negative_sweep_bounds_are_domain_errors(kwargs):
    for name, m in (("orthogonality", None), ("o_plus_even", None), ("unm_vanishing", 1)):
        with pytest.raises(DomainError, match="at least 0"):
            sweep_weights(name, 2, m, **kwargs)
    assert sweep_weights("orthogonality", 2, max_weight=0) == [Partition(())]


def test_symmetrization_route_is_read_from_the_integrand():
    """Only the t-Selberg integrand with P at the plain variables takes the
    ``lead`` route; the t-Selberg blocks of t2_selberg (P in t^2), two_block
    and double_cover take the class route, and cross_block and the
    Koornwinder integrands form the product."""
    routes = {key: _route(*integrand(3, 1)) for key, integrand in INTEGRANDS.items()}
    assert routes == {
        "selberg": "lead",
        "t2_selberg": "classes", "two_block": "classes", "double_cover": "classes",
        "cross_block": "product", "symplectic": "product", "kawanaka": "product",
        "plus_even": "product", "minus_even": "product", "plus_odd": "product",
        "minus_odd": "product",
    }


def test_mu_is_taken_on_the_lead_route_alone():
    """Every row that takes mu routes each of its integrands to "lead" at
    n = 1..4, and mu on any other route is refused before P is formed."""
    rows = [defn for defn in REGISTRY.values() if defn.needs_mu]
    assert rows
    for defn in rows:
        for n in range(1, 5):
            m = n if defn.needs_m else None
            assert {_plan(key, n, m, False).route for key in defn.integrands} == {"lead"}
    weight = Partition((1, 0))
    with pytest.raises(ConfigurationError, match="lead route"):
        _integral("plus_even", _Instance(1, None, weight, weight, 4), (ALPHA,))


# row -> (n, m, largest weight, orders) of the class-route differential test
CLASS_ROUTE_CASES = {
    "t2_branching": [(1, None, 3, (1, 6, 10)), (2, None, 4, (1, 6, 10)),
                     (3, None, 3, (4, 10)), (4, None, 3, (6, 10))],
    "unm_vanishing": [(1, 0, 3, (1, 6, 10)), (1, 1, 3, (1, 6, 10)), (2, 0, 3, (6, 10)),
                      (2, 2, 2, (4, 10)), (3, 1, 2, (8,)), (3, 3, 2, (8,)), (4, 0, 2, (10,)),
                      (4, 2, 2, (10,)), (4, 4, 2, (6,))],
    "double_cover": [(1, None, 3, (1, 6, 10)), (2, None, 3, (4, 10)), (3, None, 2, (6, 10))],
}


@pytest.mark.parametrize("name", sorted(CLASS_ROUTE_CASES))
def test_class_route_matches_the_expanded_density(name):
    """(I, Z) of each row on the class route are (I/Z, 1) for I and Z the
    ``ct_integrate`` of P, formed (and lifted), and of one against the row's
    density in factored form, at n <= 4 and orders up to 10, with m = 0 and
    m = n, over weight grids that hold zero cases and nonzero ones."""
    defn = REGISTRY[name]
    (key,) = defn.integrands
    zeros = []
    for n, m, size, orders in CLASS_ROUTE_CASES[name]:
        dens = FACTORED[key](n, m)
        for w in sweep_weights(name, n, m, max_weight=size):
            for order in orders:
                inst = _Instance(n, m, w, None, order)
                k = max(0, -w.parts[-1])
                inst = inst._replace(order=order + _lift(defn, inst))
                got = _integral(key, inst, (), True)
                _, slots, tbase = INTEGRANDS[key](n, m)
                mult = lifted(w.parts, k, slots, dens.vars, inst.order, tbase)
                bare = ct_integrate(dens, None, inst.order)
                assert got[1] == 1 and got[0] * bare == ct_integrate(dens, mult, inst.order), (
                    n, m, w, order)
                zeros.append(got[0].is_zero())
    assert any(zeros) and not all(zeros)


def test_class_route_takes_normalized_rows_alone(monkeypatch):
    """The class route gives the normalized average <P>/<1> alone: every
    registry row routed there is normalized, and a row on ``t2_selberg``
    that is not is refused, not given the normalized value."""
    rows = [defn for defn in REGISTRY.values()
            if any(_route(*INTEGRANDS[key](2, 1)) == "classes" for key in defn.integrands)]
    assert {defn.name for defn in rows} == {"unm_vanishing", "t2_branching", "double_cover"}
    assert all(defn.normalized for defn in rows)
    row = dataclasses.replace(REGISTRY["t2_branching"], name="t2_bare", normalized=False)
    assert row.integrands == ("t2_selberg",)
    monkeypatch.setitem(REGISTRY, "t2_bare", row)
    with pytest.raises(ConfigurationError, match="must be normalized"):
        verify("t2_bare", n=2, weight=(1, -1), order=4)


def test_clearing_caches_rebuilds_the_integrand_plan(monkeypatch, clear_caches):
    """A warm instance integrates against the density object its integrand's
    plan cached; after ``clear_caches`` the next instance builds a new one."""
    from hltorus import identities

    seen = []

    def recording(dens, *args, **kwargs):
        seen.append(dens)
        return ct_integrate(dens, *args, **kwargs)

    monkeypatch.setattr(identities, "ct_integrate", recording)
    clear_caches()
    for clear_first in (False, False, True):
        if clear_first:
            clear_caches()
        assert ok(verify("orthogonality", n=2, weight=(1, 0), mu=(1, 0), order=6))
    first, warm, cold = seen
    assert warm is first
    assert cold is not first


def test_pair_sweep_reports_do_not_depend_on_cache_state(clear_caches):
    """The n=3 orthogonality grid run warm in grid order, warm in reversed
    order and cold before each pair gives byte-identical sorted reports."""
    grid = sweep_weights("orthogonality", 3, max_weight=3)
    pairs = [(lam, mu) for lam in grid for mu in grid]

    def report_lines(todo, cold):
        lines = []
        for lam, mu in todo:
            if cold:
                clear_caches()
            rep = verify("orthogonality", n=3, weight=lam, mu=mu, order=D)
            lines.append(json.dumps(rep.to_json_obj(), sort_keys=True))
        return "\n".join(sorted(lines)).encode()

    clear_caches()
    warm = report_lines(pairs, cold=False)
    clear_caches()
    assert report_lines(pairs[::-1], cold=False) == warm
    assert report_lines(pairs, cold=True) == warm
    assert warm.count(b'"match"') == len(grid)
    assert warm.count(b'"vanished-as-predicted"') == len(pairs) - len(grid)


def test_derived_row_attributes():
    assert REGISTRY["alpha_minus_one"].params == ("beta",)
    assert REGISTRY["ab_sum_odd"].params == ("alpha", "beta")
    assert REGISTRY["symplectic"].params == ()
    assert REGISTRY["unm_vanishing"].needs_m and not REGISTRY["u2n_vanishing"].needs_m
    assert not REGISTRY["normalization_iv"].needs_weight
    assert REGISTRY["pfaffian_plus_odd"].rank_of(0) == 1


def test_verify_report_fields():
    rep = verify("orthogonality", n=2, weight=(1, 0), mu=(1, 0), order=10)
    assert rep.status == "match"
    assert rep.achieved_order == 10
    assert rep.first_discrepancy_degree is None
    assert rep.weight == "1,0" and rep.mu == "1,0"
    obj = rep.to_json_obj()
    assert obj["wall_time_ms"] is None
    assert obj["status"] == "match"
    assert rep.to_json_obj(include_timing=True)["wall_time_ms"] is not None


def test_orthogonality_value_is_n_factorial_over_v():
    # frozen value: n=2, lambda=mu=(1,0) gives exactly 2
    r = SeriesRing(D)
    names = ("x1", "x2")
    p = hl_full((1, 0), (var_arg(2, 0), var_arg(2, 1)), names, D)
    pinv = hl_full((1, 0), (var_arg(2, 0, -1), var_arg(2, 1, -1)), names, D)
    val = ct_integrate(selberg_density(2), p * pinv, D)
    assert val == r.const(2)
    num, den = rhs_orthogonality(Partition((2, 1, 0)), Partition((2, 1, 0)), 3, D)
    assert num == SeriesRing(D).const(6) and den == SeriesRing(D).one()


def test_unknown_identity_and_bad_weights():
    with pytest.raises(KeyError):
        verify("nope", n=1)
    with pytest.raises(DomainError):
        verify("o_plus_even", n=1, weight=(1, -1), order=6)
    with pytest.raises(DomainError):
        verify("orthogonality", n=1, weight=(1, 1), mu=(1,), order=6)


def test_alpha_rhs_closed_forms():
    r = SeriesRing(D)
    val = row_closed_form("o_plus_even", (0, 0), D)
    assert val == r.one() + r.alpha(2)
    val = row_closed_form("o_plus_odd", (0,), D)
    assert val == r.one() - r.alpha()
    val = row_closed_form("o_minus_even", (0, 0), D)
    assert val == r.one() - r.alpha(2)


def test_ab_rhs_frozen_zero_weight():
    # the two bracket summands at lambda = (0,0):
    # H_2(ab) = 1 + (1+t) ab + a^2 b^2 and its shifted partner
    # a^2 + (1+t) ab + b^2
    r = SeriesRing(D)
    one_plus_t = r.one() + r.t()
    h2 = r.one() + one_plus_t * r.monomial(ea=1, eb=1) + r.monomial(ea=2, eb=2)
    g2 = r.alpha(2) + one_plus_t * r.monomial(ea=1, eb=1) + r.monomial(eb=2)
    assert row_closed_form("ab_oplus_even", (0, 0), D) == h2 + g2
    assert row_closed_form("ab_ominus_even", (0, 0), D) == h2 - g2


def test_split_closed_forms():
    r = SeriesRing(D)
    assert rhs_symplectic(Partition((1, 1)), 1, D) == r.one()
    assert rhs_kawanaka(Partition(()), 2, D) == r.one()
    weight = DominantWeight((1, -1))
    num, den = REGISTRY["unm_vanishing"].closed(_Instance(1, 1, weight, None, D))
    assert num == (r.one() - r.t()) * den  # value 1 - t at m = n = 1
    num, den = REGISTRY["u2n_vanishing"].closed(_Instance(1, None, weight, None, D))
    assert num == (r.one() + r.t()) * den
    num, den = REGISTRY["double_cover"].closed(_Instance(1, None, weight, None, D))
    # the verified value is t^{-1}(1+t): numerator (1-t^2), denominator t(1-t)
    assert num * r.t(0) == (r.one() + r.t()) * (r.one() - r.t()) and den == r.t() * (r.one() - r.t())
    num, den = rhs_t2_branching(DominantWeight((2, 0)), 2, D)
    assert num.is_zero() and den == r.one()


def test_special_values_frozen():
    r = SeriesRing(D)
    # symplectic: lambda = (1,1) at n=1 has value exactly 1
    assert rhs_symplectic(Partition((1, 1)), 1, D) == r.one()
    assert rhs_symplectic(Partition((1, 0)), 1, D).is_zero()
    # Kawanaka at the zero weight is 1 for every rank
    assert rhs_kawanaka(Partition(()), 1, D) == r.one()
    assert rhs_kawanaka(Partition(()), 2, D) == r.one()
    # cross-block value at mu = (1), n = 1 is 1 + t
    from hltorus.identities import _c_ratio_pair

    num, den = _c_ratio_pair(Partition((1,)), ((1, 2), (-1, 2)), D)
    assert num == (r.one() + r.t()) * den


def test_ab_rhs_reduces_to_alpha_at_beta_zero():
    for rank in (2, 3, 4):
        comps = ("plus_even", "minus_even") if rank % 2 == 0 else ("plus_odd", "minus_odd")
        for lam in bounded_partitions(rank, 3):
            for comp in comps:
                full = row_closed_form("ab_o" + comp, lam, D)
                assert drop_param(full, 2) == row_closed_form("o_" + comp, lam, D), (comp, lam)


def _specialized_oracle(name, lam, order):
    """The hand-specialized closed form of a Rogers-Szego row (tests/oracles.py)."""
    if name.startswith("o_"):
        return rhs_orthogonal_alpha(name[len("o_"):], lam, order)
    if name.startswith("ab_sum_"):
        return rhs_ab_sum(lam, order)
    if name.startswith("ab_o"):
        return rhs_ab(name[len("ab_o"):], lam, order)
    oracle = {"alpha_minus_one": rhs_alpha_minus_one,
              "alpha_eq_minus_beta": rhs_alpha_eq_minus_beta}[name]
    return oracle(lam, order)


def test_rogers_szego_rows_match_specialized_oracles():
    # every row served by rhs_rogers_szego, at each rank 1..6 of its parity,
    # every |lambda| <= 6, order 12: 806 cases
    rows = sorted(name for name, defn in REGISTRY.items()
                  if getattr(defn.closed, "func", None) is rhs_rogers_szego)
    assert len(rows) == 12
    count = 0
    for name in rows:
        for n in range(4):
            rank = REGISTRY[name].rank_of(n)
            if not 1 <= rank <= 6:
                continue
            for lam in partitions_up_to(6, rank):
                lam = lam.padded(rank)
                assert row_closed_form(name, lam, 12) == _specialized_oracle(name, lam, 12), \
                    (name, lam)
                count += 1
    assert count == 806


def test_alpha_rhs_vanishing_at_alpha_zero():
    for rank in (2, 3, 4):
        comp = "plus_even" if rank % 2 == 0 else "plus_odd"
        for lam in bounded_partitions(rank, 3):
            odd, even = parity_counts(lam)
            at_zero = drop_param(row_closed_form("o_" + comp, lam, D), 1)
            if odd == 0 or even == 0:
                assert not at_zero.is_zero(), lam
            else:
                assert at_zero.is_zero(), lam


def test_minus_odd_is_signed_plus_odd():
    # the odd minus-component closed form equals (-1)^|lambda| times the
    # plus-component value at negated parameters
    for lam in bounded_partitions(3, 3):
        plus = row_closed_form("ab_oplus_odd", lam, D)
        minus = row_closed_form("ab_ominus_odd", lam, D)
        flipped = negate_param(negate_param(plus, 1), 2)
        if lam.weight() % 2:
            flipped = -flipped
        assert minus == flipped, lam


def _eval_alpha_minus_one(series):
    out = {}
    for (es, ea, eb), c in series.coeffs.items():
        key = (es, 0, eb)
        out[key] = out.get(key, 0) + (-c if ea % 2 else c)
    return from_coeffs(SeriesRing(series.trunc), out)


def test_alpha_minus_one_consistent_with_ab():
    # substituting alpha = -1 into the two-parameter closed form must merge
    # the two bracket summands into twice the single Rogers-Szego product;
    # the alpha-degree never exceeds the rank, so the folded series is
    # accurate through D minus the rank
    for lam in bounded_partitions(4, 2):
        cut = D - 4
        merged = truncated(_eval_alpha_minus_one(row_closed_form("ab_oplus_even", lam, D)), cut)
        assert merged == truncated(row_closed_form("alpha_minus_one", lam, D), cut), lam


def test_slot_rule_scalars():
    # the constant slots +-1 give the component prefactors; plus_even has none
    from hltorus.identities import INTEGRANDS, MINUS_ALPHA, MINUS_ONE

    r = SeriesRing(D)
    one, a, b = r.one(), r.alpha(), r.monomial(eb=1)
    expected = {
        ("plus_even", (ALPHA,)): one,
        ("minus_even", (ALPHA,)): one - a * a,
        ("plus_odd", (ALPHA,)): one - a,
        ("minus_odd", (ALPHA,)): one + a,
        ("minus_even", (ALPHA, BETA)): (one - a * a) * (one - b * b),
        ("plus_odd", (ALPHA, BETA)): (one - a) * (one - b),
        ("minus_odd", (ALPHA, BETA)): (one + a) * (one + b),
        ("plus_even", (MINUS_ONE, BETA)): one,
        ("plus_even", (ALPHA, MINUS_ALPHA)): one,
        # a constant value on a constant slot: (1 - (-1)(+1)) (1 - (-1)(-1)) = 0
        ("minus_even", (MINUS_ONE,)): r.zero(),
        ("plus_odd", (MINUS_ONE,)): r.const(2),
    }
    for (key, values), scalar in expected.items():
        dens, slots, _ = INTEGRANDS[key](2, None)
        linear, got = _linear_factors(slots, values, dens.vars, D)
        assert got == scalar, (key, values)
        assert len(linear) > 1  # the torus slots x_i^{+-1} give each variable its factor


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_factor_matches_binomial_products(n):
    """The product over the variables of the one series each carries has
    the very terms of the binomial-by-binomial product, on every integrand
    of every Rogers-Szego row at its values.  A slot that moves two
    variables, and slots that give the variables different series, are
    refused."""
    rows = [row for row in REGISTRY.values()
            if isinstance(row.closed, partial) and row.closed.func is rhs_rogers_szego]
    assert len(rows) == 12
    for row in rows:
        for key in row.integrands:
            dens, slots, _ = INTEGRANDS[key](n, None)
            linear, _ = _linear_factors(slots, row.values, dens.vars, D)
            want = linear_factor_by_binomials(slots, row.values, dens.vars, D)
            assert torus_factor(linear, dens.vars, D) == want, (row.name, key)
    x1x2 = Mono(1, 0, (1, 1))
    with pytest.raises(ConfigurationError, match="one torus variable"):
        _linear_factors((x1x2,), (ALPHA,), ("x1", "x2"), D)
    with pytest.raises(ConfigurationError, match="different linear factors"):
        _linear_factors(pm_args(2)[:3], (ALPHA,), ("x1", "x2"), D)


def test_sum_identity_components():
    # the even sum value is twice the first bracket summand
    lam = Partition((1, 1, 0, 0))
    r = SeriesRing(D)
    inst = _Instance(2, None, lam, None, D)
    i1, z1 = _integral("plus_even", inst, (ALPHA, BETA), normalized=True)
    i2, z2 = _integral("minus_even", inst, (ALPHA, BETA), normalized=True)
    # the slot rule gives the minus component's prefactor from its slots +-1,
    # and _integral applies it to i2
    pref = (r.one() - r.alpha(2)) * (r.one() - r.monomial(eb=2))
    slots = pm_args(1) + (const_arg(1, 1), const_arg(1, -1))
    _, scalar = _linear_factors(slots, (ALPHA, BETA), ("x1",), D)
    assert scalar == pref
    lhs = i1 * z2 + i2 * z1
    assert lhs == row_closed_form("ab_sum_even", lam, D) * z1 * z2


def test_component_lhs_symmetry_minus_odd():
    # LHS-level check that the odd minus component is the signed reflection
    # of the plus component under alpha -> -alpha, beta -> -beta
    lam = Partition((2, 1, 0))
    inst = _Instance(1, None, lam, None, D)
    ip, zp = _integral("plus_odd", inst, (ALPHA, BETA), normalized=True)
    im, zm = _integral("minus_odd", inst, (ALPHA, BETA), normalized=True)
    assert zp == zm
    flipped = negate_param(negate_param(ip, 1), 2)
    if lam.weight() % 2:
        flipped = -flipped
    assert im == flipped


def test_pfaffian_bridge_small_ranks():
    for n in (1, 2):
        for lam in bounded_partitions(2 * n, 2):
            rep = verify("pfaffian_plus_even", n=n, weight=lam.parts, order=8)
            assert rep.status == "match", rep.text_line()


def test_bordered_pfaffian_bridges():
    # the minus-component Pfaffian vanishes when lambda has as many odd
    # parts as even ones
    for n in (1, 2):
        for lam in bounded_partitions(2 * n, 2):
            rep = verify("pfaffian_minus_even", n=n, weight=lam.parts, order=8)
            assert ok(rep), rep.text_line()
    for n in (0, 1):
        for lam in bounded_partitions(2 * n + 1, 2):
            rep = verify("pfaffian_plus_odd", n=n, weight=lam.parts, order=8)
            assert rep.status == "match", rep.text_line()


def test_symplectic_c_symbol_equivalence():
    # multinomial form times C-(t^2) equals C0(t^{2n}) for lambda = mu^2
    r = SeriesRing(D)
    for n in (1, 2):
        for mu in partitions_up_to(3, n):
            lam = Partition(tuple(x for p in mu.padded(n).parts for x in (p, p)))
            val = rhs_symplectic(lam, n, D)
            num, den = c_symbols(r, mu.parts, ((1, 4 * n),), base=4)
            assert val * den == num, (n, mu)


def test_kawanaka_c_symbol_equivalence():
    r = SeriesRing(D)
    for n in (1, 2):
        for lam in partitions_up_to(3, 2 * n):
            val = rhs_kawanaka(lam, n, D)
            num, den = c_symbols(r, lam.parts, ((1, 2 * n),), base=1)
            assert val * den == num, (n, lam)


def test_unm_length_predicate():
    # palindromic weight whose positive part is too long for the x block
    rep = verify("unm_vanishing", n=3, m=1, weight=(1, 1, -1, -1), order=8)
    assert rep.status == "vanished-as-predicted"


def test_double_cover_displayed_form_differs_by_t_power():
    # executable record: the honest normalized integral equals t^{-|mu|}
    # times the C-symbol ratio, so the unshifted ratio itself does NOT match
    # once |mu| > 0.  Kept as a permanent regression of that analysis.
    rep = verify("double_cover", n=2, weight=(1, 0, 0, -1), order=10)
    assert rep.status == "match"
    assert any("t^|mu|" in note for note in rep.notes)

    inst = _Instance(2, None, DominantWeight((1, 0, 0, -1)), None, 10)
    lhs, rhs, _, p = _build(REGISTRY["double_cover"], inst)
    assert p == 4
    assert lhs == rhs
    # dropping the t^{|mu|} correction (here |mu| = 1) breaks the equality:
    # rhs * t is what the unshifted displayed form would demand of lhs
    ring = SeriesRing(lhs.trunc)
    assert lhs != rhs * ring.t(1)


@pytest.mark.parametrize("weight", [(1, -1), (0, -2), (1, 0, 0, -1), (2, 1, -1, -2)])
def test_weight_lift_matches_point_evaluation(weight):
    # the lifted P is s^p P_lambda at the double-cover slots (t z_i, z_i):
    # at a rational point and a rational s, times s^-p, it is the oracle's
    # P_lambda there, negative parts and all
    n = len(weight) // 2
    inst = _Instance(n, None, DominantWeight(weight), None, D)
    k = -weight[-1]
    p = _lift(REGISTRY["double_cover"], inst)
    assert p == k * 2 * n
    # plain slots take a negative part as it is
    assert _lift(REGISTRY["u2n_vanishing"], inst) == 0
    _, slots, tbase = INTEGRANDS["double_cover"](n, None)
    names = FACTORED["double_cover"](n, None).vars
    # v_lambda P_{lambda+k} is a sum of products of N(N-1)/2 factors
    # (y_i - t y_j) and of slot powers of s-degree at most 2 |lambda + k|
    order = tbase * len(slots) * (len(slots) - 1) // 2 + 2 * (sum(weight) + k * len(slots)) + 1
    lifted_p = lifted(weight, k, slots, names, order, tbase)
    point = (Fraction(2), Fraction(-3, 2))[:n]
    for s in (Fraction(1, 2), Fraction(-2, 3)):
        value = sum(v * slot_value(Mono(1, key[0], exps), point, s)
                    for exps, c in lifted_p.terms.items() for key, v in c.items())
        assert value * s ** -p == hl_by_point_evaluation(weight, slots, point, s, tbase)


def test_double_cover_padding_note():
    rep = verify("double_cover", n=2, weight=(0, 0, 0, 0), order=8)
    assert rep.status == "match"
    assert any("padding" in note for note in rep.notes)


def test_t2_branching_original_statement():
    # the stated integrand multiplies by P_{m^n}(x^{-1};t), which is the
    # inverse monomial; check the equivalent dominant-weight reading
    r = SeriesRing(D)
    names = ("x1", "x2")
    pm = hl_full((1, 1), (var_arg(2, 0, -1), var_arg(2, 1, -1)), names, D)
    assert pm == monomial(names, (-1, -1), 1, D)
    rep = verify("t2_branching", n=2, weight=(2, 0) , order=D)
    assert rep.status == "vanished-as-predicted" or rep.status == "match"
    # (2,0) is not palindromic; shifting by -1 gives (1,-1) which is
    shifted = verify("t2_branching", n=2, weight=(1, -1), order=D)
    assert shifted.status == "match"


def test_vanishing_completeness_small_grids():
    for name, n, m in (("symplectic", 1, None), ("u2n_vanishing", 1, None),
                       ("t2_branching", 2, None), ("unm_vanishing", 1, 1)):
        for w in sweep_weights(name, n, m, max_weight=2):
            rep = verify(name, n=n, m=m, weight=w.parts, order=8)
            assert ok(rep), (name, w, rep.status)


def test_deep_order_spot_checks():
    # a deeper truncation order on a few families, to rule out agreements
    # that only hold through the default order
    for name, kw in (
        ("o_plus_even", dict(n=1, weight=(3, 1), order=16)),
        ("kawanaka", dict(n=2, weight=(2, 1, 1, 0), order=16)),
        ("symplectic", dict(n=2, weight=(2, 2, 0, 0), order=16)),
        ("ab_ominus_odd", dict(n=1, weight=(2, 1, 1), order=14)),
        ("u2n_vanishing", dict(n=2, weight=(2, 1, -1, -2), order=16)),
        ("u2n_vanishing", dict(n=3, weight=(2, 1, 0, 0, -1, -2), order=16)),
        ("double_cover", dict(n=2, weight=(2, 1, -1, -2), order=16)),
    ):
        rep = verify(name, **kw)
        assert ok(rep), rep.text_line()


def test_lifted_mismatch_is_reported_at_its_degree_in_the_instance_ring(monkeypatch):
    """A lifted instance is compared in the ring raised by s^p, p = 4 here.
    A fault of degree 4 seeded in the closed side shows there at degree 8
    and is reported at 4, within the order asked for; on the resource
    ladder too, where the closed form refuses the raised order 10."""
    row = REGISTRY["double_cover"]

    def seeded(inst):
        if inst.order > 8:
            raise ResourceLimitError("seeded ceiling")
        num, den = row.closed(inst)
        return num + SeriesRing(inst.order).s(inst.order - 4), den

    monkeypatch.setitem(REGISTRY, "double_cover", dataclasses.replace(row, closed=seeded))
    for order, achieved in ((4, 4), (6, 4)):
        rep = verify("double_cover", n=2, weight=(1, 0, 0, -1), order=order)
        assert (rep.status, rep.achieved_order) == ("mismatch", achieved), rep.text_line()
        assert rep.first_discrepancy_degree == 4 <= rep.achieved_order, rep.text_line()


def test_resource_limit_reported(monkeypatch):
    monkeypatch.setenv("HLTORUS_MAX_TERMS", "1")
    from hltorus import densities as dmod

    dmod.clear_caches()
    rep = verify("symplectic", n=2, weight=(1, 1, 0, 0), order=8)
    assert rep.status == "resource-limit"
    assert rep.achieved_order == 0
    monkeypatch.delenv("HLTORUS_MAX_TERMS")
    dmod.clear_caches()


def test_class_tables_count_toward_the_term_ceiling(monkeypatch):
    """The class route expands no density, but its class tables count
    toward HLTORUS_MAX_TERMS: under a ceiling they outgrow, each row gives a
    resource-limit report at every order, and above it the same instance
    matches."""
    cases = (("t2_branching", dict(n=4, weight=(1, 1, -1, -1))),
             ("unm_vanishing", dict(n=3, m=2, weight=(1, 1, 0, -1, -1))),
             ("double_cover", dict(n=2, weight=(1, 0, 0, -1))))
    for ceiling, status, achieved in (("5", "resource-limit", 0), ("100", "match", 8)):
        monkeypatch.setenv("HLTORUS_MAX_TERMS", ceiling)
        for name, kwargs in cases:
            rep = verify(name, order=8, **kwargs)
            assert (rep.status, rep.achieved_order) == (status, achieved), rep.text_line()
            assert (status == "match") != ("class table exceeded 5 terms" in rep.notes), name


@pytest.mark.parametrize("value", ["abc", "0"])
def test_invalid_term_ceiling_is_domain_error(monkeypatch, value):
    # a bad ceiling is a usage error, neither a crash nor a partial report,
    # and a cached expansion does not hide it; nor does u2n_vanishing,
    # whose cross-block route expands no density
    monkeypatch.setenv("HLTORUS_MAX_TERMS", value)
    with pytest.raises(DomainError, match="HLTORUS_MAX_TERMS"):
        verify("orthogonality", n=2, weight=(1, 0), mu=(1, 0), order=8)
    for _ in range(2):
        with pytest.raises(DomainError, match="HLTORUS_MAX_TERMS"):
            verify("u2n_vanishing", n=2, weight=(1, 0, 0, -1), order=8)


def test_resource_ladder_produces_partial_report(register_identity):
    from hltorus.errors import ResourceLimitError

    def flaky_closed(inst):
        if inst.order > 4:
            raise ResourceLimitError("too big")
        r = SeriesRing(inst.order)
        return r.one(), r.one()

    register_identity("_ladder_probe", flaky_closed)
    rep = verify("_ladder_probe", n=1, order=10)
    assert rep.status == "match"
    assert rep.achieved_order == 4
    assert any("resource ceiling" in note for note in rep.notes)
