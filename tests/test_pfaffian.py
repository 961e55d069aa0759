import random

import pytest

from hltorus.errors import DomainError
from hltorus.pfaffian import (
    AntisymMatrix,
    build_a_matrix,
    build_m_minus,
    build_m_plus,
    pfaffian,
)
from hltorus.series import SeriesRing

from helpers import bounded_partitions, dense, from_coeffs, parity_counts
from oracles import determinant, pf_closed_form, pfaffian_by_matchings

D = 8


def rand_matrix(size, rng, d=D):
    ring = SeriesRing(d)
    upper = {}
    for j in range(size):
        for k in range(j + 1, size):
            coeffs = {
                (rng.randint(0, 2), rng.randint(0, 1), 0): rng.randint(-3, 3)
                for _ in range(3)
            }
            upper[(j, k)] = from_coeffs(ring, coeffs)
    return AntisymMatrix(size, upper, d)


def test_two_by_two():
    ring = SeriesRing(D)
    a = ring.alpha() + ring.t()
    m = AntisymMatrix(2, {(0, 1): a}, D)
    assert pfaffian(m) == a


def test_four_by_four_classical_expansion():
    ring = SeriesRing(D)
    rng = random.Random(3)
    m = rand_matrix(4, rng)
    expected = (
        m.entry(0, 1) * m.entry(2, 3)
        - m.entry(0, 2) * m.entry(1, 3)
        + m.entry(0, 3) * m.entry(1, 2)
    )
    assert pfaffian(m) == expected


def test_pfaffian_matches_matching_oracle():
    rng = random.Random(11)
    for size in (2, 4, 6):
        m = rand_matrix(size, rng)
        assert pfaffian(m) == pfaffian_by_matchings(m)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(5)
    for size in (2, 4, 6, 8):
        m = rand_matrix(size, rng)
        p = pfaffian(m)
        assert p * p == determinant(dense(m), D), size


def test_odd_size_rejected():
    ring = SeriesRing(D)
    m = AntisymMatrix(3, {(0, 1): ring.one()}, D)
    with pytest.raises(DomainError):
        pfaffian(m)


def test_a_matrix_entries():
    ring = SeriesRing(D)
    m = build_a_matrix((0, 0), D)
    assert m.entry(0, 1) == ring.one() + ring.alpha(2)
    m = build_a_matrix((1, 0), D)
    assert m.entry(0, 1) == ring.alpha() * (-2)
    # full 4x4 with the frozen closed Pfaffian value 4 alpha^2
    m = build_a_matrix((2, 2, 1, 1), D)
    assert pfaffian(m) == ring.alpha(2) * 4


def test_a_matrix_depends_only_on_parity():
    lam = (3, 2, 1, 0)
    bumped = (5, 2, 1, 0)
    a1 = build_a_matrix(lam, D)
    a2 = build_a_matrix(bumped, D)
    assert a1.upper == a2.upper


def test_m_minus_structure():
    ring = SeriesRing(D)
    lam = (2, 1, 1, 0)
    m = build_m_minus(lam, D)
    assert m.size == len(lam) + 2
    assert m.entry(0, 1).is_zero()
    for k in range(2, m.size):
        assert m.entry(1, k) == ring.one()
    inner = build_a_matrix(lam, D)
    for j in range(2, m.size):
        for k in range(j + 1, m.size):
            assert m.entry(j, k) == inner.entry(j - 2, k - 2)


def test_m_plus_structure():
    ring = SeriesRing(D)
    lam = (2, 1, 0)
    m = build_m_plus(lam, D)
    assert m.size == len(lam) + 1
    for k in range(1, m.size):
        assert m.entry(0, k) == ring.one()
    single = build_m_plus((0,), D)
    assert pfaffian(single) == ring.one()


def test_closed_forms_match_built_matrices():
    for n in (1, 2, 3):
        for lam in bounded_partitions(2 * n, 3):
            a = build_a_matrix(lam.parts, D)
            assert pfaffian(a) == pf_closed_form("a", lam.parts, D), lam
            m = build_m_minus(lam.parts, D)
            assert pfaffian(m) == pf_closed_form("m_minus", lam.parts, D), lam
    for n in (0, 1, 2):
        for lam in bounded_partitions(2 * n + 1, 3):
            m = build_m_plus(lam.parts, D)
            assert pfaffian(m) == pf_closed_form("m_plus", lam.parts, D), lam


def test_m_minus_cross_multiplied_identity():
    # Pf[M] (1 - alpha^2) == 2^n [(-a)^odd - (-a)^even] as polynomials
    ring = SeriesRing(D)
    for lam in bounded_partitions(4, 2):
        m = build_m_minus(lam.parts, D)
        odd, even = parity_counts(lam)
        def neg_alpha(e):
            return ring.monomial(ea=e, coeff=-1 if e % 2 else 1)
        rhs = (neg_alpha(odd) - neg_alpha(even)) * 4
        assert pfaffian(m) * (ring.one() - ring.alpha(2)) == rhs, lam


def test_wrong_length_rejected():
    with pytest.raises(DomainError):
        build_a_matrix((1, 1, 0), D)
    with pytest.raises(DomainError):
        build_m_minus((1, 0, 0), D)
    with pytest.raises(DomainError):
        build_m_plus((1, 0), D)
