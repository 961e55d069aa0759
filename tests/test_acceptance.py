"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact coefficient equality through the stated truncation
order.  Grids are explicit below; weights are ordered largest-first so the
density expansions are computed once at the widest window and reused.
"""

import io
import json
import random
import time

from hltorus import cli
from hltorus.identities import sweep_weights, t_binomial, verify
from hltorus.partitions import Partition, partitions_up_to
from hltorus.pfaffian import AntisymMatrix, build_a_matrix, pfaffian
from hltorus.series import ParamSeries, SeriesRing

from helpers import (bounded_partitions, dense, from_coeffs, q_pochhammer, rogers_szego_sum,
                     row_closed_form, truncated)
from oracles import (c_symbols, degenerate_check, determinant, multiset_inversion_sum,
                     pf_closed_form, pfaffian_by_matchings)


def _ok(rep):
    return rep.status in ("match", "vanished-as-predicted")


def _run_grid(name, instances):
    failures = []
    for kw in instances:
        rep = verify(name, **kw)
        if not _ok(rep):
            failures.append(rep.text_line())
    return failures


def _desc_partitions(grid):
    return sorted(grid, key=lambda p: (p.parts[0] if p.parts else 0), reverse=True)


def test_criterion_1_orthogonality():
    start = time.time()
    D = 12
    count = 0
    failures = []
    for n in (1, 2, 3):
        grid = [p for p in partitions_up_to(4, n)]
        pairs = [(a, b) for a in grid for b in grid]
        pairs.sort(key=lambda ab: (ab[0].weight() + ab[1].weight()), reverse=True)
        for lam, mu in pairs:
            rep = verify("orthogonality", n=n, weight=lam.parts, mu=mu.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    assert not failures, failures[:5]
    print("\n[acceptance] criterion 1 orthogonality: PASS "
          "(%d instances, D=%d, %.1fs)" % (count, D, time.time() - start))


def test_criterion_2_normalizations():
    start = time.time()
    D = 12
    count = 0
    for item, nmax in (("i", 3), ("ii", 2), ("iii", 2), ("iv", 2), ("v", 2), ("vi", 2)):
        for n in range(1, nmax + 1):
            rep = verify("normalization_%s" % item, n=n, order=D)
            count += 1
            assert rep.status == "match", rep.text_line()
    print("[acceptance] criterion 2 normalizations: PASS "
          "(%d instances, D=%d, %.1fs)" % (count, D, time.time() - start))


def test_criterion_3_alpha_identities():
    start = time.time()
    D = 10
    count = 0
    failures = []
    plans = [
        ("o_plus_even", 1, 2), ("o_minus_even", 1, 2),
        ("o_plus_odd", 1, 3), ("o_minus_odd", 1, 3),
        ("o_plus_even", 2, 4), ("o_minus_even", 2, 4),
        ("o_plus_odd", 2, 5), ("o_minus_odd", 2, 5),
    ]
    for name, n, rank in plans:
        for lam in _desc_partitions(bounded_partitions(rank, 3)):
            rep = verify(name, n=n, weight=lam.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    assert not failures, failures[:5]
    print("[acceptance] criterion 3 alpha identities: PASS "
          "(%d instances, D=%d, %.1fs)" % (count, D, time.time() - start))


def test_criterion_4_pfaffian_bridge():
    start = time.time()
    D = 10
    matrix_checks = 0
    for n in (1, 2, 3):
        for lam in bounded_partitions(2 * n, 3):
            a = build_a_matrix(lam.parts, D)
            pf = pfaffian(a)
            assert pf == pfaffian_by_matchings(a), lam
            assert pf == pf_closed_form("a", lam.parts, D), lam
            matrix_checks += 1
    integral_checks = 0
    plans = [(1, bounded_partitions(2, 3)),
             (2, bounded_partitions(4, 2)),
             (3, bounded_partitions(6, 2))]
    for n, grid in plans:
        for lam in _desc_partitions(list(grid)):
            rep = verify("pfaffian_plus_even", n=n, weight=lam.parts, order=D)
            assert rep.status == "match", rep.text_line()
            integral_checks += 1
    print("[acceptance] criterion 4 pfaffian bridge: PASS "
          "(%d matrix + %d integral checks, D=%d, %.1fs)"
          % (matrix_checks, integral_checks, D, time.time() - start))


def test_criterion_5_alpha_beta_identities():
    start = time.time()
    D = 10
    count = 0
    failures = []
    plans = [
        ("ab_oplus_even", 1, 2), ("ab_ominus_even", 1, 2),
        ("ab_oplus_odd", 1, 3), ("ab_ominus_odd", 1, 3),
        ("ab_sum_even", 1, 2), ("ab_sum_odd", 1, 3),
    ]
    for name, n, rank in plans:
        for lam in _desc_partitions(bounded_partitions(rank, 3)):
            rep = verify(name, n=n, weight=lam.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    spots = [
        ("ab_oplus_even", 2, (2, 1, 1, 0)), ("ab_ominus_even", 2, (2, 1, 1, 0)),
        ("ab_oplus_odd", 2, (2, 1, 1, 0, 0)), ("ab_ominus_odd", 2, (2, 1, 1, 0, 0)),
        ("ab_sum_even", 2, (1, 1, 0, 0)), ("ab_sum_odd", 2, (2, 1, 0, 0, 0)),
    ]
    for name, n, w in spots:
        rep = verify(name, n=n, weight=w, order=D)
        count += 1
        if not _ok(rep):
            failures.append(rep.text_line())
    assert not failures, failures[:5]
    print("[acceptance] criterion 5 alpha-beta identities: PASS "
          "(%d instances, D=%d, %.1fs)" % (count, D, time.time() - start))


def test_criterion_6_special_cases():
    start = time.time()
    D = 12
    count = 0
    failures = []
    for name in ("symplectic", "kawanaka"):
        for n, rank in ((1, 2), (2, 4)):
            for lam in _desc_partitions(bounded_partitions(rank, 3 if rank == 2 else 2)):
                rep = verify(name, n=n, weight=lam.parts, order=D)
                count += 1
                if not _ok(rep):
                    failures.append(rep.text_line())
    for name in ("alpha_minus_one", "alpha_eq_minus_beta"):
        for lam in _desc_partitions(bounded_partitions(2, 3)):
            rep = verify(name, n=1, weight=lam.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
        rep = verify(name, n=2, weight=(2, 1, 1, 0), order=10)
        count += 1
        if not _ok(rep):
            failures.append(rep.text_line())
    assert not failures, failures[:5]

    # closed-form cross-checks: the multinomial values against the C-symbol
    # ratios, and the substitution consistency of the alpha = -1 case
    from hltorus.identities import rhs_kawanaka, rhs_symplectic

    ring = SeriesRing(D)
    for n in (1, 2):
        for mu in partitions_up_to(2, n):
            lam = Partition(tuple(x for p in mu.padded(n).parts for x in (p, p)))
            val = rhs_symplectic(lam, n, D)
            c0, c_minus = c_symbols(ring, mu.parts, ((1, 4 * n),), base=4)
            assert val * c_minus == c0, (n, mu)
        for lam in partitions_up_to(2, 2 * n):
            val = rhs_kawanaka(lam, n, D)
            c0, c_minus = c_symbols(ring, lam.parts, ((1, 2 * n),), base=1)
            assert val * c_minus == c0, (n, lam)
    for lam in bounded_partitions(2, 3):
        folded = {}
        for (es, ea, eb), c in row_closed_form("ab_oplus_even", lam, D).coeffs.items():
            key = (es, 0, eb)
            folded[key] = folded.get(key, 0) + (-c if ea % 2 else c)
        merged = truncated(from_coeffs(ring, folded), D - 2)
        assert merged == truncated(row_closed_form("alpha_minus_one", lam, D), D - 2), lam
    print("[acceptance] criterion 6 special cases: PASS "
          "(%d integral instances + closed-form cross-checks, D=%d, %.1fs)"
          % (count, D, time.time() - start))


def test_criterion_7_vanishing_families():
    start = time.time()
    D = 12
    count = 0
    failures = []
    noted = 0
    for m, n in ((1, 1), (1, 2), (2, 2)):
        for w in sweep_weights("unm_vanishing", n, m, max_weight=3):
            rep = verify("unm_vanishing", n=n, m=m, weight=w.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    for n in (1, 2, 3):
        for w in sweep_weights("u2n_vanishing", n, max_weight=3):
            rep = verify("u2n_vanishing", n=n, weight=w.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    for n in (1, 2):
        for w in sweep_weights("double_cover", n, max_weight=3):
            rep = verify("double_cover", n=n, weight=w.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
            if any("t^|mu|" in note for note in rep.notes):
                noted += 1
    for n in (1, 2, 3):
        for w in sweep_weights("t2_branching", n, max_weight=3):
            rep = verify("t2_branching", n=n, weight=w.parts, order=D)
            count += 1
            if not _ok(rep):
                failures.append(rep.text_line())
    assert not failures, failures[:5]
    assert noted > 0  # the documented t^|mu| convention was exercised
    print("[acceptance] criterion 7 vanishing families: PASS "
          "(%d instances, D=%d; double-cover values use the documented "
          "t^|mu| correction, %.1fs)" % (count, D, time.time() - start))


def test_criterion_8_property_suites():
    start = time.time()
    D = 12
    ring = SeriesRing(D)
    # Rogers-Szego recurrence and special-argument laws
    for z in (ring.alpha(), ring.const(-1), ring.s()):
        for m in range(2, 11):
            lhs = rogers_szego_sum(m, z, D)
            rhs = (ring.one() + z) * rogers_szego_sum(m - 1, z, D) - (
                ring.one() - ring.t(m - 1)
            ) * z * rogers_szego_sum(m - 2, z, D)
            assert lhs == rhs
    for m in range(11):
        val = rogers_szego_sum(m, ring.const(-1), D)
        if m % 2:
            assert val.is_zero()
        else:
            assert val == q_pochhammer(ring, (1, 2), (1, 4), m // 2)
    for m in range(9):
        prod = ring.one()
        for j in range(1, m + 1):
            prod = prod * (ring.one() + ring.s(j))
        assert rogers_szego_sum(m, ring.s(), D) == prod
    # MacMahon inversion identity
    for zeros in range(5):
        for ones in range(5):
            assert t_binomial(zeros + ones, ones, D) == multiset_inversion_sum(
                zeros, ones, D
            )
    # Hall-Littlewood degenerations against the tableau oracle
    for lam in partitions_up_to(4, 3):
        for n in (1, 2, 3):
            if lam.length_nonzero() > n:
                continue
            report = degenerate_check(lam.parts, n, order=24)
            assert report["certified_untruncated"] and report["schur_ok"] and report["monomial_ok"]
    # Pfaffian squared equals the determinant
    rng = random.Random(2024)
    for size in (2, 4, 6, 8):
        upper = {}
        for j in range(size):
            for k in range(j + 1, size):
                upper[(j, k)] = from_coeffs(ring, {
                    (rng.randint(0, 2), rng.randint(0, 1), 0): rng.randint(-2, 2)
                    for _ in range(2)
                })
        mat = AntisymMatrix(size, upper, D)
        p = pfaffian(mat)
        assert p * p == determinant(dense(mat), D)
    # ring laws on deterministic random samples
    def sample(seed):
        r = random.Random(seed)
        return ParamSeries({
            (r.randint(0, 6), r.randint(0, 2), r.randint(0, 2)): r.randint(-4, 4)
            for _ in range(5)
        }, 8)
    for seed in range(20):
        a, b, c = sample(3 * seed), sample(3 * seed + 1), sample(3 * seed + 2)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    print("[acceptance] criterion 8 property suites: PASS (%.1fs)"
          % (time.time() - start))


def test_criterion_9_determinism(clear_caches):
    start = time.time()
    outputs = []
    for _ in range(2):
        clear_caches()
        out = io.StringIO()
        code = cli.main([
            "sweep", "--identity", "o_plus_even", "--n", "1",
            "--max-weight", "3", "--order", "8", "--json",
        ], out=out)
        assert code == 0
        outputs.append(out.getvalue().encode())
        out2 = io.StringIO()
        code = cli.main([
            "verify", "--identity", "u2n_vanishing", "--n", "1",
            "--lambda", "1,-1", "--order", "10", "--json",
        ], out=out2)
        assert code == 0
        outputs[-1] += out2.getvalue().encode()
    assert outputs[0] == outputs[1]
    for line in outputs[0].decode().strip().splitlines():
        json.loads(line)  # every record is valid JSON
    print("[acceptance] criterion 9 determinism: PASS (byte-identical JSON "
          "across two cold-cache runs, %.1fs)" % (time.time() - start))
