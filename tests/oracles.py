"""Independent brute-force oracles used across the test suite.

These deliberately avoid the library's evaluation paths: the Pfaffian is a
signed sum over perfect matchings, the inversion generating function is a
direct enumeration, Hall-Littlewood polynomials are evaluated at rational
points from their defining permutation sum, Schur polynomials are counted
over tableaux, series arithmetic goes through the public ring,
``product_by_nested_loops`` multiplies plain coefficient dicts, the
determinant is a cofactor expansion, and ``pf_closed_form`` writes the
Pfaffians of the term-integral matrices out as polynomials.  The
hand-specialized closed forms of the orthogonal-component rows
(``rhs_orthogonal_alpha`` .. ``rhs_alpha_eq_minus_beta``) and of the six
normalizations (``gustafson_rhs``) are the package's earlier, one-formula-
per-row statements; they are kept as references for the general
``rogers_szego_value`` and ``koornwinder_normalization``.  They
stay in the tree permanently as ground truth.  ``degenerate_check`` holds
``hl_full`` against the tableau and monomial oracles at t=0 and t=1, and
``hl_by_branching`` builds P monomial by monomial by the branching rule,
the oracle of ``hl_full``'s class table and slot DP.
``cross_block_density`` states the U(2n) density in factored form, which the
density expansion integrates; it is the oracle of the package's Cauchy-sum
route for the ``cross_block`` integrand.  ``FACTORED`` does the same for the
integrands of the class route (``two_block_density``, ``halved_density`` and
the t-Selberg density of ``t2_selberg``), which the package integrates by
the Hall-Littlewood inner product.  The t-analogs are built without
division, as products of t-integers (``t_factorial``), by the Pascal
recurrence (``pascal_t_binomial``) and as the Rogers-Szego sum over that
row (``rogers_szego``): the oracles of the package's ``binomial_ratio``
closed forms.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

from hltorus.densities import DensityProduct, positive_roots, selberg_density
from hltorus.errors import DomainError
from hltorus.hall_littlewood import Mono, _strip_multiplicities, hl_full, var_arg
from hltorus.identities import t_multinomial_of
from hltorus.laurent import LaurentPoly
from hltorus.series import ZERO_KEY, ParamSeries, SeriesRing, mul_into

from helpers import coefficient, geometric, max_total_degree, parity_counts


def cross_block_density(n):
    """The U(2n) density as factors: cross-block geometric factors only.

    The full density is prod over each block of prod_{i != j} (1-x_i/x_j)
    times prod_{i,j} 1/((1-t x_i/y_j)(1-t y_i/x_j)), with prefactor
    1/(n!)^2.  Each block's numerator keeps only its i < j factors; that is
    the t=0 case of the Weyl factor, where [n]_0! = 1.
    """
    vars_ = tuple("%s%d" % (p, i + 1) for p in "xy" for i in range(n))
    total = 2 * n
    num = [(1, exps) for exps in positive_roots(total, 0, n) + positive_roots(total, n, n)]
    geo = []
    for i in range(n):
        for j in range(n):
            exps = [0] * total
            exps[i] += 1
            exps[n + j] -= 1
            geo.append(((2, 0, 0), 1, tuple(exps)))
            geo.append(((2, 0, 0), 1, tuple(-e for e in exps)))
    return DensityProduct(vars_, num, geo, Fraction(1, factorial(n) ** 2),
                          label="cross_block(%d)" % n,
                          blocks=(("A", 0, n, None), ("A", n, n, None)))


def two_block_density(m, n):
    """The U(m) x U(n) density as factors: a t-Selberg density on each of two blocks.

    The full density is prod over each block of prod_{i != j}
    (1-x_i/x_j)/(1-t x_i/x_j), with prefactor 1/(n! m!); only the i < j
    factors are stored, and the two blocks are recorded for the Weyl factor.
    """
    vars_ = tuple("x%d" % (i + 1) for i in range(m)) + tuple("y%d" % (i + 1) for i in range(n))
    roots = positive_roots(m + n, 0, m) + positive_roots(m + n, m, n)
    num = [(1, exps) for exps in roots]
    geo = [((2, 0, 0), 1, exps) for exps in roots]
    pref = Fraction(1, factorial(n) * factorial(m))
    return DensityProduct(vars_, num, geo, pref, label="two_block(%d,%d)" % (m, n),
                          blocks=(("A", 0, m, 2), ("A", m, n, 2)))


def halved_density(n):
    """The t^2 Selberg density with the 1/n! prefactor (double-cover case)."""
    return selberg_density(n, tpow=4, prefix="z", prefactor=Fraction(1, factorial(n)))


# integrand key -> (n, m) -> its density in factored form, for the
# integrands whose density the package never expands
FACTORED = {
    "two_block": lambda n, m: two_block_density(m, n),
    "t2_selberg": lambda n, m: selberg_density(n, prefactor=Fraction(1, factorial(n))),
    "double_cover": lambda n, m: halved_density(n),
}


def pfaffian_by_matchings(matrix):
    """Signed sum over all perfect matchings of {0, ..., size-1}."""
    ring = SeriesRing(matrix.trunc)

    def rec(idx):
        if not idx:
            return ring.one()
        first = idx[0]
        total = ring.zero()
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = tuple(x for x in idx[1:] if x != j)
            term = matrix.entry(first, j) * rec(rest)
            total = total + (term if pos % 2 else -term)
        return total

    if matrix.size % 2:
        raise ValueError("odd size")
    return rec(tuple(range(matrix.size)))


def t_factorial(ring, m, base=2):
    """[m]! = prod_{i <= m} (1 + t + ... + t^(i-1)), t = s^base."""
    acc = ring.one()
    for i in range(2, m + 1):
        acc = acc * ParamSeries({(base * j, 0, 0): 1 for j in range(i)}, ring.trunc)
    return acc


def pascal_t_binomial(ring, m, i, base=2):
    """[m i] by the Pascal recurrence [k j] = [k-1 j-1] + t^j [k-1 j]."""
    if not 0 <= i <= m:
        return ring.zero()
    row = [ring.one()]
    for k in range(1, m + 1):
        row = [ring.one(), *(row[j - 1] + ring.s(base * j) * row[j] for j in range(1, k)),
               ring.one()]
    return row[i]


def rogers_szego(ring, m, z, base=2):
    """H_m(z; t) = sum_i z^i [m i]."""
    acc, zp = ring.zero(), ring.one()
    for i in range(m + 1):
        acc = acc + zp * pascal_t_binomial(ring, m, i, base)
        zp = zp * z
    return acc


def v_by_factorials(ring, parts, base=2):
    """prod [m_i]! over the multiplicities of all ``parts``."""
    acc = ring.one()
    for m in Counter(parts).values():
        acc = acc * t_factorial(ring, m, base)
    return acc


def c_symbols(ring, parts, args, base=2):
    """(C0, C-) at q = 0 over the nonzero parts of mu, l = l(mu) of them.

    C0 = prod_{i < l} prod over (sign, k) in ``args`` of 1 - sign t^-i s^k,
    and C- = (1-t)^l prod [m_i]! over the nonzero part values.
    """
    nonzero = [p for p in parts if p]
    c0 = ring.one()
    for sign, k in args:
        for i in range(len(nonzero)):
            c0 = c0 * (ring.one() - ring.monomial(es=k - base * i, coeff=sign))
    one_minus_t = ring.one() - ring.s(base)
    return c0, one_minus_t ** len(nonzero) * v_by_factorials(ring, nonzero, base)


def multiset_inversion_sum(zeros, ones, order):
    """Sum of t^inversions over permutations of {0^zeros, 1^ones}.

    An inversion is a pair (i < j) with word[i] > word[j]; enumerated
    directly over distinct rearrangements.
    """
    ring = SeriesRing(order)
    word = (0,) * zeros + (1,) * ones
    total = ring.zero()
    for w in sorted(set(permutations(word))):
        inv = sum(
            1
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] > w[j]
        )
        total = total + ring.t(inv)
    return total


def slot_value(slot, point, s):
    """The rational sign * s^spow * prod point_j^e_j of a Mono slot."""
    value = Fraction(slot.sign) * Fraction(s) ** slot.spow
    for x, e in zip(point, slot.exps):
        value *= Fraction(x) ** e
    return value


def hl_by_point_evaluation(weight, args, point, s, tbase=2):
    """P_weight(args; t) at a rational point, from the defining sum.

    With slot values y_i (see ``slot_value``) and t = s^tbase this is
    (1/v_lambda(t)) sum over w in S_N of
    w(y^lambda prod_{i<j} (y_i - t y_j)/(y_i - y_j)), which needs the slot
    values pairwise distinct.  Negative weight parts are allowed.  The
    permutations that put the same set of slots in the first k positions
    share the factors among those positions, so their partial sums are
    added up per set: ``part[S]`` is the sum over orderings of the slots in
    S placed first.
    """
    t = Fraction(s) ** tbase
    ys = [slot_value(m, point, s) for m in args]
    if len(set(ys)) != len(ys):
        raise ValueError("slot values must be pairwise distinct")
    n = len(ys)
    part = [Fraction(0)] * (1 << n)
    part[0] = Fraction(1)
    for placed in range(1 << n):
        k = bin(placed).count("1")
        for a in range(n):
            if k == n or placed >> a & 1:
                continue
            term = part[placed] * ys[a] ** weight[k]
            for b in range(n):
                if placed >> b & 1:
                    term *= (ys[b] - t * ys[a]) / (ys[b] - ys[a])
            part[placed | 1 << a] += term
    v = Fraction(1)
    for mult in Counter(weight).values():
        for j in range(1, mult + 1):
            v *= (1 - t ** j) / (1 - t)
    return part[-1] / v


def _mono_pow(m, k):
    sign = -1 if (m.sign < 0 and k % 2) else 1
    return Mono(sign, m.spow * k, tuple(e * k for e in m.exps))


def _psi(lam, mu, tbase, cap, y):
    """psi_{lam/mu}(t) times the scalar y.sign * s**y.spow of the slot power y.

    lam/mu is a horizontal strip; the result is an (e_s, 0, 0)-keyed dict
    truncated at ``cap``.
    """
    psi = {(y.spow, 0, 0): y.sign} if y.spow <= cap else {}
    for m in _strip_multiplicities(lam, mu):
        out = {}
        mul_into(out, psi, {ZERO_KEY: 1, (tbase * m, 0, 0): -1}, cap)
        psi = out
    return psi


def _branching(lam, args, memo, cap, tbase):
    """P_lam(args) times the seed term, for a partition lam padded to len(args).

    Polynomials map exponent tuples to (e_s, 0, 0)-keyed coefficient dicts.
    ``memo`` maps each partition already built to its polynomial, and ()
    to the seed, the one-term polynomial that P_() stands for.
    """
    hit = memo.get(lam)
    if hit is not None:
        return hit
    k = len(lam)
    size = sum(lam)
    acc = {}
    for mu in product(*(range(lam[i + 1], lam[i] + 1) for i in range(k - 1))):
        y = _mono_pow(args[k - 1], size - sum(mu))
        factor = _psi(lam, mu, tbase, cap, y)
        if not factor:
            continue
        for exps, cd in _branching(mu, args, memo, cap, tbase).items():
            key = tuple(a + b for a, b in zip(exps, y.exps))
            mul_into(acc.setdefault(key, {}), cd, factor, cap)
    memo[lam] = acc
    return acc


def hl_by_branching(weight, args, var_names, order, tbase=2):
    """P_weight(args; t) as a LaurentPoly by the branching rule, monomial by monomial.

    Macdonald, SFHP III (5.11'): P_lam(y_1..y_N) = sum_mu psi_{lam/mu}(t)
    y_N^{|lam|-|mu|} P_mu(y_1..y_{N-1}) over the horizontal strips lam/mu,
    memoized on mu.  A weight ending in h != 0 is shifted to end in 0, and
    the recursion starts from (y_1 ... y_N)^h in place of P_() = 1.  The
    oracle of ``hl_full``'s class table and slot DP, with which it shares
    only the strips' J sets (``_strip_multiplicities``) and ``mul_into``.
    """
    weight, args, nvars = tuple(weight), tuple(args), len(var_names)
    shift = weight[-1] if weight else 0
    y = _mono_pow(
        Mono(prod(m.sign for m in args), sum(m.spow for m in args),
             tuple(sum(m.exps[i] for m in args) for i in range(nvars))),
        shift,
    )
    poly = _branching(tuple(w - shift for w in weight), args,
                      {(): {y.exps: {(y.spow, 0, 0): y.sign}}}, order, tbase)
    return LaurentPoly(var_names, {e: cd for e, cd in poly.items() if cd}, order)


def product_by_nested_loops(a, b, trunc):
    """Product of two {torus exponents: {(e_s, e_a, e_b): coeff}} dicts.

    Every term pair is multiplied over Fractions, the full product is
    formed first, and only then are terms of total degree above ``trunc``,
    zero values and empty coefficients dropped.  The inputs may hold zeros
    and keys of any degree.
    """
    full = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            inner = full.setdefault(e, {})
            for ka, va in ca.items():
                for kb, vb in cb.items():
                    k = tuple(x + y for x, y in zip(ka, kb))
                    inner[k] = inner.get(k, Fraction(0)) + Fraction(va) * Fraction(vb)
    out = {}
    for e, inner in full.items():
        kept = {k: v for k, v in inner.items() if v != 0 and sum(k) <= trunc}
        if kept:
            out[e] = kept
    return out


def schur_by_tableaux(parts, nvars):
    """Schur polynomial as a weight-count over semistandard tableaux.

    Returns a mapping from exponent vectors to integer multiplicities.
    """
    shape = [p for p in parts if p > 0]
    if any(p < 0 for p in parts):
        raise DomainError("tableau oracle needs a partition")
    if len(shape) > nvars:
        return {}
    counts = {}
    if not shape:
        counts[(0,) * nvars] = 1
        return counts
    weight = [0] * nvars

    def fill_row(row_idx, prev_row):
        if row_idx == len(shape):
            key = tuple(weight)
            counts[key] = counts.get(key, 0) + 1
            return
        length = shape[row_idx]
        row = [0] * length

        def fill_cell(col, minval):
            if col == length:
                fill_row(row_idx + 1, row)
                return
            lo = minval
            if row_idx > 0 and col < len(prev_row):
                lo = max(lo, prev_row[col] + 1)
            else:
                lo = max(lo, row_idx + 1)
            for val in range(lo, nvars + 1):
                row[col] = val
                weight[val - 1] += 1
                fill_cell(col + 1, val)
                weight[val - 1] -= 1

        fill_cell(0, 1)

    fill_row(0, [])
    return counts


def monomial_sym(parts, nvars):
    """Monomial symmetric polynomial as an exponent-multiset indicator."""
    padded = tuple(parts) + (0,) * (nvars - len(tuple(parts)))
    if len(padded) != nvars:
        raise DomainError("too many parts for the variable count")
    return {e: 1 for e in set(permutations(padded))}


def degenerate_check(parts, nvars, order=24):
    """Check P at t=0 against the tableau Schur oracle and at t=1 against m.

    The t=1 evaluation sums all s-coefficients, which is only meaningful
    when the polynomial is certified untruncated (top s-degree strictly
    below the working order); the report says whether that held.
    """
    parts = tuple(parts)
    padded = parts + (0,) * (nvars - len(parts))
    args = tuple(var_arg(nvars, i) for i in range(nvars))
    names = tuple("x%d" % (i + 1) for i in range(nvars))
    p = hl_full(padded, args, names, order)
    top = 0
    for e in p.terms:
        d = max_total_degree(coefficient(p, e))
        if d is not None and d > top:
            top = d
    certified = top < order
    at_zero = {e: c[ZERO_KEY] for e, c in p.terms.items() if ZERO_KEY in c}
    schur = schur_by_tableaux(parts, nvars)
    schur_ok = at_zero == schur
    at_one = {}
    for e, c in p.terms.items():
        total = sum(c.values())
        if total:
            at_one[e] = total
    mono_ok = at_one == monomial_sym(parts, nvars)
    return {
        "certified_untruncated": certified,
        "schur_ok": schur_ok,
        "monomial_ok": mono_ok,
        "top_degree": top,
    }


def determinant(rows, trunc):
    """Determinant of a square matrix of series, via memoized cofactors."""
    n = len(rows)
    ring = SeriesRing(trunc)
    memo = {}

    def rec(r, cols):
        if r == n:
            return ring.one()
        hit = memo.get(cols)
        if hit is not None:
            return hit
        total = ring.zero()
        for pos, c in enumerate(cols):
            e = rows[r][c]
            if e.is_zero():
                continue
            term = e * rec(r + 1, cols[:pos] + cols[pos + 1:])
            total = total + (term if pos % 2 == 0 else -term)
        memo[cols] = total
        return total

    return rec(0, tuple(range(n)))



def _power_of_minus_alpha(ring, e):
    return ring.monomial(ea=e, coeff=-1 if e % 2 else 1)


def pf_closed_form(kind, lam, trunc):
    """Closed-form Pfaffian values for the three matrix families.

    For "a": 2^(n-1) [(-alpha)^odd + (-alpha)^even].  For "m_minus" and
    "m_plus" the bracketed combination divided by (1 - alpha^2) resp.
    (1 - alpha) is always a polynomial; it is written out directly.
    """
    lam = tuple(lam)
    ring = SeriesRing(trunc)
    odd = sum(1 for p in lam if p % 2)
    even = len(lam) - odd
    if kind == "a":
        if len(lam) % 2:
            raise DomainError("even length required")
        n = len(lam) // 2
        bracket = _power_of_minus_alpha(ring, odd) + _power_of_minus_alpha(ring, even)
        return ring.const(2 ** (n - 1)) * bracket
    if kind == "m_minus":
        if len(lam) % 2:
            raise DomainError("even length required")
        n = len(lam) // 2
        # ((-a)^odd - (-a)^even) / (1 - a^2); exponents share parity
        if odd == even:
            return ring.zero()
        p, q = (odd, even) if odd < even else (even, odd)
        quotient = ring.zero()
        for j in range((q - p) // 2):
            quotient = quotient + ring.alpha(p + 2 * j) * (
                (-1) ** (p % 2)
            )
        if odd > even:
            quotient = -quotient
        return ring.const(2 ** n) * quotient
    if kind == "m_plus":
        if len(lam) % 2 == 0:
            raise DomainError("odd length required")
        n = len(lam) // 2
        # ((-a)^odd + (-a)^even) / (1 - a): opposite parities, so this is
        # (a^e - a^o)/(1 - a) with e the even exponent and o the odd one
        e = odd if odd % 2 == 0 else even
        o = even if odd % 2 == 0 else odd
        quotient = ring.zero()
        if e < o:
            for j in range(e, o):
                quotient = quotient + ring.alpha(j)
        else:
            for j in range(o, e):
                quotient = quotient - ring.alpha(j)
        return ring.const(2 ** n) * quotient
    raise DomainError("unknown closed form %r" % (kind,))


# ---------------------------------------------------------------------------
# hand-specialized closed forms, one per row kind
# ---------------------------------------------------------------------------


def rhs_orthogonal_alpha(component, lam, order):
    """The one-parameter closed forms for the four orthogonal components."""
    ring = SeriesRing(order)
    odd, even = parity_counts(lam)
    sign = 1 if component in ("plus_even", "plus_odd") else -1
    bracket = _power_of_minus_alpha(ring, odd) + _power_of_minus_alpha(ring, even) * sign
    return t_multinomial_of(lam.parts, order) * bracket


def _alpha_shifted_rs(ring, m):
    """(-alpha)^m H_m(beta/alpha; t), assembled directly as a polynomial."""
    acc = ring.zero()
    neg = -1 if m % 2 else 1
    for j in range(m + 1):
        acc = acc + pascal_t_binomial(ring, m, j) * ring.monomial(ea=m - j, eb=j, coeff=neg)
    return acc


def _rs_brackets(lam, order):
    """The two Rogers-Szego bracket summands of the two-parameter values."""
    ring = SeriesRing(order)
    z_ab = ring.monomial(ea=1, eb=1)
    even_h = odd_h = even_g = odd_g = ring.one()
    for value, mult in lam.multiplicities().items():
        if value % 2 == 0:
            even_h = even_h * rogers_szego(ring, mult, z_ab)
            even_g = even_g * _alpha_shifted_rs(ring, mult)
        else:
            odd_h = odd_h * rogers_szego(ring, mult, z_ab)
            odd_g = odd_g * _alpha_shifted_rs(ring, mult)
    # (-alpha)^{# odd parts} is absorbed into the shifted factors
    return even_h * odd_g, odd_h * even_g


def rhs_ab(component, lam, order):
    """Two-parameter closed forms; polynomial in (s, alpha, beta) by design."""
    b1, b2 = _rs_brackets(lam, order)
    sign = 1 if component in ("plus_even", "plus_odd") else -1
    return t_multinomial_of(lam.parts, order) * (b1 + b2 * sign)


def rhs_ab_sum(lam, order):
    b1, _ = _rs_brackets(lam, order)
    return t_multinomial_of(lam.parts, order) * b1 * 2


def rhs_alpha_minus_one(lam, order):
    ring = SeriesRing(order)
    minus_beta = ring.monomial(eb=1, coeff=-1)
    acc = t_multinomial_of(lam.parts, order) * 2
    for mult in lam.multiplicities().values():
        acc = acc * rogers_szego(ring, mult, minus_beta)
    return acc


def rhs_alpha_eq_minus_beta(lam, order):
    ring = SeriesRing(order)
    z_sq = ring.monomial(ea=2, coeff=-1)
    minus_one = ring.const(-1)
    e_sq = o_sq = e_m1 = o_m1 = ring.one()
    for value, mult in lam.multiplicities().items():
        if value % 2 == 0:
            e_sq = e_sq * rogers_szego(ring, mult, z_sq)
            e_m1 = e_m1 * rogers_szego(ring, mult, minus_one)
        else:
            o_sq = o_sq * rogers_szego(ring, mult, z_sq)
            o_m1 = o_m1 * rogers_szego(ring, mult, minus_one)
    odd, even = parity_counts(lam)
    bracket = e_sq * o_m1 * _power_of_minus_alpha(ring, odd) + o_sq * e_m1 * _power_of_minus_alpha(ring, even)
    return t_multinomial_of(lam.parts, order) * bracket


def gustafson_rhs(item, n, order):
    """The closed-form value of the six normalization integrals.

    ``item`` is one of "i".."vi"; the products are expanded as exact
    truncated series (every denominator factor is a unit with positive
    s-degree, so geometric expansion is exact).
    """
    ring = SeriesRing(order)
    one_minus_t = ring.one() - ring.t()

    def geom_t_pow(k):
        return geometric(ring, es=k)

    if item == "i":
        acc = one_minus_t ** n
        for j in range(1, n + 1):
            acc = acc * geom_t_pow(4 * j)
        return acc
    if item == "ii":
        acc = one_minus_t ** n
        for j in range(1, 2 * n + 1):
            acc = acc * geom_t_pow(j)
        return acc
    if item == "iii":
        acc = one_minus_t ** n * Fraction(1, 2)
        for j in range(1, 2 * n + 1):
            acc = acc * geom_t_pow(2 * j)
        return acc
    if item == "iv":
        acc = one_minus_t ** (n - 1)
        for j in range(2 * n - 2):
            acc = acc * geom_t_pow(2 * (3 + j))
        return acc
    if item in ("v", "vi"):
        acc = one_minus_t ** (n + 1)
        for j in range(1, 2 * n + 2):
            acc = acc * geom_t_pow(2 * j)
        return acc
    raise DomainError("unknown normalization item %r" % (item,))
