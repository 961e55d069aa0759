"""Substitutions, exact divisions and other API that only the tests need.

The package divides series only by binomials (``divide_binomial``) and
never substitutes torus variables; these helpers state closed forms and
symmetries in the tests.  They read and build ``ParamSeries`` and
``LaurentPoly`` through their public fields.  A polynomial's terms are raw
coefficient dicts: ``coefficient`` wraps one as a ``ParamSeries`` for ring
arithmetic, and ``poly_of`` builds a polynomial from series coefficients.
The package never adds polynomials or scales one either: ``monomial``,
``poly_sum`` and ``scaled`` build the tests' polynomials.  Q_lambda, the
q-Pochhammer symbol, the Rogers-Szego sum, the two grid enumerators and
``row_closed_form`` below are used by the tests alone as well, and so are
``lifted``, the lifted P that the package never forms, ``torus_factor``,
the linear factor prod_i l(x_i) that the package never forms either,
``unpacked``, an expansion table with its series unpacked, and
``InternalConsistencyError``, which ``divide_by_s_power`` raises.
"""

from fractions import Fraction
from math import gcd
from operator import add

from hltorus import densities
from hltorus.errors import ConfigurationError, DomainError, HLTorusError
from hltorus.hall_littlewood import hl_full
from hltorus.identities import REGISTRY, _Instance, c_minus, t_binomial
from hltorus.laurent import LaurentPoly
from hltorus.partitions import DominantWeight, Partition
from hltorus.series import ZERO_KEY, ParamSeries, SeriesRing, unpack


class InternalConsistencyError(HLTorusError):
    """An exactness check failed; results cannot be trusted."""


def parse_weight(cls, text):
    """A ``Partition`` or ``DominantWeight`` from comma-separated parts."""
    text = text.strip()
    return cls(() if not text else tuple(int(p) for p in text.split(",")))


def parity_counts(weight):
    """(number of odd parts, number of even parts); zeros count as even."""
    odd = sum(1 for p in weight.parts if p & 1)
    return odd, len(weight.parts) - odd


def dense(mat):
    """The entries of an ``AntisymMatrix`` as a list of rows."""
    return [[mat.entry(j, k) for k in range(mat.size)] for j in range(mat.size)]


def poly_of(vars, terms, trunc):
    """The polynomial with the series or rational coefficients ``terms``.

    Each coefficient becomes its dict, cleaned at ``trunc``, and zero ones
    are dropped, which keeps the layout invariant of ``LaurentPoly``.
    """
    ring = SeriesRing(trunc)
    out = {}
    for e, c in terms.items():
        if not isinstance(c, ParamSeries):
            c = ring.const(c)
        coeffs = ParamSeries(c.coeffs, trunc).coeffs
        if coeffs:
            out[tuple(e)] = coeffs
    return LaurentPoly(vars, out, trunc)


def monomial(vars, exps, coeff, trunc):
    """The one-term polynomial coeff * x^exps; ``coeff`` a series or a rational."""
    return poly_of(vars, {tuple(exps): coeff}, trunc)


def poly_sum(first, *rest):
    """The sum of polynomials over the same variables and order."""
    out = {}
    for poly in (first,) + rest:
        first._check(poly)
        for e in poly.terms:
            c = coefficient(poly, e)
            out[e] = out[e] + c if e in out else c
    return poly_of(first.vars, out, first.trunc)


def scaled(poly, c):
    """``poly`` times the series or rational ``c``, term by term."""
    return poly_of(poly.vars, {e: coefficient(poly, e) * c for e in poly.terms}, poly.trunc)


def linear_factor_by_binomials(slots, values, names, order):
    """The torus part of the slot rule, prod over the values v and the torus
    slots y of (1 - v y), multiplied one binomial at a time into the whole
    partial product by ``LaurentPoly.__mul__``: the oracle of
    ``identities._linear_factors``."""
    ring = SeriesRing(order)
    torus = LaurentPoly.unit(names, order)
    for coeff, ea, eb in values:
        for y in slots:
            if any(y.exps):
                binomial = {(0,) * len(names): ring.one(),
                            y.exps: ring.monomial(y.spow, ea, eb, coeff=-coeff * y.sign)}
                torus = torus * poly_of(names, binomial, order)
    return torus


def torus_factor(linear, names, order):
    """prod_i l(x_i) over the variables ``names``, l = ``linear`` the series
    {power: coefficient dict} of ``identities._linear_factors``, multiplied
    one variable at a time by ``LaurentPoly.__mul__``: the product that
    ``ct_integrate``'s ``linear`` stands for."""
    torus = LaurentPoly.unit(names, order)
    for i in range(len(names)):
        terms = {tuple(k if j == i else 0 for j in range(len(names))): c
                 for k, c in linear.items()}
        torus = torus * LaurentPoly(names, terms, order)
    return torus


def unpacked(table):
    """A table of ``densities._expansion`` with each series unpacked at its
    width, as {exponent: coefficient dict}."""
    return {e: unpack(v, table.width) for e, v in table.items()}


def coefficient(poly, exps):
    """The coefficient of x^exps in ``poly`` as a series, zero when absent."""
    return ParamSeries(poly.terms.get(tuple(exps), {}), poly.trunc, clean=False)


def scalar(poly):
    """The value of a polynomial with no torus dependence."""
    if any(any(e) for e in poly.terms):
        raise DomainError("polynomial still depends on torus variables")
    return coefficient(poly, (0,) * len(poly.vars))


def truncated(series, new_trunc):
    """``series`` at the truncation order ``new_trunc``."""
    return ParamSeries(dict(series.coeffs), new_trunc, clean=new_trunc < series.trunc)


def from_coeffs(ring, coeffs):
    """The series at ``ring``'s order with the given coefficients, cleaned."""
    return ParamSeries(dict(coeffs), ring.trunc)


def max_total_degree(series):
    """Highest total degree with a nonzero coefficient, or None if zero."""
    return max((sum(k) for k in series.coeffs), default=None)


def constant_term(poly, in_vars):
    """Sum of terms with exponent zero on every variable in ``in_vars``.

    The result is a Laurent polynomial in the remaining variables; this
    is the torus integral over the dropped variables.
    """
    in_vars = tuple(in_vars)
    for v in in_vars:
        if v not in poly.vars:
            raise ConfigurationError("unknown variable %r" % (v,))
    drop = {poly.vars.index(v) for v in in_vars}
    keep = [i for i in range(len(poly.vars)) if i not in drop]
    out = {}
    for e in poly.terms:
        if not any(e[i] for i in drop):
            key, c = tuple(e[i] for i in keep), coefficient(poly, e)
            out[key] = out[key] + c if key in out else c
    return poly_of(tuple(poly.vars[i] for i in keep), out, poly.trunc)


def drop_param(series, idx):
    """Set the parameter in slot ``idx`` of (s, alpha, beta) to zero."""
    return ParamSeries(
        {k: c for k, c in series.coeffs.items() if k[idx] == 0}, series.trunc
    )


def negate_param(series, idx):
    """Substitute parameter -> minus itself in slot ``idx``."""
    return ParamSeries(
        {k: (-c if k[idx] & 1 else c) for k, c in series.coeffs.items()},
        series.trunc,
    )


def divide_by_s_power(series, k):
    """Exact division by s**k; every stored term must carry s**k."""
    out = {}
    for (es, ea, eb), c in series.coeffs.items():
        if es < k:
            raise InternalConsistencyError(
                "series not divisible by s^%d (term s^%d a^%d b^%d)" % (k, es, ea, eb)
            )
        out[(es - k, ea, eb)] = c
    return ParamSeries(out, series.trunc)


def unit_inverse(series):
    """Inverse of a series whose constant term is nonzero.

    Geometric expansion of the degree >= 1 tail, which is exact in the
    truncated ring; a series with zero constant term is rejected.
    """
    c0 = series.coeffs.get(ZERO_KEY, 0)
    if c0 == 0:
        raise DomainError("series with zero constant term has no inverse")
    scale = Fraction(1) / c0
    ring = SeriesRing(series.trunc)
    tail = from_coeffs(
        ring, {k: -c * scale for k, c in series.coeffs.items() if k != ZERO_KEY}
    )
    acc = ring.one()
    power = ring.one()
    for _ in range(series.trunc):
        power = power * tail
        if power.is_zero():
            break
        acc = acc + power
    return acc * scale


def geometric(ring, es=0, ea=0, eb=0, sign=1):
    """1/(1 - sign * s^es a^ea b^eb) as a truncated geometric series, the
    oracle of ``divide_binomial``; the monomial needs positive degree."""
    deg = es + ea + eb
    if deg < 1:
        raise DomainError("geometric factor needs positive parameter degree")
    return ParamSeries({(k * es, k * ea, k * eb): sign ** k
                        for k in range(ring.trunc // deg + 1)}, ring.trunc, clean=False)


def factor_sequence_by_products(dens, order):
    """The lines of ``densities._factor_sequence``, each factor's whole
    series multiplied into its line's product by ``LaurentPoly.__mul__``,
    one factor at a time: the oracle of the shared, divided line series."""
    ring = SeriesRing(order)
    lines = {}

    def put(exps, terms):
        m = gcd(*exps) * (1 if next(e for e in exps if e) > 0 else -1)
        d = tuple(e // m for e in exps)
        f = poly_of(("y",), {(j * m,): c for j, c in terms}, order)
        lines[d] = lines[d] * f if d in lines else f

    for sign, exps in dens.num_factors:
        put(exps, ((0, ring.one()), (1, ring.const(-sign))))
    for (es, ea, eb), sign, exps in dens.geo_factors:
        put(exps, ((j, ring.monomial(j * es, j * ea, j * eb, sign ** j))
                   for j in range(order // (es + ea + eb) + 1)))
    return [(d, sorted((k, c) for (k,), c in lines[d].terms.items()))
            for d in sorted(lines, key=densities._line_key(dens.blocks))]


def specialize(poly, assignment):
    """Substitute variables by +-1 or by a signed (inverse) variable.

    ``assignment`` maps a variable name to either an integer +-1 or a
    triple (sign, name, power) with sign in {1, -1} and power in {1, -1};
    anything else would leave the Laurent polynomials and is rejected.
    """
    names = poly.vars
    plan = {}
    for v, target in assignment.items():
        if v not in names:
            raise ConfigurationError("unknown variable %r" % (v,))
        if isinstance(target, int):
            if target not in (1, -1):
                raise DomainError("constant substitution must be +-1")
            plan[names.index(v)] = (target, None, 0)
            continue
        try:
            sign, name, power = target
        except (TypeError, ValueError):
            raise DomainError("substitution target %r not allowed" % (target,))
        if sign not in (1, -1) or power not in (1, -1) or name not in names:
            raise DomainError("substitution target %r not allowed" % (target,))
        plan[names.index(v)] = (sign, names.index(name), power)
    out = {}
    for e in poly.terms:
        newe = list(e)
        sign = 1
        for i, (sgn, j, power) in plan.items():
            k = e[i]
            if k == 0:
                continue
            newe[i] = 0
            if sgn < 0 and k & 1:
                sign = -sign
            if j is not None:
                newe[j] += power * k
        key, c = tuple(newe), coefficient(poly, e) * sign
        out[key] = out[key] + c if key in out else c
    return poly_of(names, out, poly.trunc)


def rename_vars(poly, new_vars):
    new_vars = tuple(new_vars)
    if len(new_vars) != len(poly.vars):
        raise ConfigurationError("variable count mismatch")
    return LaurentPoly(new_vars, dict(poly.terms), poly.trunc)


def permute_vars(poly, perm):
    """Relabel variable slots: slot i takes the old slot perm[i]."""
    return LaurentPoly(
        poly.vars,
        {tuple(e[p] for p in perm): c for e, c in poly.terms.items()},
        poly.trunc,
    )


def hl_q(weight, args, var_names, order, tbase=2):
    """Q_lambda = b_lambda(t) P_lambda."""
    p = hl_full(weight, args, var_names, order, tbase)
    b = c_minus(weight, order, base=tbase)
    return scaled(p, b)


def lifted(weight, k, slots, names, order, tbase):
    """s^p P_weight at ``slots``, the lift of ``identities._lift``, formed:
    P_{weight+k}, its torus exponents shifted by -k per slot."""
    p = hl_full(tuple(w + k for w in weight), slots, names, order, tbase)
    shift = [-k * sum(col) for col in zip(*(y.exps for y in slots))]
    return LaurentPoly(names, {tuple(map(add, e, shift)): c for e, c in p.terms.items()}, order)


def rogers_szego_sum(m, z, order):
    """H_m(z; t) = sum_i z^i [m i] over the package's Gaussian binomials."""
    return sum((t_binomial(m, i, order) * z ** i for i in range(m + 1)),
               SeriesRing(order).zero())


def q_pochhammer(ring, a, q, n=None):
    """(a;q)_n with a, q signed s-monomials given as (sign, s-exponent).

    ``n=None`` means the infinite product, which stabilizes at the
    truncation order provided q carries positive s-degree.
    """
    asign, apow = a
    qsign, qpow = q
    if apow < 0 or qpow < 0:
        raise DomainError("q-symbol arguments must be nonnegative s-powers")
    one = ring.one()
    if n is None:
        if qpow == 0:
            raise DomainError("infinite q-symbol needs |q| < 1 (positive s-degree)")
        acc = one
        j = 0
        while apow + j * qpow <= ring.trunc:
            sign = asign * (qsign ** (j % 2) if qsign < 0 else 1)
            acc = acc * (one - ring.monomial(es=apow + j * qpow, coeff=sign))
            j += 1
        return acc
    acc = one
    for j in range(n):
        sign = asign * (-1 if (qsign < 0 and j % 2) else 1)
        acc = acc * (one - ring.monomial(es=apow + j * qpow, coeff=sign))
    return acc


def bounded_partitions(length, max_part):
    """All weakly decreasing tuples of the given length with parts <= max_part."""
    out = []

    def rec(prefix, bound):
        if len(prefix) == length:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(bound, -1, -1):
            prefix.append(p)
            rec(prefix, p)
            prefix.pop()

    rec([], max_part)
    return tuple(out)


def dominant_weights(rank, max_entry):
    """All dominant integer weights of the rank with |entries| <= max_entry."""
    out = []

    def rec(prefix, bound):
        if len(prefix) == rank:
            out.append(DominantWeight(tuple(prefix)))
            return
        for p in range(bound, -max_entry - 1, -1):
            prefix.append(p)
            rec(prefix, p)
            prefix.pop()

    rec([], max_entry)
    return tuple(out)


def row_closed_form(name, lam, order):
    """The closed form of the registry row ``name`` at the weight lam.

    For the rows whose closed form has denominator one and reads no n or m.
    """
    num, den = REGISTRY[name].closed(_Instance(None, None, Partition(tuple(lam)), None, order))
    if den != 1:
        raise ValueError("row %r has a denominator" % (name,))
    return num
