"""Substitutions, exact divisions and other API that only the tests need.

The package never divides series and never substitutes torus variables;
these helpers state closed forms and symmetries in the tests.  They read
and build ``ParamSeries`` and ``LaurentPoly`` through their public fields.
The package never adds polynomials or scales one either: ``monomial``,
``poly_sum`` and ``scaled`` build the tests' polynomials.  Q_lambda, the
q-Pochhammer symbol, the two grid enumerators and ``row_closed_form``
below are used by the tests alone as well.
"""

from fractions import Fraction

from hltorus.errors import ConfigurationError, DomainError, InternalConsistencyError
from hltorus.hall_littlewood import hl_full
from hltorus.identities import REGISTRY, _Instance
from hltorus.laurent import LaurentPoly
from hltorus.partitions import DominantWeight, Partition
from hltorus.series import ZERO_KEY, ParamSeries, SeriesRing
from hltorus.tcomb import TComb


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


def monomial(vars, exps, coeff, trunc):
    """The one-term polynomial coeff * x^exps; ``coeff`` a series or a rational."""
    if not isinstance(coeff, ParamSeries):
        coeff = SeriesRing(trunc).const(coeff)
    return LaurentPoly(vars, {tuple(exps): coeff}, trunc)


def poly_sum(first, *rest):
    """The sum of polynomials over the same variables and order."""
    out = dict(first.terms)
    for poly in rest:
        first._check(poly)
        for e, c in poly.terms.items():
            out[e] = out[e] + c if e in out else c
    return LaurentPoly(first.vars, out, first.trunc)


def scaled(poly, c):
    """``poly`` times the series or rational ``c``, term by term."""
    return LaurentPoly(poly.vars, {e: v * c for e, v in poly.terms.items()}, poly.trunc)


def coefficient(poly, exps):
    """The coefficient of x^exps in ``poly``, the zero series when absent."""
    c = poly.terms.get(tuple(exps))
    return SeriesRing(poly.trunc).zero() if c is None else c


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
    for e, c in poly.terms.items():
        if not any(e[i] for i in drop):
            key = tuple(e[i] for i in keep)
            out[key] = out[key] + c if key in out else c
    return LaurentPoly(tuple(poly.vars[i] for i in keep), out, poly.trunc)


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
    for e, c in poly.terms.items():
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
        key, c = tuple(newe), c if sign > 0 else -c
        out[key] = out[key] + c if key in out else c
    return LaurentPoly(names, out, poly.trunc)


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
    b = TComb(SeriesRing(order), base=tbase).c_symbol("-", weight)
    return scaled(p, b)


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
