"""Substitutions and exact divisions that only the tests need.

The package never divides series and never substitutes torus variables;
these helpers state closed forms and symmetries in the tests.  They read
and build ``ParamSeries`` and ``LaurentPoly`` through their public fields.
"""

from fractions import Fraction

from hltorus.errors import ConfigurationError, DomainError, InternalConsistencyError
from hltorus.laurent import LaurentPoly
from hltorus.series import ZERO_KEY, ParamSeries, SeriesRing


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
    c0 = series.constant()
    if c0 == 0:
        raise DomainError("series with zero constant term has no inverse")
    scale = Fraction(1) / c0
    ring = SeriesRing(series.trunc)
    tail = ring.from_coeffs(
        {k: -c * scale for k, c in series.coeffs.items() if k != ZERO_KEY}
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
    out = LaurentPoly.zero(names, poly.trunc)
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
        out = out + LaurentPoly(names, {tuple(newe): c if sign > 0 else -c}, poly.trunc)
    return out


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
