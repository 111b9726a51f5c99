"""Minimal special functions backing the statistical tests.

Only the regularized incomplete beta function is needed — both the F and
Student-t tail probabilities reduce to it — so it is implemented here
directly (continued-fraction evaluation with a ``lgamma`` prefactor) instead
of pulling in a scientific stack at runtime.  The test suite cross-checks
these routines against independent high-precision oracles.  The rules
that several public entries share live here too: ``_off_plane``, the plane
rule of the ``windows.csv`` reader, which ``_check_point`` raises for
``CecpPoint``, ``AssetSummary`` and ``within_bounds``; ``_stride_break``,
the stride rule of window starts, of ``RollingResult`` and both ways of
reading ``windows.csv``; ``_integer``, the rule of every count-like
argument and of every count a record holds; ``_values`` (a collection,
never a string or a scalar), the rule of ``fbm_hursts``; ``_labels`` (one or
more distinct labels), the rule of every asset selection and of the assets
``rank_assets`` ranks; and ``_check_hurst``, the Hurst exponent rule of
``RunConfig`` and ``fbm``.  This module loads no numpy, so the rules that
accept numpy types or make arrays live beside their callers: in ``dataio``,
``_flag`` (a ``bool`` or a numpy bool); in ``patterns``,
``_as_float_array``, the rule of every float vector, series and probability
vectors alike.

The one record rule, ``_checked``, lives here too.  A record that holds no arrays
is a ``NamedTuple``, and each one whose ``_check`` is wrapped by
``_checked`` is checked when it is made, whether by a call, ``_make`` or
``_replace``: ``_check`` raises or returns the record's values, converted
where a field accepts several types, and those values are what the record
holds.  Like any tuple, a record compares equal to a plain tuple of the
same values.  A record that holds arrays is a ``__slots__`` class, which
compares and hashes by identity; as a ``_Holder``, its copies and pickles
are rebuilt by its constructor, so they too hold checked read-only arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Iterable

__all__ = [
    "regularized_incomplete_beta",
    "f_sf",
    "student_t_sf_two_sided",
]

_MAX_ITER = 300
_EPS = 1e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz scheme)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def _off_plane(entropy, complexity):
    """``(column, off, why)`` per coordinate, for floats or float arrays:
    an entropy outside [0, 1] or NaN, or a complexity below 0, beyond the
    1e-12 a coordinate read from elsewhere may sit off the plane."""
    return (("entropy", (entropy < -1e-12) | (entropy > 1.0 + 1e-12) | (entropy != entropy),
             "normalized entropy {} outside [0, 1]"),
            ("complexity", complexity < -1e-12, "complexity {} negative"))


def _check_point(entropy: float, complexity: float, what: str = "") -> None:
    """Raise unless the point ``(entropy, complexity)`` is on the plane by
    ``_off_plane``; the error names the first coordinate off it, after
    ``what``."""
    for value, (_, off, why) in zip((entropy, complexity), _off_plane(entropy, complexity)):
        if off:
            raise ValueError(what + why.format(value))


def _stride_break(starts) -> int | None:
    """The first position ``k`` at which the window starts ``starts`` (ints)
    break the stride rule, starts advancing by one constant positive
    stride: ``starts[k] - starts[k - 1]`` is not positive or not the first
    stride.  None where the rule holds."""
    strides = list(map(operator.sub, starts[1:], starts[:-1]))
    if not strides or strides[0] > 0 and strides.count(strides[0]) == len(strides):
        return None
    return next(k for k, s in enumerate(strides, start=1) if s <= 0 or s != strides[0])


def _integer(value, name: str, minimum: int) -> int:
    """``value``, any integer type, as an ``int`` of at least ``minimum``;
    the error names that ``int``, or ``value`` if it is no integer."""
    try:
        value = number = int(operator.index(value))
    except TypeError:
        number = minimum - 1
    if number < minimum:
        rule = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return number


def _values(value, name: str) -> tuple:
    """The values of the collection ``value`` as a tuple; a string or a
    scalar is refused, so that ``"ab"`` is not read as ``("a", "b")``."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ValueError(f"{name} must be a collection of values, got {value!r}")
    return tuple(value)


def _labels(value, name: str) -> tuple:
    """``_values(value, name)``, refused unless it holds one or more
    distinct labels."""
    labels = _values(value, name)
    if not labels or len(set(labels)) < len(labels):
        raise ValueError(f"{name} must be one or more distinct labels, got {labels!r}")
    return labels


def _checked(cls):
    """Make every new ``cls`` record hold the values ``cls._check`` returns.

    A NamedTuple class body may not define ``__new__`` or ``_make``, and the
    generated ``_make``, which ``_replace`` calls too, builds the tuple
    without ``__new__``; so both are wrapped here, after the class is made.
    """
    new, make = cls.__new__, cls._make.__func__

    @functools.wraps(new)
    def __new__(klass, *args, **kwargs):
        return tuple.__new__(klass, new(klass, *args, **kwargs)._check())

    @functools.wraps(make)
    def _make(klass, iterable):
        return tuple.__new__(klass, make(klass, iterable)._check())

    cls.__new__ = __new__
    cls._make = classmethod(_make)
    return cls


class _Holder:
    """A record that holds arrays, whose ``__slots__`` list its
    ``__init__`` parameters in order: ``copy.copy``, ``copy.deepcopy`` and
    ``pickle`` rebuild it through ``__init__`` and its checks."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, s) for s in self.__slots__)


def _check_hurst(hurst, name: str = "hurst") -> None:
    """Raise unless ``hurst`` is a real number strictly inside (0, 1), where
    fGn and fBm are defined; an error for any other type names ``name``."""
    if not isinstance(hurst, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {hurst!r}")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie strictly inside (0, 1), got {hurst!r}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the CDF of the Beta(a, b) distribution at ``x``.

    Evaluates the continued fraction on whichever side of the symmetry point
    converges fast, using ``I_x(a,b) = 1 - I_{1-x}(b,a)`` for the other side.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return x
    ln_prefactor = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    prefactor = math.exp(ln_prefactor)
    if x < (a + 1.0) / (a + b + 2.0):
        return prefactor * _betacf(a, b, x) / a
    return 1.0 - prefactor * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail ``P(F > f)`` of the F distribution (the ANOVA p-value)."""
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if f < 0:
        raise ValueError(f"F statistic must be nonnegative, got {f}")
    if math.isinf(f):
        return 0.0
    return regularized_incomplete_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * f))


def student_t_sf_two_sided(t: float, df: int) -> float:
    """Two-sided tail ``P(|T| > |t|)`` of Student's t distribution."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
