"""Shared value types: point configurations, exponents, symmetric matrices,
inertia triples, and the working-precision policy.

The policy includes the arithmetic the kernels run on, one of three:

- at 53 bits a Python float has the same format as an mpf, and its
  + - * / and sqrt round exactly as mpmath's do, so ``ToleranceContext.arith``
  hands a kernel the float namespace there whenever its inputs are finite
  and every nonzero magnitude lies in [2^-200, 2^200] (a product of five
  such values can neither overflow nor go subnormal);
- above 53 bits a kernel without an exponent (the Jacobi and LDL routes)
  gets the stdlib ``decimal`` module (libmpdec, C code) with
  ceil(bits*log10 2) + 2 digits, so its unit roundoff stays at or below
  2^(1-bits) and every threshold keeps its meaning.  Its exponent range is
  the widest there is, and an invalid operation, a division by zero or an
  overflow raises, so no NaN or infinity comes out silently.  Decimal rounds
  in base 10, so its results are close to mpmath's, not bit-identical;
- everything else gets mpmath: the divided-difference kernel above 53 bits
  (it needs log1p and expm1, which ``decimal`` lacks) and any 53-bit input
  outside the float window.

The complex determinant picks between two of them with
``ToleranceContext.complex_arith``: at 53 bits Python ``complex`` and
``cmath`` when the nodes, both parts of the exponent z and every
|p^z| = p^(Re z) lie in the float window, and ``mpc`` at the context's
precision otherwise.

Kernels are written once against that namespace and return mpf (mpc for
the complex determinant).
"""

from __future__ import annotations

import cmath
import contextlib
import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterator, Optional, Sequence, Union

import mpmath
from mpmath import libmp, mp, mpc, mpf

Scalar = Union[int, float, Fraction]

DEFAULT_PRECISION_BITS = 53
DEFAULT_ZERO_REL_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-12

# Rungs above the starting precision that ``ToleranceContext.rungs`` yields.
MAX_ESCALATIONS = 2


def to_mpf(x) -> mpf:
    """Convert ints, floats, Fractions, or mpf to mpf at the current precision."""
    if isinstance(x, Fraction):
        return mpmath.mpmathify(x)
    return mpf(x)


@dataclass(frozen=True)
class Arith:
    """The scalar operations a kernel needs: conversion in (``num``) and back
    to mpf (``out``), sqrt, a sum rounded once, the elementary functions of
    the divided-difference kernel, and complex conversion in (``cnum``) and
    the complex exponential for the complex determinant."""

    name: str
    num: Callable = field(repr=False)
    out: Callable = field(repr=False)
    sqrt: Callable = field(repr=False)
    fsum: Callable = field(repr=False)
    log: Callable = field(repr=False)
    exp: Callable = field(repr=False)
    log1p: Callable = field(repr=False)
    expm1: Callable = field(repr=False)
    cnum: Callable = field(repr=False)
    cexp: Callable = field(repr=False)


@contextlib.contextmanager
def _extended_precision(bits: int):
    """``mp.workprec(bits)`` and the ``decimal`` context of ``bits`` (see the
    module docstring), entered together."""
    dec = decimal.Context(
        prec=math.ceil(bits * math.log10(2)) + 2,
        rounding=decimal.ROUND_HALF_EVEN,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )
    with mp.workprec(bits), decimal.localcontext(dec):
        yield


def _to_decimal(x) -> decimal.Decimal:
    """x (int, float, Fraction, Decimal, or an mpf or mpmath constant) rounded
    once to the current decimal context."""
    ctx = decimal.getcontext()
    raw = getattr(x, "_mpf_", None)
    if raw is not None:
        sign, man, exp, _ = raw  # man is unsigned: mpf.man_exp drops the sign
        if sign:
            man = -man
        if exp >= 0:
            return ctx.create_decimal(man << exp)
        return ctx.divide(decimal.Decimal(man), decimal.Decimal(1 << -exp))  # ints convert exactly
    if isinstance(x, Fraction):
        return ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    if isinstance(x, float):
        return ctx.create_decimal_from_float(x)
    return ctx.create_decimal(x)


def _mpf_from_decimal(d: decimal.Decimal) -> mpf:
    """d rounded once to the current mpmath precision."""
    p, q = d.as_integer_ratio()
    return mp.make_mpf(libmp.from_rational(p, q, mp.prec, libmp.round_nearest))


def _decimal_fsum(terms) -> decimal.Decimal:
    """Sum at twice the working digits, rounded once to the working context
    (mpmath's fsum likewise drops what lies over 2*prec bits below the sum)."""
    ctx = decimal.getcontext()
    wide = ctx.copy()
    wide.prec = 2 * ctx.prec
    total = decimal.Decimal(0)
    for t in terms:
        total = wide.add(total, t)
    return ctx.plus(total)


def _not_in_decimal(x):
    raise NotImplementedError("decimal has no log1p, expm1 or complex numbers; a kernel "
                              "with an exponent runs on mpmath")


FLOAT_ARITH = Arith("float", float, mpf, math.sqrt, math.fsum, math.log, math.exp,
                    math.log1p, math.expm1, complex, cmath.exp)
DEC_ARITH = Arith("decimal", _to_decimal, _mpf_from_decimal, decimal.Decimal.sqrt,
                  _decimal_fsum, decimal.Decimal.ln, decimal.Decimal.exp,
                  _not_in_decimal, _not_in_decimal, _not_in_decimal, _not_in_decimal)
MP_ARITH = Arith("mp", to_mpf, mpf, mp.sqrt, mp.fsum, mp.log, mp.exp, mp.log1p, mp.expm1,
                 mpc, mp.exp)

# Nonzero float magnitudes the float tier accepts (see the module docstring).
_FLOAT_MIN = 2.0 ** -200
_FLOAT_MAX = 2.0 ** 200


def _in_float_window(values) -> bool:
    """True when every value converts to a float of magnitude 0 or within the
    window; ValueError on a NaN or an infinity."""
    fits = True
    for v in values:
        try:
            a = abs(float(v))
        except OverflowError:  # an int or Fraction beyond the float range
            fits = False
            continue
        if not (_FLOAT_MIN <= a <= _FLOAT_MAX or v == 0):
            if not mpmath.isfinite(v):
                raise ValueError(f"non-finite value {v!r}")
            fits = False
    return fits


def _powers_in_float_window(nodes, r) -> bool:
    """True when every float node^r is nonzero and inside the window."""
    try:
        return all(_FLOAT_MIN <= float(x) ** float(r) <= _FLOAT_MAX for x in nodes)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ToleranceContext:
    """Precision policy shared by all numeric routines.

    ``zero_rel_tol`` decides when an eigenvalue (or pivot block) counts as
    zero relative to the matrix scale; ``residual_tol`` bounds identity
    residuals and eigensolver convergence.  Both shrink with the unit
    roundoff when a context is created through :meth:`at_bits`, since tiny
    true eigenvalues must stay classifiable at extended precision.
    """

    precision_bits: int = DEFAULT_PRECISION_BITS
    zero_rel_tol: Union[float, mpf] = DEFAULT_ZERO_REL_TOL
    residual_tol: Union[float, mpf] = DEFAULT_RESIDUAL_TOL

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        if not self.zero_rel_tol > 0:
            raise ValueError("zero_rel_tol must be positive")
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")

    @classmethod
    def at_bits(cls, bits: int) -> "ToleranceContext":
        """Context at ``bits`` of precision with proportionally scaled thresholds."""
        scale = mpf(2) ** (DEFAULT_PRECISION_BITS - bits)
        return cls(
            precision_bits=bits,
            zero_rel_tol=DEFAULT_ZERO_REL_TOL * scale,
            residual_tol=DEFAULT_RESIDUAL_TOL * scale,
        )

    def escalated(self) -> "ToleranceContext":
        """Next context in the escalation ladder (at least 256 bits, else doubled)."""
        return ToleranceContext.at_bits(max(2 * self.precision_bits, 256))

    def rungs(self) -> Iterator["ToleranceContext"]:
        """The precision ladder: this context, then ``MAX_ESCALATIONS``
        successive ``escalated`` ones (53 -> 256 -> 512 bits from the default)."""
        ctx = self
        yield ctx
        for _ in range(MAX_ESCALATIONS):
            ctx = ctx.escalated()
            yield ctx

    def prec(self):
        """Context manager for this precision: ``mp.workprec``, and above 53
        bits also the matching ``decimal`` context that ``DEC_ARITH`` uses."""
        if self.precision_bits == DEFAULT_PRECISION_BITS:
            return mp.workprec(self.precision_bits)
        return _extended_precision(self.precision_bits)

    def eps(self) -> mpf:
        """Unit roundoff of the working reals."""
        return mpf(2) ** (1 - self.precision_bits)

    def arith(self, values, r=None) -> Arith:
        """The arithmetic for a kernel over ``values`` at this precision.

        ``FLOAT_ARITH`` at 53 bits when both thresholds and every value lie in
        the float window, and, with an exponent ``r`` given (``values`` are
        then positive nodes), r and every node^r too; ``DEC_ARITH`` above 53
        bits when no exponent is given; ``MP_ARITH`` otherwise.  A NaN or
        infinite value raises ValueError at any precision.
        """
        values = list(values)
        fits = _in_float_window(values if r is None else values + [r])
        if self.precision_bits > DEFAULT_PRECISION_BITS:
            return MP_ARITH if r is not None else DEC_ARITH
        if (fits and _in_float_window((self.zero_rel_tol, self.residual_tol))
                and (r is None or _powers_in_float_window(values, r))):
            return FLOAT_ARITH
        return MP_ARITH

    def complex_arith(self, nodes, z) -> Arith:
        """The arithmetic for the complex determinant at the exponent z.

        ``FLOAT_ARITH`` (Python ``complex`` and ``cmath``) when ``arith``
        gives it for the nodes with r = Re z, so at 53 bits with the nodes,
        Re z and every |p^z| = p^(Re z) in the float window, and Im z is in
        the window too; ``MP_ARITH`` (``mpc``) otherwise.  A NaN or
        infinite part of z raises ValueError at any precision.
        """
        imag_fits = _in_float_window((z.imag,))
        if self.arith(nodes, z.real) is FLOAT_ARITH and imag_fits:
            return FLOAT_ARITH
        return MP_ARITH


DEFAULT_TOL = ToleranceContext()


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, zero, and negative eigenvalues."""

    pos: int
    zero: int
    neg: int

    def __post_init__(self):
        if min(self.pos, self.zero, self.neg) < 0:
            raise ValueError("inertia counts must be nonnegative")

    @property
    def order(self) -> int:
        return self.pos + self.zero + self.neg

    def swapped(self) -> "Inertia":
        """Inertia of the negated matrix: positive and negative counts trade places."""
        return Inertia(self.neg, self.zero, self.pos)

    def padded(self, extra_zeros: int) -> "Inertia":
        """Same signs with ``extra_zeros`` more zero eigenvalues."""
        return Inertia(self.pos, self.zero + extra_zeros, self.neg)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.zero, self.neg)


@dataclass(frozen=True)
class Exponent:
    """A real exponent plus its exact-integer classification."""

    r: Scalar
    is_integer: bool
    integer_value: Optional[int]

    def __post_init__(self):
        if self.is_integer != (self.integer_value is not None):
            raise ValueError("integer_value must be present exactly when is_integer")
        if self.is_integer and self.r != self.integer_value:
            raise ValueError("integer_value must equal r")

    @classmethod
    def of(cls, r: Scalar) -> "Exponent":
        if not mpmath.isfinite(r):
            raise ValueError(f"exponent must be finite, got {r!r}")
        if isinstance(r, Rational):
            if r.denominator == 1:
                return cls(r, True, int(r))
            return cls(r, False, None)
        k = int(round(r))
        if r == k:
            return cls(r, True, k)
        return cls(r, False, None)


@dataclass(frozen=True)
class PointConfig:
    """Strictly increasing positive abscissas, optionally backed by exact rationals."""

    points: tuple[float, ...]
    exact: Optional[tuple[Fraction, ...]] = None

    @property
    def n(self) -> int:
        return len(self.points)

    def values(self) -> tuple:
        """The nodes as given: the exact rationals when present, else the floats."""
        return self.exact if self.exact is not None else self.points

    def mp_points(self) -> list[mpf]:
        """Node values at the current working precision."""
        return [to_mpf(v) for v in self.values()]

    def ensure_exact(self) -> "PointConfig":
        """Promote float nodes to the exact binary rationals they already are."""
        if self.exact is not None:
            return self
        return PointConfig(self.points, tuple(Fraction(p) for p in self.points))

    def scaled(self, c: Scalar) -> "PointConfig":
        """Configuration with every node multiplied by ``c > 0``."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        exact = None
        if self.exact is not None and isinstance(c, Rational):
            exact = tuple(q * Fraction(c) for q in self.exact)
        return PointConfig(tuple(float(c) * p for p in self.points), exact)


def make_point_config(values: Sequence[Scalar]) -> PointConfig:
    """Validate and pack nodes; exact rationals are kept when every input is rational.

    Rejects non-positive or infinite entries, duplicates, and out-of-order
    input: the caller must intend the ordering, silently sorting would hide
    mistakes.
    """
    vals = list(values)
    if not vals:
        raise ValueError("at least one point is required")
    for v in vals:
        if not v > 0:
            raise ValueError(f"points must be strictly positive, got {v!r}")
        if v == math.inf:
            raise ValueError(f"points must be finite, got {v!r}")
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise ValueError(f"duplicate point {a!r}: points must be strictly increasing")
        if a > b:
            raise ValueError("points must be given in strictly increasing order")
    exact = None
    if all(isinstance(v, Rational) for v in vals):
        exact = tuple(Fraction(v) for v in vals)
    return PointConfig(tuple(float(v) for v in vals), exact)


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; entries mirror each other exactly."""

    order: int
    entries: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.entries) != self.order or any(len(row) != self.order for row in self.entries):
            raise ValueError("entries must form an order x order square")
        for i in range(self.order):
            for j in range(i + 1, self.order):
                if self.entries[i][j] != self.entries[j][i]:
                    for a, b in ((i, j), (j, i)):  # a NaN never equals its mirror
                        v = self.entries[a][b]
                        if not mpmath.isfinite(v):
                            raise ValueError(f"entry ({a},{b}) is not finite: {v!r}")
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        return cls(len(rows), tuple(tuple(row) for row in rows))

    @classmethod
    def build(cls, n: int, entry) -> "SymMatrix":
        """Symmetric-by-construction: ``entry(i, j)`` evaluated only for i <= j."""
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = entry(i, j)
                rows[i][j] = v
                rows[j][i] = v
        return cls(n, tuple(tuple(row) for row in rows))

    @classmethod
    def diagonal(cls, values, zero=0) -> "SymMatrix":
        vals = list(values)
        n = len(vals)
        return cls(n, tuple(
            tuple(vals[i] if i == j else zero for j in range(n)) for i in range(n)
        ))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def rows(self) -> list[list]:
        """Mutable copy of the entries."""
        return [list(row) for row in self.entries]
