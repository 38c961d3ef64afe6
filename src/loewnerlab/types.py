"""Shared value types: point configurations, exponents, symmetric matrices,
inertia triples, and the working-precision policy.

The policy includes the arithmetic the kernels run on, one of three:

- at 53 bits a Python float has the same format as an mpf, and its
  + - * / and sqrt round exactly as mpmath's do, so ``ToleranceContext.arith``
  hands a kernel the float namespace there whenever its inputs are finite
  and every nonzero magnitude lies in [2^-200, 2^200] (a product of five
  such values can neither overflow nor go subnormal);
- above 53 bits a kernel without an exponent (the eigenvalue and LDL routes)
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

Kernels are written once against that namespace, enter their precision
only through ``ToleranceContext.prec``, and return mpf (mpc for the
complex determinant).  A ``SymMatrix`` keeps one working image per
context for the inertia routes: the arithmetic ``arith`` picks for it, its
rows in that arithmetic and their norm, worked out once.  One that a
builder computed on floats keeps those floats, which are its image on
floats, and makes its mpf entries only when they are read.  No context asks
for more than ``MAX_PRECISION_BITS`` bits, so no input causes unbounded work.
"""

from __future__ import annotations

import cmath
import contextlib
import decimal
import math
from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterator, Optional, Sequence, Union

import mpmath
from mpmath import libmp, mp, mpc, mpf

Scalar = Union[int, float, Fraction]

DEFAULT_PRECISION_BITS = 53
DEFAULT_ZERO_REL_TOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-12

# Doubling rungs that ``ToleranceContext.rungs`` yields above its start (or
# above its ``via`` rung), so a plain ladder has up to two escalations.
MAX_ESCALATIONS = 2

# The one rung the verdict ladder (``inertia._settle``) inserts between a
# start below it and the first doubling, so its ladder has up to three
# escalations: most escalated Loewner verdicts settle at 128 bits.
VERDICT_RUNG_BITS = 128

# The widest working precision a context takes, so that no input asks for
# unbounded work: one 4,096-bit rung on twelve nodes already takes about
# 1.4 s, and 65,536 bits about 30 s on six.
MAX_PRECISION_BITS = 4096


def _mpf_from_rational(p: int, q: int) -> mpf:
    """p/q (q > 0) rounded once, to nearest, at the current mpmath precision."""
    return mp.make_mpf(libmp.from_rational(p, q, mp.prec, libmp.round_nearest))


def to_mpf(x) -> mpf:
    """Convert ints, floats, Fractions, or mpf to mpf at the current precision,
    rounded to nearest."""
    if isinstance(x, Fraction):
        return _mpf_from_rational(x.numerator, x.denominator)
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


# ``ToleranceContext.prec`` at 53 bits while mpmath is already there.
_NO_SWITCH = contextlib.nullcontext()


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
    """d rounded once, to nearest, at the current mpmath precision."""
    return _mpf_from_rational(*d.as_integer_ratio())


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
    ``precision_bits`` lies in 53 .. ``MAX_PRECISION_BITS``.
    """

    precision_bits: int = DEFAULT_PRECISION_BITS
    zero_rel_tol: Union[float, mpf] = DEFAULT_ZERO_REL_TOL
    residual_tol: Union[float, mpf] = DEFAULT_RESIDUAL_TOL

    def __post_init__(self):
        if not DEFAULT_PRECISION_BITS <= self.precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(f"precision_bits must lie in {DEFAULT_PRECISION_BITS} .. "
                             f"{MAX_PRECISION_BITS}, got {self.precision_bits}")
        for name in ("zero_rel_tol", "residual_tol"):
            v = getattr(self, name)
            if not (v > 0 and mpmath.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

    @classmethod
    def at_bits(cls, bits: int) -> "ToleranceContext":
        """Context at ``bits`` of precision with proportionally scaled thresholds."""
        scale = mpf(2) ** (DEFAULT_PRECISION_BITS - bits)
        return cls(
            precision_bits=bits,
            zero_rel_tol=DEFAULT_ZERO_REL_TOL * scale,
            residual_tol=DEFAULT_RESIDUAL_TOL * scale,
        )

    def rungs(self, via: Optional[int] = None) -> Iterator["ToleranceContext"]:
        """The precision ladder, and the one home of its step rule: this
        context as given; then, when ``via`` lies above its bits, one rung
        ``at_bits(via)``; then up to ``MAX_ESCALATIONS`` rungs, each
        ``at_bits`` double the last one's bits and at least 256, capped at
        ``MAX_PRECISION_BITS``; the ladder ends once a rung has reached the
        cap.  From the default start that is 53 -> 256 -> 512 bits, and
        53 -> 128 -> 256 -> 512 with ``via=128``: a ``via`` of at most 128
        leaves the top rung where it was."""
        yield self
        bits = self.precision_bits
        if via is not None and via > bits:
            bits = via
            yield ToleranceContext.at_bits(bits)
        for _ in range(MAX_ESCALATIONS):
            if bits == MAX_PRECISION_BITS:
                return
            bits = min(max(2 * bits, 256), MAX_PRECISION_BITS)
            yield ToleranceContext.at_bits(bits)

    def prec(self):
        """Context manager for this precision, and the only way into one:
        ``mp.workprec``, and above 53 bits also the matching ``decimal``
        context that ``DEC_ARITH`` uses.  At 53 bits with mpmath already
        there it changes nothing and costs nothing, so a float kernel nested
        in another kernel's precision pays no second switch."""
        if self.precision_bits > DEFAULT_PRECISION_BITS:
            return _extended_precision(self.precision_bits)
        if mp.prec == DEFAULT_PRECISION_BITS:
            return _NO_SWITCH
        return mp.workprec(DEFAULT_PRECISION_BITS)

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
    """A real exponent plus its exact-integer classification: ``integer_value``
    is r as an int when r is an integer, else None."""

    r: Scalar
    integer_value: Optional[int]

    def __post_init__(self):
        if self.integer_value is not None and self.r != self.integer_value:
            raise ValueError("integer_value must equal r")

    @property
    def is_integer(self) -> bool:
        return self.integer_value is not None

    @classmethod
    def of(cls, r: Scalar) -> "Exponent":
        # math.isfinite is the fast test, but raises OverflowError on an int
        # or Fraction beyond the float range, so only floats take it
        if not (math.isfinite(r) if type(r) is float else mpmath.isfinite(r)):
            raise ValueError(f"exponent must be finite, got {r!r}")
        if isinstance(r, Rational):
            return cls(r, int(r) if r.denominator == 1 else None)
        k = int(round(r))
        return cls(r, k if r == k else None)


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


def _symmetric(n: int, entry) -> tuple[tuple, ...]:
    """Rows of the n x n matrix with ``entry(i, j)`` evaluated only for
    i <= j, each value written to both triangles."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return tuple(tuple(row) for row in rows)


def _upper(rows):
    """The values on and above the diagonal of the square ``rows``, which for
    a symmetric matrix are all of its entries."""
    n = len(rows)
    return (row[j] for i, row in enumerate(rows) for j in range(i, n))


class SymMatrix:
    """Dense real symmetric matrix; entries mirror each other exactly.

    Immutable, and equal (hash included) to any SymMatrix of the same order
    and entries.  It keeps one working image per ``ToleranceContext``
    (``_image``): the arithmetic ``ToleranceContext.arith`` picks for it,
    its rows in that arithmetic and their Frobenius norm, worked out once,
    so both inertia routes of a rung read one decision, one conversion and
    one norm.  A matrix a float-tier builder computed (``_build_floats``)
    keeps those floats, which are its entries exactly, and makes its mpf
    ``entries`` from them only when they are read.
    """

    def __init__(self, order: int, entries: tuple[tuple, ...], _floats=None):
        rows = entries if _floats is None else _floats
        if len(rows) != order or any(len(row) != order for row in rows):
            raise ValueError("entries must form an order x order square")
        for i in range(order):
            for j in range(i + 1, order):
                if rows[i][j] != rows[j][i]:
                    for a, b in ((i, j), (j, i)):  # a NaN never equals its mirror
                        v = rows[a][b]
                        if not mpmath.isfinite(v):
                            raise ValueError(f"entry ({a},{b}) is not finite: {v!r}")
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        self.__dict__.update(order=order, _entries=entries, _floats=_floats, _images={})

    @classmethod
    def _build_floats(cls, n: int, entry) -> "SymMatrix":
        """``build`` for an ``entry`` that computes floats, kept as the rows."""
        return cls(n, None, _floats=_symmetric(n, entry))

    @property
    def entries(self) -> tuple[tuple, ...]:
        if self._entries is None:  # exact at any working precision
            rows = self._floats
            self.__dict__["_entries"] = _symmetric(
                self.order, lambda i, j: mpf(rows[i][j], prec=DEFAULT_PRECISION_BITS))
        return self._entries

    def _image(self, tol: ToleranceContext):
        """(arithmetic, rows, Frobenius norm) at ``tol``, called inside
        ``tol.prec()``, worked out on first call and kept.

        ``tol.arith`` judges the builder's floats where there are any, and
        the entries otherwise (ValueError on a NaN or an infinity).  On
        ``FLOAT_ARITH`` the builder's floats are the rows as they are; in
        every other case each upper-triangle value is converted once with
        the arithmetic's ``num`` and mirrored.  The context itself keys the
        image, not its bits: its thresholds take part in the float verdict."""
        image = self._images.get(tol)
        if image is None:
            given = self._entries if self._floats is None else self._floats
            ar = tol.arith(_upper(given))
            rows = (given if ar is FLOAT_ARITH and self._floats is not None
                    else _symmetric(self.order, lambda i, j: ar.num(given[i][j])))
            image = self._images[tol] = (
                ar, rows, ar.sqrt(ar.fsum(v * v for row in rows for v in row)))
        return image

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.entries) == (other.order, other.entries)

    def __hash__(self):
        return hash((self.order, self.entries))

    def __repr__(self):
        return f"SymMatrix(order={self.order!r}, entries={self.entries!r})"

    @classmethod
    def from_rows(cls, rows) -> "SymMatrix":
        return cls(len(rows), tuple(tuple(row) for row in rows))

    @classmethod
    def build(cls, n: int, entry) -> "SymMatrix":
        """Symmetric-by-construction: ``entry(i, j)`` evaluated only for i <= j."""
        return cls(n, _symmetric(n, entry))

    @classmethod
    def diagonal(cls, values, zero=0) -> "SymMatrix":
        vals = list(values)
        return cls.build(len(vals), lambda i, j: vals[i] if i == j else zero)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]
