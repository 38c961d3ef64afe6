"""Exact linear algebra on small dense matrices, and the one LU that every
determinant in the package comes from (``_lu_factor``, partial pivoting on
float, complex, ``decimal``, mpf, mpc or ``fractions.Fraction`` entries;
exact on Fractions).  Inertia comes from one fraction-free symmetric
congruence over Python ints, and the rank of A is the positive count of
the positive semidefinite A A^T.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from mpmath import mp

from .types import Inertia


def as_fraction_rows(rows) -> list[list[Fraction]]:
    out = []
    for row in rows:
        new = []
        for e in row:
            if not isinstance(e, Rational):
                raise ValueError(f"exact arithmetic needs rational entries, got {e!r}")
            new.append(Fraction(e))
        out.append(new)
    return out


def _integer_rows(F) -> list[list[int]]:
    """The Fraction rows F times the lcm of their denominators, as ints: a
    positive multiple, with the rank and inertia of F."""
    scale = math.lcm(*(e.denominator for row in F for e in row))
    return [[e.numerator * (scale // e.denominator) for e in row] for row in F]


def _lu_factor(A) -> tuple[list, int]:
    """Factor the square matrix A (row lists, entries all of one arithmetic:
    float, complex, Decimal, mpf, mpc or Fraction) in place as P A = L U,
    pivoting.

    A ends holding U on and above the diagonal and the multipliers of the
    unit lower triangle L below it, its rows in pivot order, so det A is
    sign * prod U_kk.  Returns the original index of each row and the sign
    of P, or a sign of 0 when a whole pivot column is zero (A is singular
    and the factorisation stops there).
    """
    n = len(A)
    order = list(range(n))
    sign = 1
    for k in range(n):
        p, best = k, abs(A[k][k])
        for i in range(k + 1, n):  # a tie keeps the first row
            m = abs(A[i][k])
            if m > best:
                p, best = i, m
        if not best:
            return order, 0
        if p != k:
            A[k], A[p] = A[p], A[k]
            order[k], order[p] = order[p], order[k]
            sign = -sign
        top = A[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = A[i]
            m = row[k] / pivot
            row[k] = m
            if m:
                for j in range(k + 1, n):
                    row[j] -= m * top[j]
    return order, sign


# A float product outside these magnitudes has overflowed or lost digits to
# underflow; it is then taken again in mpmath, which has no exponent limit.
_DET_FLOAT_MIN = 2.0 ** -1000
_DET_FLOAT_MAX = 2.0 ** 1000


def _pivot_product(F, sign):
    """det A = sign * prod U_kk from a finished factorisation: a float or
    complex when it lies in the float range, else an mpf or mpc at the
    working precision (a Fraction or a Decimal for such entries)."""
    if not sign:
        return 0
    pivots = [F[k][k] for k in range(len(F))]
    det = math.prod(pivots, start=sign)
    if isinstance(det, (float, complex)) and not _DET_FLOAT_MIN <= abs(det) <= _DET_FLOAT_MAX:
        det = math.prod(map(mp.mpmathify, pivots), start=sign)
    return det


def det_fraction(rows) -> Fraction:
    """Exact determinant: the shared LU run on Fractions."""
    A = as_fraction_rows(rows)
    if any(len(row) != len(A) for row in A):
        raise ValueError("determinant needs a square matrix")
    _, sign = _lu_factor(A)
    return Fraction(_pivot_product(A, sign))


def rank_fraction(rows) -> int:
    """Exact rank; accepts rectangular input.  A A^T is positive
    semidefinite with the rank of A, so the rank is its positive count."""
    A = _integer_rows(as_fraction_rows(rows))
    if any(len(row) != len(A[0]) for row in A):
        raise ValueError("rank needs rows of one length")
    gram = [[sum(x * y for x, y in zip(a, b)) for b in A] for a in A]
    return rational_inertia(gram).pos


def rational_inertia(rows) -> Inertia:
    """Exact inertia by symmetric congruence diagonalization.

    Pivots on a nonzero diagonal entry when one exists.  When the whole
    trailing diagonal vanishes but some off-diagonal entry A[i][j] does not,
    adding row/column j into row/column i is a congruence that makes
    A[i][i] = 2*A[i][j] != 0, so elimination can continue.  The matrix is
    scaled by the lcm of its denominators (positive, so the inertia stays)
    and eliminated over ints with Bareiss's update (Math. Comp. 22 (1968)
    565-578) a_ij <- (d a_ij - a_ik a_kj) // prev, exact because each entry
    is a minor; pivot d is then a leading principal minor, so the rational
    pivot d / prev has the sign sign(d) * sign(prev).  The update is
    symmetric in i and j, so it is computed on the upper triangle only, with
    a_ik read as a_ki, and each value is mirrored: the matrix stays exactly
    symmetric for the swaps and the pair congruence.
    """
    F = as_fraction_rows(rows)
    n = len(F)
    if any(len(row) != n for row in F):
        raise ValueError("inertia needs a square matrix")
    if any(F[i][j] != F[j][i] for i in range(n) for j in range(i)):
        raise ValueError("inertia needs a symmetric matrix")
    A = _integer_rows(F)
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        piv = next((j for j in range(k, n) if A[j][j] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0),
                None,
            )
            if pair is None:
                zero += n - k
                break
            i, j = pair
            for t in range(k, n):
                A[i][t] += A[j][t]
            for t in range(k, n):
                A[t][i] += A[t][j]
            piv = i
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            for t in range(n):
                A[t][k], A[t][piv] = A[t][piv], A[t][k]
        top = A[k]
        d = top[k]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            row, c = A[i], top[i]
            for j in range(i, n):
                row[j] = A[j][i] = (d * row[j] - c * top[j]) // prev
        prev = d
    return Inertia(pos, zero, neg)
