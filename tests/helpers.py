"""Shared generators and independent oracles for the test suite."""

from fractions import Fraction
from itertools import permutations

from loewnerlab import make_point_config


def random_config(rng, n, lo=0.1, hi=10.0, min_gap=0.1, decimals=6):
    """Random strictly increasing float nodes in (lo, hi] with a minimum gap."""
    while True:
        pts = sorted(round(rng.uniform(lo, hi), decimals) for _ in range(n))
        if all(b - a >= min_gap for a, b in zip(pts, pts[1:])):
            return make_point_config(pts)


def random_rational_config(rng, n, max_num=60, max_den=6):
    """Random strictly increasing positive Fractions."""
    while True:
        vals = sorted({Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
                       for _ in range(2 * n)})
        if len(vals) >= n:
            return make_point_config(vals[:n])


def random_symmetric_int(rng, n, lo=-5, hi=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(lo, hi)
            rows[i][j] = rows[j][i] = v
    return rows


def nonintegral(rng, lo, hi, keepout=0.05):
    """Uniform draw avoiding neighborhoods of integers."""
    while True:
        r = rng.uniform(lo, hi)
        if abs(r - round(r)) > keepout:
            return r


def perm_det(rows):
    """Determinant by permutation expansion: independent of any elimination code."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        term = prod if inv % 2 == 0 else -prod
        total = term if total is None else total + term
    return total


def eig_2x2(a, b, c):
    """Closed-form eigenvalues of [[a, b], [b, c]], ascending."""
    import math
    mid = (a + c) / 2
    rad = math.sqrt(((a - c) / 2) ** 2 + b * b)
    return mid - rad, mid + rad


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    assert len(A[0]) == inner
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def charpoly_inertia(rows):
    """(pos, zero, neg) of a symmetric rational matrix from its characteristic
    polynomial: independent of any elimination code.

    Faddeev-LeVerrier gives the coefficients over Fractions; a symmetric
    matrix has only real eigenvalues, so Descartes' rule of signs counts the
    positive roots exactly, and on p(-x) the negative ones.
    """
    A = [[Fraction(v) for v in row] for row in rows]
    n = len(A)
    coeffs = [Fraction(1)]  # c_n, c_(n-1), ..., c_0 of det(x I - A)
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            M[i][i] += coeffs[-1]
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(AM[i][i] for i in range(n)) / k)
        M = AM

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    flipped = [c if (n - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), zero, sign_changes(flipped)


def bareiss_inertia_full_rows(rows):
    """(pos, zero, neg) of a symmetric rational matrix by the fraction-free
    symmetric congruence with Bareiss's update applied to whole rows: a
    reference for ``exact.rational_inertia``, which updates one triangle.

    Same pivot choice (first nonzero trailing diagonal entry, else the pair
    congruence on the first nonzero upper entry) and same swaps, so its
    pivots are the same integers.
    """
    import math
    F = [[Fraction(v) for v in row] for row in rows]
    n = len(F)
    scale = math.lcm(*(e.denominator for row in F for e in row))
    A = [[e.numerator * (scale // e.denominator) for e in row] for row in F]
    pos = neg = zero = 0
    prev = 1
    for k in range(n):
        piv = next((j for j in range(k, n) if A[j][j] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0),
                        None)
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
        for row in A[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (d * row[j] - c * top[j]) // prev
        prev = d
    return pos, zero, neg
