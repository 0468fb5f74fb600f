"""Exact linear algebra over the rationals.

Matrices are sequences of rows of Fractions or ints.  rank, kernel_basis
and zdet share one fraction-free elimination over Z (_bareiss), on rows
scaled to integers; the kernel comes out as integer vectors over one
denominator, so no Fraction matrix is built.  det_minors and
rank_over_field run over a commutative ring or field given as ops.
Everything here is deterministic: pivot choice is first-nonzero, kernel
bases come out in free-column order.
"""

from __future__ import annotations

import math
from fractions import Fraction

Row = list[Fraction]
Matrix = list[Row]


def clear_denominators(xs) -> tuple[int, list[int]]:
    """(D, [D*x for x in xs]) for the lcm D of the denominators of the
    Fractions or ints xs: the integer-scaled copy that fraction-free
    arithmetic runs on."""
    xs = list(xs)
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def clear_row_denominators(rows) -> tuple[int, list[list[int]]]:
    """clear_denominators over all entries of the rows, in the rows' shape."""
    den, flat = clear_denominators(x for row in rows for x in row)
    flat = iter(flat)
    return den, [[next(flat) for _ in row] for row in rows]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _bareiss(rows: list[list[int]], full: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination in place on integer rows (Bareiss 1968):
    each update (p*x - c*y) // prev divides exactly by the previous pivot,
    so every entry stays a minor of the input.  Pivots are first-nonzero,
    a column without one is skipped.  The rows below each pivot are updated
    from the pivot column on; with full, the rows above it are cleared too
    (fraction-free Gauss-Jordan), which leaves every pivot equal to the last
    one.  Returns (pivot columns, last pivot, sign of the row swaps)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    lead = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(lead, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != lead:
            rows[lead], rows[piv] = rows[piv], rows[lead]
            sign = -sign
        top = rows[lead]
        p = top[col]
        for i in range(lead + 1, nrows):
            row = rows[i]
            c = row[col]
            rows[i] = [0] * (col + 1) + [
                (p * x - c * y) // prev for x, y in zip(row[col + 1 :], top[col + 1 :])
            ]
        if full:
            for i in range(lead):
                row = rows[i]
                c = row[col]
                rows[i] = [(p * x - c * y) // prev for x, y in zip(row, top)]
        pivots.append(col)
        prev = p
        lead += 1
    return pivots, prev, sign


def rank(m: Matrix) -> int:
    """Number of pivots of the rows, each scaled to integers."""
    return len(_bareiss([clear_denominators(row)[1] for row in m], False)[0])


def kernel_basis(m: Matrix) -> tuple[int, list[list[int]]]:
    """(D, basis) for the right kernel of the rows: one integer vector per
    free column, in free-column order, each D times the kernel vector with 1
    at its free column, for the least positive D that makes them all
    integral.  The fraction-free Gauss-Jordan of the rows, each scaled to
    integers, leaves every pivot equal to the last one, d, so the vector
    with d at a free column j and -rows[i][j] at the i-th pivot column lies
    in the kernel; dividing out the gcd of all their entries leaves D."""
    rows = [clear_denominators(row)[1] for row in m]
    pivots, d, _ = _bareiss(rows, True)
    if d < 0:
        d, rows = -d, [[-x for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j not in pivot_set:
            v = [0] * ncols
            v[j] = d
            for i, p in enumerate(pivots):
                v[p] = -rows[i][j]
            basis.append(v)
    g = math.gcd(*(x for v in basis for x in v)) or d
    return d // g, [[x // g for x in v] for v in basis]


def det(m: Matrix) -> Fraction:
    """Determinant of Fractions or ints: zdet of the rows, each scaled to
    integers by the lcm of its denominators, over the product of those."""
    rows = [clear_denominators(row) for row in m]
    return Fraction(zdet([ints for _, ints in rows]), math.prod(den for den, _ in rows))


def zdet(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the sign of the row swaps
    times the last pivot of the forward fraction-free elimination, or 0
    when a column has no pivot."""
    pivots, d, sign = _bareiss(list(m), False)
    return sign * d if len(pivots) == len(m) else 0


def det_minors(m, add, mul, neg, zero, is_zero):
    """Determinant over a commutative ring (add, mul, neg); Laplace expansion
    with memoization over column subsets, no division."""
    n = len(m)
    memo: dict[int, object] = {}

    def minor(mask):
        # rows used so far = n - popcount(mask); expand along row index
        if mask == 0:
            return None
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        acc = zero
        j = 0
        for col in range(n):
            bit = 1 << col
            if not mask & bit:
                continue
            e = m[row][col]
            if not is_zero(e):
                sub = minor(mask & ~bit)
                term = e if sub is None else mul(e, sub)
                if j % 2:
                    term = neg(term)
                acc = add(acc, term)
            j += 1
        memo[mask] = acc
        return acc

    out = minor((1 << n) - 1)
    return zero if out is None else out


def charpoly(m: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(x I - m) of an integer matrix by
    Faddeev-LeVerrier over Z: every trace of the recursion is divisible by
    its step k.  Returns coefficients [c_0, ..., c_n] with c_n = 1, index =
    power of x.
    """
    n = len(m)
    coeffs = [1] * (n + 1)
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        trace = sum(mk[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by its step")
        c = -trace // k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def rank_over_field(m, field) -> int:
    """Rank by Gaussian elimination with ops from `field`:
    needs add, mul, neg, inv, is_zero."""
    rows = [row[:] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, nrows) if not field.is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = field.inv(rows[rk][col])
        rows[rk] = [field.mul(inv, x) for x in rows[rk]]
        for i in range(rk + 1, nrows):
            if not field.is_zero(rows[i][col]):
                c = rows[i][col]
                rows[i] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(rows[i], rows[rk])]
        rk += 1
        if rk == nrows:
            break
    return rk
