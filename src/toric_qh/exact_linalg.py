"""Exact integer and rational linear algebra.

Everything runs on Python's arbitrary-precision integers; no floating
point anywhere.  Eliminations are fraction-free and stay in Z, and
``fractions.Fraction`` appears only at the edge, where ``solve_rational``
takes rational right-hand sides and returns rational solutions.
Matrices are row-major tuples of equal-length integer row tuples.
"""

from fractions import Fraction
from math import lcm


def mat(rows):
    """Freeze a row-major iterable into a matrix tuple, checking shape."""
    frozen = tuple(tuple(int(x) for x in row) for row in rows)
    if frozen:
        width = len(frozen[0])
        if any(len(row) != width for row in frozen):
            raise ValueError("ragged matrix")
    return frozen


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def hermite_normal_form(m):
    """Row-style Hermite normal form: (h, u) with u unimodular and u*m = h.

    Pivots are positive and entries above a pivot are reduced into
    [0, pivot), so the output is canonical for a fixed input.
    """
    m = mat(m)
    if not m:
        raise ValueError("empty matrix")
    rows, cols = len(m), len(m[0])
    h = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]

    def addmul(dst, src, q):
        h[dst] = [a - q * b for a, b in zip(h[dst], h[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    row = 0
    for col in range(cols):
        while True:
            live = [i for i in range(row, rows) if h[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(h[i][col]), i))
            if i0 != row:
                h[i0], h[row] = h[row], h[i0]
                u[i0], u[row] = u[row], u[i0]
            clean = True
            for i in range(row + 1, rows):
                if h[i][col] != 0:
                    addmul(i, row, h[i][col] // h[row][col])
                    if h[i][col] != 0:
                        clean = False
            if clean:
                break
        if row < rows and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-x for x in h[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = h[i][col] // h[row][col]
                if q:
                    addmul(i, row, q)
            row += 1
            if row == rows:
                break
    return mat(h), mat(u)


def kernel_lattice_basis(m):
    """Basis of the saturated left-kernel lattice {a : a*m = 0}.

    The HNF multiplier u is unimodular, so its rows matching zero rows of
    h are a basis of the kernel that extends to a basis of Z^rows; the
    lattice they span is therefore primitive, never a finite-index
    sublattice of the rational kernel.
    """
    m = mat(m)
    h, u = hermite_normal_form(m)
    return tuple(u[i] for i in range(len(h)) if not any(h[i]))


def _gauss_jordan(m, right):
    """Fraction-free Gauss-Jordan over Z on [m | right] (Bareiss, 1968).

    Returns (det m, det(m) * m^-1 * right), or (0, None) when m is
    singular.  Every division is exact: after step k each entry is a
    (k+1)-minor of the working matrix.  A row swap negates one of the
    two rows, so the working matrix keeps det m and the last pivot is
    det m itself, sign included.
    """
    n = len(m)
    if n == 0 or len(m[0]) != n:
        raise ValueError("matrix must be square and nonempty")
    if len(right) != n:
        raise ValueError("dimension mismatch")
    a = [list(row) + list(r) for row, r in zip(m, right)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], [-x for x in a[k]]
        pk = a[k]
        p = pk[k]
        for i in range(n):
            f = a[i][k]
            # with f = 0 and p = prev the update leaves the row as it is
            if i != k and (f or p != prev):
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], pk)]
        prev = p
    return prev, [row[n:] for row in a]


def solve_rational(m, b):
    """Exact solution x of m*x = b, or None when m is singular.

    m must be square and nonempty; b entries may be ints or Fractions.
    b is scaled to integers by the lcm of its denominators, so the
    elimination itself runs on integers only.
    """
    b = [Fraction(v) for v in b]
    scale = lcm(*(v.denominator for v in b))
    d, x = _gauss_jordan(mat(m), [(v.numerator * (scale // v.denominator),)
                                  for v in b])
    if not d:
        return None
    return tuple(Fraction(row[0], d * scale) for row in x)


def det(m):
    """Exact determinant: the last pivot of the fraction-free elimination."""
    m = mat(m)
    return _gauss_jordan(m, ((),) * len(m))[0]
