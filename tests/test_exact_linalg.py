from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_qh.exact_linalg import (
    det,
    hermite_normal_form,
    identity,
    kernel_lattice_basis,
    mat,
    solve_rational,
    transpose,
)

small_entries = st.integers(min_value=-6, max_value=6)


def mat_mul(a, b):
    """Matrix product of row-major tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def square_matrices(n):
    return st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(mat)


def matrices():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(st.lists(small_entries, min_size=c, max_size=c),
                           min_size=1, max_size=4).map(mat))


def det_gauss(m):
    """Independent oracle: fraction Gauss elimination."""
    n = len(m)
    rows = [[Fraction(x) for x in r] for r in m]
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= f * rows[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= rows[k][k]
    return out


def solve_gauss(m, b):
    """Independent oracle: Fraction Gauss-Jordan on [m | b]; None if singular."""
    n = len(m)
    rows = [[Fraction(x) for x in r] + [Fraction(v)] for r, v in zip(m, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return tuple(r[n] for r in rows)


def singular_matrices(n):
    """Square matrices whose last row is an integer combination of the others."""
    coeffs = st.lists(st.integers(min_value=-2, max_value=2),
                      min_size=n - 1, max_size=n - 1)
    rows = st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=n - 1, max_size=n - 1)
    return st.tuples(rows, coeffs).map(lambda rc: mat(rc[0] + [
        [sum(c * r[j] for c, r in zip(rc[1], rc[0])) for j in range(n)]]))


def any_square_matrices():
    n = st.integers(min_value=1, max_value=5)
    return n.flatmap(lambda k: st.one_of(square_matrices(k),
                                         singular_matrices(k)))


def hnf_rows(rows, width):
    """Nonzero HNF rows of the lattice spanned by rows; canonical."""
    if not rows:
        return ()
    h, _ = hermite_normal_form(mat(rows))
    return tuple(r for r in h if any(r))


def in_row_lattice(x, basis, width):
    # appending a lattice member leaves the canonical form unchanged
    return hnf_rows(list(basis) + [list(x)], width) == hnf_rows(basis, width)


def test_mat_rejects_ragged():
    with pytest.raises(ValueError):
        mat([(1, 2), (3,)])


def test_hnf_frozen_example():
    h, u = hermite_normal_form(((2, 4), (1, 3)))
    assert h == ((1, 1), (0, 2))
    assert mat_mul(u, ((2, 4), (1, 3))) == h
    assert det(u) in (1, -1)


def _hnf_shape_ok(h):
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        piv = nz[0]
        assert piv > last, "pivots must move right"
        last = piv
        assert row[piv] > 0
    # entries above each pivot reduced into [0, pivot)
    cols = list(zip(*h)) if h else []
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        piv = nz[0]
        for k in range(i):
            assert 0 <= h[k][piv] < row[piv]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_hnf_properties(m):
    h, u = hermite_normal_form(m)
    assert det(u) in (1, -1)
    assert mat_mul(u, m) == h
    _hnf_shape_ok(h)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_hnf_canonical_under_row_shuffle(m, rng):
    rows = list(m)
    rng.shuffle(rows)
    h1, _ = hermite_normal_form(m)
    h2, _ = hermite_normal_form(mat(rows))
    assert tuple(r for r in h1 if any(r)) == tuple(r for r in h2 if any(r))


def test_hnf_identity_and_zero_row():
    assert hermite_normal_form(identity(3)) == (identity(3), identity(3))
    h, u = hermite_normal_form(((0, 0),))
    assert h == ((0, 0),)
    assert u == ((1,),)


def test_kernel_frozen_examples():
    assert kernel_lattice_basis(((1,), (2,), (3,))) == ((-2, 1, 0), (-3, 0, 1))
    assert kernel_lattice_basis(((2, 4),)) == ()
    assert kernel_lattice_basis(((1, 2), (2, 4))) == ((-2, 1),)
    assert kernel_lattice_basis(((1, 0), (-1, 0))) == ((1, 1),)


def test_kernel_of_fan_normals_contains_relation_vectors():
    normals = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1))
    ker = kernel_lattice_basis(normals)
    assert len(ker) == 2
    for x in ((1, 1, 0, -1, 1), (0, 0, 1, 1, 0)):
        assert in_row_lattice(x, ker, 5)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_spans_and_saturates(m):
    ker = kernel_lattice_basis(m)
    for row in ker:
        assert all(sum(a * b for a, b in zip(row, col)) == 0
                   for col in zip(*m))
    # brute force small left-kernel vectors; all must lie in the lattice
    rows = len(m)
    if rows <= 3:
        from itertools import product
        for x in product(range(-2, 3), repeat=rows):
            if not any(x):
                continue
            if all(sum(a * b for a, b in zip(x, col)) == 0
                   for col in zip(*m)):
                assert in_row_lattice(x, ker, rows)


@settings(max_examples=150, deadline=None)
@given(square_matrices(3))
def test_solve_substitutes_back(m):
    b = (1, 2, 3)
    x = solve_rational(m, b)
    if x is None:
        assert det(m) == 0
    else:
        for row, want in zip(m, b):
            assert sum(Fraction(a) * v for a, v in zip(row, x)) == want


@settings(max_examples=200, deadline=None)
@given(square_matrices(4))
def test_det_matches_gauss_oracle(m):
    assert det(m) == det_gauss(m)


def test_solve_frozen_examples():
    b = (Fraction(3), Fraction(7, 2))
    assert solve_rational(identity(2), b) == b
    # three tight facet rows pin a vertex of the cut corner
    rows = ((0, 1, 0), (0, 0, -1), (-1, -1, -1))
    rhs = (Fraction(0), Fraction(-1, 2), Fraction(-1))
    assert solve_rational(rows, rhs) == \
        (Fraction(1, 2), Fraction(0), Fraction(1, 2))


def test_det_edge_cases():
    with pytest.raises(ValueError):
        det(())
    assert det(((5,),)) == 5
    assert det(identity(4)) == 1
    assert det(((0, 1), (1, 0))) == -1
    assert det(((1, 0), (1, 2))) == 2


def test_transpose_involution():
    m = mat([(1, 2, 3), (4, 5, 6)])
    assert transpose(transpose(m)) == m


rationals = st.builds(Fraction, st.integers(min_value=-20, max_value=20),
                      st.integers(min_value=1, max_value=12))


@settings(max_examples=300, deadline=None)
@given(any_square_matrices().flatmap(
    lambda m: st.tuples(st.just(m), st.lists(
        st.one_of(rationals, small_entries),
        min_size=len(m), max_size=len(m)))))
def test_solve_mixed_denominators_matches_gauss_oracle(case):
    m, b = case
    x = solve_rational(m, b)
    assert x == solve_gauss(m, b)
    if x is not None:
        assert all(isinstance(v, Fraction) for v in x)


@settings(max_examples=200, deadline=None)
@given(any_square_matrices(), st.data())
def test_row_and_column_swaps_flip_det_sign(m, data):
    n = len(m)
    if n < 2:
        return
    i, j = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                              min_size=2, max_size=2, unique=True))
    rows = list(m)
    rows[i], rows[j] = rows[j], rows[i]
    assert det(rows) == -det(m)
    assert det(transpose(rows)) == -det(m)
    cols = [list(r) for r in m]
    for r in cols:
        r[i], r[j] = r[j], r[i]
    assert det(cols) == -det(m)
