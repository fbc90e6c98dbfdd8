import itertools
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_qh.cli import builtin_polytope
from toric_qh.errors import (
    DelzantError,
    FanoViolationError,
    NoBatyrevVectorError,
    NonGenericXiError,
)
from toric_qh.exact_linalg import (
    det,
    hermite_normal_form,
    kernel_lattice_basis,
    mat,
    mat_mul,
    transpose,
)
from toric_qh.polytope import (
    Polytope,
    PrimitiveCollection,
    _dot,
    _recession_ray,
    _scaled_offsets,
    _subset_solutions,
    _sweep_vertices,
    _walk_vertices,
    batyrev_vector,
    betti_numbers_L,
    enumerate_vertices,
    face_nonempty,
    generic_xi,
    morse_index_L,
    primitive_collection_data,
    primitive_collections,
    quantum_degree,
    require_delzant,
    validate_delzant,
)

BUILTINS = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp1xcp1", "blowup_cp3")

HIRZEBRUCH2 = Polytope(2, ((0, 1), (1, 0), (0, -1), (-1, -2)),
                       (0, 0, -1, -3))


def frac(a, b=1):
    return Fraction(a, b)


def test_from_facets_validates():
    with pytest.raises(ValueError):
        Polytope.from_facets(2, [((1, 0), 0)], convention="sideways")
    with pytest.raises(ValueError):
        Polytope.from_facets(2, [((1, 0, 3), 0)])


def test_from_facets_outward_negates():
    p = Polytope.from_facets(
        2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)], convention="outward")
    assert p.normals == ((1, 0), (0, 1), (-1, -1))
    assert p.offsets == (0, 0, -1)
    assert p == builtin_polytope("cp2")


def test_builtins_are_delzant():
    for name in BUILTINS:
        report = validate_delzant(builtin_polytope(name))
        assert report.ok, name
        assert report.reasons == ()
        assert all(abs(v.normal_det) == 1 for v in report.vertices)


def test_blowup_vertices_frozen():
    p = builtin_polytope("blowup_cp3")
    vs = enumerate_vertices(p)
    assert [v.coords for v in vs] == [
        (frac(0), frac(0), frac(0)),
        (frac(0), frac(0), frac(1, 2)),
        (frac(0), frac(1, 2), frac(1, 2)),
        (frac(0), frac(1), frac(0)),
        (frac(1, 2), frac(0), frac(1, 2)),
        (frac(1), frac(0), frac(0)),
    ]
    assert [v.tight for v in vs] == [
        (1, 2, 3), (1, 2, 4), (1, 4, 5), (1, 3, 5), (2, 4, 5), (2, 3, 5)]
    assert [v.normal_det for v in vs] == [1, -1, -1, 1, 1, -1]
    assert vs[0].edge_dirs == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert vs[1].edge_dirs == ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def test_cp2_vertices_frozen():
    vs = enumerate_vertices(builtin_polytope("cp2"))
    assert [v.coords for v in vs] == [
        (frac(0), frac(0)), (frac(0), frac(1)), (frac(1), frac(0))]
    assert [v.tight for v in vs] == [(1, 2), (1, 3), (2, 3)]
    assert [v.normal_det for v in vs] == [1, -1, 1]


def test_cp1xcp1_vertices_frozen():
    vs = enumerate_vertices(builtin_polytope("cp1xcp1"))
    assert [v.coords for v in vs] == [
        (frac(0), frac(0)), (frac(0), frac(1)),
        (frac(1), frac(0)), (frac(1), frac(1))]
    assert [v.tight for v in vs] == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_vertex_count_per_builtin():
    want = {"cp1": 2, "cp2": 3, "cp3": 4, "cp4": 5, "cp5": 6,
            "cp1xcp1": 4, "blowup_cp3": 6}
    for name, count in want.items():
        assert len(enumerate_vertices(builtin_polytope(name))) == count


def test_edge_dirs_pair_with_tight_normals():
    for name in BUILTINS:
        p = builtin_polytope(name)
        for v in enumerate_vertices(p):
            rows = [p.normals[i - 1] for i in v.tight]
            prod = mat_mul(mat(rows), transpose(mat(v.edge_dirs)))
            n = p.dim
            assert prod == tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_face_nonempty():
    cp2 = builtin_polytope("cp2")
    assert face_nonempty(cp2, (1, 2))
    assert face_nonempty(cp2, (3,))
    assert not face_nonempty(cp2, (1, 2, 3))
    blow = builtin_polytope("blowup_cp3")
    assert face_nonempty(blow, ())
    assert face_nonempty(blow, (1, 2))
    assert face_nonempty(blow, (4, 5))
    assert not face_nonempty(blow, (3, 4))
    assert not face_nonempty(blow, (1, 2, 5))
    assert not face_nonempty(builtin_polytope("cp1xcp1"), (1, 2))


def test_face_nonempty_monotone_under_subsets():
    for name in BUILTINS:
        p = builtin_polytope(name)
        nfacets = len(p.normals)
        for size in range(1, min(nfacets, 4) + 1):
            for s in itertools.combinations(range(1, nfacets + 1), size):
                if face_nonempty(p, s):
                    for t in itertools.combinations(s, size - 1):
                        assert face_nonempty(p, t)


def brute_minimal_nonfaces(p):
    d = len(p.normals)
    out = []
    for size in range(2, d + 1):
        for s in itertools.combinations(range(1, d + 1), size):
            if face_nonempty(p, s):
                continue
            if all(face_nonempty(p, t)
                   for t in itertools.combinations(s, size - 1)):
                out.append(s)
    return sorted(out)


def test_primitive_collections_match_brute_force():
    for name in BUILTINS:
        p = builtin_polytope(name)
        assert list(primitive_collections(p)) == brute_minimal_nonfaces(p)


def test_primitive_collections_frozen():
    assert primitive_collections(builtin_polytope("cp2")) == ((1, 2, 3),)
    assert primitive_collections(builtin_polytope("cp1xcp1")) == (
        (1, 2), (3, 4))
    assert primitive_collections(builtin_polytope("blowup_cp3")) == (
        (1, 2, 5), (3, 4))


def test_batyrev_vectors_frozen():
    cases = {
        "cp2": {(1, 2, 3): ((1, 1, 1), 3)},
        "cp1xcp1": {(1, 2): ((1, 1, 0, 0), 2), (3, 4): ((0, 0, 1, 1), 2)},
        "blowup_cp3": {(1, 2, 5): ((1, 1, 0, -1, 1), 2),
                       (3, 4): ((0, 0, 1, 1, 0), 2)},
    }
    for name, want in cases.items():
        p = builtin_polytope(name)
        got = {pc.indices: (pc.batyrev, pc.m)
               for pc in primitive_collection_data(p)}
        assert got == want


def test_batyrev_relation_holds():
    # sum of normals over the collection equals -sum a_k v_k off it
    for name in BUILTINS:
        p = builtin_polytope(name)
        for pc in primitive_collection_data(p):
            total = [0] * p.dim
            for j, a in enumerate(pc.batyrev, start=1):
                for k in range(p.dim):
                    total[k] += a * p.normals[j - 1][k]
            assert all(x == 0 for x in total)
            assert all(pc.batyrev[i - 1] == 1 for i in pc.indices)
            assert all(a <= 0 for j, a in enumerate(pc.batyrev, start=1)
                       if j not in pc.indices)
            assert pc.m == len(pc.indices) - sum(abs(a) for a in pc.batyrev
                                                 if a < 0)


def test_batyrev_equivariant_under_facet_permutation():
    p = builtin_polytope("blowup_cp3")
    order = (4, 2, 0, 3, 1)
    q = Polytope(p.dim, tuple(p.normals[j] for j in order),
                 tuple(p.offsets[j] for j in order))
    assert validate_delzant(q).ok
    base = {pc.indices: pc for pc in primitive_collection_data(p)}
    permuted = primitive_collection_data(q)
    assert len(permuted) == len(base)
    for pc in permuted:
        old = tuple(sorted(order[i - 1] + 1 for i in pc.indices))
        ref = base[old]
        assert pc.batyrev == tuple(ref.batyrev[j] for j in order)
        assert pc.m == ref.m


def test_batyrev_requires_collection_off_cone():
    with pytest.raises(NoBatyrevVectorError):
        batyrev_vector(builtin_polytope("cp2"), (1, 2))


def test_hirzebruch2_is_delzant_but_not_fano():
    assert validate_delzant(HIRZEBRUCH2).ok
    assert batyrev_vector(HIRZEBRUCH2, (1, 3)) == (1, 0, 1, 0)
    assert batyrev_vector(HIRZEBRUCH2, (2, 4)) == (0, 1, -2, 1)
    with pytest.raises(FanoViolationError):
        quantum_degree(PrimitiveCollection((2, 4), (0, 1, -2, 1), 0))
    with pytest.raises(FanoViolationError):
        primitive_collection_data(HIRZEBRUCH2)


def test_morse_indices_blowup_frozen():
    p = builtin_polytope("blowup_cp3")
    idx = sorted(morse_index_L(v, (1, 2, 4)) for v in enumerate_vertices(p))
    assert idx == [0, 1, 1, 2, 2, 3]


def test_morse_indices_segment_and_corner():
    seg = builtin_polytope("cp1")
    got = [(v.coords, morse_index_L(v, (1,))) for v in enumerate_vertices(seg)]
    assert got == [((Fraction(0),), 0), ((Fraction(1),), 1)]
    cp3 = builtin_polytope("cp3")
    origin = [v for v in enumerate_vertices(cp3)
              if v.coords == (Fraction(0), Fraction(0), Fraction(0))]
    assert len(origin) == 1
    assert morse_index_L(origin[0], (1, 2, 4)) == 0


def test_morse_rejects_nongeneric_xi():
    p = builtin_polytope("blowup_cp3")
    v = enumerate_vertices(p)[0]
    with pytest.raises(NonGenericXiError):
        morse_index_L(v, (0, 0, 1))


def test_generic_xi_frozen():
    assert generic_xi(builtin_polytope("cp2")) == (1, 2)
    assert generic_xi(builtin_polytope("cp3")) == (1, 2, 4)
    assert generic_xi(builtin_polytope("blowup_cp3")) == (1, 2, 4)


def test_betti_frozen():
    want = {"cp1": (1, 1), "cp2": (1, 1, 1), "cp3": (1, 1, 1, 1),
            "cp4": (1, 1, 1, 1, 1), "cp5": (1, 1, 1, 1, 1, 1),
            "cp1xcp1": (1, 2, 1), "blowup_cp3": (1, 2, 2, 1)}
    for name, b in want.items():
        assert betti_numbers_L(builtin_polytope(name)) == b


def test_betti_independent_of_xi():
    for name in ("cp2", "cp1xcp1", "blowup_cp3"):
        p = builtin_polytope(name)
        base = betti_numbers_L(p)
        for perm in itertools.permutations(generic_xi(p)):
            assert betti_numbers_L(p, xi=perm) == base


def test_betti_independent_of_random_xi():
    rng = random.Random(88)
    for name in BUILTINS:
        p = builtin_polytope(name)
        base = betti_numbers_L(p)
        found = 0
        while found < 3:
            xi = tuple(rng.randrange(-9, 10) for _ in range(p.dim))
            try:
                got = betti_numbers_L(p, xi=xi)
            except NonGenericXiError:
                continue
            found += 1
            assert got == base


def test_betti_sum_and_palindrome():
    for name in BUILTINS:
        p = builtin_polytope(name)
        b = betti_numbers_L(p)
        assert sum(b) == len(enumerate_vertices(p))
        assert b == tuple(reversed(b))


def test_reject_zero_normal():
    r = validate_delzant(Polytope(1, ((0,),), (0,)))
    assert r.reasons == ("RejectZeroNormal: facet 1 normal is zero",)


def test_reject_nonprimitive_normal():
    r = validate_delzant(Polytope(2, ((2, 4), (1, 0), (0, 1)), (0, 0, 0)))
    assert r.reasons == ("RejectNonPrimitiveNormal: facet 1 normal (2, 4)",)


def test_reject_empty():
    cases = [
        Polytope(1, ((1,), (-1,)), (1, 0)),
        Polytope(2, ((1, 0), (-1, 0)), (1, 0)),
        Polytope(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 1)),
    ]
    for p in cases:
        r = validate_delzant(p)
        assert r.reasons == (
            "RejectEmpty: no point satisfies all facet inequalities",)


def test_reject_unbounded():
    strip = validate_delzant(Polytope(2, ((1, 0), (-1, 0)), (0, -1)))
    assert strip.reasons == (
        "RejectUnbounded: feasible region contains a line",)
    quad = validate_delzant(Polytope(2, ((1, 0), (0, 1)), (0, 0)))
    assert quad.reasons == ("RejectUnbounded: recession direction (0, 1)",)


def test_reject_redundant_facet():
    p = Polytope(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), (0, 0, -1, -5))
    r = validate_delzant(p)
    assert r.reasons == ("RejectRedundantFacet: facet 4 is tight at no vertex",)


def test_reject_nonsimple_pyramid():
    p = Polytope.from_facets(3, [
        ((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
        ((0, -1, -1), -1), ((0, 1, -1), -1)])
    r = validate_delzant(p)
    assert r.reasons == (
        "RejectNonSimple: vertex (0, 0, 1) has 4 tight facets, expected 3",)


def test_reject_nonunimodular_square():
    p = Polytope(2, ((1, 0), (-1, 0), (1, 2), (0, -1)),
                 (0, -1, 0, -1))
    r = validate_delzant(p)
    assert r.reasons == (
        "RejectNonUnimodular: vertex (0, 0) has |det| = 2",
        "RejectNonUnimodular: vertex (1, -1/2) has |det| = 2")


def test_require_delzant_raises_with_report():
    p = Polytope(1, ((0,),), (0,))
    with pytest.raises(DelzantError) as exc:
        require_delzant(p)
    assert exc.value.report.ok is False


def unimodular_ops(ops, dim):
    """Build (u, uinv) from shear and swap ops; both integer matrices."""
    u = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    uinv = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for kind, i, j, s in ops:
        i, j = i % dim, j % dim
        if i == j:
            continue
        if kind == 0:
            # row_i += s * row_j on u; inverse op applied on the right of uinv
            for k in range(dim):
                u[i][k] += s * u[j][k]
            for k in range(dim):
                uinv[k][j] -= s * uinv[k][i]
        else:
            for k in range(dim):
                u[i][k], u[j][k] = u[j][k], u[i][k]
            for k in range(dim):
                uinv[k][i], uinv[k][j] = uinv[k][j], uinv[k][i]
    return mat(u), mat(uinv)


ops_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2),
              st.integers(-2, 2)),
    min_size=0, max_size=4)


@settings(max_examples=60, deadline=None)
@given(ops_strategy, st.sampled_from(("cp2", "cp1xcp1", "blowup_cp3")))
def test_lattice_change_of_basis_invariance(ops, name):
    p = builtin_polytope(name)
    u, uinv = unimodular_ops(ops, p.dim)
    assert mat_mul(u, uinv) == tuple(
        tuple(1 if i == j else 0 for j in range(p.dim))
        for i in range(p.dim))
    new_normals = mat_mul(mat(p.normals), transpose(uinv))
    q = Polytope(p.dim, new_normals, p.offsets)
    assert validate_delzant(q).ok
    assert betti_numbers_L(q) == betti_numbers_L(p)
    assert primitive_collections(q) == primitive_collections(p)
    assert sorted(pc.m for pc in primitive_collection_data(q)) == \
        sorted(pc.m for pc in primitive_collection_data(p))
    got = sorted(tuple(v.coords) for v in enumerate_vertices(q))
    want = sorted(
        tuple(sum(Fraction(x) * u[k][j] for k, x in enumerate(v.coords))
              for j in range(p.dim))
        for v in enumerate_vertices(p))
    assert got == want


def _cp_facets(n):
    """Inward facets of the standard CP^n simplex: x_k >= 0, -sum x >= -1."""
    return [(tuple(int(i == k) for i in range(n)), 0) for k in range(n)] + \
        [((-1,) * n, -1)]


BLOWUP_CP3_FACETS = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                     ((0, 0, -1), frac(-1, 2)), ((-1, -1, -1), -1)]


def _product(*factors):
    """Product polytope: each factor's normals padded with zeros."""
    dims = [len(fs[0][0]) for fs in factors]
    normals, offsets = [], []
    for k, fs in enumerate(factors):
        before, after = sum(dims[:k]), sum(dims[k + 1:])
        for v, a in fs:
            normals.append((0,) * before + v + (0,) * after)
            offsets.append(Fraction(a))
    return Polytope(sum(dims), tuple(normals), tuple(offsets))


PRODUCTS = {
    "cp1^3": lambda: _product(_cp_facets(1), _cp_facets(1), _cp_facets(1)),
    "cp2xcp2": lambda: _product(_cp_facets(2), _cp_facets(2)),
    "blowup_cp3xcp1": lambda: _product(BLOWUP_CP3_FACETS, _cp_facets(1)),
    "cp2^3": lambda: _product(_cp_facets(2), _cp_facets(2), _cp_facets(2)),
    "cp8": lambda: _product(_cp_facets(8)),
}


def _solve_gauss(m, b):
    """Fraction Gauss-Jordan solve of m x = b; None if m is singular."""
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


def _pair(v, x):
    return sum(a * b for a, b in zip(v, x))


def _oracle_tight_sets(p):
    """Vertex -> tight set, from a plain Fraction sweep over facet subsets."""
    verts = set()
    for subset in itertools.combinations(range(len(p.normals)), p.dim):
        x = _solve_gauss([p.normals[i] for i in subset],
                         [p.offsets[i] for i in subset])
        if x is not None and all(_pair(v, x) >= a
                                 for v, a in zip(p.normals, p.offsets)):
            verts.add(x)
    return {x: {i + 1 for i, (v, a) in enumerate(zip(p.normals, p.offsets))
                if _pair(v, x) == a}
            for x in verts}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_products_match_set_based_oracle(name):
    p = PRODUCTS[name]()
    d, n = len(p.normals), p.dim
    tight = _oracle_tight_sets(p)
    verts = enumerate_vertices(p)
    assert {v.coords: set(v.tight) for v in verts} == tight

    # edge directions: V * w_j = e_j with V the tight normal rows
    for v in verts:
        for j, w in enumerate(v.edge_dirs):
            assert [_pair(p.normals[i - 1], w) for i in v.tight] == \
                [int(k == j) for k in range(n)]

    # minimal non-faces, with faces read from the oracle's tight sets
    def is_face(s):
        return any(s <= t for t in tight.values())

    want = sorted(
        s for size in range(2, d + 1)
        for s in itertools.combinations(range(1, d + 1), size)
        if not is_face(set(s))
        and all(is_face(set(s) - {i}) for i in s))
    assert list(primitive_collections(p)) == want

    # Batyrev vectors: solve V^T c = sum_{i in I} v_i at every vertex
    for idx in want:
        w = [sum(p.normals[i - 1][k] for i in idx) for k in range(n)]
        found = set()
        for t in tight.values():
            cols = sorted(t)
            c = _solve_gauss([[p.normals[i - 1][k] for i in cols]
                              for k in range(n)], w)
            assert all(x.denominator == 1 for x in c)  # unimodular cone
            if any(x < 0 for x in c) or any(c[pos] for pos, i in
                                            enumerate(cols) if i in idx):
                continue
            a = [1 if i in idx else 0 for i in range(1, d + 1)]
            for pos, i in enumerate(cols):
                if c[pos]:
                    a[i - 1] = -c[pos].numerator
            found.add(tuple(a))
        assert found == {batyrev_vector(p, idx)}


def _translate(p, shift):
    """p + shift: <v, x - s> >= a  iff  <v, x> >= a + <v, s>."""
    return Polytope(p.dim, p.normals,
                    tuple(Fraction(a) + _pair(v, shift)
                          for v, a in zip(p.normals, p.offsets)))


def _change_basis(p, rng):
    """p under a seeded unimodular change of lattice basis."""
    ops = [(rng.randint(0, 1), rng.randrange(p.dim), rng.randrange(p.dim),
            rng.randint(-2, 2)) for _ in range(4)]
    _, uinv = unimodular_ops(ops, p.dim)
    return Polytope(p.dim, mat_mul(mat(p.normals), transpose(uinv)), p.offsets)


def _walk_corpus():
    """Translates and changes of basis of cp1..cp12, products, blowups."""
    bases = {f"cp{n}": builtin_polytope(f"cp{n}") for n in range(1, 13)}
    bases.update((name, builtin_polytope(name))
                 for name in ("cp1xcp1", "blowup_cp3"))
    bases.update((name, build()) for name, build in PRODUCTS.items())
    bases.update({
        "blowup_cp3^2": _product(BLOWUP_CP3_FACETS, BLOWUP_CP3_FACETS),
        "blowup_cp3xcp2": _product(BLOWUP_CP3_FACETS, _cp_facets(2)),
        "cp1^2xcp2": _product(_cp_facets(1), _cp_facets(1), _cp_facets(2)),
        "hirzebruch2": HIRZEBRUCH2,
    })
    rng = random.Random(4)
    out = {}
    for name, p in bases.items():
        out[name] = p
        for k in range(2):
            shift = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                     for _ in range(p.dim)]
            out[f"{name}+t{k}"] = _translate(p, shift)
            out[f"{name}*u{k}+t{k}"] = _translate(_change_basis(p, rng), shift)
    return out


WALK_CORPUS = _walk_corpus()


@pytest.mark.parametrize("name", WALK_CORPUS)
def test_walk_matches_sweep(name):
    p = WALK_CORPUS[name]
    walked = _walk_vertices(p)
    assert walked is not None
    swept = _sweep_vertices(p)
    for field in ("coords", "tight", "normal_det", "edge_dirs"):
        assert [getattr(v, field) for v in walked] == \
            [getattr(v, field) for v in swept], field
    n = p.dim
    for v in walked:
        rows = [p.normals[i - 1] for i in v.tight]
        assert v.normal_det == det(rows)
        for j, w in enumerate(v.edge_dirs):
            assert [_pair(r, w) for r in rows] == [int(k == j) for k in range(n)]
    # the walk certifies boundedness, so validation skips the ray search
    assert _recession_ray(p) is None
    assert validate_delzant(p).ok


@pytest.mark.parametrize("name", WALK_CORPUS)
def test_walk_stays_integer(name, monkeypatch):
    # start included, the walk never solves over Fractions and never
    # reaches the sweep
    import toric_qh.exact_linalg as exact_linalg
    import toric_qh.polytope as polytope

    p = WALK_CORPUS[name]
    want = _walk_vertices(p)

    def banned(*args, **kwargs):
        raise AssertionError("the walk left the integers")

    monkeypatch.setattr(polytope, "_sweep_vertices", banned)
    monkeypatch.setattr(exact_linalg, "solve_rational", banned)
    assert _walk_vertices.__wrapped__(p) == want  # past the memo


def test_walk_corpus_starts_past_first_subset():
    # the first dim-subset of facets meets in no vertex, so the start
    # scan has to pass over it
    p = WALK_CORPUS["cp2xcp2"]
    first = tuple(range(1, p.dim + 1))
    assert all(v.tight != first for v in _sweep_vertices(p))


@pytest.mark.parametrize("p, reasons", [
    (Polytope.from_facets(3, [
        ((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
        ((0, -1, -1), -1), ((0, 1, -1), -1)]),
     ("RejectNonSimple: vertex (0, 0, 1) has 4 tight facets, expected 3",)),
    (Polytope(2, ((1, 0), (-1, 0), (1, 2), (0, -1)), (0, -1, 0, -1)),
     ("RejectNonUnimodular: vertex (0, 0) has |det| = 2",
      "RejectNonUnimodular: vertex (1, -1/2) has |det| = 2")),
    # the same square with a unimodular first vertex, (0, 1): the walk
    # starts, and falls back at the first pivot with r = -2
    (Polytope(2, ((1, 0), (0, -1), (-1, 0), (1, 2)), (0, -1, -1, 0)),
     ("RejectNonUnimodular: vertex (0, 0) has |det| = 2",
      "RejectNonUnimodular: vertex (1, -1/2) has |det| = 2")),
    # a triangle with a fourth facet through its corner (0, 0): the walk
    # starts at (0, 1), and the ratio test toward (0, 0) ties between two
    # facets that each give a unimodular cone
    (Polytope(2, ((1, 0), (-1, -1), (0, 1), (1, 1)), (0, -1, 0, 0)),
     ("RejectNonSimple: vertex (0, 0) has 3 tight facets, expected 2",)),
    (Polytope(2, ((1, 0), (0, 1)), (0, 0)),
     ("RejectUnbounded: recession direction (0, 1)",)),
], ids=("pyramid", "det2-square", "det2-square-reordered", "tied-corner",
        "quadrant"))
def test_walk_falls_back_on_rejected_inputs(p, reasons):
    assert _walk_vertices(p) is None
    assert enumerate_vertices(p) == _sweep_vertices(p)
    assert validate_delzant(p).reasons == reasons


def test_walk_falls_back_on_non_simple_start():
    # the first three facets meet at the apex, where four are tight
    p = Polytope.from_facets(3, [
        ((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1),
        ((0, 1, -1), -1), ((0, 0, 1), 0)])
    _, vdet, xs, _, _ = next(_subset_solutions(p))
    assert tuple(Fraction(x, vdet) for x in xs) == (0, 0, 1)
    assert _walk_vertices(p) is None
    assert validate_delzant(p).reasons == (
        "RejectNonSimple: vertex (0, 0, 1) has 4 tight facets, expected 3",)


def test_walk_keeps_redundant_facet_report():
    p = Polytope(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), (0, 0, -1, -5))
    assert _walk_vertices(p) == _sweep_vertices(p)
    assert _walk_vertices(p) is not None
    assert validate_delzant(p).reasons == (
        "RejectRedundantFacet: facet 4 is tight at no vertex",)


def _laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a
               * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


# the rejected inputs of the fallback tests above
REJECTED_INPUTS = {
    "pyramid": Polytope.from_facets(3, [
        ((0, 0, 1), 0), ((-1, 0, -1), -1), ((1, 0, -1), -1),
        ((0, -1, -1), -1), ((0, 1, -1), -1)]),
    "pyramid-apex-first": Polytope.from_facets(3, [
        ((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1),
        ((0, 1, -1), -1), ((0, 0, 1), 0)]),
    "det2-square": Polytope(2, ((1, 0), (-1, 0), (1, 2), (0, -1)),
                            (0, -1, 0, -1)),
    "det2-square-reordered": Polytope(2, ((1, 0), (0, -1), (-1, 0), (1, 2)),
                                      (0, -1, -1, 0)),
    "tied-corner": Polytope(2, ((1, 0), (-1, -1), (0, 1), (1, 1)),
                            (0, -1, 0, 0)),
    "quadrant": Polytope(2, ((1, 0), (0, 1)), (0, 0)),
    "redundant-facet": Polytope(2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
                                (0, 0, -1, -5)),
}


@pytest.mark.parametrize("name", REJECTED_INPUTS)
def test_sweep_matches_oracle_on_rejected_inputs(name):
    p = REJECTED_INPUTS[name]
    n = p.dim
    swept = _sweep_vertices(p)
    assert {v.coords: set(v.tight) for v in swept} == _oracle_tight_sets(p)
    assert [v.coords for v in swept] == sorted(v.coords for v in swept)
    for v in swept:
        assert list(v.tight) == sorted(v.tight)
        rows = [p.normals[i - 1] for i in v.tight]
        simple = len(rows) == n
        assert v.normal_det == (_laplace_det(rows) if simple else None)
        if simple and v.normal_det in (1, -1):
            for j, w in enumerate(v.edge_dirs):
                assert [_pair(r, w) for r in rows] == \
                    [int(k == j) for k in range(n)]
        else:
            assert v.edge_dirs is None


# The Hermite-normal-form rank, Fourier-Motzkin feasibility and
# kernel-lattice ray search that validation once ran beside the subset
# scan, copied verbatim as the oracle for its rejections: slow, but they
# share no elimination with the polytope layer.
def _reference_rank(rows):
    if not rows:
        return 0
    h, _ = hermite_normal_form(mat(rows))
    return sum(1 for r in h if any(r))


def _reference_feasible(p):
    """Exact Fourier-Motzkin feasibility of {x : <x, v_i> >= a_i}, on the
    scaled integer offsets: elimination adds only positive multiples."""
    cons = list(zip(p.normals, _scaled_offsets(p)[1]))
    for k in range(p.dim - 1, -1, -1):
        pos = [(c, b) for c, b in cons if c[k] > 0]
        neg = [(c, b) for c, b in cons if c[k] < 0]
        new = [(c[:k], b) for c, b in cons if c[k] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                coeff = [(-cn[k]) * cp[j] + cp[k] * cn[j] for j in range(k)]
                bound = (-cn[k]) * bp + cp[k] * bn
                new.append((coeff, bound))
        cons = new
    return all(b <= 0 for _, b in cons)


def _reference_recession_ray(p):
    """A nonzero integer y with <y, v_i> >= 0 for every facet, or None.

    Valid once a vertex exists: the recession cone is then pointed, so it
    is nonzero iff it has an extreme ray, and every extreme ray lies on
    n-1 independent normals.
    """
    n, d = p.dim, p.nfacets
    if n == 1:
        for w in ((1,), (-1,)):
            if all(_dot(v, w) >= 0 for v in p.normals):
                return w
        return None
    for subset in combinations(range(d), n - 1):
        cols = mat(zip(*(p.normals[i] for i in subset)))
        ker = kernel_lattice_basis(cols)
        if len(ker) != 1:
            continue
        for w in (ker[0], tuple(-x for x in ker[0])):
            if all(_dot(v, w) >= 0 for v in p.normals):
                return w
    return None


def _rejection_corpus(count=1200, seed=14):
    """Seeded regions of dim 1-4 with up to dim + 5 facets, entries in
    [-2, 2]; about 30% have normals in the hyperplane x_n = c * x_k."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 4)
        d = rng.randint(1, n + 5)
        tie = (rng.randrange(n - 1), rng.choice((0, 1, -1))) \
            if n > 1 and rng.random() < 0.3 else None
        normals = []
        while len(normals) < d:
            v = [rng.randint(-2, 2) for _ in range(n)]
            if tie:
                v[-1] = tie[1] * v[tie[0]]
            if gcd(*v) == 1:
                normals.append(tuple(v))
        offsets = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                   for _ in range(d)]
        out.append(Polytope(n, tuple(normals), tuple(offsets)))
    return out


def test_rejections_match_reference():
    kinds = {"line": 0, "empty": 0, "ray": 0, "rank-deficient": 0}
    # with no facets the region is the whole space
    for p in [Polytope(2, (), ()), *_rejection_corpus()]:
        reasons = validate_delzant(p).reasons
        kinds["rank-deficient"] += _reference_rank(p.normals) < p.dim
        if not _sweep_vertices(p):
            if _reference_rank(p.normals) < p.dim and _reference_feasible(p):
                kinds["line"] += 1
                assert reasons == (
                    "RejectUnbounded: feasible region contains a line",), p
            else:
                kinds["empty"] += 1
                assert reasons == (
                    "RejectEmpty: no point satisfies all facet inequalities",
                ), p
            continue
        ray = _reference_recession_ray(p)
        assert _recession_ray(p) == ray, p
        if ray is None:
            assert not any(r.startswith(("RejectEmpty", "RejectUnbounded"))
                           for r in reasons), p
        else:
            kinds["ray"] += 1
            assert reasons == (f"RejectUnbounded: recession direction {ray}",), p
    # every rewritten branch is reached many times
    assert min(kinds.values()) >= 100, kinds


def _line_in_dim5(seed=2, d=16):
    """d facets in dim 5 whose normals span only x_5 = 0; the origin is
    feasible, so the region contains the x_5 axis."""
    rng = random.Random(seed)
    normals = []
    while len(normals) < d:
        v = [rng.randint(-2, 2) for _ in range(4)]
        if gcd(*v) == 1:
            normals.append(tuple(v) + (0,))
    offsets = [Fraction(-rng.randint(0, 3), rng.choice((1, 2)))
               for _ in range(d)]
    return Polytope(5, tuple(normals), tuple(offsets))


def test_line_in_dim5_answers_at_once():
    # Fourier-Motzkin took about 10 s on this input; the subset scan of
    # the rank-4 image stops at its first feasible solution
    start = time.perf_counter()
    reasons = validate_delzant(_line_in_dim5()).reasons
    assert reasons == ("RejectUnbounded: feasible region contains a line",)
    assert time.perf_counter() - start < 5


def test_no_vertex_scans_each_subset_once(monkeypatch):
    # a dim-4 region whose 16 normals span 3 dimensions: one scan of the
    # C(16, 4) subsets finds no vertex, and the rank-3 image takes at
    # most C(16, 3) more eliminations; the sweep never rescans
    import toric_qh.polytope as polytope

    rng = random.Random(7)
    normals = []
    while len(normals) < 16:
        v = [rng.randint(-2, 2) for _ in range(3)]
        if gcd(*v) == 1:
            normals.append((v[0], v[1], v[2], v[0] - v[2]))
    p = Polytope(4, tuple(normals),
                 tuple(Fraction(rng.randint(-2, 2)) for _ in range(16)))
    calls = []
    elim = polytope._gauss_jordan

    def counted(*args):
        calls.append(1)
        return elim(*args)

    monkeypatch.setattr(polytope, "_gauss_jordan", counted)
    assert validate_delzant(p).reasons == (
        "RejectEmpty: no point satisfies all facet inequalities",)
    assert len(calls) <= comb(16, 4) + comb(16, 3)


def _brute_primitive_collections(tight_sets, d):
    """Minimal non-faces over Python sets: all subsets, no bitmasks."""
    faces = [set(t) for t in tight_sets]

    def is_face(s):
        return any(s <= t for t in faces)

    return tuple(sorted(
        s for size in range(2, d + 1)
        for s in itertools.combinations(range(1, d + 1), size)
        if not is_face(set(s)) and all(is_face(set(s) - {i}) for i in s)))


@pytest.mark.parametrize("name", [name for name, p in WALK_CORPUS.items()
                                  if p.nfacets <= 12])
def test_dualization_matches_brute_force(name):
    p = WALK_CORPUS[name]
    tight = _oracle_tight_sets(p)
    assert primitive_collections(p) == \
        _brute_primitive_collections(tight.values(), p.nfacets)


def test_primitive_collections_cp40():
    assert primitive_collections(builtin_polytope("cp40")) == \
        (tuple(range(1, 42)),)
