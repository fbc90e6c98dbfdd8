"""Delzant moment polytopes.

Validation, vertex and face combinatorics, primitive collections with
their lattice relation (Batyrev) vectors and quantum degrees, and the
Morse-theoretic Betti numbers of the real locus.

The internal facet convention is inward: the polytope is
{f : <f, normal_i> >= offset_i}.  Offsets are exact rationals in
pi-units.  Facet indices are 1-based everywhere they are reported.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import (
    DelzantError,
    FanoViolationError,
    NoBatyrevVectorError,
    NonGenericXiError,
    NonUniqueBatyrevVectorError,
)
from .exact_linalg import (
    adjugate,
    hermite_normal_form,
    kernel_lattice_basis,
    mat,
    solve_rational,
)


@dataclass(frozen=True)
class Polytope:
    """Facet model with inward normals; construct via ``from_facets``."""

    dim: int
    normals: tuple  # of int tuples, inward
    offsets: tuple  # of Fractions, pi-units

    @staticmethod
    def from_facets(dim, facets, convention="inward"):
        if convention not in ("inward", "outward"):
            raise ValueError("convention must be 'inward' or 'outward'")
        if int(dim) < 1:
            raise ValueError("dim must be >= 1")
        normals, offsets = [], []
        for normal, offset in facets:
            v = tuple(int(x) for x in normal)
            a = offset if isinstance(offset, Fraction) else Fraction(offset)
            if len(v) != dim:
                raise ValueError("normal length != dim")
            if convention == "outward":
                # outward data means <f, v> <= a; negate both to go inward
                v, a = tuple(-x for x in v), -a
            normals.append(v)
            offsets.append(a)
        return Polytope(int(dim), tuple(normals), tuple(offsets))

    @property
    def nfacets(self):
        return len(self.normals)


@dataclass(frozen=True)
class Vertex:
    coords: tuple  # Fractions, pi-units
    tight: tuple  # all tight facet indices, 1-based, sorted
    normal_det: object  # det of the tight normal matrix; None unless simple
    edge_dirs: object  # tuple of primitive int vectors w_j with <w_j, v_{i_k}> = delta_jk; None unless unimodular


@dataclass(frozen=True)
class PrimitiveCollection:
    indices: tuple  # sorted facet indices, 1-based
    batyrev: tuple  # length-d relation vector: 1 on indices, <= 0 elsewhere
    m: int  # quantum degree |I| - sum of |a_k| off I


@dataclass(frozen=True)
class DelzantReport:
    ok: bool
    reasons: tuple  # human-readable, each starting with its Reject code
    vertices: tuple
    tight_counts: tuple
    normal_dets: tuple


def _dot(v, x):
    return sum(a * b for a, b in zip(v, x))


def _coords_str(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


@lru_cache(maxsize=None)
def enumerate_vertices(p):
    """All vertices, deterministically ordered by coordinates.

    Every dim-subset of facets with invertible normal matrix is solved;
    solutions violating any inequality are dropped; coincident solutions
    merge, and each kept vertex records its full tight set.  A simple
    vertex's tight normal matrix V gets one integer elimination, which
    yields det V and adj V; when |det V| = 1, V^-1 = det(V) * adj V is
    integral and its columns are the edge directions w_j, V * w_j = e_j.
    """
    n, d = p.dim, p.nfacets
    seen = set()
    for subset in combinations(range(d), n):
        x = solve_rational(mat(p.normals[i] for i in subset),
                           tuple(p.offsets[i] for i in subset))
        if x is None:
            continue
        if any(_dot(v, x) < a for v, a in zip(p.normals, p.offsets)):
            continue
        seen.add(x)
    out = []
    for coords in sorted(seen):
        tight = tuple(i + 1 for i in range(d)
                      if _dot(p.normals[i], coords) == p.offsets[i])
        ndet = dirs = None
        if len(tight) == n:
            ndet, adj = adjugate(p.normals[i - 1] for i in tight)
            if ndet in (1, -1):
                dirs = tuple(tuple(ndet * row[j] for row in adj)
                             for j in range(n))
        out.append(Vertex(coords, tight, ndet, dirs))
    return tuple(out)


def _rank(rows):
    if not rows:
        return 0
    h, _ = hermite_normal_form(mat(rows))
    return sum(1 for r in h if any(r))


def _feasible(p):
    """Exact Fourier-Motzkin feasibility of {x : <x, v_i> >= a_i}."""
    cons = [([Fraction(x) for x in v], Fraction(a)) for v, a in zip(p.normals, p.offsets)]
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


def _recession_ray(p):
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


@lru_cache(maxsize=None)
def validate_delzant(p):
    """Full Delzant check; returns a report, never raises."""
    n, d = p.dim, p.nfacets
    reasons = []
    for i, v in enumerate(p.normals):
        if not any(v):
            reasons.append(f"RejectZeroNormal: facet {i + 1} normal is zero")
        elif gcd(*(abs(x) for x in v)) != 1:
            reasons.append(f"RejectNonPrimitiveNormal: facet {i + 1} normal {v}")
    if reasons:
        return DelzantReport(False, tuple(reasons), (), (), ())
    verts = enumerate_vertices(p)
    if not verts:
        if _rank(p.normals) < n and _feasible(p):
            reasons.append("RejectUnbounded: feasible region contains a line")
        else:
            reasons.append("RejectEmpty: no point satisfies all facet inequalities")
        return DelzantReport(False, tuple(reasons), (), (), ())
    ray = _recession_ray(p)
    if ray is not None:
        reasons.append(f"RejectUnbounded: recession direction {ray}")
        return DelzantReport(False, tuple(reasons), verts,
                             tuple(len(v.tight) for v in verts),
                             tuple(v.normal_det for v in verts))
    for v in verts:
        if len(v.tight) != n:
            reasons.append(f"RejectNonSimple: vertex {_coords_str(v.coords)} "
                           f"has {len(v.tight)} tight facets, expected {n}")
        elif v.normal_det not in (1, -1):
            reasons.append(f"RejectNonUnimodular: vertex {_coords_str(v.coords)} "
                           f"has |det| = {abs(v.normal_det)}")
    covered = set()
    for v in verts:
        covered.update(v.tight)
    for i in range(1, d + 1):
        if i not in covered:
            reasons.append(f"RejectRedundantFacet: facet {i} is tight at no vertex")
    return DelzantReport(not reasons, tuple(reasons), verts,
                         tuple(len(v.tight) for v in verts),
                         tuple(v.normal_det for v in verts))


def require_delzant(p):
    report = validate_delzant(p)
    if not report.ok:
        raise DelzantError(report)
    return report


def _mask(indices):
    """Bitmask of 1-based facet indices: bit i - 1 for facet i."""
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


def _is_face(mask, tight_masks):
    return any(mask & t == mask for t in tight_masks)


def face_nonempty(p, indices):
    """True iff some vertex is tight on all of ``indices`` (compact simple
    polytopes: every nonempty face contains a vertex)."""
    return _is_face(_mask(indices),
                    [_mask(v.tight) for v in enumerate_vertices(p)])


def primitive_collections(p):
    """Inclusion-minimal facet sets with empty common face, sorted lexicographically.

    Each vertex's tight set is a bitmask, computed once; a facet set is a
    face iff its mask lies inside some vertex's mask.
    """
    tight_masks = [_mask(v.tight) for v in require_delzant(p).vertices]
    d = p.nfacets
    out = []
    for size in range(2, d + 1):
        for idx in combinations(range(1, d + 1), size):
            mask = _mask(idx)
            if _is_face(mask, tight_masks):
                continue
            if any(not _is_face(mask & ~(1 << (i - 1)), tight_masks) for i in idx):
                continue
            out.append(idx)
    return tuple(sorted(out))


def batyrev_vector(p, indices):
    """The relation vector a with a = 1 on I, a <= 0 off I, sum a_k v_k = 0,
    whose negative support spans a nonempty face.

    w = sum_{i in I} v_i is expanded in every vertex's unimodular normal
    basis v_{i_1}..v_{i_n}; its coefficients are c_k = <w_k, w>, read off
    the vertex's edge directions (<w_k, v_{i_j}> = delta_kj), with no
    solve.  An expansion with nonnegative coefficients vanishing on I
    yields a candidate.  Vertex cones cover the fan, so the sweep is an
    exhaustive search over all candidates and certifies uniqueness.
    """
    report = require_delzant(p)
    d = p.nfacets
    iset = tuple(sorted(set(indices)))
    if not iset or any(not 1 <= i <= d for i in iset):
        raise ValueError(f"facet indices out of range: {indices}")
    w = tuple(sum(p.normals[i - 1][k] for i in iset) for k in range(p.dim))
    found = set()
    for v in report.vertices:
        c = [_dot(wk, w) for wk in v.edge_dirs]
        if any(x < 0 for x in c):
            continue
        if any(c[pos] != 0 for pos, i in enumerate(v.tight) if i in iset):
            continue
        a = [0] * d
        for i in iset:
            a[i - 1] = 1
        for pos, i in enumerate(v.tight):
            if c[pos]:
                a[i - 1] = -c[pos]
        found.add(tuple(a))
    if not found:
        raise NoBatyrevVectorError(
            f"no relation vector for collection {iset}; input is not Fano "
            f"or the facet convention is flipped")
    if len(found) > 1:
        raise NonUniqueBatyrevVectorError(
            f"collection {iset} admits {len(found)} relation vectors: {sorted(found)}")
    return found.pop()


def quantum_degree(pc):
    """m = |I| - sum of |a_k| over k off I; must be positive (Fano)."""
    m = len(pc.indices) - sum(-a for a in pc.batyrev if a < 0)
    if m <= 0:
        raise FanoViolationError(
            f"collection {pc.indices} has quantum degree {m} <= 0")
    return m


@lru_cache(maxsize=None)
def primitive_collection_data(p):
    """PrimitiveCollection records for every collection of p."""
    out = []
    for idx in primitive_collections(p):
        a = batyrev_vector(p, idx)
        pc = PrimitiveCollection(idx, a, 0)
        out.append(PrimitiveCollection(idx, a, quantum_degree(pc)))
    return tuple(out)


def morse_index_L(v, xi):
    """Number of edge directions at v pairing negatively with xi."""
    if v.edge_dirs is None:
        raise ValueError("vertex lacks edge directions (non-Delzant input)")
    idx = 0
    for w in v.edge_dirs:
        pairing = _dot(w, xi)
        if pairing == 0:
            raise NonGenericXiError(f"xi {tuple(xi)} pairs to zero with edge {w}")
        idx += pairing < 0
    return idx


def generic_xi(p):
    """Deterministic xi = (1, B, B^2, ...) with B above every |edge entry|.

    <w, xi> is then a base-B expansion with digits |w_j| < B, which
    vanishes only for w = 0; edge directions are nonzero, so xi is generic.
    """
    report = require_delzant(p)
    big = 1 + max(abs(e) for v in report.vertices for w in v.edge_dirs for e in w)
    return tuple(big ** k for k in range(p.dim))


def betti_numbers_L(p, xi=None):
    """Histogram of Morse indices over all vertices, b_0..b_n."""
    report = require_delzant(p)
    if xi is None:
        xi = generic_xi(p)
    b = [0] * (p.dim + 1)
    for v in report.vertices:
        b[morse_index_L(v, xi)] += 1
    return tuple(b)
