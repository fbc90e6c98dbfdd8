"""Delzant moment polytopes.

Validation, vertex and face combinatorics, primitive collections with
their lattice relation (Batyrev) vectors and quantum degrees, and the
Morse-theoretic Betti numbers of the real locus.

The internal facet convention is inward: the polytope is
{f : <f, normal_i> >= offset_i}.  Offsets are exact rationals in
pi-units.  Facet indices are 1-based everywhere they are reported.
"""

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .errors import (
    DelzantError,
    FanoViolationError,
    NoBatyrevVectorError,
    NonGenericXiError,
    NonUniqueBatyrevVectorError,
)
from .exact_linalg import (
    _gauss_jordan,
    hermite_normal_form,
    identity,
    transpose,
)


@dataclass(frozen=True)
class Polytope:
    """Facet model with inward normals; construct via ``from_facets``."""

    dim: int
    normals: tuple  # of int tuples, inward
    offsets: tuple  # of Fractions, pi-units
    # derived data (vertices, reports, collections), freed with the polytope
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

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


def _dot(v, x):
    return sum(map(mul, v, x))


def _coords_str(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _memoized(fn):
    """Keep fn(p) in p's own memo, so it is computed once per polytope
    and freed with it."""
    @wraps(fn)
    def cached(p):
        try:
            return p._memo[fn]
        except KeyError:
            out = p._memo[fn] = fn(p)
            return out
    return cached


def _scaled_offsets(p):
    """(L, L * offsets), with L the lcm of the offset denominators."""
    scale = lcm(*(a.denominator for a in p.offsets))
    return scale, [a.numerator * (scale // a.denominator) for a in p.offsets]


def _subset_solutions(p):
    """Feasible solutions of the nonsingular dim-subsets of facet equations,
    in integers, in ``combinations`` order, with repeats.

    With L and the scaled offsets from ``_scaled_offsets``, each
    dim-subset S gets one fraction-free elimination of
    [V_S | I | L*a_S], which gives D = det V_S, adj V_S and X = D*L*x
    for the solution x of V_S x = a_S.  x is feasible iff every slack
    sign(D) * (<v_k, X> - D*L*a_k) = |D|*L*(<v_k, x> - a_k) is >= 0,
    and facet k is tight at x iff its slack is 0.  Yields
    (S, D, X, slacks, adj V_S) for each feasible x.
    """
    n = p.dim
    eye = identity(n)
    _, offs = _scaled_offsets(p)
    for subset in combinations(range(p.nfacets), n):
        vdet, sol = _gauss_jordan([p.normals[i] for i in subset],
                                  [eye[j] + (offs[i],)
                                   for j, i in enumerate(subset)])
        if not vdet:
            continue
        xs = [row[n] for row in sol]
        sign = 1 if vdet > 0 else -1
        slack = []
        for v, b in zip(p.normals, offs):
            s = sign * (_dot(v, xs) - vdet * b)
            if s < 0:
                break
            slack.append(s)
        else:
            yield subset, vdet, xs, slack, [row[:n] for row in sol]


def _edge_dirs(vdet, adj):
    """For |det V| = 1, V^-1 = det(V) * adj V is integral; its columns are
    the edge directions w_j, V * w_j = e_j."""
    return [[vdet * row[j] for row in adj] for j in range(len(adj))]


def _sweep_vertices(p):
    """Vertices from every feasible subset solution; coincident solutions
    merge.  Handles any input, so it is the edge walk's fallback.

    A vertex is named by its tight set, the zero slacks, which contains
    an independent dim-subset and so fixes the point.  A simple vertex is
    tight on the one subset that yields it, whose elimination already
    gives det V and, when |det V| = 1, the edge directions.
    """
    n = p.dim
    scale, _ = _scaled_offsets(p)
    found = {}
    for _, vdet, xs, slack, adj in _subset_solutions(p):
        tight = tuple(k + 1 for k, s in enumerate(slack) if s == 0)
        if tight in found:
            continue
        ndet = dirs = None
        if len(tight) == n:
            ndet = vdet
            if vdet in (1, -1):
                dirs = tuple(map(tuple, _edge_dirs(vdet, adj)))
        coords = tuple(Fraction(x, vdet * scale) for x in xs)
        found[tight] = Vertex(coords, tight, ndet, dirs)
    return tuple(sorted(found.values(), key=lambda v: v.coords))


@_memoized
def _walk_vertices(p):
    """Vertices by walking the edges of a simple unimodular polytope, ()
    when no dim-subset has a feasible solution, or None when the walk
    cannot vouch for its answer.

    Avis-Fukuda pivoting (DCG 8, 1992) on one integer tableau, kept in
    integers from start to output.  Its columns are the d facet normals
    followed by the n coordinate functionals e_1..e_n.  With L the lcm of
    the offset denominators, a vertex carries its sorted tight facets, its
    signed det V, a base row [slack_k | X], with X = L*x and
    slack_k = <v_k, X> - L*a_k, and one row [r_jk | w_j] per edge
    direction w_j, with r_jk = <v_k, w_j>.  The start is the first
    feasible solution of a dim-subset of facet equations
    (``_subset_solutions``); its pairings with its own tight facets are
    delta_jk, since V * W = I, so only the other d - n are computed.
    Leaving along w_i, the first facet k to block it (least
    slack_k / -r_ik over r_ik < 0, by cross-multiplication) swaps in for
    facet i.  Since det V' = det(V) * r_ik (determinant lemma), the next
    vertex is unimodular iff r_ik = -1, and then the pivot is one rank-1
    update of the tableau: base += slack_k * row_i, row_i := -row_i and
    row_j += r_jk * row_i.  Returns None, so that the caller falls back
    to the sweep, when the start vertex is not simple and unimodular, an
    edge has no blocking facet (unbounded), the ratio test ties (the next
    vertex is not simple) or r_ik != -1 (not unimodular).  Vertices are
    sorted on X; Fractions are built once, for the output.
    """
    n, d = p.dim, p.nfacets
    scale, _ = _scaled_offsets(p)
    start = next(_subset_solutions(p), None)
    if start is None:
        return ()
    subset, vdet, xs, slack, adj = start
    # a simple vertex is tight on its own subset alone
    if slack.count(0) != n or vdet not in (1, -1):
        return None
    place = {k: j for j, k in enumerate(subset)}
    rows = [[int(place[k] == j) if k in place else _dot(v, w)
             for k, v in enumerate(p.normals)] + w
            for j, w in enumerate(_edge_dirs(vdet, adj))]
    base = slack + [vdet * c for c in xs]
    tight = list(subset)
    todo = [(tight, vdet, base, rows)]
    # facet k is column k and bit k of a vertex's or an edge's mask
    seen = {sum(1 << k for k in tight)}
    # edges by their n-1 tight facets: an edge is walked from one end only,
    # since from the other end its ratio test blocks at the (simple) first
    # end, uniquely and with r = -1
    followed = set()
    out = [(base[d:], tight, vdet, rows)]
    while todo:
        tight, vdet, base, rows = todo.pop()
        mask = sum(1 << k for k in tight)
        for i in range(n):
            edge = mask & ~(1 << tight[i])
            if edge in followed:
                continue
            followed.add(edge)
            r = rows[i]
            k, tie = None, False
            for j in [j for j in range(d) if r[j] < 0]:
                if k is None or base[j] * -r[k] < base[k] * -r[j]:
                    k, tie = j, False
                elif base[j] * -r[k] == base[k] * -r[j]:
                    tie = True
            if k is None or tie or r[k] != -1:
                return None
            if edge | 1 << k in seen:
                continue
            seen.add(edge | 1 << k)
            # rows that pair to zero with facet k are unchanged and shared;
            # no row is mutated in place
            step, col = base[k], [rj[k] for rj in rows]
            nrows = [[a + c * b for a, b in zip(rj, r)] if c else rj
                     for rj, c in zip(rows, col)]
            # facet k takes position i, where det V' = -det V, then moves
            # to its sorted position; each place it passes flips the sign
            ntight = tight[:i] + tight[i + 1:]
            pos = bisect(ntight, k)
            ntight.insert(pos, k)
            del nrows[i]
            nrows.insert(pos, [-b for b in r])
            nbase = [a + step * b for a, b in zip(base, r)]
            nvdet = vdet if (pos - i) % 2 else -vdet
            todo.append((ntight, nvdet, nbase, nrows))
            out.append((nbase[d:], ntight, nvdet, nrows))
    out.sort()
    # coordinates repeat across vertices: each Fraction is built once
    frac = {c: Fraction(c, scale) for c in set().union(*(v[0] for v in out))}
    return tuple(Vertex(tuple(map(frac.get, xs)),
                        tuple(t + 1 for t in tight), vdet,
                        tuple(tuple(row[d:]) for row in rows))
                 for xs, tight, vdet, rows in out)


@_memoized
def enumerate_vertices(p):
    """All vertices, deterministically ordered by coordinates.

    A simple polytope whose vertices are all unimodular is enumerated by
    an integer edge walk (``_walk_vertices``) from the first feasible
    solution of a dim-subset of facet equations, with work proportional
    to its edges rather than to the C(d, n) facet subsets.  Any other
    input with a vertex falls back to the sweep over every dim-subset
    (``_sweep_vertices``), so reports on rejected inputs are unchanged.
    The result is kept on p, like validation and primitive collections.
    Each vertex records its full tight set, and, when simple, det V of
    its tight normal matrix; when |det V| = 1 also its edge directions
    w_j, the columns of V^-1 (V * w_j = e_j).
    """
    walked = _walk_vertices(p)
    return _sweep_vertices(p) if walked is None else walked


def _contains_line(p):
    """Whether a region with no vertex is nonempty, so contains a line.

    The HNF h = u * V^T gives the rank r of the normals, and x = u^T z
    maps the region onto {z : h^T z >= a}, which reads only z_1..z_r.
    For r = n the region is pointed, so it is empty; else its rank-r
    image is pointed, and nonempty iff the image has a vertex.
    """
    if not p.normals:
        return True  # no facets: the whole space
    h, _ = hermite_normal_form(transpose(p.normals))
    r = sum(1 for row in h if any(row))
    if r == p.dim:
        return False
    image = Polytope(r, tuple(zip(*h[:r])), p.offsets)
    return next(_subset_solutions(image), None) is not None


def _recession_ray(p):
    """A nonzero integer y with <y, v_i> >= 0 for every facet, or None.

    Valid once a vertex exists: the recession cone is then pointed, so it
    is nonzero iff it has an extreme ray, and every extreme ray lies on
    n-1 independent normals.  Each (n-1)-subset S gives one elimination
    of [s; V_S] * y = e_1, s = sum v_i, which pairs positively with every
    recession direction; its primitive y, signed by det, is the only
    candidate on the line V_S * y = 0.
    """
    n = p.dim
    s = [sum(col) for col in zip(*p.normals)]
    e1 = [(int(j == 0),) for j in range(n)]
    for subset in combinations(p.normals, n - 1):
        vdet, sol = _gauss_jordan([s, *subset], e1)
        if not vdet:
            continue
        g = gcd(*(row[0] for row in sol))
        y = tuple(row[0] // (g if vdet > 0 else -g) for row in sol)
        if all(_dot(v, y) >= 0 for v in p.normals):
            return y
    return None


@_memoized
def validate_delzant(p):
    """Full Delzant check; returns a report, never raises.

    Checks, in order: primitive nonzero normals; a vertex exists (else
    empty, or unbounded along a line); bounded; every vertex simple and
    unimodular; every facet tight somewhere.  When the edge walk
    enumerated the vertices it has already certified boundedness and
    the simple unimodular cones, and only the facet cover is left.
    """
    n, d = p.dim, p.nfacets
    reasons = []
    for i, v in enumerate(p.normals):
        if not any(v):
            reasons.append(f"RejectZeroNormal: facet {i + 1} normal is zero")
        elif gcd(*(abs(x) for x in v)) != 1:
            reasons.append(f"RejectNonPrimitiveNormal: facet {i + 1} normal {v}")
    if reasons:
        return DelzantReport(False, tuple(reasons), ())
    verts = enumerate_vertices(p)
    if not verts:
        if _contains_line(p):
            reasons.append("RejectUnbounded: feasible region contains a line")
        else:
            reasons.append("RejectEmpty: no point satisfies all facet inequalities")
        return DelzantReport(False, tuple(reasons), ())
    # A completed edge walk left every vertex along bounded edges only.
    # The region is pointed (it has a vertex), and on a pointed polyhedron
    # an unbounded linear objective always leaves some vertex along an
    # unbounded edge, so the polytope is bounded: _recession_ray is None.
    ray = None if _walk_vertices(p) is not None else _recession_ray(p)
    if ray is not None:
        reasons.append(f"RejectUnbounded: recession direction {ray}")
        return DelzantReport(False, tuple(reasons), verts)
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
    return DelzantReport(not reasons, tuple(reasons), verts)


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


def face_nonempty(p, indices):
    """True iff some vertex is tight on all of ``indices`` (compact simple
    polytopes: every nonempty face contains a vertex)."""
    mask = _mask(indices)
    return any(mask & _mask(v.tight) == mask for v in enumerate_vertices(p))


def primitive_collections(p):
    """Inclusion-minimal facet sets with empty common face, sorted lexicographically.

    A facet set is a face iff it lies inside some vertex's tight set T_v,
    so the non-faces are the sets meeting every complement [d] \\ T_v and
    the primitive collections are the minimal such transversals.  Berge's
    incremental dualization (Hypergraphs, 1989) builds them on bitmasks,
    one complement C at a time: transversals meeting C are kept, each
    other one grows by one element of C, and a grown set containing a
    kept one is dropped.  The work follows the number of collections
    (one for cpN), not the 2^d facet subsets.
    """
    d = p.nfacets
    full = (1 << d) - 1
    found = [0]
    for v in require_delzant(p).vertices:
        comp = full & ~_mask(v.tight)
        kept = [t for t in found if t & comp]
        grown = [t | 1 << e for t in found if not t & comp
                 for e in range(d) if comp >> e & 1]
        found = kept + [g for g in grown if not any(k & g == k for k in kept)]
    return tuple(sorted(tuple(i + 1 for i in range(d) if t >> i & 1)
                        for t in found))


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


@_memoized
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


@_memoized
def generic_xi(p):
    """Deterministic xi = (1, B, B^2, ...) with B above every |edge entry|.

    <w, xi> is then a base-B expansion with digits |w_j| < B, which
    vanishes only for w = 0; edge directions are nonzero, so xi is generic.
    """
    report = require_delzant(p)
    big = 1 + max(abs(e) for v in report.vertices for w in v.edge_dirs for e in w)
    return tuple(big ** k for k in range(p.dim))


def betti_numbers_L(p, xi=None):
    """Histogram of Morse indices over all vertices, b_0..b_n.

    The histogram for the default ``generic_xi`` is kept on p; an
    explicit xi is always swept afresh."""
    if xi is None:
        return _default_betti(p)
    report = require_delzant(p)
    b = [0] * (p.dim + 1)
    for v in report.vertices:
        b[morse_index_L(v, xi)] += 1
    return tuple(b)


@_memoized
def _default_betti(p):
    return betti_numbers_L(p, generic_xi(p))
