"""Seeded benchmark inputs, built without any code from ``toric_qh``.

A base polytope is a list of inward facets ``(normal, offset)`` with
integer normals and ``Fraction`` offsets in pi-units, plus the two
invariants the benchmark checks outputs against: its rank (number of
vertices = rank of the homology ring) and its mod-2 Betti vector.  Both
are derived compositionally (cpN, the blowup, products via Kuenneth), so
they share no code with the program.
"""

import json
from fractions import Fraction
from itertools import combinations


class Base:
    """A named polytope with its expected rank and Betti vector."""

    def __init__(self, name, dim, facets, betti):
        self.name = name
        self.dim = dim
        self.facets = tuple((tuple(v), Fraction(a)) for v, a in facets)
        self.betti = tuple(betti)
        self._collections = None

    @property
    def nfacets(self):
        return len(self.facets)

    @property
    def rank(self):
        return sum(self.betti)

    @property
    def collections(self):
        """Primitive collections as sets of 1-based facet indices."""
        if self._collections is None:
            self._collections = primitive_collections(self.dim, self.facets)
        return self._collections


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def cp(n):
    facets = [(tuple(int(i == k) for i in range(n)), 0) for k in range(n)]
    facets.append(((-1,) * n, -1))
    return Base(f"cp{n}", n, facets, (1,) * (n + 1))


def blowup_cp3():
    # one-point blowup of CP^3 in pi-units, inward convention
    facets = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
              ((0, 0, -1), Fraction(-1, 2)), ((-1, -1, -1), -1)]
    return Base("blowup_cp3", 3, facets, (1, 2, 2, 1))


def product(p, q, name=None):
    """Facets of p (padded with zeros) followed by those of q."""
    facets = [(v + (0,) * q.dim, a) for v, a in p.facets]
    facets += [((0,) * p.dim + w, b) for w, b in q.facets]
    return Base(name or f"{p.name}x{q.name}", p.dim + q.dim, facets,
                convolve(p.betti, q.betti))


def power(p, k):
    out = p
    for _ in range(k - 1):
        out = product(out, p)
    return Base(f"{p.name}^{k}", out.dim, out.facets, out.betti)


def named_bases():
    """Every base the workloads draw from, by name."""
    cps = {n: cp(n) for n in range(1, 13)}
    bl = blowup_cp3()
    bases = list(cps.values()) + [bl, product(cps[1], cps[1], "cp1xcp1")]
    bases += [product(cps[a], cps[b]) for a, b in
              ((1, 2), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3))]
    bases += [product(bl, cps[1]), product(bl, cps[2]), power(cps[1], 3),
              power(cps[1], 4), power(cps[2], 3), power(bl, 2),
              product(power(cps[1], 2), cps[2])]
    return {b.name: b for b in bases}


def translate(base, shift):
    """Facets of base + shift: <v, x + s> >= a + <v, s>."""
    return tuple((v, a + sum(x * s for x, s in zip(v, shift)))
                 for v, a in base.facets)


def random_shift(rng, dim, spread=5):
    return tuple(rng.randint(-spread, spread) for _ in range(dim))


def write_polytope(path, name, dim, facets):
    """Write the program's polytope file format, inward convention."""
    data = {"name": name, "dim": dim, "convention": "inward",
            "facets": [{"normal": list(v), "offset": [a.numerator, a.denominator]}
                       for v, a in facets]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _solve(rows, rhs):
    """Exact Gauss-Jordan solve; None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return tuple(row[n] for row in a)


def vertex_incidence(dim, facets):
    """For each vertex of {x : <v_i, x> >= a_i}, the set of 1-based indices
    of the facets through it; brute force over dim-subsets."""
    seen = {}
    for subset in combinations(facets, dim):
        x = _solve([v for v, _ in subset], [a for _, a in subset])
        if x is None or x in seen:
            continue
        values = [sum(c * y for c, y in zip(v, x)) - a for v, a in facets]
        if all(t >= 0 for t in values):
            seen[x] = frozenset(i + 1 for i, t in enumerate(values) if t == 0)
    return list(seen.values())


def primitive_collections(dim, facets):
    """Minimal sets of facets with no common vertex (minimal non-faces)."""
    faces = vertex_incidence(dim, facets)
    out = []
    for k in range(2, len(facets) + 1):
        for subset in combinations(range(1, len(facets) + 1), k):
            s = frozenset(subset)
            if not any(s <= f for f in faces) and not any(c < s for c in out):
                out.append(s)
    return out


def check_base(base):
    """Self-check a generated base; raises ValueError on a mismatch."""
    if base.name.startswith("cp") and base.name[2:].isdigit():
        if base.rank != int(base.name[2:]) + 1:
            raise ValueError(f"{base.name}: rank {base.rank} != N+1")
    got = len(vertex_incidence(base.dim, base.facets))
    if got != base.rank:
        raise ValueError(f"{base.name}: {got} vertices, expected rank {base.rank}")


def check_translate(base, shift, facets):
    """A translated copy keeps every normal and moves offsets by <v, s>."""
    for (v, a), (w, b) in zip(base.facets, facets):
        if v != w or b - a != sum(x * s for x, s in zip(v, shift)):
            raise ValueError(f"{base.name}: bad translate by {shift}")
    if len(facets) != base.nfacets:
        raise ValueError(f"{base.name}: facet count changed")
