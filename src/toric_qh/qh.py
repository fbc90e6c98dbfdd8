"""Ring presentations, Seidel elements, and certificates.

Builds one classical or quantum ring per Delzant polytope: that of the
real locus L, which the ambient space M shares with every degree doubled.
Computes Seidel elements of facet circle actions and their composites,
inverts elements over the Laurent coefficient ring, and emits the
cross-checks: Betti numbers against the quotient Hilbert function, the
M view of the quantum ring against the Morse sweep (psi), and
uniruledness certificates.
"""

from collections import namedtuple

from .errors import CrosscheckFailedError, NotInvertibleError
from .f2ring import (
    QHElement,
    QuotientRing,
    _tdiv_exact,
    _tmul,
    hilbert_function,
    rehomogenize,
)
from .polytope import (
    betti_numbers_L,
    primitive_collection_data,
    primitive_collections,
    require_delzant,
)


Presentation = namedtuple("Presentation", (
    "space",  # "L" | "M"
    "flavor",  # "classical" | "quantum"
    "nvars",
    "grading_unit",  # degree of q and of each X_i: 1 for L, 2 for M
    "linear_relations",
    "sr_relations",
))

SeidelElement = namedtuple("SeidelElement", (
    "element",  # QHElement
    "provenance",  # facet index or integer combination
))

UniruledCertificate = namedtuple("UniruledCertificate", (
    "witness",  # SeidelElement
    "inverse",  # QHElement, or None when inversion failed
    "fundamental_coefficient",  # frozenset: q-exponents on the unit class
    "verdict",  # "uniruled" | "inconclusive"
    "reason",
))

CrosscheckReport = namedtuple("CrosscheckReport", ("betti", "hilbert"))


def linear_relations(p):
    """One relation per coordinate: sum of X_i with odd normal entry.
    Relations here are in F2[X_1..X_d, t], monomials of d + 1 exponents
    with t last."""
    require_delzant(p)
    d = p.nfacets
    out = []
    for k in range(p.dim):
        rel = frozenset()
        for i in range(d):
            if p.normals[i][k] % 2:
                exps = [0] * (d + 1)
                exps[i] = 1
                rel ^= {tuple(exps)}
        out.append(rel)
    return tuple(out)


def classical_sr(p):
    """Squarefree monomial per primitive collection."""
    d = p.nfacets
    out = []
    for idx in primitive_collections(p):
        exps = [0] * (d + 1)
        for i in idx:
            exps[i - 1] = 1
        out.append(frozenset({tuple(exps)}))
    return tuple(out)


def quantum_sr(p):
    """Binomial per primitive collection I:
    prod_{i in I} X_i + prod_{j off I} X_j^{|a_j|} t^m."""
    d = p.nfacets
    out = []
    for pc in primitive_collection_data(p):
        left = [0] * (d + 1)
        for i in pc.indices:
            left[i - 1] = 1
        right = [max(-a, 0) for a in pc.batyrev] + [pc.m]
        out.append(frozenset({tuple(left), tuple(right)}))
    return tuple(out)


def build_ring(p, space="L", flavor="quantum"):
    """Quotient ring plus its presentation record.

    The ring does not depend on space: M is L with every degree doubled,
    so space only fills the presentation's display fields."""
    if space not in ("L", "M"):
        raise ValueError(f"space must be 'L' or 'M', got {space!r}")
    if flavor not in ("classical", "quantum"):
        raise ValueError(f"flavor must be 'classical' or 'quantum', got {flavor!r}")
    require_delzant(p)
    lin = linear_relations(p)
    sr = quantum_sr(p) if flavor == "quantum" else classical_sr(p)
    ring = QuotientRing(lin + sr, nvars=p.nfacets)
    pres = Presentation(space, flavor, p.nfacets, 1 if space == "L" else 2,
                        lin, sr)
    return ring, pres


def unit(ring):
    return QHElement({ring.basis[0]: frozenset({0})})


def element_from_monomial(ring, exps, qexp=0):
    """The class of X^exps q^qexp in the standard basis.

    A monomial of degree <= 1 is one normal form.  A higher one is the
    product of the generator classes X_j, each raised to its exponent by
    square-and-multiply, so X_j^k costs O(log k) products, not O(k)."""
    if len(exps) != ring.nvars or min(exps, default=0) < 0:
        raise ValueError(f"exponents {tuple(exps)} are not {ring.nvars} "
                         f"nonnegative integers")
    if sum(exps) <= 1:
        raw = frozenset({tuple(exps)})
        return rehomogenize(ring.normal_form(raw), sum(exps), ring).qshift(qexp)
    acc = None
    for j, k in enumerate(exps):
        if k:
            gen = element_from_monomial(
                ring, [int(i == j) for i in range(len(exps))])
            x = _power(ring, gen, k)
            acc = x if acc is None else multiply(ring, acc, x)
    return acc.qshift(qexp)


def multiply(ring, a, b):
    """Quantum product in the standard basis with exact q bookkeeping."""
    acc = {}
    for m1, s1 in a.coeffs.items():
        c1 = ring.cod[m1]
        for m2, s2 in b.coeffs.items():
            conv = set()
            for e1 in s1:
                for e2 in s2:
                    conv ^= {e1 + e2}
            c12 = c1 + ring.cod[m2]
            for m3 in ring.nf_mono_mul(m1, m2):
                shift = ring.cod[m3] - c12
                cur = acc.setdefault(m3, set())
                for e in conv:
                    cur ^= {e + shift}
    return QHElement(acc)


def invert(ring, a):
    """Inverse of a, or NotInvertibleError.

    The multiplication matrix over the Laurent ring is cleared to F2[t]
    by a global t^E, E the largest q-exponent of either sign, so each
    entry's mask is as wide as the exponents' spread.  One fraction-free
    Gauss-Jordan pass (Bareiss) over [M | e_0] leaves det M as the last
    pivot and the Cramer numerators det(M with column j replaced by e_0)
    in the last column.  a is a unit iff det M is a single power t^k; the
    numerators then give the inverse exactly, and the product with a is
    checked against the unit.
    """
    r = ring.dim
    cols = [multiply(ring, a, QHElement({m: frozenset({0})}))
            for m in ring.basis]
    exps = [e for col in cols for s in col.coeffs.values() for e in s]
    big = max(exps, default=0)
    index = {m: i for i, m in enumerate(ring.basis)}
    mat = [[0] * r + [int(i == 0)] for i in range(r)]
    for j, col in enumerate(cols):
        for m, s in col.coeffs.items():
            mat[index[m]][j] = sum(1 << (big - e) for e in s)
    d = 1  # the previous pivot; det M once the pass completes
    for k in range(r):
        for i in range(k, r):
            if mat[i][k]:
                mat[k], mat[i] = mat[i], mat[k]  # characteristic 2: swaps are free
                break
        else:
            d = 0
            break
        pivot_row = mat[k]
        piv = pivot_row[k]
        for i in range(r):
            if i == k:
                continue
            row = mat[i]
            lead = row[k]
            row[k] = 0
            for j in range(k + 1, r + 1):
                num = _tmul(piv, row[j]) if row[j] else 0
                if lead and pivot_row[j]:
                    num ^= _tmul(lead, pivot_row[j])
                row[j] = _tdiv_exact(num, d) if num else 0
        d = piv
    if d == 0 or d & (d - 1):
        raise NotInvertibleError(
            "determinant of the multiplication matrix is not a unit "
            f"({d.bit_count()} terms)")
    k = d.bit_length() - 1
    coeffs = {}
    for m, row in zip(ring.basis, mat):
        dj = row[r]
        out = {k - big - b for b in range(dj.bit_length()) if dj >> b & 1}
        if out:
            coeffs[m] = out
    x = QHElement(coeffs)
    if multiply(ring, a, x) != unit(ring):
        raise NotInvertibleError("candidate inverse failed verification")
    return x


def _facet_element(ring, j):
    exps = [0] * ring.nvars
    exps[j - 1] = 1
    return element_from_monomial(ring, exps, qexp=1)


def seidel_facet(ring, j):
    """Seidel element of the facet-j half rotation: X_j q, verified invertible.

    The first call on a ring builds every S_k = X_k q and inverts their
    product P once, keeping P^-1.  In a commutative ring a product is a
    unit iff every factor is, so that one inversion verifies all d facets;
    if P is not a unit, no facet of the ring is verified and every call
    raises NotInvertibleError.  seidel_inverse derives each S_k^-1 from
    P^-1 on demand.
    """
    key = ("seidel", j)
    if key not in ring.cache:
        if not 1 <= j <= ring.nvars:
            raise ValueError(f"facet index {j} out of range")
        facets = [_facet_element(ring, k) for k in range(1, ring.nvars + 1)]
        prod = unit(ring)
        for el in facets:
            prod = multiply(ring, prod, el)
        ring.cache["seidel_product_inv"] = invert(ring, prod)
        for k, el in enumerate(facets, start=1):
            ring.cache[("seidel", k)] = SeidelElement(el, k)
    return ring.cache[key]


def seidel_inverse(ring, j):
    """S_j^-1 = P^-1 * prod_{k != j} S_k, checked against the unit."""
    key = ("seidel_inv", j)
    if key not in ring.cache:
        s = seidel_facet(ring, j).element
        inv = ring.cache["seidel_product_inv"]
        for k in range(1, ring.nvars + 1):
            if k != j:
                inv = multiply(ring, inv, ring.cache[("seidel", k)].element)
        if multiply(ring, s, inv) != unit(ring):
            raise NotInvertibleError(
                "derived facet inverse failed verification")
        ring.cache[key] = inv
    return ring.cache[key]


def _power(ring, x, k):
    """x^k for k >= 1 by square-and-multiply: O(log k) products, and
    k - 1 of them for k <= 3."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else multiply(ring, out, x)
        k >>= 1
        if not k:
            return out
        x = multiply(ring, x, x)


def seidel_composite(ring, c):
    """Product of facet Seidel elements with integer multiplicities."""
    c = tuple(int(x) for x in c)
    if len(c) != ring.nvars:
        raise ValueError(f"combination length {len(c)} != {ring.nvars} facets")
    acc = unit(ring)
    for j, cj in enumerate(c, start=1):
        if cj == 0:
            continue
        factor = seidel_facet(ring, j).element if cj > 0 \
            else seidel_inverse(ring, j)
        acc = multiply(ring, acc, _power(ring, factor, abs(cj)))
    return SeidelElement(acc, c)


def verify_seidel_relation(ring, pc):
    """Product over I of S_j equals the Batyrev-weighted product off I."""
    on_i = [int(j in pc.indices) for j in range(1, ring.nvars + 1)]
    off_i = [max(-a, 0) for a in pc.batyrev]
    return seidel_composite(ring, on_i).element == \
        seidel_composite(ring, off_i).element


def verify_psi(p, ring):
    """The M view of the quantum ring holds b_k(L) from the Morse sweep
    in degree 2k and nothing in odd degrees: the quantum deformation is
    flat, with the rank and grading the polytope predicts."""
    want = [0] * (2 * p.dim + 1)
    want[::2] = betti_numbers_L(p)
    return scaled_hilbert(ring, 2) == tuple(want)


def uniruled_certificate(ring):
    """Invertible Seidel witness S_1 with no fundamental-class term."""
    witness = SeidelElement(_facet_element(ring, 1), 1)
    fundamental = witness.element.coeffs.get(ring.basis[0], frozenset())
    try:
        inv = seidel_inverse(ring, 1)
    except NotInvertibleError as err:
        return UniruledCertificate(witness, None, fundamental,
                                   "inconclusive", str(err))
    if fundamental:
        return UniruledCertificate(witness, inv, fundamental, "inconclusive",
                                   "witness carries a fundamental-class term")
    return UniruledCertificate(witness, inv, fundamental, "uniruled", None)


def scaled_hilbert(ring, unit=1):
    """Hilbert function in display degrees: cod c counts in degree
    c * unit (2 for the M view)."""
    h = hilbert_function(ring)
    if not h:
        return ()
    dims = [0] * (unit * (len(h) - 1) + 1)
    dims[::unit] = h
    return tuple(dims)


def betti_crosscheck(p):
    """Morse-index histogram vs the classical quotient Hilbert function."""
    ring_l, _ = build_ring(p, "L", "classical")
    h = hilbert_function(ring_l)
    b = betti_numbers_L(p)
    if tuple(reversed(h)) != tuple(b):
        raise CrosscheckFailedError(
            "classical Hilbert function (reversed) differs from the "
            "Morse-index histogram", tuple(reversed(h)), tuple(b))
    return CrosscheckReport(tuple(b), h)


def min_quantum_degree(p):
    """Smallest quantum degree over primitive collections; None if there
    are no collections."""
    data = primitive_collection_data(p)
    if not data:
        return None
    return min(pc.m for pc in data)
