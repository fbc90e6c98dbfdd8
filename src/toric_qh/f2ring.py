"""Polynomial algebra over the two-element field with a grading variable.

Monomials carry exponents for variables X_1..X_d plus a power of t,
where t stands for q^-1 and has degree +1, so every relation used
downstream is homogeneous with nonnegative t-exponents.  Coefficient
arithmetic is boolean: a polynomial is the set of its monomials and
addition is symmetric difference.

Monomial order is graded reverse lexicographic with X_1 > ... > X_d > t.
Putting t last makes saturation at t a division-by-t fixpoint on reduced
bases and keeps every output deterministic.
"""

from dataclasses import dataclass
from itertools import product as iter_product

from .errors import InfiniteDimensionalError, NonHomogeneousGeneratorError


def mono(exps, tdeg=0):
    exps = tuple(int(e) for e in exps)
    if any(e < 0 for e in exps) or tdeg < 0:
        raise ValueError("monomial exponents must be nonnegative")
    return (exps, int(tdeg))


def mono_cod(m):
    exps, tdeg = m
    return sum(exps) + tdeg


def mono_mul(a, b):
    return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1])


def mono_divides(a, b):
    """True iff a divides b."""
    return a[1] <= b[1] and all(x <= y for x, y in zip(a[0], b[0]))


def mono_div(b, a):
    """b / a; caller guarantees divisibility."""
    return (tuple(y - x for x, y in zip(a[0], b[0])), b[1] - a[1])


def grevlex_key(m):
    """Sort key; larger key = larger monomial."""
    exps, tdeg = m
    return (sum(exps) + tdeg, -tdeg) + tuple(-e for e in reversed(exps))


def lm(f):
    return max(f, key=grevlex_key)


def poly_add(a, b):
    return a ^ b


def poly_mul(a, b):
    out = frozenset()
    for m1 in a:
        out ^= frozenset(mono_mul(m1, m2) for m2 in b)
    return out


def _tmul(a, b):
    """Product in F2[t] of int bitmasks (bit k is the coefficient of t^k):
    carry-less, one shift per set bit of the sparser factor."""
    if a.bit_count() < b.bit_count():
        a, b = b, a
    res = 0
    while b:
        low = b & -b
        res ^= a << (low.bit_length() - 1)
        b ^= low
    return res


def _tdivmod(a, b):
    """Quotient and remainder of a by b != 0; deg(remainder) < deg(b)."""
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _tdiv_exact(a, b):
    q, r = _tdivmod(a, b)
    if r:
        raise ArithmeticError("inexact division in F2[t]")
    return q


def one(nvars):
    return frozenset({((0,) * nvars, 0)})


def xvar(i, nvars, power=1):
    """X_i^power as a polynomial; i is 1-based."""
    exps = [0] * nvars
    exps[i - 1] = power
    return frozenset({(tuple(exps), 0)})


def tpow(k, nvars):
    return frozenset({((0,) * nvars, k)})


def is_homogeneous(f):
    return len({mono_cod(m) for m in f}) <= 1


def dehomogenize(f):
    """Set t = 1; colliding monomials cancel in pairs."""
    out = frozenset()
    for exps, _ in f:
        out ^= {(exps, 0)}
    return out


def s_poly(f, g):
    lf, lg = lm(f), lm(g)
    lcm = (tuple(max(x, y) for x, y in zip(lf[0], lg[0])), max(lf[1], lg[1]))
    return poly_mul(frozenset({mono_div(lcm, lf)}), f) ^ \
        poly_mul(frozenset({mono_div(lcm, lg)}), g)


def reduce_poly(f, gens, chooser=None):
    """Full normal form of f modulo gens.

    chooser picks the next (monomial, generator index) reduction from the
    candidate list (sorted by descending monomial, ascending index);
    default takes the first.  The result is chooser-independent once gens
    is a Groebner basis, which the confluence tests exercise.
    """
    gens = [g for g in gens if g]
    lms = [lm(g) for g in gens]
    cur = f
    while True:
        cands = [(m, k) for m in cur for k, l in enumerate(lms)
                 if mono_divides(l, m)]
        if not cands:
            return cur
        cands.sort(key=lambda c: (grevlex_key(c[0]), -c[1]), reverse=True)
        m, k = cands[0] if chooser is None else chooser(cands)
        q = frozenset({mono_div(m, lms[k])})
        cur ^= poly_mul(q, gens[k])


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple  # F2Polys, descending by leading monomial
    order: str
    reduced: bool
    nvars: int


def _minimalize(basis):
    # ascending by leading monomial; a kept LM can then only divide later ones
    srt = sorted(basis, key=lambda g: grevlex_key(lm(g)))
    kept = []
    for g in srt:
        if any(mono_divides(lm(h), lm(g)) for h in kept):
            continue
        kept.append(g)
    return kept


def buchberger(gens, nvars=None, enforce_homogeneous=True):
    """Reduced Groebner basis, deterministic in the input sequence.

    Public callers feed cod-homogeneous ideals (required for exact
    q-power bookkeeping); the quotient-ring internals disable the check
    for the dehomogenized ideal.
    """
    gens = [frozenset(g) for g in gens if g]
    if nvars is None:
        nvars = len(next(iter(gens[0]))[0]) if gens else 0
    for g in gens:
        for exps, _ in g:
            if len(exps) != nvars:
                raise ValueError("mixed variable counts in generators")
        if enforce_homogeneous and not is_homogeneous(g):
            raise NonHomogeneousGeneratorError(
                f"generator {sorted(g)} is not homogeneous in the cod grading")
    basis = list(gens)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        li, lj = lm(basis[i]), lm(basis[j])
        lcm = (tuple(max(x, y) for x, y in zip(li[0], lj[0])), max(li[1], lj[1]))
        if lcm == mono_mul(li, lj):  # coprime leading monomials
            continue
        r = reduce_poly(s_poly(basis[i], basis[j]), basis)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    kept = _minimalize(basis)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced.append(reduce_poly(g, others))
    reduced.sort(key=lambda g: grevlex_key(lm(g)), reverse=True)
    return GroebnerBasis(tuple(reduced), "grevlex", True, nvars)


def saturate_t(gb):
    """Groebner basis of (I : t^infinity).

    Strips the maximal t-power from every generator and recomputes the
    basis until nothing changes.  With t last in grevlex this converges
    and the fixpoint ideal equals its own t-quotient.
    """
    gens = list(gb.generators)
    while True:
        stripped = []
        for g in gens:
            k = min(td for _, td in g)
            stripped.append(frozenset((e, td - k) for e, td in g) if k else g)
        new = list(buchberger(stripped, nvars=gb.nvars,
                              enforce_homogeneous=False).generators)
        if set(new) == set(gens):
            return GroebnerBasis(tuple(new), gb.order, True, gb.nvars)
        gens = new


class QuotientRing:
    """F2[X_1..X_d][q^-1,q] modulo a cod-homogeneous ideal.

    The working representation is the dehomogenized (t=1) quotient with
    q-powers reconstructed from the grading deficit; the saturated
    homogeneous basis is kept alongside as a cross-check oracle.
    cod_unit is display metadata (1: degrees as-is, 2: doubled).
    """

    def __init__(self, generators, nvars, cod_unit=1):
        self.nvars = nvars
        self.cod_unit = cod_unit
        self.generators = tuple(frozenset(g) for g in generators if g)
        self.hom_gb = saturate_t(buchberger(self.generators, nvars=nvars))
        self.gb = buchberger([dehomogenize(g) for g in self.generators],
                             nvars=nvars, enforce_homogeneous=False)
        self.basis = self._standard_monomials()
        self.dim = len(self.basis)
        self.cod = {m: mono_cod(m) for m in self.basis}
        self._nf_cache = {}
        self._mul_cache = {}
        self.cache = {}

    def _standard_monomials(self):
        lms = [lm(g) for g in self.gb.generators]
        caps = []
        for i in range(self.nvars):
            pure = [l[0][i] for l in lms
                    if l[1] == 0 and all(e == 0 for k, e in enumerate(l[0]) if k != i)]
            if not pure:
                raise InfiniteDimensionalError(
                    f"no pure power of X{i + 1} among leading monomials; "
                    f"quotient has infinite rank")
            caps.append(min(pure))
        out = []
        for exps in iter_product(*(range(c) for c in caps)):
            m = (exps, 0)
            if any(mono_divides(l, m) for l in lms):
                continue
            out.append(m)
        out.sort(key=lambda m: (mono_cod(m), grevlex_key(m)))
        return tuple(out)

    def normal_form(self, f):
        f = dehomogenize(frozenset(f))
        hit = self._nf_cache.get(f)
        if hit is None:
            hit = self._nf_cache[f] = reduce_poly(f, self.gb.generators)
        return hit

    def nf_mono_mul(self, m1, m2):
        key = (m1, m2) if m1 <= m2 else (m2, m1)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = self.normal_form(
                frozenset({mono_mul(m1, m2)}))
        return hit


def normal_form(f, ring):
    return ring.normal_form(f)


def standard_basis(ring):
    return ring.basis


def hilbert_function(ring):
    """Counts of standard monomials per cod, from 0 upward."""
    if not ring.basis:
        return ()
    top = max(ring.cod.values())
    dims = [0] * (top + 1)
    for m in ring.basis:
        dims[ring.cod[m]] += 1
    return tuple(dims)


class QHElement:
    """Module element: standard basis monomial -> set of q-exponents.

    homogeneous_cod, when set, asserts cod(m) - e is constant over the
    support; it is maintained exactly through products and shifts.
    """

    __slots__ = ("coeffs", "homogeneous_cod")

    def __init__(self, coeffs, homogeneous_cod=None):
        clean = {}
        for m, exps in coeffs.items():
            exps = frozenset(exps)
            if not exps:
                continue
            if homogeneous_cod is not None:
                for e in exps:
                    if mono_cod(m) - e != homogeneous_cod:
                        raise ValueError(
                            f"monomial {m} with q^{e} breaks cod "
                            f"{homogeneous_cod}")
            clean[m] = exps
        self.coeffs = clean
        self.homogeneous_cod = homogeneous_cod

    def is_zero(self):
        return not self.coeffs

    def qshift(self, k):
        hom = None if self.homogeneous_cod is None else self.homogeneous_cod - k
        return QHElement({m: frozenset(e + k for e in s)
                          for m, s in self.coeffs.items()}, hom)

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, s in other.coeffs.items():
            merged = out.get(m, frozenset()) ^ s
            if merged:
                out[m] = merged
            else:
                out.pop(m, None)
        hom = self.homogeneous_cod
        if hom is None or other.homogeneous_cod != hom:
            hom = None
        return QHElement(out, hom)

    def __eq__(self, other):
        return isinstance(other, QHElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((m, s) for m, s in self.coeffs.items()))

    def __repr__(self):
        terms = sorted(((m, tuple(sorted(s))) for m, s in self.coeffs.items()),
                       key=lambda p: grevlex_key(p[0]), reverse=True)
        return f"QHElement({terms}, cod={self.homogeneous_cod})"


def rehomogenize(f, source_cod, ring):
    """Lift a normal form back to exact q-powers.

    Each standard monomial m receives q-exponent cod(m) - source_cod;
    exact because the ideal is cod-homogeneous.
    """
    coeffs = {}
    for m in f:
        if m not in ring.cod:
            raise ValueError(f"monomial {m} is not a standard monomial")
        coeffs[m] = frozenset({ring.cod[m] - source_cod})
    return QHElement(coeffs, source_cod)
