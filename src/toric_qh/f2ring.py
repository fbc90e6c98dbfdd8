"""Polynomial algebra over the two-element field.

A monomial is a plain tuple of exponents, a polynomial the frozenset of
its monomials, and addition symmetric difference.  The homogeneous
relations live in F2[X_1..X_d, t], t = q^-1 of degree +1, with t the
last of their d + 1 exponents; the t = 1 working ring (its basis, normal
forms and QHElement keys) has d exponents and no t.

Monomial order is grevlex, first variable largest: X_1 > ... > X_d > t.
Putting t last makes saturation at t a division-by-t fixpoint on reduced
bases and keeps every output deterministic.  The Groebner engine knows
no t: its variable count is the tuple length.
"""

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product as iter_product
from operator import add, lshift

from ._value import Value
from .errors import InfiniteDimensionalError, NonHomogeneousGeneratorError


def grevlex_key(m):
    """Sort key; larger key = larger monomial."""
    return (sum(m),) + tuple(-e for e in reversed(m))


def lm(f):
    return max(f, key=grevlex_key)


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


def is_homogeneous(f):
    return len({sum(m) for m in f}) <= 1


def _require_homogeneous(g):
    if not is_homogeneous(g):
        raise NonHomogeneousGeneratorError(
            f"generator {sorted(g)} is not homogeneous in the cod grading")


def dehomogenize(f):
    """Set t = 1, dropping the last exponent; colliding monomials cancel
    in pairs."""
    out = frozenset()
    for m in f:
        out ^= {m[:-1]}
    return out


def _homogenize(f):
    """Append to each monomial of f the power of t that lifts it to the
    top degree of f."""
    top = _top_degree([f])
    return frozenset(m + (top - sum(m),) for m in f)


class _Packing:
    """Monomials in n variables of degree at most cap as ints.

    A monomial, the exponent tuple e_1..e_n, takes 2n fields of w bits.
    The low n fields hold e_1..e_n, e_i at bit (i-1)*w.  The high n fields
    hold the prefix sums P_k = e_1 + ... + e_k, the degree P_n topmost.
    For equal degree, grevlex (first variable largest) favours the
    monomial whose prefix sums are larger, compared from P_{n-1} down, so
    comparing packed ints compares monomials.  Both halves are additive:
    a product of monomials is a sum of ints, a quotient a difference.
    Every field stays at most cap = 2^(w-1) - 1; the spare top bit of each
    low field is a guard that b - a sets exactly where an exponent of a
    exceeds that of b, so a | b iff (b - a) & guard == 0.
    """

    def __init__(self, n, cap):
        w = max(cap, 1).bit_length() + 1
        self.width = w
        self.cap = (1 << (w - 1)) - 1
        self.field = (1 << w) - 1
        self.shifts = tuple(range(0, n * w, w))
        self.low = (1 << (n * w)) - 1
        self.mask = (1 << (2 * n * w)) - 1
        self.guard = sum(1 << (s + w - 1) for s in self.shifts)
        # ex * spread copies the exponent fields into the high half while
        # accumulating them, field k+n summing fields 0..k
        self.spread = 1 + sum(1 << (k * w) for k in range(n, 2 * n))
        self.deg_shift = max(2 * n - 1, 0) * w  # no variables: all 0

    def encode(self, m):
        return sum(map(lshift, m, self.shifts)) * self.spread & self.mask

    def decode(self, p):
        return tuple((p >> s) & self.field for s in self.shifts)

    def encode_poly(self, f):
        """Terms of f as packed ints, leading term first."""
        return sorted(map(self.encode, f), reverse=True)

    def decode_poly(self, terms):
        return frozenset(map(self.decode, terms))

    def degree(self, p):
        return p >> self.deg_shift

    def lcm(self, a, b):
        low, guard = self.low, self.guard
        ea, eb = a & low, b & low
        wins = ((ea | guard) - eb) & guard  # guard bits where a_i >= b_i
        take_a = wins - (wins >> (self.width - 1))
        ex = (ea & take_a) | (eb & ~take_a)
        return ex * self.spread & self.mask


class _Overflow(Exception):
    """A product needs wider fields; args[0] is the degree to fit."""


def _top_degree(polys):
    return max((sum(m) for f in polys for m in f), default=0)


class _Divisors:
    """Nonzero polynomials packed for reduction, in fields that hold
    degree cap: leading terms lms and remaining terms tails, descending."""

    def __init__(self, polys, nvars, cap):
        self.pk = pk = _Packing(nvars, cap)
        packed = [pk.encode_poly(g) for g in polys]
        self.lms = [p[0] for p in packed]
        self.tails = [p[1:] for p in packed]


def _reduce(work, lms, tails, guard):
    """Normal form of the packed term set work (consumed) modulo the
    generators with leading terms lms and remaining terms tails.

    Terms leave in descending order: the largest left is reduced by the
    first generator whose leading term divides it, or else is final, since
    every later term is smaller.  Returns the final terms, descending.
    """
    heap = [-m for m in work]
    heapify(heap)
    out = []
    while heap:
        m = -heappop(heap)
        if m not in work:  # cancelled, or a duplicate of a reduced term
            continue
        work.remove(m)
        for k, lead in enumerate(lms):
            q = m - lead
            if not q & guard:
                for x in tails[k]:
                    x += q
                    if x in work:
                        work.remove(x)
                    else:
                        work.add(x)
                        heappush(heap, -x)
                break
        else:
            out.append(m)
    return out


class GroebnerBasis(Value):
    """A reduced grevlex basis: buchberger, saturate_t and
    QuotientRing.hom_gb build no other kind."""

    _fields = ("generators", "nvars")

    def __init__(self, generators, nvars):
        # generators: F2Polys, descending by leading monomial
        self.__dict__.update(generators=generators, nvars=nvars)

    @cached_property
    def _divisors(self):
        """The generators packed once for every reduce_poly on this basis,
        with room for inputs of twice their degree."""
        return _Divisors(self.generators, self.nvars,
                         2 * _top_degree(self.generators))


def reduce_poly(f, gb):
    """Full normal form of f modulo the GroebnerBasis gb.

    Each step reduces the largest reducible term by the first generator
    whose leading monomial divides it.  An input of more than twice the
    basis degree is reduced in wider fields, packed for it alone.
    """
    top = _top_degree([f])
    div = gb._divisors
    if top > div.pk.cap:
        div = _Divisors(gb.generators, gb.nvars, top)
    pk = div.pk
    work = set(map(pk.encode, f))
    return pk.decode_poly(_reduce(work, div.lms, div.tails, pk.guard))


def _groebner(div):
    """Reduced Groebner basis of the packed polynomials div, as term
    lists with leading terms descending.  The input is autoreduced in
    ascending order of leading term, so a linear form reduces a generator
    once, not through an S-pair.  Pairs are taken smallest lcm first;
    raises _Overflow before a pair whose S-polynomial might not fit."""
    pk = div.pk
    guard, cap, degree = pk.guard, pk.cap, pk.degree
    lms, tails = [], []
    for k in sorted(range(len(div.lms)), key=div.lms.__getitem__):
        r = _reduce({div.lms[k], *div.tails[k]}, lms, tails, guard)
        if r:
            lms.append(r[0])
            tails.append(r[1:])
    pairs = []

    def add_pairs(j):
        lj = lms[j]
        for i in range(j):
            li = lms[i]
            need = degree(li) + degree(lj)
            if need > cap:
                raise _Overflow(need)
            lcm = pk.lcm(li, lj)
            if lcm != li + lj:  # coprime leading terms reduce to zero
                heappush(pairs, (lcm, i, j))

    for j in range(len(lms)):
        add_pairs(j)
    while pairs:
        lcm, i, j = heappop(pairs)
        ui, uj = lcm - lms[i], lcm - lms[j]
        spoly = {ui + x for x in tails[i]}
        spoly.symmetric_difference_update(uj + x for x in tails[j])
        r = _reduce(spoly, lms, tails, guard)
        if r:
            lms.append(r[0])
            tails.append(r[1:])
            add_pairs(len(lms) - 1)
    # minimal basis: ascending by leading term, a kept one can only
    # divide later ones
    kept = []
    for k in sorted(range(len(lms)), key=lms.__getitem__):
        if all((lms[k] - lms[h]) & guard for h in kept):
            kept.append(k)
    # a tail term is below its own leading term, which never divides it
    klms, ktails = [lms[k] for k in kept], [tails[k] for k in kept]
    return [[lms[k]] + _reduce(set(tails[k]), klms, ktails, guard)
            for k in reversed(kept)]


def buchberger(gens, nvars):
    """Reduced Groebner basis, deterministic in the input sequence, of
    any ideal in nvars variables; QuotientRing checks the homogeneity it
    needs itself."""
    gens = [frozenset(g) for g in gens if g]
    for g in gens:
        for m in g:
            if len(m) != nvars:
                raise ValueError("mixed variable counts in generators")
    # an S-polynomial has degree at most the sum of two leading degrees
    cap = 2 * _top_degree(gens)
    while True:
        div = _Divisors(gens, nvars, cap)
        try:
            basis = _groebner(div)
        except _Overflow as exc:
            cap = 2 * exc.args[0]
            continue
        return GroebnerBasis(tuple(map(div.pk.decode_poly, basis)), nvars)


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
            k = min(m[-1] for m in g)
            stripped.append(frozenset(m[:-1] + (m[-1] - k,) for m in g)
                            if k else g)
        new = list(buchberger(stripped, nvars=gb.nvars).generators)
        if set(new) == set(gens):
            return GroebnerBasis(tuple(new), gb.nvars)
        gens = new


class QuotientRing:
    """F2[X_1..X_d][q^-1,q] modulo a cod-homogeneous ideal.

    nvars is d; the generators have d + 1 exponents, t last.  The working
    representation is the dehomogenized (t=1) quotient, its gb, basis and
    normal forms in d exponents, with q-powers reconstructed from the
    grading deficit.  The saturated homogeneous basis hom_gb, in d + 1
    variables and the source of the reduced relations shown by
    presentations, is derived from that one Groebner basis on first read
    and then kept.  Degrees are cods; a view that doubles them (the
    ambient M) is a display concern of the caller.
    """

    def __init__(self, generators, nvars):
        self.nvars = nvars
        self.generators = tuple(frozenset(g) for g in generators if g)
        for g in self.generators:
            _require_homogeneous(g)
        self.gb = buchberger([dehomogenize(g) for g in self.generators],
                             nvars=nvars)
        self.basis = self._standard_monomials()
        self.dim = len(self.basis)
        self.cod = {m: sum(m) for m in self.basis}
        self._nf_cache = {}
        self._mul_cache = {}
        self.cache = {}

    @cached_property
    def hom_gb(self):
        """Reduced basis of I : t^infinity, derived from gb on first read.

        For homogeneous I, I : t^infinity is the homogenization of I at
        t = 1, and homogenizing each element of the reduced grevlex basis
        gb (t smallest) gives its reduced basis, in the same order
        (Cox-Little-O'Shea, IVA, Ch. 8 Sec. 4).  saturate_t computes the
        same basis from the generators and is the test oracle.
        """
        return GroebnerBasis(tuple(map(_homogenize, self.gb.generators)),
                             self.nvars + 1)

    def _standard_monomials(self):
        lms = [lm(g) for g in self.gb.generators]
        caps = [None] * self.nvars
        mixed = []  # leading terms in two or more variables
        for m in lms:
            support = [i for i, e in enumerate(m) if e]
            if len(support) > 1:
                mixed.append(m)
                continue
            for i in support or range(self.nvars):  # 1 caps every variable
                if caps[i] is None or m[i] < caps[i]:
                    caps[i] = m[i]
        for i, c in enumerate(caps):
            if c is None:
                raise InfiniteDimensionalError(
                    f"no pure power of X{i + 1} among leading monomials; "
                    f"quotient has infinite rank")
        # no monomial below the caps is a multiple of a pure power, so
        # only the mixed leading terms are tested
        out = list(iter_product(*(range(c) for c in caps)))
        if mixed:
            pk = _Packing(self.nvars, max(_top_degree([mixed]), sum(caps)))
            leads = [pk.encode(l) for l in mixed]
            out = [m for m, x in zip(out, map(pk.encode, out))
                   if all((x - lead) & pk.guard for lead in leads)]
        out.sort(key=grevlex_key)
        return tuple(out)

    def normal_form(self, f):
        """Normal form of the t-free frozenset f."""
        hit = self._nf_cache.get(f)
        if hit is None:
            hit = self._nf_cache[f] = reduce_poly(f, self.gb)
        return hit

    def nf_mono_mul(self, m1, m2):
        key = (m1, m2) if m1 <= m2 else (m2, m1)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = self.normal_form(
                frozenset({tuple(map(add, m1, m2))}))
        return hit


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
    """Module element: standard basis monomial -> set of q-exponents."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {}
        for m, exps in coeffs.items():
            exps = frozenset(exps)
            if exps:
                self.coeffs[m] = exps

    def is_zero(self):
        return not self.coeffs

    def qshift(self, k):
        return QHElement({m: frozenset(e + k for e in s)
                          for m, s in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, s in other.coeffs.items():
            out[m] = out.get(m, frozenset()) ^ s
        return QHElement(out)

    def __eq__(self, other):
        return isinstance(other, QHElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((m, s) for m, s in self.coeffs.items()))

    def __repr__(self):
        terms = sorted(((m, tuple(sorted(s))) for m, s in self.coeffs.items()),
                       key=lambda p: grevlex_key(p[0]), reverse=True)
        return f"QHElement({terms})"


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
    return QHElement(coeffs)
