import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_qh.errors import (
    InfiniteDimensionalError,
    NonHomogeneousGeneratorError,
)
from toric_qh.f2ring import (
    QuotientRing,
    _tdiv_exact,
    _tdivmod,
    _tmul,
    buchberger,
    dehomogenize,
    grevlex_key,
    hilbert_function,
    is_homogeneous,
    lm,
    reduce_poly,
    rehomogenize,
    saturate_t,
)


def poly(*monos):
    return frozenset(map(tuple, monos))


def mono_strategy(nvars):
    # nvars exponents of X, then one of t
    return st.tuples(*([st.integers(0, 3)] * nvars), st.integers(0, 2))


def poly_strategy(nvars):
    return st.lists(mono_strategy(nvars), min_size=0, max_size=5).map(
        lambda ms: poly(*ms))


def test_characteristic_two():
    # a polynomial is the set of its monomials, so f + f = 0; squaring
    # X + Y monomial by monomial in the quotient, the two cross terms XY
    # cancel and leave X^2 + Y^2
    ring = two_var_ring()
    f = poly((1, 0), (0, 1))
    assert f ^ f == frozenset()
    square = frozenset()
    for m1 in f:
        for m2 in f:
            square ^= ring.nf_mono_mul(m1, m2)
    assert square == ring.normal_form(poly((2, 0), (0, 2)))


def test_grevlex_order():
    x2 = (2, 0, 0)
    xy = (1, 1, 0)
    y2 = (0, 2, 0)
    assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(y2)
    # t sorts below every variable
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 0, 1))
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))
    assert lm(poly((0, 2, 0), (1, 1, 0), (0, 0, 2))) == xy


def test_lm_of_blowup_relations():
    # X4^2 + X4*X5 + t^2 leads with X4^2; X5^3 + X4*t^2 leads with X5^3
    f = poly((0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 2))
    assert lm(f) == (0, 0, 0, 2, 0, 0)
    g = poly((0, 0, 0, 0, 3, 0), (0, 0, 0, 1, 0, 2))
    assert lm(g) == (0, 0, 0, 0, 3, 0)


def test_homogeneity():
    assert is_homogeneous(poly((2, 0, 0), (1, 1, 0), (0, 0, 2)))
    assert not is_homogeneous(poly((2, 0, 0), (0, 0, 0)))
    assert is_homogeneous(frozenset())


def test_dehomogenize_parity():
    f = poly((1, 0, 1), (1, 0, 0))
    assert dehomogenize(f) == frozenset()
    g = poly((1, 0, 2), (0, 1, 0))
    assert dehomogenize(g) == poly((1, 0), (0, 1))


def test_buchberger_basics():
    x = poly((1,))
    gb = buchberger((x,), 1)
    assert gb.generators == (x,)
    assert buchberger((frozenset(),), 1).generators == ()
    # homogeneity is QuotientRing's check, not buchberger's
    gb2 = buchberger((poly((1,), (0,)),), 1)
    assert gb2.generators == (poly((1,), (0,)),)


def test_buchberger_blowup_frozen():
    lin = [
        poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0)),
    ]
    sr = [
        poly((1, 1, 0, 0, 1, 0), (0, 0, 0, 1, 0, 2)),
        poly((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 2)),
    ]
    gb = saturate_t(buchberger(tuple(lin + sr), 6))
    want = {
        poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 1, 0),
             (0, 0, 0, 0, 0, 2)),
        poly((0, 0, 0, 0, 3, 0), (0, 0, 0, 1, 0, 2)),
    }
    assert set(gb.generators) == want


def test_saturate_examples():
    x = poly((1, 0))
    gb = buchberger((poly((1, 1)),), 2)
    assert set(saturate_t(gb).generators) == {x}
    f = poly((2, 1), (1, 2))
    sat = saturate_t(buchberger((f,), 2))
    assert set(sat.generators) == {poly((2, 0), (1, 1))}


def test_saturate_idempotent():
    f = poly((0, 2, 0), (1, 1, 0), (0, 0, 2))
    g = poly((3, 0, 1), (0, 1, 3))
    sat = saturate_t(buchberger((f, g), 3))
    again = saturate_t(sat)
    assert set(sat.generators) == set(again.generators)


def two_var_ring():
    # relations Y^2 + Y*X + t^2 and X^3 + Y*t^2 with Y the first variable
    g1 = poly((2, 0, 0), (1, 1, 0), (0, 0, 2))
    g2 = poly((0, 3, 0), (1, 0, 2))
    return QuotientRing((g1, g2), nvars=2)


def test_two_var_ring_frozen():
    ring = two_var_ring()
    assert ring.dim == 6
    assert list(ring.basis) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
    assert hilbert_function(ring) == (1, 2, 2, 1)
    nf_y2 = ring.normal_form(poly((2, 0)))
    assert nf_y2 == poly((1, 1), (0, 0))
    nf_x3 = ring.normal_form(poly((0, 3)))
    assert nf_x3 == poly((1, 0))


def test_standard_basis_and_module_helpers():
    ring = two_var_ring()
    assert ring.dim == sum(hilbert_function(ring))


def test_trivial_ring():
    ring = QuotientRing((), nvars=0)
    assert ring.dim == 1
    assert ring.basis == ((),)
    assert hilbert_function(ring) == (1,)


def test_buchberger_in_no_variables():
    # a monomial of no variables is the empty tuple, and packs as 0
    one = poly(())
    assert buchberger((one, one), 0).generators == (one,)


def test_buchberger_rejects_mixed_variable_counts():
    with pytest.raises(ValueError, match="mixed variable counts"):
        buchberger((poly((1, 0)), poly((1,))), 2)


def test_rehomogenize_rejects_a_non_standard_monomial():
    # F2[X]/(X^2) has basis 1, X, so X^2 is not standard
    ring = QuotientRing((poly((2, 0)),), nvars=1)
    assert ring.basis == ((0,), (1,))
    with pytest.raises(ValueError, match="not a standard monomial"):
        rehomogenize(poly((2,)), 2, ring)


def test_infinite_dimensional_rejected():
    with pytest.raises(InfiniteDimensionalError):
        QuotientRing((poly((2, 0, 0)),), nvars=2)


def test_normal_form_is_idempotent_and_linear():
    ring = two_var_ring()
    rng = random.Random(7)
    for _ in range(50):
        f = frozenset((rng.randrange(4), rng.randrange(5))
                      for _ in range(rng.randrange(5)))
        g = frozenset((rng.randrange(4), rng.randrange(5))
                      for _ in range(rng.randrange(5)))
        nf = ring.normal_form(f)
        assert ring.normal_form(nf) == nf
        assert all(m in ring.basis for m in nf)
        assert ring.normal_form(f ^ g) == \
            ring.normal_form(f) ^ ring.normal_form(g)


def test_reduce_poly_confluent_under_random_choosers(random_division):
    ring = two_var_ring()
    rng = random.Random(11)
    for _ in range(200):
        f = frozenset((rng.randrange(5), rng.randrange(6))
                      for _ in range(rng.randrange(6)))
        pick = rng.randrange(10 ** 9)
        alt = random_division(f, ring.gb.generators, random.Random(pick))
        assert reduce_poly(f, ring.gb) == alt


def sympy_gb(gens_exps, nvars):
    syms = sympy.symbols(f"x1:{nvars + 1}")
    exprs = []
    for f in gens_exps:
        e = sympy.Integer(0)
        for m in f:
            term = sympy.Integer(1)
            for s, k in zip(syms, m):
                term *= s ** k
            e += term
        exprs.append(e)
    gb = sympy.groebner(exprs, *syms, modulus=2, order="grevlex")
    out = set()
    for p in gb.polys:
        out.add(frozenset(tuple(int(x) for x in em) for em in p.monoms()))
    return out


def test_affine_gb_matches_sympy_oracle():
    ring = two_var_ring()
    affine = [dehomogenize(g) for g in ring.generators]
    assert set(ring.gb.generators) == sympy_gb(affine, 2)


def test_affine_gb_matches_sympy_oracle_five_vars():
    lin = [
        poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0)),
    ]
    sr = [
        poly((1, 1, 0, 0, 1, 0), (0, 0, 0, 1, 0, 2)),
        poly((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 2)),
    ]
    ring = QuotientRing(tuple(lin + sr), nvars=5)
    affine = [dehomogenize(g) for g in ring.generators]
    assert set(ring.gb.generators) == sympy_gb(affine, 5)


@settings(max_examples=40, deadline=None)
@given(st.lists(poly_strategy(2), min_size=1, max_size=3))
def test_random_affine_ideals_match_sympy(gens):
    gens = [g for g in (dehomogenize(f) for f in gens) if g]
    if not gens:
        return
    gb = buchberger(tuple(gens), nvars=2)
    assert set(gb.generators) == sympy_gb(gens, 2)


def test_gb_membership_via_reduction():
    ring = two_var_ring()
    for g in ring.generators:
        assert reduce_poly(dehomogenize(g), ring.gb) == frozenset()
    for g in ring.generators:
        assert reduce_poly(g, ring.hom_gb) == frozenset()


def clmul_schoolbook(a, b):
    res = 0
    for k in range(b.bit_length()):
        if b >> k & 1:
            res ^= a << k
    return res


f2t_polys = st.integers(0, 2 ** 200)
f2t_nonzero = st.one_of(st.integers(1, 2 ** 80),
                        st.integers(0, 80).map(lambda k: 1 << k))


@settings(max_examples=200, deadline=None)
@given(f2t_polys, f2t_nonzero)
def test_tmul_tdivmod_round_trip(a, b):
    assert _tmul(a, b) == _tmul(b, a) == clmul_schoolbook(a, b)
    assert _tdivmod(_tmul(a, b), b) == (a, 0)
    assert _tdiv_exact(_tmul(a, b), b) == a
    q, r = _tdivmod(a, b)
    assert a == _tmul(q, b) ^ r
    assert r.bit_length() < b.bit_length()


def test_tdiv_exact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        _tdiv_exact(0b111, 0b11)  # t^2 + t + 1 is irreducible


# Quantum L generators of products, written out from the factors: cp_n has
# facets X_1..X_{n+1}, linear relations X_i + X_{n+1} and the one relation
# X_1...X_{n+1} + t^{n+1}; blowup_cp3 is as in test_buchberger_blowup_frozen.
# A factor is (facet count, linear relations as facet sets, binomials as
# (left facet set, {facet: exponent} on the right, power of t)).
def cp_factor(n):
    facets = set(range(1, n + 2))
    return (n + 1, [{i, n + 1} for i in range(1, n + 1)],
            [(facets, {}, n + 1)])


BLOWUP_CP3 = (5, [{1, 5}, {2, 5}, {3, 4, 5}],
              [({1, 2, 5}, {4: 1}, 2), ({3, 4}, {}, 2)])


def product_generators(*factors):
    nvars = sum(f[0] for f in factors)

    def term(powers, tpow):
        return tuple(powers.get(i, 0) for i in range(1, nvars + 1)) + (tpow,)

    gens = []
    offset = 0
    for size, linear, binomials in factors:
        for rel in linear:
            gens.append(frozenset(term({offset + i: 1}, 0) for i in rel))
        for left, right, tpow in binomials:
            gens.append(frozenset({
                term({offset + i: 1 for i in left}, 0),
                term({offset + i: e for i, e in right.items()}, tpow)}))
        offset += size
    return gens, nvars


def sympy_with_t(nvars):
    """Symbols X_1..X_d, t: t last, as in f2ring."""
    return sympy.symbols(f"x1:{nvars + 1}") + (sympy.Symbol("t"),)


def to_sympy(f, syms):
    return sum((sympy.Mul(*(s ** k for s, k in zip(syms, m))) for m in f),
               sympy.Integer(0))


def from_sympy(p):
    return frozenset(tuple(int(x) for x in em)
                     for em in p.monoms() if not p.is_zero)


def sympy_gb_with_t(gens, nvars):
    syms = sympy_with_t(nvars)
    return sympy.groebner([to_sympy(f, syms) for f in gens], *syms,
                          modulus=2, order="grevlex")


@pytest.mark.parametrize("factors", [
    (cp_factor(2), cp_factor(2)),
    (BLOWUP_CP3, cp_factor(1)),
    (cp_factor(3), cp_factor(2)),
], ids=["cp2xcp2", "blowup_cp3xcp1", "cp3xcp2"])
def test_homogeneous_route_matches_sympy(factors):
    gens, nvars = product_generators(*factors)
    gb = buchberger(gens, nvars=nvars + 1)
    want = {from_sympy(p) for p in sympy_gb_with_t(gens, nvars).polys}
    assert set(gb.generators) == want
    # these ideals are already t-saturated, so saturation must not move
    assert set(saturate_t(gb).generators) == set(gb.generators)


@pytest.mark.parametrize("gens, nvars", [
    # exponents far past one byte, and past two bytes
    ([poly((300, 0, 0), (0, 299, 1)), poly((1, 1, 0))], 2),
    ([poly((70000, 0, 0), (0, 69999, 1)), poly((1, 1, 0))], 2),
    ([poly((0, 0, 70000, 0), (1, 0, 69998, 1)),
      poly((300, 0, 0, 0), (0, 299, 0, 1))], 3),
    # generated in degree 4, with basis elements of degree 23: past any
    # width fixed from the input degree alone
    ([poly((0, 0, 0, 4), (3, 1, 0, 0)),
      poly((0, 0, 2, 2), (0, 1, 3, 0)),
      poly((0, 2, 0, 1), (2, 0, 1, 0))], 3),
], ids=["exp300", "exp70000", "mixed", "degree_growth"])
def test_large_exponents_match_sympy(gens, nvars):
    gb = buchberger(gens, nvars=nvars + 1)
    oracle = sympy_gb_with_t(gens, nvars)
    assert set(gb.generators) == {from_sympy(p) for p in oracle.polys}
    syms = sympy_with_t(nvars)
    f = gens[0] ^ gens[-1]
    _, rem = oracle.reduce(to_sympy(f, syms))
    want = from_sympy(sympy.Poly(rem, *syms, modulus=2))
    assert reduce_poly(f, gb) == want
    # far above the basis degree, past the fields kept with the basis
    top = max(sum(m) for g in gb.generators for m in g)
    # f times X_nvars^(5 top)
    big = frozenset(m[:-2] + (m[-2] + 5 * top, m[-1]) for m in f)
    assert reduce_poly(big, gb) == division_remainder(big, gb.generators)


def division_remainder(f, basis):
    """Remainder of f by basis with exponent tuples and a local grevlex
    key, sharing no code with the packed kernel."""
    def key(m):
        return (sum(m),) + tuple(-e for e in reversed(m))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    leads = [max(g, key=key) for g in basis]
    cur, out = set(f), set()
    while cur:
        m = max(cur, key=key)
        cur.remove(m)
        k = next((k for k, lead in enumerate(leads) if divides(lead, m)), None)
        if k is None:
            out.add(m)
            continue
        lead = leads[k]
        for e in basis[k] - {lead}:
            cur ^= {tuple(x + y - z for x, y, z in zip(e, m, lead))}
    return frozenset(out)


def test_hom_gb_is_lazy(monkeypatch):
    import toric_qh.f2ring as f2ring

    calls = []
    real = f2ring.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(f2ring, "buchberger", counting)
    gens, nvars = product_generators(BLOWUP_CP3, cp_factor(1))
    ring = QuotientRing(gens, nvars=nvars)
    assert len(calls) == 1  # the dehomogenized basis only
    first = ring.hom_gb
    assert len(calls) == 1  # derived from the dehomogenized basis
    monkeypatch.setattr(f2ring, "buchberger", real)
    assert first == saturate_t(buchberger(ring.generators,
                                          nvars=ring.nvars + 1))
    monkeypatch.setattr(f2ring, "buchberger", counting)
    before = len(calls)
    assert ring.hom_gb is first
    assert len(calls) == before


def test_ring_rejects_nonhomogeneous_generators():
    with pytest.raises(NonHomogeneousGeneratorError):
        QuotientRing((poly((2, 0, 0), (0, 0, 0)),
                      poly((0, 3, 0), (1, 0, 2))), nvars=2)
