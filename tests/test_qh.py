import random
import sys
from itertools import product

import pytest

from toric_qh.cli import builtin_polytope
from toric_qh.errors import NotInvertibleError
from toric_qh.f2ring import (
    QHElement,
    QuotientRing,
    buchberger,
    hilbert_function,
    rehomogenize,
    saturate_t,
)
from toric_qh.qh import (
    betti_crosscheck,
    build_ring,
    classical_sr,
    element_from_monomial,
    invert,
    linear_relations,
    min_quantum_degree,
    multiply,
    quantum_sr,
    scaled_hilbert,
    seidel_composite,
    seidel_facet,
    seidel_inverse,
    uniruled_certificate,
    unit,
    verify_psi,
    verify_seidel_relation,
)
from toric_qh.polytope import Polytope, betti_numbers_L, primitive_collection_data

BUILTINS = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp1xcp1", "blowup_cp3")


def poly(*monos):
    return frozenset(map(tuple, monos))


def blowup_ring():
    p = builtin_polytope("blowup_cp3")
    ring, _ = build_ring(p)
    return ring


def test_linear_relations_blowup_frozen():
    p = builtin_polytope("blowup_cp3")
    assert linear_relations(p) == (
        poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0)),
    )


def test_linear_relations_products_frozen():
    cp3 = builtin_polytope("cp3")
    assert linear_relations(cp3) == (
        poly((1, 0, 0, 0, 0), (0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0), (0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    )
    sq = builtin_polytope("cp1xcp1")
    assert linear_relations(sq) == (
        poly((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
        poly((0, 0, 1, 0, 0), (0, 0, 0, 1, 0)),
    )


def test_sr_relations_frozen():
    blow = builtin_polytope("blowup_cp3")
    assert classical_sr(blow) == (
        poly((1, 1, 0, 0, 1, 0)),
        poly((0, 0, 1, 1, 0, 0)),
    )
    assert quantum_sr(blow) == (
        poly((1, 1, 0, 0, 1, 0), (0, 0, 0, 1, 0, 2)),
        poly((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 0, 2)),
    )
    cp2 = builtin_polytope("cp2")
    assert quantum_sr(cp2) == (
        poly((1, 1, 1, 0), (0, 0, 0, 3)),)
    cp1x = builtin_polytope("cp1xcp1")
    assert quantum_sr(cp1x) == (
        poly((1, 1, 0, 0, 0), (0, 0, 0, 0, 2)),
        poly((0, 0, 1, 1, 0), (0, 0, 0, 0, 2)),
    )


def test_space_flavor_validation():
    p = builtin_polytope("cp1")
    with pytest.raises(ValueError):
        build_ring(p, space="K")
    with pytest.raises(ValueError):
        build_ring(p, flavor="derived")


def test_ring_ranks():
    want = {"cp1": 2, "cp2": 3, "cp3": 4, "cp4": 5, "cp5": 6,
            "cp1xcp1": 4, "blowup_cp3": 6}
    for name, rank in want.items():
        p = builtin_polytope(name)
        ring, pres = build_ring(p)
        assert ring.dim == rank
        assert pres.space == "L" and pres.flavor == "quantum"
        ring_m, pres_m = build_ring(p, space="M")
        assert ring_m.dim == rank
        assert pres_m.grading_unit == 2


def test_blowup_basis_frozen():
    ring = blowup_ring()
    assert list(ring.basis) == [
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 2), (0, 0, 0, 1, 1), (0, 0, 0, 1, 2)]
    assert hilbert_function(ring) == (1, 2, 2, 1)


def test_unit_ideal_has_empty_hilbert_functions():
    # 1 generates the ideal: the quotient has no standard monomial
    ring = QuotientRing((frozenset({(0, 0, 0)}),), nvars=2)
    assert ring.basis == ()
    assert hilbert_function(ring) == ()
    assert scaled_hilbert(ring) == ()
    assert scaled_hilbert(ring, 2) == ()


def test_multiply_blowup_frozen(homogeneous_cod):
    ring = blowup_ring()
    y = element_from_monomial(ring, (0, 0, 0, 1, 0))
    yy = multiply(ring, y, y)
    assert yy.coeffs == {(0, 0, 0, 1, 1): frozenset({0}),
                         (0, 0, 0, 0, 0): frozenset({-2})}
    assert homogeneous_cod(yy) == 2
    x = element_from_monomial(ring, (0, 0, 0, 0, 1))
    xxx = multiply(ring, multiply(ring, x, x), x)
    assert xxx.coeffs == {(0, 0, 0, 1, 0): frozenset({-2})}
    assert homogeneous_cod(xxx) == 3


def test_unit_laws():
    ring = blowup_ring()
    e = unit(ring)
    x = element_from_monomial(ring, (0, 0, 0, 1, 2), qexp=3)
    assert multiply(ring, e, x) == x
    assert multiply(ring, x, e) == x
    assert multiply(ring, e, e) == e


def test_identified_variables_multiply_equally():
    # X1, X2, X5 share a residue class, so products agree
    ring = blowup_ring()
    a = element_from_monomial(ring, (1, 0, 0, 0, 0))
    b = element_from_monomial(ring, (0, 1, 0, 0, 0))
    c = element_from_monomial(ring, (0, 0, 0, 0, 1))
    assert a == b == c
    assert multiply(ring, a, b) == multiply(ring, c, c)


def random_element(ring, rng, hom=None):
    coeffs = {}
    for m in ring.basis:
        if rng.random() < 0.5:
            continue
        if hom is None:
            qs = frozenset(rng.sample(range(-3, 4), rng.randrange(1, 3)))
        else:
            qs = frozenset({ring.cod[m] - hom})
        coeffs[m] = qs
    return QHElement(coeffs)


def test_qh_ring_axioms_random():
    rng = random.Random(2026)
    for name in BUILTINS:
        ring, _ = build_ring(builtin_polytope(name))
        e = unit(ring)
        for _ in range(200):
            a = random_element(ring, rng)
            b = random_element(ring, rng)
            c = random_element(ring, rng)
            assert multiply(ring, a, b) == multiply(ring, b, a)
            assert multiply(ring, a, multiply(ring, b, c)) == \
                multiply(ring, multiply(ring, a, b), c)
            assert multiply(ring, a, b + c) == \
                multiply(ring, a, b) + multiply(ring, a, c)
            assert multiply(ring, a, e) == a


def test_homogeneous_product_cod_adds(homogeneous_cod):
    rng = random.Random(414)
    for name in BUILTINS:
        ring, _ = build_ring(builtin_polytope(name))
        for _ in range(40):
            da = rng.randrange(0, 4)
            db = rng.randrange(0, 4)
            a = random_element(ring, rng, hom=da)
            b = random_element(ring, rng, hom=db)
            prod = multiply(ring, a, b)
            if prod.is_zero():
                continue
            assert homogeneous_cod(prod) == da + db
            for m, qs in prod.coeffs.items():
                assert qs == frozenset({ring.cod[m] - da - db})


def test_addition_is_involution():
    ring = blowup_ring()
    rng = random.Random(5)
    for _ in range(20):
        a = random_element(ring, rng)
        assert (a + a).is_zero()
        assert a + QHElement({}) == a


def test_invert_blowup_frozen():
    ring = blowup_ring()
    xq = element_from_monomial(ring, (0, 0, 0, 0, 1), qexp=1)
    inv = invert(ring, xq)
    assert inv.coeffs == {(0, 0, 0, 1, 2): frozenset({3}),
                          (0, 0, 0, 1, 0): frozenset({1})}
    assert multiply(ring, xq, inv) == unit(ring)


def test_invert_unit_and_involution():
    ring = blowup_ring()
    assert invert(ring, unit(ring)) == unit(ring)
    rng = random.Random(17)
    count = 0
    while count < 10:
        a = random_element(ring, rng)
        try:
            inv = invert(ring, a)
        except NotInvertibleError:
            continue
        count += 1
        assert multiply(ring, a, inv) == unit(ring)
        assert invert(ring, inv) == a


def test_invert_rejects_classical_nilpotent():
    p = builtin_polytope("blowup_cp3")
    ring, _ = build_ring(p, flavor="classical")
    x = element_from_monomial(ring, (1, 0, 0, 0, 0))
    with pytest.raises(NotInvertibleError):
        invert(ring, x)


def test_invert_rejects_zero():
    ring = blowup_ring()
    with pytest.raises(NotInvertibleError):
        invert(ring, QHElement({}))


def cp_product(*ns):
    """cp(n_1) x ... x cp(n_k): each factor's facets, normals zero-padded."""
    dim = sum(ns)
    facets, off = [], 0
    for n in ns:
        for k in range(n + 1):
            v = [0] * dim
            if k < n:
                v[off + k] = 1
            else:
                v[off:off + n] = [-1] * n
            facets.append((tuple(v), 0 if k < n else -1))
        off += n
    return Polytope.from_facets(dim, facets)


def seidel_power_product(ring, c):
    """prod_j (X_j q)^c_j for c >= 0, from multiply alone.  seidel_facet is
    avoided on purpose: it inverts eagerly, and this is an invert oracle."""
    acc = unit(ring)
    for j, cj in enumerate(c):
        exps = [0] * ring.nvars
        exps[j] = 1
        s = element_from_monomial(ring, exps, qexp=1)
        for _ in range(cj):
            acc = multiply(ring, acc, s)
    return acc


@pytest.mark.parametrize("ns, seed", [((2, 2, 2), 7), ((1, 1, 1, 1), 11),
                                      ((3, 2), 13)])
def test_invert_matches_seidel_order_oracle(ns, seed):
    # in a product of cpN factors every facet element has S_j^(N_j+1) = 1,
    # so S_c^-1 = S_c' with c'_j = -c_j mod (N_j+1)
    ring, _ = build_ring(cp_product(*ns))
    orders = [n + 1 for n in ns for _ in range(n + 1)]
    rank = 1
    for n in ns:
        rank *= n + 1
    assert ring.dim == rank
    rng = random.Random(seed)
    for _ in range(4):
        c = [rng.randrange(2 * o) for o in orders]
        c_inv = [-cj % o for cj, o in zip(c, orders)]
        assert invert(ring, seidel_power_product(ring, c)) == \
            seidel_power_product(ring, c_inv)


def test_invert_matches_seidel_order_oracle_on_ring_bases(monkeypatch,
                                                         perfbench_module):
    # on the benchmark's ring-session bases the facet orders are not known
    # in closed form: the order N of S_c is found by repeated multiply, and
    # S_c^-1 = S_c^(N-1)
    inputs = perfbench_module("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # workloads imports it
    bases = inputs.named_bases()
    rng = random.Random(17)
    for name in perfbench_module("workloads").RING_BASES:
        base = bases[name]
        ring, _ = build_ring(Polytope.from_facets(base.dim, base.facets))
        assert ring.dim == base.rank
        for _ in range(4):
            c = [rng.randrange(3) for _ in range(ring.nvars)]
            s = seidel_power_product(ring, c)
            powers = [unit(ring), s]
            while powers[-1] != unit(ring):
                assert len(powers) <= 1000, (name, c)
                powers.append(multiply(ring, powers[-1], s))
            assert invert(ring, s) == powers[-2], (name, c)


def test_invert_facet_involution_rank_64():
    ring, _ = build_ring(cp_product(*[1] * 6))
    assert ring.dim == 64
    s1 = seidel_power_product(ring, [1] + [0] * 11)
    assert invert(ring, s1) == s1


@pytest.mark.parametrize("ns", [(1,), (2, 2, 2)])
def test_invert_rejects_unit_plus_seidel(ns):
    # S^(N+1) = 1 gives (1 + S)(1 + S + ... + S^N) = 0: a zero divisor
    ring, _ = build_ring(cp_product(*ns))
    for j in range(ring.nvars):
        c = [int(i == j) for i in range(ring.nvars)]
        with pytest.raises(NotInvertibleError, match="not a unit"):
            invert(ring, unit(ring) + seidel_power_product(ring, c))


P_MASK = 0b1010001  # X^6 + X^4 + 1, minimal polynomial of the generator


def f2x_divmod(a, b):
    q = 0
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        s = a.bit_length() - 1 - db
        q ^= 1 << s
        a ^= b << s
    return q, a


def f2x_mulmod(a, b, p):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return f2x_divmod(r, p)[1]


def f2x_inverse(a, p):
    # extended Euclid over F2[X]; None when gcd != 1
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1:
        q, r = f2x_divmod(r0, r1)
        r0, r1 = r1, r
        mul = 0
        qq, ss = q, s1
        while qq:
            if qq & 1:
                mul ^= ss
            qq >>= 1
            ss <<= 1
        s0, s1 = s1, s0 ^ mul
    if r0 != 1:
        return None
    return f2x_divmod(s0, p)[1]


def test_f2x_inverse_selftest():
    assert f2x_inverse(0b10, P_MASK) == 40
    assert f2x_mulmod(0b10, 40, P_MASK) == 1
    assert f2x_inverse(0b1101, P_MASK) is None


# basis monomial index -> X-power under the generator substitution
BASIS_TO_XPOW = (0, 1, 3, 2, 4, 5)


def element_to_mask(ring, el):
    mask = 0
    for m, qs in el.coeffs.items():
        if len(qs) % 2:
            mask ^= 1 << BASIS_TO_XPOW[ring.basis.index(m)]
    return mask


def mask_to_element(ring, mask):
    # homogeneous degree-zero lift: each basis monomial rides q^cod
    coeffs = {}
    for i, xp in enumerate(BASIS_TO_XPOW):
        if mask >> xp & 1:
            m = ring.basis[i]
            coeffs[m] = frozenset({ring.cod[m]})
    return QHElement(coeffs)


def test_powers_of_generator_collapse_to_x_powers():
    ring = blowup_ring()
    x = element_from_monomial(ring, (0, 0, 0, 0, 1))
    powx = unit(ring)
    for k in range(6):
        assert element_to_mask(ring, powx) == 1 << k
        powx = multiply(ring, powx, x)


def test_invert_matches_field_arithmetic_oracle():
    # collapsing q to 1 maps degree-zero elements onto F2[X]/(X^6+X^4+1);
    # graded invertibility then coincides with invertibility mod p
    ring = blowup_ring()
    rng = random.Random(23)
    checked_invertible = 0
    for _ in range(80):
        mask = rng.randrange(1, 64)
        a = mask_to_element(ring, mask)
        assert element_to_mask(ring, a) == mask
        want = f2x_inverse(mask, P_MASK)
        try:
            inv = invert(ring, a)
        except NotInvertibleError:
            assert want is None
            continue
        checked_invertible += 1
        assert want is not None
        assert element_to_mask(ring, inv) == want
    assert checked_invertible > 20


def test_collapse_map_is_multiplicative():
    ring = blowup_ring()
    rng = random.Random(29)
    for _ in range(40):
        ma, mb = rng.randrange(64), rng.randrange(64)
        a, b = mask_to_element(ring, ma), mask_to_element(ring, mb)
        prod = multiply(ring, a, b)
        assert element_to_mask(ring, prod) == f2x_mulmod(ma, mb, P_MASK)


def test_seidel_facet_blowup_frozen(homogeneous_cod):
    ring = blowup_ring()
    s4 = seidel_facet(ring, 4)
    assert s4.element.coeffs == {(0, 0, 0, 1, 0): frozenset({1})}
    assert homogeneous_cod(s4.element) == 0
    s1 = seidel_facet(ring, 1)
    assert s1.element.coeffs == {(0, 0, 0, 0, 1): frozenset({1})}
    assert ("seidel", 4) in ring.cache
    assert seidel_inverse(ring, 4) == invert(ring, s4.element)


def test_seidel_square_on_segment():
    # rank-2 ring: S1 = X1*q and S1^2 is the unit, since X1^2 = q^-2
    ring, _ = build_ring(builtin_polytope("cp1"))
    s1 = seidel_facet(ring, 1)
    assert s1.element.coeffs == {(0, 1): frozenset({1})}
    assert multiply(ring, s1.element, s1.element) == unit(ring)
    x = element_from_monomial(ring, (0, 1))
    xx = multiply(ring, x, x)
    assert xx.coeffs == {(0, 0): frozenset({-2})}


def test_seidel_elements_are_invertible_cod_zero(homogeneous_cod):
    for name in BUILTINS:
        ring, _ = build_ring(builtin_polytope(name))
        for j in range(1, ring.nvars + 1):
            s = seidel_facet(ring, j)
            assert homogeneous_cod(s.element) == 0
            inv = invert(ring, s.element)
            assert multiply(ring, s.element, inv) == unit(ring)


def test_seidel_composite_morphism():
    ring = blowup_ring()
    rng = random.Random(41)
    for _ in range(30):
        c1 = tuple(rng.randrange(-2, 3) for _ in range(5))
        c2 = tuple(rng.randrange(-2, 3) for _ in range(5))
        total = tuple(a + b for a, b in zip(c1, c2))
        lhs = multiply(ring, seidel_composite(ring, c1).element,
                       seidel_composite(ring, c2).element)
        assert lhs == seidel_composite(ring, total).element


def test_seidel_composite_squares():
    for name in ("cp2", "blowup_cp3"):
        ring, _ = build_ring(builtin_polytope(name))
        for j in range(1, ring.nvars + 1):
            s = seidel_facet(ring, j)
            sq = multiply(ring, s.element, s.element)
            c = tuple(2 if k == j else 0 for k in range(1, ring.nvars + 1))
            assert sq == seidel_composite(ring, c).element


def _count_multiplies(monkeypatch, limit=None):
    """Count qh's products; past ``limit`` fail at once instead of
    running on."""
    import toric_qh.qh as qh

    calls = []

    def counted(ring, a, b):
        calls.append(1)
        assert limit is None or len(calls) <= limit, "too many products"
        return multiply(ring, a, b)

    monkeypatch.setattr(qh, "multiply", counted)
    return calls


def test_seidel_composite_matches_repeated_product():
    ring = blowup_ring()
    for j in range(1, ring.nvars + 1):
        s = seidel_facet(ring, j).element
        for cj in range(-6, 7):
            factor = s if cj > 0 else invert(ring, s)
            want = unit(ring)
            for _ in range(abs(cj)):
                want = multiply(ring, want, factor)
            c = tuple(cj if k == j else 0 for k in range(1, ring.nvars + 1))
            assert seidel_composite(ring, c).element == want, (j, cj)


def test_seidel_composite_multiplicity_costs_log_products(monkeypatch):
    ring = blowup_ring()
    for j in range(1, ring.nvars + 1):
        seidel_inverse(ring, j)  # derive and cache every facet inverse
    # per facet two composites of at most 2 * 30 + 1 products each,
    # since 10^9 < 2^30
    calls = _count_multiplies(monkeypatch, limit=ring.nvars * 2 * (2 * 30 + 1))
    for j in range(1, ring.nvars + 1):
        c = tuple(10 ** 9 if k == j else 0 for k in range(1, ring.nvars + 1))
        pos = seidel_composite(ring, c).element
        neg = seidel_composite(ring, [-x for x in c]).element
        assert multiply(ring, pos, neg) == unit(ring), j


def test_seidel_composite_small_multiplicities_keep_product_count(monkeypatch):
    # |c_j| <= 2 costs |c_j| products, as one product per factor did
    ring = blowup_ring()
    for j in range(1, ring.nvars + 1):
        seidel_inverse(ring, j)
    calls = _count_multiplies(monkeypatch)
    rng = random.Random(59)
    for _ in range(100):
        c = [rng.randrange(-2, 3) for _ in range(ring.nvars)]
        del calls[:]
        seidel_composite(ring, c)
        assert len(calls) == sum(map(abs, c)), c


def test_element_from_monomial_matches_normal_form_oracle(homogeneous_cod):
    # oracle: one normal form of the raw monomial, the route taken for
    # every degree before powers were raised by square-and-multiply
    for name in ("blowup_cp3", "cp3", "cp1xcp1"):
        ring, _ = build_ring(builtin_polytope(name))
        for exps in product(range(5), repeat=ring.nvars):
            if sum(exps) > 8:
                continue
            raw = frozenset({exps})
            want = rehomogenize(ring.normal_form(raw), sum(exps), ring)
            got = element_from_monomial(ring, exps, qexp=-2)
            assert got == want.qshift(-2), (name, exps)
            assert homogeneous_cod(got) == sum(exps) + 2, (name, exps)


def test_element_from_monomial_power_costs_log_products(
        monkeypatch, low_degree_normal_forms):
    ring = blowup_ring()
    k = 10 ** 9
    want = seidel_composite(ring, (k, 0, 0, 0, 0)).element
    calls = _count_multiplies(monkeypatch, limit=2 * 30 + 1)
    # degree <= 1 is one normal form and no product, as facet elements
    # and parsed generators always were
    for j in range(ring.nvars + 1):
        element_from_monomial(ring, [int(i + 1 == j) for i in range(5)])
    assert not calls
    # X1^k q^k = S_1^k
    assert element_from_monomial(ring, (k, 0, 0, 0, 0), qexp=k) == want


def test_seidel_relation_keeps_product_count(monkeypatch, perfbench_module):
    # every |a_j| here is <= 3, where one product per factor and
    # square-and-multiply cost the same
    base = perfbench_module("inputs").named_bases()["cp2^3"]
    cases = []
    for p in (builtin_polytope("blowup_cp3"),
              Polytope.from_facets(base.dim, base.facets)):
        ring, _ = build_ring(p)
        seidel_facet(ring, 1)  # the one inversion, outside the count
        cases.append((ring, primitive_collection_data(p)))
    calls = _count_multiplies(monkeypatch)
    for ring, data in cases:
        for pc in data:
            assert max(-a for a in pc.batyrev) <= 3
            del calls[:]
            assert verify_seidel_relation(ring, pc)
            assert len(calls) == len(pc.indices) + \
                sum(-a for a in pc.batyrev if a < 0), pc


def test_seidel_relation_rejects_wrong_weights():
    # one more S_j on the right-hand side breaks every relation
    p = builtin_polytope("blowup_cp3")
    ring, _ = build_ring(p)
    for pc in primitive_collection_data(p):
        for j in range(ring.nvars):
            if j + 1 not in pc.indices:
                bad = list(pc.batyrev)
                bad[j] -= 1
                assert not verify_seidel_relation(
                    ring, pc._replace(batyrev=tuple(bad))), (pc, j)


def corpus_polytopes(perfbench_module):
    """The builtins, then every perfbench base."""
    bases = perfbench_module("inputs").named_bases()
    return [builtin_polytope(name) for name in BUILTINS] + [
        Polytope.from_facets(b.dim, b.facets) for b in bases.values()]


def test_seidel_inverse_matches_invert(perfbench_module):
    # S_j^-1 is derived from the inverse of the product of all facet
    # elements; invert computes it afresh from S_j alone
    for p in corpus_polytopes(perfbench_module):
        ring, _ = build_ring(p)
        for j in range(1, ring.nvars + 1):
            s = seidel_facet(ring, j).element
            assert seidel_inverse(ring, j) == invert(ring, s), (p, j)


def test_seidel_composite_negation_is_inverse():
    rng = random.Random(53)
    for name in ("cp3", "cp1xcp1", "blowup_cp3"):
        ring, _ = build_ring(builtin_polytope(name))
        for _ in range(20):
            c = [rng.randrange(-3, 4) for _ in range(ring.nvars)]
            c[rng.randrange(ring.nvars)] = -rng.randrange(1, 4)
            neg = [-x for x in c]
            prod = multiply(ring, seidel_composite(ring, c).element,
                            seidel_composite(ring, neg).element)
            assert prod == unit(ring), (name, c)


def test_nilpotent_facet_is_not_verified():
    # F2[X1, X2] / (X1^2, X2^2 + t^2): S_1 = X1 q squares to zero, so the
    # product of the facet elements is no unit and no facet is verified,
    # although S_2 = X2 q is its own inverse
    ring = QuotientRing((poly((2, 0, 0)), poly((0, 2, 0), (0, 0, 2))),
                        nvars=2)
    assert ring.dim == 4
    s1 = element_from_monomial(ring, (1, 0), qexp=1)
    s2 = element_from_monomial(ring, (0, 1), qexp=1)
    assert multiply(ring, s1, s1).is_zero()
    assert multiply(ring, s2, s2) == unit(ring)
    for j in (1, 2):
        with pytest.raises(NotInvertibleError):
            seidel_facet(ring, j)
    cert = uniruled_certificate(ring)
    assert cert.verdict == "inconclusive"
    assert cert.inverse is None and cert.reason
    assert cert.witness.element == s1 and cert.witness.provenance == 1


def test_hom_gb_matches_saturation_oracle(perfbench_module):
    for p in corpus_polytopes(perfbench_module):
        for flavor in ("quantum", "classical"):
            ring, _ = build_ring(p, flavor=flavor)
            oracle = saturate_t(buchberger(ring.generators,
                                           nvars=ring.nvars + 1))
            assert ring.hom_gb == oracle, (p, flavor)


def test_seidel_relations_all_builtins():
    for name in BUILTINS:
        p = builtin_polytope(name)
        ring, _ = build_ring(p)
        for pc in primitive_collection_data(p):
            assert verify_seidel_relation(ring, pc)


def test_verify_psi_all_builtins():
    for name in BUILTINS:
        p = builtin_polytope(name)
        ring, _ = build_ring(p)
        assert verify_psi(p, ring)


def test_verify_psi_negative_control():
    p = builtin_polytope("blowup_cp3")
    _, pres = build_ring(p)
    bad_rel = poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0))  # X1 + X4
    mutated = QuotientRing((bad_rel,) + pres.linear_relations[1:]
                           + pres.sr_relations, nvars=p.nfacets)
    assert hilbert_function(mutated) == (1, 2, 1)
    assert not verify_psi(p, mutated)


def test_verify_psi_perfbench_bases(perfbench_module):
    # each base's Betti vector comes from Kuenneth over cpN and the blowup,
    # computed without the program
    bases = perfbench_module("inputs").named_bases()
    assert len(bases) == 30

    def doubled(betti):
        out = [0] * (2 * len(betti) - 1)
        out[::2] = betti
        return tuple(out)

    for name, base in bases.items():
        p = Polytope.from_facets(base.dim, base.facets)
        ring, _ = build_ring(p)
        assert doubled(betti_numbers_L(p)) == doubled(base.betti), name
        assert verify_psi(p, ring), name


def test_uniruled_all_builtins():
    for name in BUILTINS:
        ring, _ = build_ring(builtin_polytope(name))
        cert = uniruled_certificate(ring)
        assert cert.verdict == "uniruled", name
        assert cert.fundamental_coefficient == frozenset()
        assert multiply(ring, cert.witness.element, cert.inverse) == \
            unit(ring)


def test_uniruled_inconclusive_for_classical():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"), flavor="classical")
    cert = uniruled_certificate(ring)
    assert cert.verdict == "inconclusive"
    assert cert.reason


def test_betti_crosscheck_builtins():
    for name in BUILTINS:
        report = betti_crosscheck(builtin_polytope(name))
        assert report.betti == tuple(reversed(report.hilbert))
    blow = betti_crosscheck(builtin_polytope("blowup_cp3"))
    assert blow.betti == (1, 2, 2, 1)
    assert blow.hilbert == (1, 2, 2, 1)


def test_scaled_hilbert_blowup():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"), flavor="classical")
    assert scaled_hilbert(ring, 2) == (1, 0, 2, 0, 2, 0, 1)


def test_min_quantum_degree():
    assert min_quantum_degree(builtin_polytope("cp1")) == 2
    assert min_quantum_degree(builtin_polytope("cp2")) == 3
    assert min_quantum_degree(builtin_polytope("cp5")) == 6
    assert min_quantum_degree(builtin_polytope("cp1xcp1")) == 2
    assert min_quantum_degree(builtin_polytope("blowup_cp3")) == 2


def test_qshift_and_rehomogenize_bookkeeping(homogeneous_cod):
    ring = blowup_ring()
    x = element_from_monomial(ring, (0, 0, 0, 0, 1))
    assert homogeneous_cod(x) == 1
    shifted = x.qshift(2)
    assert homogeneous_cod(shifted) == -1
    assert shifted.coeffs == {(0, 0, 0, 0, 1): frozenset({2})}
    assert shifted.qshift(-2) == x


def test_element_from_monomial_rejects_bad_exponents():
    # a short vector is not zero-padded, and a negative entry does not
    # underflow into a packed field
    ring = blowup_ring()
    for exps in ((1,), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, -1), (2, -1, 0, 0, 0)):
        with pytest.raises(ValueError, match="nonnegative"):
            element_from_monomial(ring, exps)


def test_homogeneous_cod_is_derived_from_coeffs(homogeneous_cod):
    ring = blowup_ring()
    yy = QHElement({(0, 0, 0, 1, 1): {0}, (0, 0, 0, 0, 0): {-2}})
    assert homogeneous_cod(yy) == 2
    assert homogeneous_cod(QHElement({})) is None
    x = element_from_monomial(ring, (0, 0, 0, 0, 1))
    assert homogeneous_cod(x + unit(ring)) is None  # cods 1 and 0
    mixed = QHElement({(0, 0, 0, 0, 1): {0, 1}})  # cods 1 and 0
    assert homogeneous_cod(mixed) is None


def test_equal_coeffs_built_in_any_order_are_equal():
    ring = blowup_ring()
    rng = random.Random(44)
    for _ in range(20):
        a = random_element(ring, rng)
        items = list(a.coeffs.items())
        rng.shuffle(items)
        b = QHElement(dict(items))
        terms = [QHElement({m: {e}}) for m, s in items for e in s]
        rng.shuffle(terms)
        c = sum(terms, QHElement({}))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
