"""Acceptance gate: ten end-to-end criteria, each printing one line.

Every comparison is exact; there are no tolerances anywhere in this file.
"""

import io
import itertools
import random

from toric_qh.cli import (
    BUILTIN_NAMES,
    builtin_polytope,
    load_polytope,
    run_command,
)
from toric_qh.f2ring import (
    QHElement,
    QuotientRing,
    buchberger,
    hilbert_function,
    reduce_poly,
    rehomogenize,
    saturate_t,
)
from toric_qh.polytope import (
    enumerate_vertices,
    generic_xi,
    morse_index_L,
    primitive_collection_data,
    validate_delzant,
)
from toric_qh.qh import (
    betti_crosscheck,
    build_ring,
    element_from_monomial,
    invert,
    multiply,
    seidel_composite,
    uniruled_certificate,
    unit,
    verify_psi,
    verify_seidel_relation,
)


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def poly(*monos):
    return frozenset(map(tuple, monos))


def report(n):
    print(f"CRITERION {n:02d}: PASS")


def test_criterion_01_blowup_presentation():
    ring, pres = build_ring(builtin_polytope("blowup_cp3"))
    assert ring.dim == 6
    assert pres.nvars == 5
    linear = {g for g in ring.hom_gb.generators
              if max(sum(m[:-1]) for m in g) == 1}
    assert linear == {
        poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)),
        poly((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
             (0, 0, 0, 0, 1, 0)),
    }
    reduced = set(ring.hom_gb.generators) - linear
    # X^3 = Y q^-2 and Y(X+Y) = [L] q^-2 with X = X5 class, Y = X4 class
    assert reduced == {
        poly((0, 0, 0, 0, 3, 0), (0, 0, 0, 1, 0, 2)),
        poly((0, 0, 0, 2, 0, 0), (0, 0, 0, 1, 1, 0),
             (0, 0, 0, 0, 0, 2)),
    }
    code, out = run(["presentation", "--space", "L", "--flavor", "quantum",
                     "blowup_cp3"])
    assert code == 0
    assert "rank 6" in out
    assert "  X1^3 + X4*q^-2\n" in out
    assert "  X4^2 + X1*X4 + q^-2\n" in out
    assert "aliases: X=X1 Y=X4" in out
    report(1)


def test_criterion_02_blowup_products():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    y = element_from_monomial(ring, (0, 0, 0, 1, 0))
    yy = multiply(ring, y, y)
    assert yy.coeffs == {(0, 0, 0, 1, 1): frozenset({0}),
                         (0, 0, 0, 0, 0): frozenset({-2})}
    twice_e4 = seidel_composite(ring, (0, 0, 0, 2, 0)).element
    assert twice_e4.coeffs == {(0, 0, 0, 1, 1): frozenset({2}),
                               (0, 0, 0, 0, 0): frozenset({0})}
    mixed = seidel_composite(ring, (1, 1, 0, 1, 0)).element
    assert mixed.coeffs == {(0, 0, 0, 1, 2): frozenset({3})}
    assert run(["mul", "Y", "Y", "blowup_cp3"]) == (0, "X1*X4 + L*q^-2\n")
    assert run(["seidel", "--combo", "0,0,0,2,0", "blowup_cp3"]) == \
        (0, "X1*X4*q^2 + L\n")
    assert run(["seidel", "--combo", "1,1,0,1,0", "blowup_cp3"]) == \
        (0, "X1^2*X4*q^3\n")
    report(2)


def exhaustive_relation_vectors(p, indices):
    """All integer relations with unit coefficients on the collection,
    nonpositive off it, and positive quantum degree.  The degree bound
    sum |a_j| <= |I| - 1 makes the search finite."""
    d = p.nfacets
    size = len(indices)
    off = [j for j in range(1, d + 1) if j not in indices]
    found = []
    for combo in itertools.product(range(-(size - 1), 1), repeat=len(off)):
        if sum(-c for c in combo) > size - 1:
            continue
        a = [0] * d
        for i in indices:
            a[i - 1] = 1
        for j, c in zip(off, combo):
            a[j - 1] = c
        sums = [sum(a[i] * p.normals[i][k] for i in range(d))
                for k in range(p.dim)]
        if all(x == 0 for x in sums):
            found.append(tuple(a))
    return found


def test_criterion_03_batyrev_vectors_unique():
    p = builtin_polytope("blowup_cp3")
    pcs = primitive_collection_data(p)
    assert len(pcs) == 2
    got = {pc.indices: (pc.batyrev, pc.m) for pc in pcs}
    assert got == {(1, 2, 5): ((1, 1, 0, -1, 1), 2),
                   (3, 4): ((0, 0, 1, 1, 0), 2)}
    for pc in pcs:
        assert exhaustive_relation_vectors(p, pc.indices) == [pc.batyrev]
    report(3)


def test_criterion_04_projective_family():
    for n in range(1, 6):
        p = builtin_polytope(f"cp{n}")
        ring, _ = build_ring(p)
        assert ring.dim == n + 1
        # oracle: assemble the expected ideal directly from the single
        # primitive collection with the all-ones relation vector
        d = n + 1
        lin = []
        for i in range(n):
            e_i = [0] * (d + 1)
            e_i[i] = 1
            e_last = [0] * (d + 1)
            e_last[n] = 1
            lin.append(poly(e_i, e_last))
        sr = poly([1] * d + [0], [0] * d + [d])
        oracle = QuotientRing(tuple(lin) + (sr,), nvars=d)
        assert set(oracle.hom_gb.generators) == set(ring.hom_gb.generators)
        top = [0] * (d + 1)
        top[n] = d
        want_reduced = poly(top, [0] * d + [d])
        nonlinear = {g for g in ring.hom_gb.generators
                     if max(sum(m[:-1]) for m in g) > 1}
        assert nonlinear == {want_reduced}
        # independent Morse sweep
        xi = generic_xi(p)
        hist = [0] * (n + 1)
        for v in enumerate_vertices(p):
            hist[morse_index_L(v, xi)] += 1
        assert tuple(hist) == (1,) * (n + 1)
        code, out = run(["presentation", f"cp{n}"])
        assert code == 0
        assert f"  X1^{d} + q^-{d}\n" in out
    report(4)


def test_criterion_05_betti_crosscheck():
    for name in ("cp1", "cp2", "cp3", "cp1xcp1", "blowup_cp3"):
        rep = betti_crosscheck(builtin_polytope(name))
        assert rep.betti == tuple(reversed(rep.hilbert))
        p = builtin_polytope(name)
        ring_l, _ = build_ring(p, flavor="classical")
        assert rep.hilbert == hilbert_function(ring_l)
        xi = generic_xi(p)
        hist = [0] * (p.dim + 1)
        for v in enumerate_vertices(p):
            hist[morse_index_L(v, xi)] += 1
        assert tuple(hist) == rep.betti
    assert betti_crosscheck(builtin_polytope("blowup_cp3")).betti == \
        (1, 2, 2, 1)
    report(5)


def test_criterion_06_psi_isomorphism():
    for name in BUILTIN_NAMES:
        p = builtin_polytope(name)
        ring, _ = build_ring(p)
        assert verify_psi(p, ring), name
    blow = builtin_polytope("blowup_cp3")
    _, pres = build_ring(blow)
    mutated = QuotientRing(
        (poly((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),)
        + pres.linear_relations[1:] + pres.sr_relations, nvars=blow.nfacets)
    assert not verify_psi(blow, mutated)
    report(6)


def test_criterion_07_seidel_relations_and_morphism():
    for name in BUILTIN_NAMES:
        p = builtin_polytope(name)
        ring, _ = build_ring(p)
        for pc in primitive_collection_data(p):
            assert verify_seidel_relation(ring, pc), (name, pc.indices)
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    rng = random.Random(20260818)
    for _ in range(100):
        c1 = tuple(rng.randint(-2, 2) for _ in range(5))
        c2 = tuple(rng.randint(-2, 2) for _ in range(5))
        lhs = multiply(ring, seidel_composite(ring, c1).element,
                       seidel_composite(ring, c2).element)
        rhs = seidel_composite(
            ring, tuple(a + b for a, b in zip(c1, c2))).element
        assert lhs == rhs, (c1, c2)
    report(7)


def f2x_divmod(a, b):
    q = 0
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        s = a.bit_length() - 1 - db
        q ^= 1 << s
        a ^= b << s
    return q, a


def f2x_inverse(a, p):
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1:
        q, r = f2x_divmod(r0, r1)
        r0, r1 = r1, r
        prod = 0
        qq, ss = q, s1
        while qq:
            if qq & 1:
                prod ^= ss
            qq >>= 1
            ss <<= 1
        s0, s1 = s1, s0 ^ prod
    return f2x_divmod(s0, p)[1] if r0 == 1 else None


def test_criterion_08_uniruled_certificates():
    for name in BUILTIN_NAMES:
        ring, _ = build_ring(builtin_polytope(name))
        cert = uniruled_certificate(ring)
        assert cert.verdict == "uniruled", name
        assert cert.fundamental_coefficient == frozenset()
        assert multiply(ring, cert.witness.element, cert.inverse) == \
            unit(ring)
    # collapsing q to 1 identifies the blowup ring with F2[X]/(X^6+X^4+1);
    # the inverse of X*q must match the extended-Euclid inverse of X
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    p_mask = 0b1010001
    inv_mask = f2x_inverse(0b10, p_mask)
    assert inv_mask == 0b101000
    basis_to_xpow = (0, 1, 3, 2, 4, 5)
    want = {}
    for i, xp in enumerate(basis_to_xpow):
        if inv_mask >> xp & 1:
            m = ring.basis[i]
            want[m] = frozenset({ring.cod[m]})
    xq = element_from_monomial(ring, (0, 0, 0, 0, 1), qexp=1)
    assert invert(ring, xq).coeffs == want
    report(8)


def test_criterion_09_delzant_gatekeeping():
    rep = validate_delzant(load_polytope("tests/fixtures/det2_square.json"))
    assert not rep.ok
    assert all(r.startswith("RejectNonUnimodular") for r in rep.reasons)
    code, out = run(["validate", "tests/fixtures/det2_square.json"])
    assert code == 1
    assert "RejectNonUnimodular" in out
    rep = validate_delzant(load_polytope("tests/fixtures/pyramid.json"))
    assert not rep.ok
    assert all(r.startswith("RejectNonSimple") for r in rep.reasons)
    code, out = run(["validate", "tests/fixtures/pyramid.json"])
    assert code == 1
    assert "RejectNonSimple" in out
    report(9)


def dual_route_normal_forms(name, nvars, homogeneous_cod):
    ring, _ = build_ring(builtin_polytope(name))
    assert ring.nvars == nvars
    # the homogeneous route starts from the generators, not from ring.gb,
    # from which ring.hom_gb is derived
    hom_gb = saturate_t(buchberger(ring.generators, nvars=ring.nvars + 1))
    count = 0
    for exps in itertools.product(range(7), repeat=nvars):
        cod = sum(exps)
        if cod > 6:
            continue
        count += 1
        affine = ring.normal_form(frozenset({exps}))
        via_affine = rehomogenize(affine, cod, ring)
        hom_nf = reduce_poly(frozenset({exps + (0,)}), hom_gb)
        coeffs = {}
        for m in hom_nf:
            coeffs.setdefault(m[:-1], set()).add(-m[-1])
        via_hom = QHElement(coeffs)
        if via_hom.coeffs:
            assert homogeneous_cod(via_hom) == cod, exps
        assert via_affine == via_hom, exps
    return count


def test_criterion_10_dual_route_and_confluence(random_division,
                                                homogeneous_cod):
    assert dual_route_normal_forms("blowup_cp3", 5, homogeneous_cod) == 462
    assert dual_route_normal_forms("cp3", 4, homogeneous_cod) == 210
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    gb = saturate_t(buchberger(ring.generators, nvars=ring.nvars + 1))
    rng = random.Random(97)
    nonzero = 0
    for _ in range(200):
        exps = tuple(rng.randrange(5) for _ in range(5))
        f = frozenset({exps + (rng.randrange(3),)})
        alt = random.Random(rng.randrange(10 ** 9))
        nf = reduce_poly(f, gb)
        assert nf == random_division(f, gb.generators, alt)
        nonzero += bool(nf)
    # every remainder is 0 modulo the unit ideal, where the check is void
    assert nonzero
    report(10)
