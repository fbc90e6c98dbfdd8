import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_module():
    """Load one module of perfbench/ by name, leaving sys.path as it is
    (its modules have generic names such as ``inputs`` and ``tracing``)."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    return load


@pytest.fixture
def low_degree_normal_forms(monkeypatch):
    """Fail at once when a ring normal-forms a monomial of degree > 64,
    as reducing a raw X_j^k did, in time linear in k."""
    from toric_qh.f2ring import QuotientRing

    nf = QuotientRing.normal_form

    def bounded(self, f):
        assert all(sum(m) <= 64 for m in f), "normal form of a high power"
        return nf(self, f)

    monkeypatch.setattr(QuotientRing, "normal_form", bounded)


def _random_division(f, basis, rng):
    """Remainder of f by basis, each step reducing a term drawn by rng
    (any term, by any generator whose leading monomial divides it).

    The random-order form of ``test_f2ring.division_remainder``: exponent
    tuples and a local grevlex key, sharing no code with the packed
    kernel.  Once basis is a Groebner basis the remainder is the normal
    form, whatever the order of the steps.
    """
    def key(m):
        return (sum(m),) + tuple(-e for e in reversed(m))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    leads = [max(g, key=key) for g in basis]
    cur = set(f)
    while True:
        steps = [(m, k) for m in sorted(cur)
                 for k, lead in enumerate(leads) if divides(lead, m)]
        if not steps:
            return frozenset(cur)
        m, k = rng.choice(steps)
        lead = leads[k]
        cur ^= {tuple(x + y - z for x, y, z in zip(e, m, lead))
                for e in basis[k]}


@pytest.fixture
def random_division():
    """``_random_division(f, basis, rng)``, the confluence tests' oracle."""
    return _random_division


def _homogeneous_cod(el):
    """The one value of cod(m) - e over the support of a ``QHElement``, or
    None for a zero or mixed element."""
    cods = {sum(m) - e for m, exps in el.coeffs.items() for e in exps}
    return cods.pop() if len(cods) == 1 else None


@pytest.fixture
def homogeneous_cod():
    """``_homogeneous_cod(el)``, the grading check of the element tests."""
    return _homogeneous_cod
