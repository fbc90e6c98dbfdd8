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
        assert all(sum(e) <= 64 for e, _ in f), "normal form of a high power"
        return nf(self, f)

    monkeypatch.setattr(QuotientRing, "normal_form", bounded)
