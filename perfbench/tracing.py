"""Span recorder for the traced run, and the per-layer metrics derived
from its spans.

The recorder wraps the layer entry points listed in ``ENTRY_POINTS``
from outside the program: each name is replaced on its defining module
and on every ``toric_qh`` module that imported it, so calls within a
module and calls across modules both pass through the wrapper.
``QuotientRing`` methods are wrapped on the class.  Helpers that run in
the innermost loops (monomial arithmetic, ``face_nonempty``, ``mat``)
are left unwrapped: their time counts as self time of the calling
entry point, and wrapping them would let the tracer dominate the run.
"""

import json
import sys
from time import perf_counter

LAYERS = ("exact_linalg", "polytope", "f2ring", "qh", "cli")

ENTRY_POINTS = {
    "exact_linalg": ("solve_rational", "det", "hermite_normal_form",
                     "kernel_lattice_basis"),
    "polytope": ("enumerate_vertices", "validate_delzant", "require_delzant",
                 "primitive_collections", "batyrev_vector", "quantum_degree",
                 "primitive_collection_data", "generic_xi", "betti_numbers_L"),
    "f2ring": ("buchberger", "saturate_t", "reduce_poly", "hilbert_function",
               "rehomogenize"),
    "qh": ("build_ring", "linear_relations", "classical_sr", "quantum_sr",
           "element_from_monomial", "multiply", "invert", "seidel_facet",
           "seidel_composite", "verify_seidel_relation", "verify_psi",
           "uniruled_certificate", "scaled_hilbert", "betti_crosscheck",
           "min_quantum_degree"),
    "cli": ("run_command", "load_polytope", "builtin_polytope",
            "polytope_from_data", "parse_element", "render_element",
            "render_poly", "render_text"),
}
METHODS = {("f2ring", "QuotientRing"): ("__init__", "normal_form")}

# Sizes kept on the span: the ring rank of each inversion.
SIZES = {"qh.invert": lambda args, out: args[0].dim}

SELFCHECK_STAGES = ("delzant", "fano_degrees", "min_quantum_degree",
                    "betti_crosscheck", "seidel_relations", "psi", "uniruled")


class Recorder:
    """In-memory spans: (id, name, start, end, parent id, op id, size).

    ``op`` is the id of the traced operation in progress.  While it is
    None (set-up, output checks, untraced operations) the wrappers call
    straight through and record nothing.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op = None

    def wrap(self, name, fn):
        spans, stack, size = self.spans, self.stack, SIZES.get(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            value = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if size is not None:
                    value = size(args, out)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, value))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry point of an already imported ``toric_qh``."""
        mods = [m for n, m in sys.modules.items()
                if n == "toric_qh" or n.startswith("toric_qh.")]
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules["toric_qh." + layer]
            for name in names:
                orig = getattr(home, name)
                traced = self.wrap(f"{layer}.{name}", orig)
                for m in mods:
                    if getattr(m, name, None) is orig:
                        setattr(m, name, traced)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules["toric_qh." + layer], cls_name)
            for name in names:
                setattr(cls, name, self.wrap(f"{layer}.{cls_name}.{name}",
                                             getattr(cls, name)))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def layer_metrics(spans, n_ops):
    """Per-layer metrics, each a mean per timed operation.

    Self time of a span is its duration minus the durations of its
    direct children; a layer's self time sums its spans' self times.
    """
    child = {}
    for sid, name, start, end, parent, op, size in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl = {}
    calls = {}
    sizes = {}
    nf_miss = set()
    for sid, name, start, end, parent, op, size in spans:
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child.get(sid, 0.0)
        incl[name] = incl.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if size is not None:
            sizes.setdefault(name, []).append(size)
        if name == "f2ring.reduce_poly":
            nf_miss.add(parent)
    n = max(n_ops, 1)
    nf_spans = [s[0] for s in spans if s[1] == "f2ring.QuotientRing.normal_form"]
    nf_hits = sum(1 for sid in nf_spans if sid not in nf_miss)

    ranks = sizes.get("qh.invert", [])
    out = {f"{layer}.self_ms": self_s[layer] * 1000 / n for layer in LAYERS}
    for name in ("exact_linalg.solve_rational", "polytope.enumerate_vertices",
                 "polytope.primitive_collections", "polytope.batyrev_vector",
                 "f2ring.buchberger", "f2ring.reduce_poly", "qh.build_ring",
                 "qh.multiply", "qh.invert", "qh.seidel_facet"):
        out[f"{name}.calls"] = calls.get(name, 0) / n
    for name in ("polytope.enumerate_vertices", "polytope.primitive_collections",
                 "f2ring.buchberger", "f2ring.saturate_t", "qh.build_ring",
                 "qh.multiply", "qh.invert", "cli.load_polytope"):
        out[f"{name}.ms"] = incl.get(name, 0.0) * 1000 / n
    out["f2ring.QuotientRing.calls"] = calls.get("f2ring.QuotientRing.__init__", 0) / n
    out["f2ring.normal_form.hit_ratio"] = nf_hits / len(nf_spans) if nf_spans else 0.0
    out["qh.invert.rank"] = sum(ranks) / len(ranks) if ranks else 0.0
    out["trace.spans_per_op"] = len(spans) / n
    return out
