import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from toric_qh.cli import (
    BUILTIN_NAMES,
    DisplayMap,
    _build_parser,
    builtin_polytope,
    load_polytope,
    parse_element,
    polytope_from_data,
    polytope_to_json,
    render_element,
    render_text,
    run_command,
)
from toric_qh.errors import ParseError, SchemaError
from toric_qh.qh import build_ring


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def test_validate_builtin_text():
    code, out = run(["validate", "blowup_cp3"])
    assert code == 0
    assert out == "blowup_cp3: VALID (6 vertices)\n"


def test_validate_rejected_fixture():
    code, out = run(["validate", "tests/fixtures/det2_square.json"])
    assert code == 1
    assert out == (
        "tests/fixtures/det2_square.json: REJECTED\n"
        "  RejectNonUnimodular: vertex (0, 0) has |det| = 2\n"
        "  RejectNonUnimodular: vertex (1, -1/2) has |det| = 2\n")
    code, out = run(["validate", "tests/fixtures/pyramid.json"])
    assert code == 1
    assert "RejectNonSimple: vertex (0, 0, 1)" in out


def test_vertices_text_frozen():
    code, out = run(["vertices", "blowup_cp3"])
    assert code == 0
    assert out == (
        "(0, 0, 0)  tight {1,2,3}\n"
        "(0, 0, 1/2)  tight {1,2,4}\n"
        "(0, 1/2, 1/2)  tight {1,4,5}\n"
        "(0, 1, 0)  tight {1,3,5}\n"
        "(1/2, 0, 1/2)  tight {2,4,5}\n"
        "(1, 0, 0)  tight {2,3,5}\n")


def test_primitives_text_frozen():
    code, out = run(["primitives", "blowup_cp3"])
    assert code == 0
    assert out == (
        "I={1,2,5}  a=(1,1,0,-1,1)  m=2\n"
        "I={3,4}  a=(0,0,1,1,0)  m=2\n")


def test_presentation_quantum_l_frozen():
    code, out = run(["presentation", "--space", "L", "--flavor", "quantum",
                     "blowup_cp3"])
    assert code == 0
    assert out == (
        "space L  flavor quantum  rank 6\n"
        "hilbert (1, 2, 2, 1)\n"
        "linear relations:\n"
        "  X1 + X5\n"
        "  X2 + X5\n"
        "  X3 + X4 + X5\n"
        "stanley-reisner relations:\n"
        "  X1*X2*X5 + X4*q^-2\n"
        "  X3*X4 + q^-2\n"
        "reduced relations:\n"
        "  X1^3 + X4*q^-2\n"
        "  X4^2 + X1*X4 + q^-2\n"
        "basis: L, X1, X4, X1^2, X1*X4, X1^2*X4\n"
        "classes: X1 <- facets 1,2,5; X4 <- facets 4\n"
        "aliases: X=X1 Y=X4\n")


def test_presentation_m_space_uses_y_and_q():
    code, out = run(["presentation", "--space", "M", "blowup_cp3"])
    assert code == 0
    assert "space M  flavor quantum  rank 6" in out
    assert "hilbert (1, 0, 2, 0, 2, 0, 1)" in out
    assert "  Y1^3 + Y4*Q^-2\n" in out
    assert "basis: L, Y1, Y4, Y1^2, Y1*Y4, Y1^2*Y4" in out


def test_presentation_classical_frozen():
    code, out = run(["presentation", "--flavor", "classical", "blowup_cp3"])
    assert code == 0
    assert "reduced relations:\n  X1^3\n  X4^2 + X1*X4\n" in out


def test_presentation_cp3_single_relation():
    code, out = run(["presentation", "cp3"])
    assert code == 0
    assert "reduced relations:\n  X1^4 + q^-4\n" in out
    assert "basis: L, X1, X1^2, X1^3\n" in out
    assert "aliases: X=X1\n" in out


def test_seidel_facet_and_combos():
    cases = [
        (["seidel", "--facet", "4", "blowup_cp3"], "X4*q\n"),
        (["seidel", "--facet", "1", "blowup_cp3"], "X1*q\n"),
        (["seidel", "--combo", "1,1,0,-1,1", "blowup_cp3"], "L\n"),
        (["seidel", "--combo", "1,0,0,1,0", "blowup_cp3"], "X1*X4*q^2\n"),
        (["seidel", "--combo", "1,0,0,1,1", "blowup_cp3"], "X1^2*X4*q^3\n"),
        (["seidel", "--combo", "-1,0,0,0,0", "blowup_cp3"],
         "X1^2*X4*q^3 + X4*q\n"),
        (["seidel", "--combo", "-1,-1,0,1,-1", "blowup_cp3"], "L\n"),
    ]
    for argv, want in cases:
        code, out = run(argv)
        assert code == 0, argv
        assert out == want, argv


def test_mul_invert_frozen():
    code, out = run(["mul", "Y", "Y", "blowup_cp3"])
    assert (code, out) == (0, "X1*X4 + L*q^-2\n")
    code, out = run(["mul", "X", "X*X", "blowup_cp3"])
    assert (code, out) == (0, "X4*q^-2\n")
    code, out = run(["invert", "X1*q", "blowup_cp3"])
    assert (code, out) == (0, "X1^2*X4*q^3 + X4*q\n")
    code, out = run(["invert", "L", "blowup_cp3"])
    assert (code, out) == (0, "L\n")


def test_invert_noninvertible_exit_one():
    code, out = run(["invert", "X1 + L", "blowup_cp3"])
    assert code == 1
    assert out.startswith("error[NotInvertible]:")


def test_invert_large_negative_exponents_answer_at_once():
    # invert shifts its F2[t] masks by the largest q-exponent, negative
    # ones included, so a mask is as wide as the spread of the exponents,
    # not as their size
    t0 = perf_counter()
    code, out = run(["invert", "q^-1000000000000", "cp2"])
    assert (code, out) == (0, "L*q^1000000000000\n")
    code, out = run(["invert", "X1*q^-100000", "blowup_cp3"])
    assert (code, out) == (0, "X1^2*X4*q^100004 + X4*q^100002\n")
    assert perf_counter() - t0 < 1


def test_betti_text_and_xi():
    code, out = run(["betti", "blowup_cp3"])
    assert (code, out) == (0, "betti (1, 2, 2, 1)  xi (1, 2, 4)  total 6\n")
    code, out = run(["betti", "--xi", "1,2,4", "blowup_cp3"])
    assert out == "betti (1, 2, 2, 1)  xi (1, 2, 4)  total 6\n"
    code, out = run(["betti", "--xi", "0,0,1", "blowup_cp3"])
    assert code == 1
    assert out.startswith("error[NonGenericXi]:")
    code, out = run(["betti", "--xi", "-1,-2,-4", "blowup_cp3"])
    assert (code, out) == (0, "betti (1, 2, 2, 1)  xi (-1, -2, -4)  total 6\n")


def test_psi_check_and_uniruled():
    for name in BUILTIN_NAMES:
        code, out = run(["psi-check", name])
        assert (code, out) == (0, "psi isomorphism: OK\n"), name
    code, out = run(["uniruled", "blowup_cp3"])
    assert code == 0
    assert out == ("verdict: uniruled\n"
                   "witness: X1*q\n"
                   "inverse: X1^2*X4*q^3 + X4*q\n")


def test_inconclusive_uniruled_text_prints_its_reason():
    code, out = run(["--format", "json", "uniruled", "blowup_cp3"])
    assert code == 0
    report = json.loads(out)
    report.update(verdict="inconclusive", inverse=None,
                  reason="witness carries a fundamental-class term")
    assert render_text(report) == (
        "verdict: inconclusive\n"
        "witness: X1*q\n"
        "reason: witness carries a fundamental-class term")


def test_one_ring_per_flavor(monkeypatch):
    # M is the L ring with doubled degrees, not a second ring: selfcheck
    # builds the classical and the quantum ring once each and never
    # saturates, and psi-check builds the quantum ring alone
    import toric_qh.cli as cli
    import toric_qh.f2ring as f2ring
    import toric_qh.qh as qh

    rings, saturations = [], []
    real_init = f2ring.QuotientRing.__init__
    real_saturate = f2ring.saturate_t

    def counting_init(self, *args, **kwargs):
        rings.append(args)
        real_init(self, *args, **kwargs)

    def counting_saturate(*args, **kwargs):
        saturations.append(args)
        return real_saturate(*args, **kwargs)

    monkeypatch.setattr(f2ring.QuotientRing, "__init__", counting_init)
    for mod in (f2ring, qh, cli):
        if hasattr(mod, "saturate_t"):
            monkeypatch.setattr(mod, "saturate_t", counting_saturate)
    code, _ = run(["selfcheck", "blowup_cp3"])
    assert (code, len(rings), len(saturations)) == (0, 2, 0)
    rings.clear()
    code, _ = run(["psi-check", "blowup_cp3"])
    assert (code, len(rings)) == (0, 1)


def test_selfcheck_pass_and_fail():
    code, out = run(["selfcheck", "blowup_cp3"])
    assert code == 0
    for stage in ("delzant", "fano_degrees", "min_quantum_degree",
                  "betti_crosscheck", "seidel_relations", "psi", "uniruled"):
        assert f"[PASS] {stage}" in out
    assert out.rstrip().endswith("selfcheck: OK")
    code, out = run(["selfcheck", "tests/fixtures/det2_square.json"])
    assert code == 1
    assert "[FAIL] delzant" in out
    assert out.count("[SKIP]") == 6
    assert out.rstrip().endswith("selfcheck: FAILED")


def test_selfcheck_skips_every_stage_after_a_failed_delzant_check():
    code, out = run(["--format", "json", "selfcheck",
                     "tests/fixtures/det2_square.json"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and report["ok"] is False
    first, *rest = report["checks"]
    assert (first["name"], first["ok"]) == ("delzant", False)
    assert rest == [{"name": name, "skipped": True} for name in (
        "fano_degrees", "min_quantum_degree", "betti_crosscheck",
        "seidel_relations", "psi", "uniruled")]


def test_selfcheck_reports_a_failed_crosscheck(monkeypatch):
    # a Morse sweep that disagrees with the classical Hilbert function
    # fails the betti_crosscheck stage, with both vectors in its message;
    # the report itself carries no top-level error
    import toric_qh.qh as qh

    monkeypatch.setattr(qh, "betti_numbers_L", lambda p, xi=None: (1, 2, 1))
    code, out = run(["--format", "json", "selfcheck", "cp2"])
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and "error" not in report
    stage, = (c for c in report["checks"] if c["name"] == "betti_crosscheck")
    assert stage["ok"] is False
    assert stage["detail"]["error"]["code"] == "CrosscheckFailed"
    assert stage["detail"]["error"]["message"].endswith(
        ": (1, 1, 1) vs (1, 2, 1)")


def test_selfcheck_on_delzant_non_fano_input(tmp_path):
    # Hirzebruch F3 is Delzant, but its collection {1, 3} has quantum
    # degree -1: the classical stages pass, and every stage that needs
    # the quantum degrees fails with FanoViolation
    path = tmp_path / "hirzebruch3.json"
    path.write_text(json.dumps({"dim": 2, "convention": "inward", "facets": [
        {"normal": [1, 0], "offset": [0, 1]},
        {"normal": [0, 1], "offset": [0, 1]},
        {"normal": [-1, 3], "offset": [-1, 1]},
        {"normal": [0, -1], "offset": [-1, 1]}]}))
    code, out = run(["--format", "json", "selfcheck", str(path)])
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["delzant"]["ok"] and checks["betti_crosscheck"]["ok"]
    for name in ("fano_degrees", "min_quantum_degree", "seidel_relations",
                 "psi", "uniruled"):
        assert checks[name]["ok"] is False, name
        assert checks[name]["detail"]["error"]["code"] == "FanoViolation"
    code, out = run(["selfcheck", str(path)])
    assert code == 1
    assert out.rstrip().endswith("selfcheck: FAILED")


def test_selfcheck_all_builtins_pass():
    for name in BUILTIN_NAMES:
        code, out = run(["selfcheck", name])
        assert code == 0, (name, out)



def test_one_morse_sweep_per_selfcheck(monkeypatch):
    # betti_crosscheck and psi both read the default-xi Betti numbers,
    # which are swept once per polytope: one Morse index per vertex
    import toric_qh.polytope as polytope

    calls = []
    real = polytope.morse_index_L

    def counting(v, xi):
        calls.append(v)
        return real(v, xi)

    monkeypatch.setattr(polytope, "morse_index_L", counting)
    code, _ = run(["selfcheck", "blowup_cp3"])
    assert (code, len(calls)) == (0, 6)


def test_selfcheck_makes_no_inversion(monkeypatch, tmp_path, perfbench_module):
    # the seidel_relations and uniruled stages rest on one inverse: that of
    # the product of the facet elements, which certifies every facet; it is
    # the Seidel element of the reversed loop, read from the fan and
    # checked by one product, so no selfcheck calls invert
    import toric_qh.qh as qh
    from toric_qh.polytope import Polytope

    base = perfbench_module("inputs").named_bases()["cp2xcp2"]
    path = tmp_path / "cp2xcp2.json"
    path.write_text(json.dumps(polytope_to_json(
        Polytope.from_facets(base.dim, base.facets))), encoding="utf-8")
    calls = []
    real = qh.invert

    def counting(ring, a):
        calls.append(a)
        return real(ring, a)

    monkeypatch.setattr(qh, "invert", counting)
    for source in ("blowup_cp3", str(path)):
        calls.clear()
        code, _ = run(["selfcheck", source])
        assert (code, len(calls)) == (0, 0), source


def test_polytope_freed_with_its_derived_data(tmp_path):
    # derived data lives on the polytope, not in a process-wide cache,
    # so nothing keeps a polytope alive once its caller drops it
    import gc
    import weakref
    from fractions import Fraction

    from toric_qh.polytope import (
        Polytope,
        betti_numbers_L,
        primitive_collection_data,
        validate_delzant,
    )

    base = builtin_polytope("blowup_cp3")
    shift = (Fraction(1, 2), -3, Fraction(2, 3))
    moved = Polytope(base.dim, base.normals, tuple(
        a + sum(x * t for x, t in zip(v, shift))
        for v, a in zip(base.normals, base.offsets)))
    path = tmp_path / "translate.json"
    path.write_text(json.dumps(polytope_to_json(moved)), encoding="utf-8")
    p = load_polytope(str(path))
    assert validate_delzant(p).ok
    assert validate_delzant(p) is validate_delzant(p)
    assert primitive_collection_data(p) is primitive_collection_data(p)
    assert betti_numbers_L(p) == (1, 2, 2, 1)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_selfcheck_cp30_passes():
    # a ring of 31 variables, built twice over the selfcheck stages
    code, out = run(["--format", "json", "selfcheck", "cp30"])
    assert code == 0, out
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["ok"] for c in data["checks"])

def test_json_reports_parse_and_carry_schema():
    code, out = run(["--format", "json", "mul", "Y", "Y", "blowup_cp3"])
    assert code == 0
    data = json.loads(out)
    assert data == {"schema_version": 1, "command": "mul",
                    "source": "blowup_cp3", "ok": True,
                    "lhs": "X4", "rhs": "X4", "result": "X1*X4 + L*q^-2"}
    code, out = run(["--format", "json", "validate", "cp2"])
    data = json.loads(out)
    assert data["ok"] is True and data["valid"] is True
    assert data["vertex_count"] == 3
    assert data["facets"][2] == {"normal": [-1, -1], "offset": "-pi"}
    code, out = run(["--format", "json", "selfcheck", "cp2"])
    data = json.loads(out)
    assert data["passed"] is True
    assert [c["name"] for c in data["checks"]] == [
        "delzant", "fano_degrees", "min_quantum_degree", "betti_crosscheck",
        "seidel_relations", "psi", "uniruled"]
    assert all(c["ok"] for c in data["checks"])


def test_json_error_report():
    code, out = run(["--format", "json", "invert", "X1 + L", "blowup_cp3"])
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["error"]["code"] == "NotInvertible"


def test_memory_error_is_a_typed_report(monkeypatch):
    import toric_qh.cli as cli

    def exhausted(ring, element):
        raise MemoryError

    monkeypatch.setattr(cli, "invert", exhausted)
    code, out = run(["--format", "json", "invert", "X1", "blowup_cp3"])
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["error"] == {"code": "OutOfMemory",
                             "message": "invert ran out of memory"}
    code, out = run(["invert", "X1", "blowup_cp3"])
    assert (code, out) == (1, "error[OutOfMemory]: invert ran out of memory\n")


def test_memory_error_under_an_address_space_limit():
    # a q-exponent spread of 10^12 asks invert for a 125 GB mask; under a
    # 2 GB address space the allocation fails at once, and the command
    # reports it instead of printing a traceback
    resource = pytest.importorskip("resource")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    limit = 2 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "toric_qh", "--format", "json", "invert",
         "X1 + q^1000000000000", "blowup_cp3"],
        env=env, capture_output=True, text=True, preexec_fn=cap_memory,
        timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"]["code"] == "OutOfMemory"


def test_format_from_environment(monkeypatch):
    monkeypatch.setenv("TORIC_QH_FORMAT", "json")
    code, out = run(["validate", "cp2"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    # explicit flag wins over the environment
    code, out = run(["--format", "text", "validate", "cp2"])
    assert out == "cp2: VALID (3 vertices)\n"
    code, out = run(["validate", "--format", "text", "cp2"])
    assert out == "cp2: VALID (3 vertices)\n"


def test_invalid_format_rejected(monkeypatch):
    code = run_command(["--format", "yaml", "validate", "cp2"],
                       out=io.StringIO())
    assert code == 2
    monkeypatch.setenv("TORIC_QH_FORMAT", "yaml")
    code = run_command(["validate", "cp2"], out=io.StringIO())
    assert code == 2


def test_format_environment_read_on_every_call(monkeypatch):
    # the parser is built once per process, so the environment must be
    # read by each call, not baked into the parser's default
    assert _build_parser() is _build_parser()
    monkeypatch.setenv("TORIC_QH_FORMAT", "json")
    code, out = run(["validate", "cp2"])
    assert code == 0 and json.loads(out)["valid"] is True
    monkeypatch.setenv("TORIC_QH_FORMAT", "text")
    code, out = run(["validate", "cp2"])
    assert (code, out) == (0, "cp2: VALID (3 vertices)\n")
    monkeypatch.setenv("TORIC_QH_FORMAT", "json")
    code, out = run(["validate", "cp2"])
    assert json.loads(out)["vertex_count"] == 3
    monkeypatch.delenv("TORIC_QH_FORMAT")
    code, out = run(["validate", "cp2"])
    assert out == "cp2: VALID (3 vertices)\n"
    assert run_command(["--format", "", "validate", "cp2"],
                       out=io.StringIO()) == 2


def test_usage_errors_exit_two():
    assert run_command([], out=io.StringIO()) == 2
    assert run_command(["frobnicate", "cp2"], out=io.StringIO()) == 2
    assert run_command(["seidel", "blowup_cp3"], out=io.StringIO()) == 2
    assert run_command(["seidel", "--facet", "1", "--combo", "1,0,0,0,0",
                        "blowup_cp3"], out=io.StringIO()) == 2
    # a trailing --combo or --xi has no value to join and reaches argparse
    # as it is
    assert run_command(["seidel", "blowup_cp3", "--combo"],
                       out=io.StringIO()) == 2
    assert run_command(["betti", "blowup_cp3", "--xi"],
                       out=io.StringIO()) == 2


def test_out_of_range_arguments_exit_two():
    code, out = run(["seidel", "--facet", "0", "cp2"])
    assert (code, out) == (
        2, "error[ParseError]: facet index 0 out of range 1..3\n")
    code, out = run(["betti", "--xi", "1,a", "cp2"])
    assert (code, out) == (2, "error[ParseError]: bad xi entry 'a'\n")


def test_io_errors_exit_two(tmp_path):
    code, out = run(["validate", str(tmp_path / "missing.json")])
    assert code == 2
    assert out.startswith("error[ParseError]:")
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2')
    code, out = run(["validate", str(bad)])
    assert code == 2
    assert out.startswith("error[ParseError] (line ")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "dim": 2, "convention": "inward",
        "facets": [{"normal": [1], "offset": [0, 1]}]}))
    code, out = run(["validate", str(schema)])
    assert code == 2
    assert out.startswith("error[SchemaError] ($.facets[0].normal):")


def test_expression_parse_errors():
    cases = [
        (["mul", "X1 +", "Y", "blowup_cp3"], "expected a factor"),
        (["mul", "X9", "Y", "blowup_cp3"], "variable X9 out of range"),
        (["mul", "Z", "Z", "blowup_cp3"], "alias 'Z' is not bound"),
        (["mul", "X1^", "Y", "blowup_cp3"], "expected an integer"),
        (["mul", "X1 Y", "Y", "blowup_cp3"], "unexpected 'Y'"),
        (["seidel", "--combo", "1,2", "blowup_cp3"],
         "combination needs 5 entries, got 2"),
        (["seidel", "--combo", "1,a,0,0,0", "blowup_cp3"],
         "bad combination entry 'a'"),
        (["betti", "--xi", "1,2", "blowup_cp3"], "xi needs 3 entries, got 2"),
    ]
    for argv, needle in cases:
        code, out = run(argv)
        assert code == 2, argv
        assert out.startswith("error["), argv
        assert needle in out, argv


def test_expression_integers_are_ascii_digits():
    # int() reads a superscript or other Unicode digit; the expression
    # parser does not, and names the column of the missing integer
    for text, col in (("X1^\u00b2", 4), ("q^-\u0661", 4),
                      ("q^\uff12", 3)):
        code, out = run(["mul", text, "L", "blowup_cp3"])
        assert (code, out) == (
            2, f"error[ParseError]: expected an integer at column {col} of "
               f"{text!r}\n"), text
    # X followed by a non-ASCII digit is the alias X and a stray character
    code, out = run(["mul", "X\u0661", "L", "blowup_cp3"])
    assert code == 2 and "unexpected '\u0661' at column 2" in out


def test_integer_lists_take_sign_and_ascii_digits_only():
    # int() also takes '_' separators, a '+' sign and Unicode digits
    for entry in ("1_0", "+1", "\u0661", "--1", "-"):
        code, out = run(["betti", "--xi", f"{entry},-2,-4", "blowup_cp3"])
        assert (code, out) == (
            2, f"error[ParseError]: bad xi entry {entry!r}\n"), entry
    code, out = run(["seidel", "--combo", "1,0,0,0,1_0", "blowup_cp3"])
    assert (code, out) == (
        2, "error[ParseError]: bad combination entry '1_0'\n")
    code, out = run(["betti", "--xi", " 1, -2 ,-4", "blowup_cp3"])
    assert (code, out) == (
        0, "betti (1, 2, 2, 1)  xi (1, -2, -4)  total 6\n")


# CPython refuses str -> int past this many digits (0: no limit)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="interpreter has no int-string digit limit")


@needs_digit_limit
def test_overlong_integer_in_expression_exits_two():
    digits = "7" * (INT_DIGIT_LIMIT + 1)
    for text, col in ((f"X1^{digits}", 4), (f"q^-{digits}", 3),
                      (f"X{digits}", 2)):
        code, out = run(["mul", text, "L", "blowup_cp3"])
        assert code == 2, text[:4]
        assert out.startswith(
            f"error[ParseError]: integer too long at column {col} of "), \
            text[:4]


@needs_digit_limit
def test_overlong_integer_in_list_exits_two():
    digits = "7" * (INT_DIGIT_LIMIT + 1)
    code, out = run(["betti", "--xi", f"1,2,-{digits}", "blowup_cp3"])
    assert code == 2
    assert out.startswith("error[ParseError]: bad xi entry '-777")


@needs_digit_limit
def test_overlong_integer_in_polytope_file_exits_two(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"dim": 1, "convention": "inward", "facets": ['
                    '{"normal": [1], "offset": [0, 1]}, {"normal": [-1], '
                    f'"offset": [-{"7" * (INT_DIGIT_LIMIT + 1)}, 1]}}]}}')
    code, out = run(["validate", str(path)])
    assert code == 2
    assert out.startswith("error[ParseError]: invalid JSON: ")


@needs_digit_limit
def test_overlong_exponent_in_result_exits_two():
    # each factor parses, but the product's q-exponent has one digit more
    # than the interpreter turns into text
    digits = "7" * INT_DIGIT_LIMIT
    argv = ["mul", f"q^{digits}*q^{digits}", "L", "blowup_cp3"]
    code, out = run(argv)
    assert (code, out) == (
        2, "error[ParseError]: q-exponent of the result too long to print\n")
    code, out = run(["--format", "json", *argv])
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "ParseError",
        "message": "q-exponent of the result too long to print"}


def test_monomial_power_answers_at_once(low_degree_normal_forms):
    code, out = run(["mul", "X1^1000000000", "L", "blowup_cp3"])
    assert (code, out) == (0, "X1*X4*q^-999999998 + L*q^-1000000000\n")


def test_polytope_json_round_trip(tmp_path):
    for name in BUILTIN_NAMES:
        p = builtin_polytope(name)
        for convention in ("inward", "outward"):
            data = polytope_to_json(p, name=name, convention=convention)
            path = tmp_path / f"{name}_{convention}.json"
            path.write_text(json.dumps(data))
            assert load_polytope(str(path)) == p


def test_outward_file_gives_identical_reports(tmp_path):
    p = builtin_polytope("blowup_cp3")
    path = tmp_path / "blowup_outward.json"
    path.write_text(json.dumps(polytope_to_json(
        p, name="blowup_cp3", convention="outward")))
    for sub in (["vertices"], ["primitives"],
                ["presentation", "--space", "L"], ["betti"]):
        code_a, out_a = run(sub + ["blowup_cp3"])
        code_b, out_b = run(sub + [str(path)])
        assert (code_a, out_a) == (code_b, out_b)


def test_outward_presentations_and_certificates_all_builtins(tmp_path):
    for name in BUILTIN_NAMES:
        path = tmp_path / f"{name}_outward.json"
        path.write_text(json.dumps(polytope_to_json(
            builtin_polytope(name), name=name, convention="outward")))
        for sub in (["presentation", "--space", "L", "--flavor", "quantum"],
                    ["uniruled"]):
            code_a, out_a = run(sub + [name])
            code_b, out_b = run(sub + [str(path)])
            assert code_a == code_b == 0
            assert out_a == out_b, (name, sub)


def test_polytope_from_data_schema_paths():
    base = {"dim": 2, "convention": "inward",
            "facets": [{"normal": [1, 0], "offset": [0, 1]},
                       {"normal": [0, 1], "offset": [0, 1]},
                       {"normal": [-1, -1], "offset": [-1, 1]}]}
    assert polytope_from_data(base) == builtin_polytope("cp2")
    for mutate, path in [
        (lambda d: d.pop("dim"), "$"),
        (lambda d: d.update(dim="two"), "$.dim"),
        (lambda d: d.update(convention="north"), "$.convention"),
        (lambda d: d.update(facets=[]), "$.facets"),
        (lambda d: d["facets"][1].update(offset=[1, 0]),
         "$.facets[1].offset"),
        (lambda d: d["facets"][2].update(offset=[2, 4]),
         "$.facets[2].offset"),
        (lambda d: d["facets"][0].update(normal=[1, 0, 0]),
         "$.facets[0].normal"),
    ]:
        data = json.loads(json.dumps(base))
        mutate(data)
        with pytest.raises(SchemaError) as exc:
            polytope_from_data(data)
        assert exc.value.path == path


EXPR_CORPUS = [
    "L", "1", "q", "q^3", "q^-2", "X1", "X2", "X3", "X4", "X5",
    "X", "Y", "X*Y", "Y*X", "X^2", "X^2*Y", "X1*X4", "X1^2*X4",
    "X1*q", "X1*q^-1", "X4*q^2", "X1^3", "X5^2*q^-3",
    "L + X1", "X1 + X4", "X1 + X1", "q + q", "q + q^2",
    "X1*X2*X5 + X4*q^-2", "X3*X4 + q^-2", "X1^2*X4*q^3 + X4*q",
    "X1*X4 + L*q^-2", "X + Y + L", "X*X*X", "X1*X1*X1",
    "X2*X3*q^4", "Y^2", "Y^2*q^-5", "X^2*Y*q", "1*q^-1",
    "L*q^7", "X4^2", "X4^2*q^2", "X5*X4", "X3*q", "X2^2*X3",
    "X1 + X2", "X1*X2 + X4*X3", "q^-9", "X1^2*X4*q^-6",
    "X1 + X2 + X3 + X4 + X5", "X3^2",
]


def test_expression_round_trip_corpus():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    dmap = DisplayMap(ring)
    assert len(EXPR_CORPUS) >= 50
    for text in EXPR_CORPUS:
        el = parse_element(text, ring, dmap)
        printed = parse_element(render_element(el, dmap), ring, dmap)
        assert printed == el, text
        again = render_element(printed, dmap)
        assert again == render_element(el, dmap), text


def test_display_map_aliases_blowup():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    dmap = DisplayMap(ring)
    assert dmap.alias_to_var == {"X": 5, "Y": 4}
    x = parse_element("X", ring, dmap)
    assert x == parse_element("X1", ring, dmap)
    assert x == parse_element("X2", ring, dmap)
    assert x == parse_element("X5", ring, dmap)
    y = parse_element("Y", ring, dmap)
    assert y == parse_element("X4", ring, dmap)
    assert y != x


def test_load_polytope_name_fallthrough():
    # names that are not builtins are treated as file paths
    with pytest.raises(ParseError):
        load_polytope("cp0")
    with pytest.raises(ParseError):
        load_polytope("cp100")
    assert load_polytope("cp7").nfacets == 8
    assert load_polytope("cp99").dim == 99


def test_zero_element_round_trips():
    ring, _ = build_ring(builtin_polytope("blowup_cp3"))
    dmap = DisplayMap(ring)
    zero = parse_element("X1 + X2", ring, dmap)
    assert zero.is_zero()
    assert render_element(zero, dmap) == "0"
    assert parse_element("0", ring, dmap) == zero


def test_main_entry_matches_run_command(capsys):
    from toric_qh.cli import main
    import sys
    old = sys.argv
    sys.argv = ["toric-qh", "validate", "cp2"]
    try:
        with pytest.raises(SystemExit) as exc:
            main()
    finally:
        sys.argv = old
    assert exc.value.code == 0
    assert capsys.readouterr().out == "cp2: VALID (3 vertices)\n"


def test_readme_quick_tour_runs(monkeypatch):
    # each "$ toric-qh ..." line of README's quick tour prints the lines
    # that follow it, selfcheck timings aside
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tour = readme.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    block = tour.split("```", 2)[1]
    commands = re.split(r"^\$ toric-qh ", block, flags=re.M)[1:]
    assert len(commands) == 6
    monkeypatch.setenv("TORIC_QH_FORMAT", "text")

    def masked(text):
        return re.sub(r"\([0-9.]+ ms\)", "(ms)", text.strip())

    for entry in commands:
        line, _, want = entry.partition("\n")
        code, out = run(shlex.split(line))
        assert (code, masked(out)) == (0, masked(want)), line


def test_python_m_toric_qh_runs_the_cli():
    # the package runs as a module without the RuntimeWarning that
    # python -m toric_qh.cli gives, which -W error would turn into a crash
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "toric_qh", "validate", "cp2"],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(["validate", "cp2"])[1]
