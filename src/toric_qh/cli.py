"""Command line front end.

Subcommands take a polytope source (a builtin name or a JSON file path)
as their last argument and emit a versioned JSON report or its text
rendering.  Exit codes: 0 success / verdict pass, 1 mathematical
rejection, 2 usage or parse errors.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from time import perf_counter

from .errors import ParseError, SchemaError, ToricQHError
from .f2ring import QHElement, grevlex_key, lm
from .polytope import (
    Polytope,
    betti_numbers_L,
    generic_xi,
    primitive_collection_data,
    require_delzant,
    validate_delzant,
)
from .qh import (
    betti_crosscheck,
    build_ring,
    element_from_monomial,
    invert,
    min_quantum_degree,
    multiply,
    scaled_hilbert,
    seidel_composite,
    seidel_facet,
    uniruled_certificate,
    verify_psi,
    verify_seidel_relation,
)

SCHEMA_VERSION = 1

_ALIASES = "XYZWVU"
_CP_RE = re.compile(r"^cp([1-9][0-9]?)$")


def _cp(n):
    facets = [(tuple(int(i == k) for i in range(n)), 0) for k in range(n)]
    facets.append(((-1,) * n, -1))
    return Polytope.from_facets(n, facets)


def builtin_polytope(name):
    """Builtin by name, or None."""
    if name == "cp1xcp1":
        return Polytope.from_facets(
            2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])
    if name == "blowup_cp3":
        # one-point blowup of CP^3, moment polytope in pi-units
        return Polytope.from_facets(3, [
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
            ((0, 0, 1), Fraction(1, 2)),
            ((1, 1, 1), 1),
        ], convention="outward")
    m = _CP_RE.match(name)
    if m:
        return _cp(int(m.group(1)))
    return None


BUILTIN_NAMES = ("cp1", "cp2", "cp3", "cp4", "cp5", "cp1xcp1", "blowup_cp3")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def polytope_from_data(data):
    """Polytope from parsed JSON; a SchemaError names the first bad path.
    Messages and paths are formatted only when a check fails."""
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object", "$")
    for key in ("dim", "convention", "facets"):
        if key not in data:
            raise SchemaError(f"missing key '{key}'", "$")
    if "name" in data and not isinstance(data["name"], str):
        raise SchemaError("name must be a string", "$.name")
    dim = data["dim"]
    if not (_is_int(dim) and dim >= 1):
        raise SchemaError("dim must be a positive integer", "$.dim")
    conv = data["convention"]
    if conv not in ("inward", "outward"):
        raise SchemaError("convention must be 'inward' or 'outward'",
                          "$.convention")
    facets = data["facets"]
    if not (isinstance(facets, list) and facets):
        raise SchemaError("facets must be a nonempty array", "$.facets")
    parsed = []
    for k, f in enumerate(facets):
        if not isinstance(f, dict):
            raise SchemaError("facet must be an object", f"$.facets[{k}]")
        for key in ("normal", "offset"):
            if key not in f:
                raise SchemaError(f"missing key '{key}'", f"$.facets[{k}]")
        normal = f["normal"]
        if not (isinstance(normal, list) and len(normal) == dim
                and all(map(_is_int, normal))):
            raise SchemaError(
                f"normal must be an integer array of length {dim}",
                f"$.facets[{k}].normal")
        off = f["offset"]
        if not (isinstance(off, list) and len(off) == 2
                and all(map(_is_int, off))):
            raise SchemaError("offset must be [numerator, denominator]",
                              f"$.facets[{k}].offset")
        num, den = off
        if den <= 0:
            raise SchemaError("offset denominator must be positive",
                              f"$.facets[{k}].offset")
        offset = Fraction(num, den)
        if offset.denominator != den:
            raise SchemaError("offset must be reduced",
                              f"$.facets[{k}].offset")
        parsed.append((tuple(normal), offset))
    return Polytope.from_facets(dim, parsed, conv)


def load_polytope(source):
    """Builtin name or JSON file path, normalized to inward convention."""
    p = builtin_polytope(source)
    if p is not None:
        return p
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ParseError(f"cannot read '{source}': {err.strerror or err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}",
                         line=err.lineno, col=err.colno) from err
    except ValueError as err:  # a number past the int-string digit limit
        raise ParseError(f"invalid JSON: {err}") from err
    return polytope_from_data(data)


def polytope_to_json(p, name="polytope", convention="inward"):
    if convention not in ("inward", "outward"):
        raise ValueError("convention must be 'inward' or 'outward'")
    facets = []
    for v, a in zip(p.normals, p.offsets):
        if convention == "outward":
            v, a = tuple(-x for x in v), -a
        facets.append({"normal": list(v),
                       "offset": [a.numerator, a.denominator]})
    return {"name": name, "dim": p.dim, "convention": convention,
            "facets": facets}


def _pi_str(fr):
    if fr == 0:
        return "0"
    if fr == 1:
        return "pi"
    if fr == -1:
        return "-pi"
    return f"{fr}*pi"


class DisplayMap:
    """Naming of quotient classes for printing and parsing.

    Each surviving variable (degree-1 standard monomial) is named after
    the least facet index in its linear-equivalence class; alias letters
    X, Y, Z, W, V, U follow the numeric order of those names.
    """

    def __init__(self, ring, prefix="X", qsym="q"):
        self.ring = ring
        self.prefix = prefix
        self.qsym = qsym
        d = ring.nvars
        members = {}
        for i in range(1, d + 1):
            exps = [0] * d
            exps[i - 1] = 1
            nf = ring.normal_form(frozenset({(tuple(exps), 0)}))
            if len(nf) != 1:
                continue
            (e2, td), = nf
            if td == 0 and sum(e2) == 1:
                members.setdefault(e2.index(1) + 1, []).append(i)
        self._num = {s: min(ms) for s, ms in members.items()}
        self.var_name = {s: prefix + str(self._num[s]) for s in members}
        self.class_members = {self.var_name[s]: sorted(members[s])
                              for s in members}
        order = sorted(members, key=lambda s: self._num[s])
        self.alias_to_var = dict(zip(_ALIASES, order))

    def name_of(self, s, raw=False):
        if raw or s not in self.var_name:
            return self.prefix + str(s)
        return self.var_name[s]

    def num_of(self, s, raw=False):
        if raw or s not in self._num:
            return s
        return self._num[s]

    def term_factors(self, exps, raw=False):
        """A monomial's factors as strings, name or name^power, in the
        numeric order of their names."""
        items = sorted((self.num_of(s, raw), self.name_of(s, raw), e)
                       for s, e in enumerate(exps, start=1) if e)
        return [name if e == 1 else f"{name}^{e}" for _, name, e in items]


def render_element_monomial(m, dmap):
    return "*".join(dmap.term_factors(m[0])) or "L"


def render_element(el, dmap):
    """Module-element string: unit class prints as L, q-powers explicit."""
    if el.is_zero():
        return "0"
    pairs = [(m, e) for m, s in el.coeffs.items() for e in s]
    pairs.sort(key=lambda p: (grevlex_key(p[0]), p[1]), reverse=True)
    parts = []
    for m, e in pairs:
        base = render_element_monomial(m, dmap)
        if e:
            try:
                base += "*" + (dmap.qsym if e == 1 else f"{dmap.qsym}^{e}")
            except ValueError:  # past the interpreter's int-string digit limit
                raise ParseError(f"{dmap.qsym}-exponent of the result too "
                                 "long to print") from None
        parts.append(base)
    return " + ".join(parts)


def render_poly(f, dmap, raw=False):
    """Relation string in the polynomial ring; t prints as negative q-powers."""
    if not f:
        return "0"
    parts = []
    for exps, td in sorted(f, key=grevlex_key, reverse=True):
        factors = dmap.term_factors(exps, raw)
        if td:
            factors.append(f"{dmap.qsym}^{-td}")
        parts.append("*".join(factors) if factors else "1")
    return " + ".join(parts)


class _ExprParser:
    """Recursive descent for: expr := term ('+' term)*;
    term := factor ('*' factor)*;
    factor := X<int>('^'int)? | alias('^'int)? | q('^' '-'? int)? | L | 1."""

    def __init__(self, text, ring, dmap):
        self.text = text
        self.pos = 0
        self.ring = ring
        self.dmap = dmap

    def fail(self, message):
        raise ParseError(f"{message} at column {self.pos + 1} of "
                         f"{self.text!r}", col=self.pos + 1)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self, signed=False):
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.fail("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's int-string digit limit
            self.pos = start
            self.fail("integer too long")

    def parse(self):
        el = self.term()
        while self.peek() == "+":
            self.pos += 1
            el = el + self.term()
        if self.peek():
            self.fail(f"unexpected {self.peek()!r}")
        return el

    def term(self):
        exps = [0] * self.ring.nvars
        qexp = self.factor(exps)
        while self.peek() == "*":
            self.pos += 1
            qexp += self.factor(exps)
        return element_from_monomial(self.ring, exps, qexp)

    def factor(self, exps):
        ch = self.peek()
        if ch == "q":
            self.pos += 1
            if self.peek() == "^":
                self.pos += 1
                return self.take_int(signed=True)
            return 1
        if ch in ("L", "1"):
            self.pos += 1
            return 0
        if ch == "X" and self.pos + 1 < len(self.text) \
                and self.text[self.pos + 1].isdigit():
            self.pos += 1
            idx = self.take_int()
            if not 1 <= idx <= self.ring.nvars:
                self.fail(f"variable X{idx} out of range")
        elif ch and ch in _ALIASES:
            self.pos += 1
            idx = self.dmap.alias_to_var.get(ch)
            if idx is None:
                self.fail(f"alias {ch!r} is not bound for this ring")
        else:
            self.fail("expected a factor")
        power = 1
        if self.peek() == "^":
            self.pos += 1
            power = self.take_int()
        exps[idx - 1] += power
        return 0


def parse_element(text, ring, dmap):
    if text.strip() == "0":
        return QHElement({}, None)
    return _ExprParser(text, ring, dmap).parse()


def _parse_combo(text, d):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != d:
        raise ParseError(f"combination needs {d} entries, got {len(parts)}")
    out = []
    for s in parts:
        try:
            out.append(int(s))
        except ValueError:
            raise ParseError(f"bad combination entry {s!r}") from None
    return tuple(out)


def _parse_xi(text, n):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != n:
        raise ParseError(f"xi needs {n} entries, got {len(parts)}")
    try:
        return tuple(int(s) for s in parts)
    except ValueError:
        raise ParseError(f"bad xi entry in {text!r}") from None


def _facets_payload(p):
    return [{"normal": list(v), "offset": _pi_str(a)}
            for v, a in zip(p.normals, p.offsets)]


def _cmd_validate(args):
    p = load_polytope(args.polytope)
    rep = validate_delzant(p)
    payload = {"dim": p.dim, "nfacets": p.nfacets,
               "facets": _facets_payload(p),
               "valid": rep.ok, "reasons": list(rep.reasons)}
    if rep.ok:
        payload["vertex_count"] = len(rep.vertices)
    return payload, 0 if rep.ok else 1


def _cmd_vertices(args):
    p = load_polytope(args.polytope)
    rep = require_delzant(p)
    payload = {"dim": p.dim,
               "vertices": [{"coords": [str(c) for c in v.coords],
                             "tight": list(v.tight)}
                            for v in rep.vertices]}
    return payload, 0


def _cmd_primitives(args):
    p = load_polytope(args.polytope)
    data = primitive_collection_data(p)
    payload = {"collections": [{"indices": list(pc.indices),
                                "batyrev": list(pc.batyrev),
                                "quantum_degree": pc.m}
                               for pc in data]}
    return payload, 0


def _is_linear_lm(g):
    exps, td = lm(g)
    return td == 0 and sum(exps) == 1


def _cmd_presentation(args):
    p = load_polytope(args.polytope)
    ring, pres = build_ring(p, args.space, args.flavor)
    prefix, qsym = ("X", "q") if args.space == "L" else ("Y", "Q")
    dmap = DisplayMap(ring, prefix, qsym)
    reduced, eliminated = [], []
    for g in ring.hom_gb.generators:
        (eliminated if _is_linear_lm(g) else reduced).append(g)
    payload = {
        "space": pres.space,
        "flavor": pres.flavor,
        "nvars": pres.nvars,
        "generator_degree": pres.generator_cod,
        "grading_unit": pres.grading_unit,
        "rank": ring.dim,
        "hilbert": list(scaled_hilbert(ring, pres.grading_unit)),
        "relations": {
            "linear": [render_poly(f, dmap, raw=True)
                       for f in pres.linear_relations],
            "stanley_reisner": [render_poly(f, dmap, raw=True)
                                for f in pres.sr_relations],
        },
        "reduced_relations": [render_poly(g, dmap) for g in reduced],
        "eliminated": [render_poly(g, dmap, raw=True) for g in eliminated],
        "basis": [render_element_monomial(m, dmap) for m in ring.basis],
        "classes": dmap.class_members,
        "aliases": {a: dmap.var_name[s]
                    for a, s in dmap.alias_to_var.items()},
    }
    return payload, 0


def _quantum_l(args):
    p = load_polytope(args.polytope)
    ring, _ = build_ring(p, "L", "quantum")
    return p, ring, DisplayMap(ring)


def _cmd_seidel(args):
    p, ring, dmap = _quantum_l(args)
    if args.facet is not None:
        if not 1 <= args.facet <= p.nfacets:
            raise ParseError(f"facet index {args.facet} out of range 1..{p.nfacets}")
        se = seidel_facet(ring, args.facet)
        provenance = {"facet": args.facet}
    else:
        combo = _parse_combo(args.combo, p.nfacets)
        se = seidel_composite(ring, combo)
        provenance = {"combo": list(combo)}
    payload = {"provenance": provenance,
               "element": render_element(se.element, dmap)}
    return payload, 0


def _cmd_mul(args):
    _, ring, dmap = _quantum_l(args)
    a = parse_element(args.lhs, ring, dmap)
    b = parse_element(args.rhs, ring, dmap)
    c = multiply(ring, a, b)
    payload = {"lhs": render_element(a, dmap),
               "rhs": render_element(b, dmap),
               "result": render_element(c, dmap)}
    return payload, 0


def _cmd_invert(args):
    _, ring, dmap = _quantum_l(args)
    a = parse_element(args.expr, ring, dmap)
    inv = invert(ring, a)
    payload = {"element": render_element(a, dmap),
               "inverse": render_element(inv, dmap)}
    return payload, 0


def _cmd_betti(args):
    p = load_polytope(args.polytope)
    require_delzant(p)
    xi = _parse_xi(args.xi, p.dim) if args.xi else generic_xi(p)
    b = betti_numbers_L(p, xi)
    payload = {"xi": list(xi), "betti": list(b), "total": sum(b)}
    return payload, 0


def _cmd_psi_check(args):
    p = load_polytope(args.polytope)
    ring, _ = build_ring(p, "L", "quantum")
    match = verify_psi(p, ring)
    return {"match": match}, 0 if match else 1


def _cmd_uniruled(args):
    _, ring, dmap = _quantum_l(args)
    cert = uniruled_certificate(ring)
    payload = {"verdict": cert.verdict,
               "witness": render_element(cert.witness.element, dmap),
               "inverse": (render_element(cert.inverse, dmap)
                           if cert.inverse is not None else None),
               "fundamental_coefficient": sorted(cert.fundamental_coefficient),
               "reason": cert.reason}
    return payload, 0 if cert.verdict == "uniruled" else 1


def _cmd_selfcheck(args):
    p = load_polytope(args.polytope)
    checks = []

    def run(name, fn):
        t0 = perf_counter()
        try:
            okk, detail = fn()
        except ToricQHError as err:
            okk, detail = False, {"error": {"code": err.code,
                                            "message": str(err)}}
        entry = {"name": name, "ok": okk,
                 "ms": round((perf_counter() - t0) * 1000, 3)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)
        return okk

    def check_delzant():
        rep = validate_delzant(p)
        return rep.ok, ({"reasons": list(rep.reasons)} if not rep.ok else None)

    def check_fano():
        data = primitive_collection_data(p)
        return True, [{"indices": list(pc.indices), "m": pc.m} for pc in data]

    def check_min_degree():
        v = min_quantum_degree(p)
        return v is None or v >= 2, {"value": v}

    def check_betti():
        rep = betti_crosscheck(p)
        return True, {"betti": list(rep.betti), "hilbert": list(rep.hilbert)}

    @cache  # built on first use and shared; a failed build is retried
    def quantum_ring():
        return build_ring(p, "L", "quantum")

    def check_seidel():
        ring, _ = quantum_ring()
        detail = []
        for pc in primitive_collection_data(p):
            detail.append({"indices": list(pc.indices),
                           "ok": verify_seidel_relation(ring, pc)})
        return all(e["ok"] for e in detail), detail

    def check_psi():
        return verify_psi(p, quantum_ring()[0]), None

    def check_uniruled():
        cert = uniruled_certificate(quantum_ring()[0])
        return cert.verdict == "uniruled", {"verdict": cert.verdict}

    stages = [("fano_degrees", check_fano),
              ("min_quantum_degree", check_min_degree),
              ("betti_crosscheck", check_betti),
              ("seidel_relations", check_seidel),
              ("psi", check_psi),
              ("uniruled", check_uniruled)]
    if run("delzant", check_delzant):
        for name, fn in stages:
            run(name, fn)
    else:
        for name, _ in stages:
            checks.append({"name": name, "skipped": True})
    passed = all(c.get("ok", False) for c in checks if not c.get("skipped"))
    skipped_any = any(c.get("skipped") for c in checks)
    payload = {"checks": checks, "passed": passed and not skipped_any}
    return payload, 0 if payload["passed"] else 1


_HANDLERS = {
    "validate": _cmd_validate,
    "vertices": _cmd_vertices,
    "primitives": _cmd_primitives,
    "presentation": _cmd_presentation,
    "seidel": _cmd_seidel,
    "mul": _cmd_mul,
    "invert": _cmd_invert,
    "betti": _cmd_betti,
    "psi-check": _cmd_psi_check,
    "uniruled": _cmd_uniruled,
    "selfcheck": _cmd_selfcheck,
}


@cache
def _build_parser():
    """The argument parser, built once per process.  ``--format`` defaults
    to None, so ``run_command`` reads TORIC_QH_FORMAT on every call."""
    parser = argparse.ArgumentParser(
        prog="toric-qh",
        description="Exact quantum homology of Fano toric manifolds and "
                    "their real Lagrangians from moment polytope data.")
    parser.add_argument("--format", default=None,
                        help="output format: text or json "
                             "(default from TORIC_QH_FORMAT)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, desc):
        sp = sub.add_parser(name, help=desc, description=desc)
        sp.add_argument("--format", default=argparse.SUPPRESS,
                        help="output format: text or json")
        return sp

    for name, desc in (("validate", "Delzant validity report"),
                       ("vertices", "vertex coordinates and tight facets"),
                       ("primitives", "primitive collections with relation "
                                      "vectors and quantum degrees")):
        sp = add(name, desc)
        sp.add_argument("polytope")

    sp = add("presentation", "ring presentation and reduced relations")
    sp.add_argument("--space", choices=("L", "M"), default="L")
    sp.add_argument("--flavor", choices=("classical", "quantum"),
                    default="quantum")
    sp.add_argument("polytope")

    sp = add("seidel", "Seidel element of a facet action or a composite")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--facet", type=int, metavar="J")
    grp.add_argument("--combo", metavar="C1,...,CD")
    sp.add_argument("polytope")

    sp = add("mul", "quantum product of two element expressions")
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp.add_argument("polytope")

    sp = add("invert", "inverse of an element expression")
    sp.add_argument("expr")
    sp.add_argument("polytope")

    sp = add("betti", "Betti numbers of the real locus via Morse indices")
    sp.add_argument("--xi", metavar="C1,...,CN")
    sp.add_argument("polytope")

    for name, desc in (("psi-check", "Betti numbers of L against the M view"),
                       ("uniruled", "uniruledness certificate"),
                       ("selfcheck", "all invariant suites with timings")):
        sp = add(name, desc)
        sp.add_argument("polytope")

    return parser


def render_text(report):
    """Human rendering; a pure function of the JSON report."""
    if "error" in report:
        err = report["error"]
        loc = ""
        if err.get("line") is not None:
            loc = f" (line {err['line']}, col {err.get('col')})"
        elif err.get("path"):
            loc = f" ({err['path']})"
        return f"error[{err['code']}]{loc}: {err['message']}"
    cmd = report["command"]
    if cmd == "validate":
        lines = [f"{report['source']}: "
                 + ("VALID" if report["valid"] else "REJECTED")]
        if report["valid"]:
            lines[0] += f" ({report['vertex_count']} vertices)"
        lines.extend(f"  {r}" for r in report["reasons"])
        return "\n".join(lines)
    if cmd == "vertices":
        return "\n".join(
            "(" + ", ".join(v["coords"]) + ")  tight "
            + "{" + ",".join(str(i) for i in v["tight"]) + "}"
            for v in report["vertices"])
    if cmd == "primitives":
        return "\n".join(
            "I={" + ",".join(str(i) for i in c["indices"]) + "}  a=("
            + ",".join(str(a) for a in c["batyrev"])
            + f")  m={c['quantum_degree']}"
            for c in report["collections"])
    if cmd == "presentation":
        lines = [f"space {report['space']}  flavor {report['flavor']}  "
                 f"rank {report['rank']}",
                 "hilbert (" + ", ".join(str(h) for h in report["hilbert"]) + ")",
                 "linear relations:"]
        lines.extend(f"  {r}" for r in report["relations"]["linear"])
        lines.append("stanley-reisner relations:")
        lines.extend(f"  {r}" for r in report["relations"]["stanley_reisner"])
        lines.append("reduced relations:")
        lines.extend(f"  {r}" for r in report["reduced_relations"])
        lines.append("basis: " + ", ".join(report["basis"]))
        if report["classes"]:
            lines.append("classes: " + "; ".join(
                f"{name} <- facets {','.join(str(i) for i in ms)}"
                for name, ms in sorted(report["classes"].items())))
        if report["aliases"]:
            lines.append("aliases: " + " ".join(
                f"{a}={n}" for a, n in sorted(report["aliases"].items())))
        return "\n".join(lines)
    if cmd in ("seidel", "mul", "invert"):
        key = {"seidel": "element", "mul": "result", "invert": "inverse"}[cmd]
        return report[key]
    if cmd == "betti":
        return ("betti (" + ", ".join(str(b) for b in report["betti"])
                + ")  xi (" + ", ".join(str(x) for x in report["xi"])
                + f")  total {report['total']}")
    if cmd == "psi-check":
        return "psi isomorphism: " + ("OK" if report["match"] else "MISMATCH")
    if cmd == "uniruled":
        lines = [f"verdict: {report['verdict']}",
                 f"witness: {report['witness']}"]
        if report["inverse"] is not None:
            lines.append(f"inverse: {report['inverse']}")
        if report["reason"]:
            lines.append(f"reason: {report['reason']}")
        return "\n".join(lines)
    if cmd == "selfcheck":
        lines = []
        for c in report["checks"]:
            if c.get("skipped"):
                lines.append(f"[SKIP] {c['name']}")
            else:
                tag = "PASS" if c["ok"] else "FAIL"
                lines.append(f"[{tag}] {c['name']} ({c['ms']} ms)")
        lines.append("selfcheck: " + ("OK" if report["passed"] else "FAILED"))
        return "\n".join(lines)
    return json.dumps(report, indent=2)


def _merge_negative_values(argv):
    """Join --combo/--xi with a following leading-minus value so argparse
    does not mistake it for an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--combo", "--xi"):
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            elif nxt.startswith("-") and nxt != "-":
                out.append(f"{tok}={nxt}")
            else:
                out.extend((tok, nxt))
        else:
            out.append(tok)
    return out


def run_command(argv, out=None):
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    fmt = args.format
    if fmt is None:
        fmt = os.environ.get("TORIC_QH_FORMAT", "text")
    if fmt not in ("text", "json"):
        print(f"toric-qh: invalid format {fmt!r} (use text or json)",
              file=sys.stderr)
        return 2
    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "source": getattr(args, "polytope", None), "ok": True}
    try:
        payload, code = _HANDLERS[args.command](args)
        report.update(payload)
        if code:
            report["ok"] = False
    except ToricQHError as err:
        info = {"code": err.code, "message": str(err)}
        for extra in ("line", "col", "path"):
            val = getattr(err, extra, None)
            if val is not None:
                info[extra] = val
        for extra in ("left", "right"):
            val = getattr(err, extra, None)
            if val is not None:
                info[extra] = list(val)
        report["ok"] = False
        report["error"] = info
        code = err.exit_code
    if fmt == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False), file=out)
    else:
        print(render_text(report), file=out)
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
