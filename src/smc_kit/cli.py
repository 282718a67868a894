"""Command-line interface and the workspace document format.

A workspace is a single JSON document describing algebras (quiver plus
monomial relations), recollements (algebra + idempotent subset), named
complexes (terms per degree, differential entries as linear combinations
of path labels, e.g. "2*alpha + beta"), and named collections whose
objects are either complex names or the builtins simple:V / proj:V /
inj:V, each with an optional shift suffix "[n]".

Loading a workspace checks the shape and names of the whole document and
builds its algebras and the complexes over them.  Each recollement (its
global dimensions, functors and sample checks), each collection, and each
complex over an outer algebra R.x / R.y is built when a command first reads
it, once per workspace, so --pd-bound applies to what the command reads.

main(argv) is the entry point of the console script and of in-process
callers alike: it returns the exit code and prints to stdout and stderr.
Its argument parser is built on the first call and shared, read-only, by
every later call in the process; usage errors and --help raise SystemExit.

Exit codes: 0 success, 1 mathematical check failed, 2 input error,
3 resource bound exceeded, 4 internal invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Tuple

from .algebra import Algebra, Quiver
from .config import (
    DEFAULT_LIMITS,
    BoundExceeded,
    InputError,
    InvariantError,
    NotRigidError,
    SmcKitError,
)
from .exactla import DEFAULT_PRIME, Field, get_field
from .homotopy import ProjComplex, hom_table, resolve_module, shift
from .homotopy.complexes import stalk
from .recollement import RecollementSpec, build_recollement
from .smc import (
    SMC,
    Certificate,
    compare,
    glue,
    glue_dual,
    mutate,
    smc_iso,
    truncate,
    validate_smc,
)
from .verify import run_paper_examples

SCHEMA = "smc-kit/1"
_OBJ_RE = re.compile(r"^(?P<base>[^\[\]]+?)(\[(?P<shift>-?\d+)\])?$")
_BUILTINS = ("simple", "proj", "inj")


@dataclass
class Workspace:
    """A checked workspace document.  The accessors recollement,
    named_complex and smc build an entry on first read and keep it."""

    field: Field
    algebras: Dict[str, Algebra]
    # name -> (algebra name, idempotent vertex indices)
    recollement_docs: Dict[str, Tuple[str, Tuple[int, ...]]]
    # name -> (algebra name, vertex labels per degree, entries per degree)
    complex_docs: Dict[str, Tuple[str, dict, dict]]
    smc_docs: Dict[str, dict]
    # bound on the projective dimension of each module the builtins and
    # the recollements resolve
    pd_bound: int = DEFAULT_LIMITS.pd_bound
    # (kind, name) -> the recollement, complex or collection built for it
    _built: dict = dc_field(default_factory=dict, init=False, repr=False)

    def _memo(self, kind: str, name: str, build: Callable):
        key = (kind, name)
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def recollement(self, name: str) -> RecollementSpec:
        if name not in self.recollement_docs:
            raise InputError(f"unknown recollement {name!r}")
        alg_name, subset = self.recollement_docs[name]
        return self._memo("recollement", name, lambda: build_recollement(
            self.algebras[alg_name], subset, pd_bound=self.pd_bound))

    def named_complex(self, name: str) -> ProjComplex:
        alg_name, terms, diffs = self.complex_docs[name]
        what = f"complex {name!r}"

        def build():
            A = self.resolve_algebra(alg_name)
            idx = {k: tuple(_vertex(A, v, what) for v in verts)
                   for k, verts in terms.items()}
            try:
                return ProjComplex(A, idx, {
                    k: [[A.parse_element(e) for e in row] for row in rows]
                    for k, rows in diffs.items()})
            except InputError as exc:
                raise InputError(f"{what}: {exc}") from None
        return self._memo("complex", name, build)

    def smc(self, name: str) -> SMC:
        if name not in self.smc_docs:
            raise InputError(f"unknown smc {name!r}")
        alg_name = self.smc_docs[name]["algebra"]
        exprs = tuple(self.smc_docs[name].get("objects", []))
        return self._memo("smc", name, lambda: SMC(
            self.resolve_algebra(alg_name),
            tuple(self.resolve_object(alg_name, expr) for expr in exprs),
            Certificate("user", f"workspace smc {name}"), exprs))

    def _check_algebra_name(self, name: str) -> None:
        rec_name, dot, side = name.rpartition(".")
        if name not in self.algebras and not (
                dot and rec_name in self.recollement_docs and side in ("x", "y")):
            raise InputError(f"unknown algebra {name!r} (use a name or R.x / R.y)")

    def resolve_algebra(self, name: str) -> Algebra:
        self._check_algebra_name(name)
        if name in self.algebras:
            return self.algebras[name]
        rec_name, _, side = name.rpartition(".")
        spec = self.recollement(rec_name)
        return spec.x_algebra if side == "x" else spec.y_algebra

    def _parse_object(self, expr: str) -> Tuple[str, int]:
        """The base name and shift of an object expression, checked against
        the workspace's complex names and the builtin kinds."""
        m = _OBJ_RE.match(expr.strip())
        if not m:
            raise InputError(f"cannot parse object expression {expr!r}")
        base = m.group("base").strip()
        if base not in self.complex_docs:
            if ":" not in base:
                raise InputError(f"unresolved object name {base!r}")
            kind = base.split(":", 1)[0]
            if kind not in _BUILTINS:
                raise InputError(f"unknown builtin {kind!r} (simple/proj/inj)")
        return base, int(m.group("shift")) if m.group("shift") else 0

    def resolve_object(self, alg_name: str, expr: str) -> ProjComplex:
        A = self.resolve_algebra(alg_name)
        base, n = self._parse_object(expr)
        if base in self.complex_docs:
            owner = self.complex_docs[base][0]
            if owner != alg_name and self.resolve_algebra(owner) is not A:
                raise InputError(f"complex {base!r} lives over {owner!r}, "
                                 f"not {alg_name!r}")
            return shift(self.named_complex(base), n)
        kind, vert = base.split(":", 1)
        idx = _vertex(A, vert, f"object {expr!r}")
        if kind == "proj":
            return shift(stalk(A, idx), n)
        module = A.simple_module(idx) if kind == "simple" else A.injective_module(idx)
        return shift(resolve_module(module, self.pd_bound), n)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object")
    return value


def _list(value, what: str, strings: bool = False) -> list:
    """value as a list, of strings only when strings is set."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list")
    for v in value:
        if strings and not isinstance(v, str):
            raise InputError(f"{what}: entry {v!r} is not a string")
    return value


def _name(doc: dict, what: str) -> str:
    name = doc.get("algebra")
    if not isinstance(name, str) or not name:
        raise InputError(f"{what}: 'algebra' must name an algebra")
    return name


def _degree(key: str, what: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise InputError(f"{what}: degree {key!r} is not an integer") from None


def _vertex(A: Algebra, label: str, what: str) -> int:
    try:
        return A.vertex_labels.index(label)
    except ValueError:
        raise InputError(f"{what}: unknown vertex {label!r}") from None


def parse_workspace(doc: dict, field_override=None,
                    pd_bound: int = DEFAULT_LIMITS.pd_bound) -> Workspace:
    if not isinstance(doc, dict):
        raise InputError("workspace must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unsupported schema {doc.get('schema')!r}; "
                         f"expected {SCHEMA!r}")
    field = get_field(field_override if field_override is not None
                      else doc.get("field", DEFAULT_PRIME))
    ws = Workspace(field, {}, {}, {}, {}, pd_bound=pd_bound)
    sections = {key: _object(doc.get(key, {}), repr(key))
                for key in ("algebras", "recollements", "complexes", "smcs")}
    for name, adoc in sections["algebras"].items():
        what = f"algebra {name!r}"
        adoc = _object(adoc, what)
        try:
            verts = tuple(str(v) for v in _list(adoc["vertices"], f"{what}: 'vertices'"))
            arrows = tuple((str(a["label"]), str(a["source"]), str(a["target"]))
                           for a in (_object(a, f"{what}: arrow")
                                     for a in _list(adoc.get("arrows", []),
                                                    f"{what}: 'arrows'")))
            quiver = Quiver(verts, arrows)
            rels = [tuple(r.split("*")) for r in
                    _list(adoc.get("relations", []), f"{what}: 'relations'", True)]
            ws.algebras[name] = Algebra.from_quiver(field, quiver, rels)
        except KeyError as exc:
            raise InputError(f"{what}: missing key {exc}") from None
    for name, rdoc in sections["recollements"].items():
        what = f"recollement {name!r}"
        alg_name = _name(_object(rdoc, what), what)
        if alg_name not in ws.algebras:
            raise InputError(f"{what}: unknown algebra {alg_name!r}")
        A = ws.algebras[alg_name]
        ws.recollement_docs[name] = (alg_name, tuple(
            _vertex(A, str(v), what)
            for v in _list(rdoc.get("idempotents", []), f"{what}: 'idempotents'")))
    for name, cdoc in sections["complexes"].items():
        what = f"complex {name!r}"
        alg_name = _name(_object(cdoc, what), what)
        ws._check_algebra_name(alg_name)
        terms = {}
        for deg_str, verts in _object(cdoc.get("terms", {}), f"{what}: 'terms'").items():
            labels = [str(v) for v in _list(verts, f"{what}: term {deg_str!r}")]
            terms[_degree(deg_str, what)] = labels
        diffs = {}
        for deg_str, rows in _object(cdoc.get("diffs", {}), f"{what}: 'diffs'").items():
            entry = f"{what}: differential {deg_str!r}"
            diffs[_degree(deg_str, what)] = [_list(row, entry, True)
                                             for row in _list(rows, entry)]
        ws.complex_docs[name] = (alg_name, terms, diffs)
        if alg_name in ws.algebras:
            ws.named_complex(name)
    for name, sdoc in sections["smcs"].items():
        what = f"smc {name!r}"
        alg_name = _name(_object(sdoc, what), what)
        ws._check_algebra_name(alg_name)
        for expr in _list(sdoc.get("objects", []), f"{what}: 'objects'", True):
            ws._parse_object(expr)
        ws.smc_docs[name] = sdoc
    return ws


def serialize_complex(A: Algebra, cplx: ProjComplex) -> dict:
    terms = {str(k): [A.vertex_labels[v] for v in verts]
             for k, verts in sorted(cplx.terms.items())}
    diffs = {}
    for k, d in sorted(cplx.diffs.items()):
        diffs[str(k)] = [[A.element_str(e) for e in row] for row in d]
    return {"terms": terms, "diffs": diffs}


def load_workspace(path: str, field_override=None,
                   pd_bound: int = DEFAULT_LIMITS.pd_bound) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read workspace: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"workspace is not valid JSON: line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    return parse_workspace(doc, field_override, pd_bound=pd_bound)


# -- commands --------------------------------------------------------------------


def _emit(payload: dict, lines: List[str], as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for ln in lines:
            print(ln)


def _smc_summary(S: SMC) -> List[dict]:
    out = []
    for i, obj in enumerate(S.objects):
        out.append({"name": S.name_of(i), **serialize_complex(S.algebra, obj)})
    return out


def cmd_validate(args) -> int:
    S = load_workspace(args.workspace, args.field, args.pd_bound).smc(args.smc)
    rep = validate_smc(S)
    payload = {"smc": args.smc, "report": rep.to_dict()}
    lines = [f"smc {args.smc!r}: axioms(1)&(3) "
             f"{'pass' if rep.passed else 'FAIL'}"]
    if rep.axiom1_failures:
        lines.append(f"  orthogonality failures (i, j, dim): {rep.axiom1_failures}")
    if rep.axiom3_failures:
        lines.append(f"  negative-shift failures (i, j, n, dim): {rep.axiom3_failures}")
    lines.append(f"  Euler determinant: {rep.euler_det} "
                 f"(unimodular: {rep.euler_unimodular})")
    lines.append(f"  generation: {rep.generation}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    _emit(payload, lines, args.json)
    ok = rep.passed and (S.certificate.theorem_backed or rep.euler_unimodular)
    return 0 if ok else 1


def cmd_glue(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    spec = ws.recollement(args.recollement)
    S_X, S_Y = ws.smc(args.smc_x), ws.smc(args.smc_y)
    fn = glue_dual if args.dual else glue
    out, report = fn(S_X, S_Y, spec, deep=True)
    rep = validate_smc(out)
    other, _ = (glue if args.dual else glue_dual)(S_X, S_Y, spec)
    iso_to_other = smc_iso(out, other)
    payload = {
        "route": "dual" if args.dual else "primal",
        "objects": _smc_summary(out),
        "validation": rep.to_dict(),
        "triangles_verified": report.all_verified(),
        "iso_to_other_route": iso_to_other,
        "items": [{
            "index": item.y_index,
            "second_triangle_ok": item.second_triangle_ok,
            "image_identities": item.image_identities,
        } for item in report.items],
    }
    lines = [f"glued collection ({payload['route']} route), "
             f"{len(out)} objects:"]
    for obj in payload["objects"]:
        lines.append(f"  {obj['name']}: terms {obj['terms']}")
    lines.append(f"validation: {'pass' if rep.passed else 'FAIL'}; "
                 f"Euler unimodular: {rep.euler_unimodular}")
    lines.append(f"defining triangles cone-certified; companions verified: "
                 f"{report.all_verified()}")
    lines.append(f"iso to {'primal' if args.dual else 'dual'} route: {iso_to_other}")
    _emit(payload, lines, args.json)
    return 0 if rep.passed and report.all_verified() and iso_to_other else 1


def cmd_mutate(args) -> int:
    S = load_workspace(args.workspace, args.field, args.pd_bound).smc(args.smc)
    out, step = mutate(S, args.index, args.direction, force=args.force)
    payload = {"direction": args.direction, "index": args.index,
               "multiplicities": step.multiplicities,
               "objects": _smc_summary(out)}
    lines = [f"mutation ({args.direction}) at index {args.index}:"]
    for obj in payload["objects"]:
        lines.append(f"  {obj['name']}: terms {obj['terms']}")
    lines.append(f"approximation multiplicities: {step.multiplicities}")
    _emit(payload, lines, args.json)
    return 0


def cmd_order(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    rel = compare(ws.smc(args.smc_a), ws.smc(args.smc_b))
    pretty = {"equal": "=", "geq": ">=", "leq": "<=",
              "incomparable": "incomparable with"}[rel]
    _emit({"relation": rel},
          [f"{args.smc_a} {pretty} {args.smc_b}"], args.json)
    return 0


def cmd_truncate(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    S = ws.smc(args.smc)
    alg_name = ws.smc_docs[args.smc].get("algebra")
    T = ws.resolve_object(alg_name, args.object)
    tri = truncate(T, list(S.objects), threshold=args.threshold,
                   cap=args.strip_cap)
    payload = {
        "threshold": args.threshold,
        "strip_log": tri.strip_log,
        "aisle_part": serialize_complex(S.algebra, tri.u_part),
        "coaisle_part": serialize_complex(S.algebra, tri.v_part),
    }
    lines = [f"truncation at threshold {args.threshold}: "
             f"{len(tri.strip_log)} layers stripped",
             f"  aisle part terms: {payload['aisle_part']['terms']}",
             f"  coaisle part terms: {payload['coaisle_part']['terms']}"]
    _emit(payload, lines, args.json)
    return 0


def cmd_hom(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    X = ws.resolve_object(args.algebra, args.x)
    Y = ws.resolve_object(args.algebra, args.y)
    t = hom_table(X, Y)
    payload = {"window": list(t.window), "dims": {str(n): d for n, d
                                                  in sorted(t.dims.items())}}
    lines = [f"graded Hom dimensions over window {t.window}:"]
    for n in range(t.window[0], t.window[1] + 1):
        if t.dim(n):
            lines.append(f"  shift {n}: {t.dim(n)}")
    if not t.dims:
        lines.append("  all zero")
    _emit(payload, lines, args.json)
    return 0


def cmd_paper_examples(args) -> int:
    field = args.field if args.field is not None else DEFAULT_PRIME
    reports = run_paper_examples(field, args.pd_bound)
    payload = {"reports": [r.to_dict() for r in reports],
               "all_passed": all(r.passed for r in reports)}
    lines = [r.line() for r in reports]
    lines.append("all checks passed" if payload["all_passed"]
                 else "SOME CHECKS FAILED")
    _emit(payload, lines, args.json)
    return 0 if payload["all_passed"] else 1


def _non_negative(text: str) -> int:
    """A resource flag's value: a non-negative int (argparse exits 2 else)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use and shared by
    every main call: callers must not modify it."""
    p = argparse.ArgumentParser(
        prog="smc-kit",
        description="simple-minded collections over quiver algebras: "
                    "validation, gluing along idempotent recollements, "
                    "mutation, and the partial order")
    p.add_argument("--field", default=None,
                   help="override the workspace field: a prime or 'rationals'")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--pd-bound", type=_non_negative, default=DEFAULT_LIMITS.pd_bound)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a named collection")
    sp.add_argument("workspace")
    sp.add_argument("smc")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("glue", help="glue two outer collections")
    sp.add_argument("workspace")
    sp.add_argument("recollement")
    sp.add_argument("smc_x")
    sp.add_argument("smc_y")
    sp.add_argument("--dual", action="store_true", help="use the dual route")
    sp.set_defaults(fn=cmd_glue)

    sp = sub.add_parser("mutate", help="left or right mutation at an index")
    sp.add_argument("workspace")
    sp.add_argument("smc")
    sp.add_argument("index", type=int)
    sp.add_argument("direction", choices=["left", "right"])
    sp.add_argument("--force", action="store_true",
                    help="mutate even when the object is not rigid")
    sp.set_defaults(fn=cmd_mutate)

    sp = sub.add_parser("order", help="compare two collections")
    sp.add_argument("workspace")
    sp.add_argument("smc_a")
    sp.add_argument("smc_b")
    sp.set_defaults(fn=cmd_order)

    sp = sub.add_parser("truncate", help="aisle/coaisle truncation triangle")
    sp.add_argument("workspace")
    sp.add_argument("smc")
    sp.add_argument("object")
    sp.add_argument("--threshold", type=int, default=1)
    sp.add_argument("--strip-cap", type=_non_negative, default=DEFAULT_LIMITS.strip_cap)
    sp.set_defaults(fn=cmd_truncate)

    sp = sub.add_parser("hom", help="graded Hom dimensions between objects")
    sp.add_argument("workspace")
    sp.add_argument("algebra")
    sp.add_argument("x")
    sp.add_argument("y")
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("paper-examples", help="run every built-in example")
    sp.set_defaults(fn=cmd_paper_examples)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (NotRigidError, SmcKitError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant failed (a bug): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
