"""Command-line interface and the workspace document format.

A workspace is a single JSON document describing algebras (quiver plus
monomial relations), recollements (algebra + idempotent subset), named
complexes (terms per degree, differential entries as linear combinations
of path labels, e.g. "2*alpha + beta"), and named collections whose
objects are either complex names or the builtins simple:V / proj:V /
inj:V, each with an optional shift suffix "[n]".

Exit codes: 0 success, 1 mathematical check failed, 2 input error,
3 resource bound exceeded, 4 internal invariant failed (a bug).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .algebra import Algebra, Quiver
from .config import (
    DEFAULT_LIMITS,
    BoundExceeded,
    InputError,
    InvariantError,
    NotRigidError,
    SmcKitError,
)
from .exactla import Field, get_field
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


@dataclass
class Workspace:
    field: Field
    algebras: Dict[str, Algebra]
    recollements: Dict[str, RecollementSpec]
    complexes: Dict[str, Tuple[str, ProjComplex]]
    smc_docs: Dict[str, dict]
    smcs: Dict[str, SMC]
    # bound on the projective dimension of each module the builtins resolve
    pd_bound: int = 32

    def resolve_algebra(self, name: str) -> Algebra:
        if name in self.algebras:
            return self.algebras[name]
        if "." in name:
            rec_name, side = name.rsplit(".", 1)
            if rec_name in self.recollements and side in ("x", "y"):
                spec = self.recollements[rec_name]
                return spec.x_algebra if side == "x" else spec.y_algebra
        raise InputError(f"unknown algebra {name!r} (use a name or R.x / R.y)")

    def resolve_object(self, alg_name: str, expr: str) -> ProjComplex:
        A = self.resolve_algebra(alg_name)
        m = _OBJ_RE.match(expr.strip())
        if not m:
            raise InputError(f"cannot parse object expression {expr!r}")
        base = m.group("base").strip()
        n = int(m.group("shift")) if m.group("shift") else 0
        if base in self.complexes:
            owner, cplx = self.complexes[base]
            if self.resolve_algebra(owner) is not A:
                raise InputError(f"complex {base!r} lives over {owner!r}, "
                                 f"not {alg_name!r}")
            return shift(cplx, n)
        if ":" in base:
            kind, vert = base.split(":", 1)
            try:
                idx = list(A.vertex_labels).index(vert)
            except ValueError:
                raise InputError(f"unknown vertex {vert!r} in {expr!r}") from None
            if kind == "proj":
                return shift(stalk(A, idx), n)
            if kind == "simple":
                return shift(resolve_module(A.simple_module(idx), self.pd_bound), n)
            if kind == "inj":
                return shift(resolve_module(A.injective_module(idx), self.pd_bound), n)
            raise InputError(f"unknown builtin {kind!r} (simple/proj/inj)")
        raise InputError(f"unresolved object name {base!r}")


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


def parse_workspace(doc: dict, field_override=None, pd_bound: int = 32) -> Workspace:
    if not isinstance(doc, dict):
        raise InputError("workspace must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"unsupported schema {doc.get('schema')!r}; "
                         f"expected {SCHEMA!r}")
    field = get_field(field_override if field_override is not None
                      else doc.get("field", 32003))
    ws = Workspace(field, {}, {}, {}, {}, {}, pd_bound=pd_bound)
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
        subset = []
        for v in _list(rdoc.get("idempotents", []), f"{what}: 'idempotents'"):
            try:
                subset.append(list(A.vertex_labels).index(str(v)))
            except ValueError:
                raise InputError(f"{what}: unknown vertex {v!r}") from None
        ws.recollements[name] = build_recollement(A, subset, pd_bound=pd_bound)
    for name, cdoc in sections["complexes"].items():
        what = f"complex {name!r}"
        alg_name = _name(_object(cdoc, what), what)
        A = ws.resolve_algebra(alg_name)
        terms: Dict[int, Tuple[int, ...]] = {}
        for deg_str, verts in _object(cdoc.get("terms", {}), f"{what}: 'terms'").items():
            idx = []
            for v in _list(verts, f"{what}: term {deg_str!r}"):
                try:
                    idx.append(list(A.vertex_labels).index(str(v)))
                except ValueError:
                    raise InputError(f"{what}: unknown vertex {v!r}") from None
            terms[_degree(deg_str, what)] = tuple(idx)
        diffs = {}
        for deg_str, rows in _object(cdoc.get("diffs", {}), f"{what}: 'diffs'").items():
            entry = f"{what}: differential {deg_str!r}"
            diffs[_degree(deg_str, what)] = [
                [A.parse_element(e) for e in _list(row, entry, True)]
                for row in _list(rows, entry)]
        try:
            cplx = ProjComplex(A, terms, diffs)
        except InputError as exc:
            raise InputError(f"{what}: {exc}") from None
        ws.complexes[name] = (alg_name, cplx)
    for name, sdoc in sections["smcs"].items():
        what = f"smc {name!r}"
        alg_name = _name(_object(sdoc, what), what)
        ws.smc_docs[name] = sdoc
        exprs = tuple(_list(sdoc.get("objects", []), f"{what}: 'objects'", True))
        objs = tuple(ws.resolve_object(alg_name, expr) for expr in exprs)
        ws.smcs[name] = SMC(ws.resolve_algebra(alg_name), objs,
                            Certificate("user", f"workspace smc {name}"), exprs)
    return ws


def serialize_complex(A: Algebra, cplx: ProjComplex) -> dict:
    terms = {str(k): [A.vertex_labels[v] for v in verts]
             for k, verts in sorted(cplx.terms.items())}
    diffs = {}
    for k, d in sorted(cplx.diffs.items()):
        diffs[str(k)] = [[A.element_str(e) for e in row] for row in d]
    return {"terms": terms, "diffs": diffs}


def load_workspace(path: str, field_override=None, pd_bound: int = 32) -> Workspace:
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


def _smc_summary(ws: Workspace, S: SMC) -> List[dict]:
    out = []
    for i, obj in enumerate(S.objects):
        out.append({"name": S.name_of(i), **serialize_complex(S.algebra, obj)})
    return out


def cmd_validate(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    if args.smc not in ws.smcs:
        raise InputError(f"unknown smc {args.smc!r}")
    S = ws.smcs[args.smc]
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


def _resolve_recollement(ws: Workspace, name: str) -> RecollementSpec:
    if name not in ws.recollements:
        raise InputError(f"unknown recollement {name!r}")
    return ws.recollements[name]


def cmd_glue(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    spec = _resolve_recollement(ws, args.recollement)
    for nm in (args.smc_x, args.smc_y):
        if nm not in ws.smcs:
            raise InputError(f"unknown smc {nm!r}")
    S_X, S_Y = ws.smcs[args.smc_x], ws.smcs[args.smc_y]
    fn = glue_dual if args.dual else glue
    out, report = fn(S_X, S_Y, spec, deep=True)
    rep = validate_smc(out)
    other, _ = (glue if args.dual else glue_dual)(S_X, S_Y, spec)
    iso_to_other = smc_iso(out, other)
    payload = {
        "route": "dual" if args.dual else "primal",
        "objects": _smc_summary(ws, out),
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
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    if args.smc not in ws.smcs:
        raise InputError(f"unknown smc {args.smc!r}")
    S = ws.smcs[args.smc]
    out, step = mutate(S, args.index, args.direction, force=args.force)
    payload = {"direction": args.direction, "index": args.index,
               "multiplicities": step.multiplicities,
               "objects": _smc_summary(ws, out)}
    lines = [f"mutation ({args.direction}) at index {args.index}:"]
    for obj in payload["objects"]:
        lines.append(f"  {obj['name']}: terms {obj['terms']}")
    lines.append(f"approximation multiplicities: {step.multiplicities}")
    _emit(payload, lines, args.json)
    return 0


def cmd_order(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    for nm in (args.smc_a, args.smc_b):
        if nm not in ws.smcs:
            raise InputError(f"unknown smc {nm!r}")
    rel = compare(ws.smcs[args.smc_a], ws.smcs[args.smc_b])
    pretty = {"equal": "=", "geq": ">=", "leq": "<=",
              "incomparable": "incomparable with"}[rel]
    _emit({"relation": rel},
          [f"{args.smc_a} {pretty} {args.smc_b}"], args.json)
    return 0


def cmd_truncate(args) -> int:
    ws = load_workspace(args.workspace, args.field, args.pd_bound)
    if args.smc not in ws.smcs:
        raise InputError(f"unknown smc {args.smc!r}")
    S = ws.smcs[args.smc]
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
    field = args.field if args.field is not None else 32003
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


def build_parser() -> argparse.ArgumentParser:
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
