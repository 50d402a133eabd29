"""Command-line front end: construction, identification, search, verification.

Output is deterministic (sorted keys, no timestamps), so identical inputs
give byte-identical output.  Exit codes: 0 all passed, 1 verification or
computation failure, 2 usage errors.  Golden files are only rewritten under
an explicit --bless.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .autos import make_klein
from .identify import fixed_subalgebra, identify_type, type_dim
from .realform import cartan_decomposition, load_catalog, real_fixed_subalgebra
from .rootsys import (
    CartanMatrixError,
    cartan_matrix,
    root_system_to_jsonable,
    structure_table_to_jsonable,
)
from .verify import (
    SCENARIOS,
    VerifyContext,
    check_class_labels,
    reports_to_json,
    run_all,
    search_configuration,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _type_label(text: str) -> str:
    try:
        cartan_matrix(text)
    except CartanMatrixError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _class_labels(text: str) -> List[str]:
    labels = [x.strip() for x in text.split(",") if x.strip()]
    try:
        check_class_labels(labels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return labels


def _target(text: str) -> Tuple[str, Optional[int]]:
    target, colon, dim_s = text.partition(":")
    if colon and not dim_s.isdigit():
        raise argparse.ArgumentTypeError(
            f"target {text!r}: the dimension after ':' must be a whole number, e.g. B4:36"
        )
    try:
        dim = type_dim(target)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"target {text!r}: {exc}") from None
    if colon and int(dim_s) != dim:
        raise argparse.ArgumentTypeError(
            f"target {text!r}: {target} has dimension {dim}, not {dim_s}"
        )
    return target, int(dim_s) if colon else None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kleinfour",
        description="Exact verification of involution and Klein-four structure on E6.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", type=_type_label, default="E6",
                        help="algebra type label (default E6)")
    common.add_argument("--catalog", default=None, help="path to a real-form catalog JSON")
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    roots = sub.add_parser("roots", parents=[common],
                           help="list the root system in canonical order")
    roots.add_argument("--table", action="store_true",
                       help="also emit the structure table serialization")
    roots.add_argument("--golden-dir", default=None,
                       help="compare output against golden files in this directory")
    roots.add_argument("--bless", action="store_true",
                       help="rewrite golden files instead of comparing")

    fixed = sub.add_parser("fixed", parents=[common], help="fixed-point subalgebra of automorphisms")
    fixed.add_argument("--auto", action="append", default=[], required=True,
                       help="automorphism descriptor (repeatable)")

    ident = sub.add_parser("identify", parents=[common], help="reductive type of the fixed subalgebra")
    ident.add_argument("--auto", action="append", default=[], required=True)

    real = sub.add_parser("realform", parents=[common], help="Cartan decomposition / real fixed form")
    real.add_argument("--theta", required=True, help="Cartan involution descriptor")
    real.add_argument("--auto", action="append", default=[],
                      help="fixed-group generator descriptors (0, 1 or 2)")

    search = sub.add_parser("search", parents=[common], help="search commuting involution configurations")
    search.add_argument("--classes", type=_class_labels, required=True,
                        help="comma-separated class labels, e.g. sigma3,sigma2")
    search.add_argument("--target", type=_target, required=True,
                        help="required joint fixed type, e.g. B4 or B4:36")

    verify = sub.add_parser("verify", parents=[common], help="run verification scenarios")
    verify.add_argument("scenario", choices=("all",) + tuple(sorted(SCENARIOS)))
    return p


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _context(args) -> VerifyContext:
    catalog = load_catalog(args.catalog) if args.catalog else None
    return VerifyContext(catalog=catalog, algebra=args.type)


def _cmd_roots(args) -> int:
    ctx = _context(args)
    rs = ctx.rs
    payload = {"root_system": root_system_to_jsonable(rs)}
    lines = [f"type {args.type}: {len(rs.roots)} roots, {rs.npos} positive"]
    for i, r in enumerate(rs.roots):
        coords = ",".join(str(c) for c in r.coords)
        lines.append(f"{i:3d}  height {r.height:3d}  [{coords}]")
    if args.table:
        payload["structure_table"] = structure_table_to_jsonable(ctx.table)
        nz = sum(len(v) for v in ctx.table._bra.values())
        lines.append(f"structure table: dim {ctx.table.dim}, {nz} stored bracket terms")
    rendered = (
        json.dumps(payload, indent=2, sort_keys=True)
        if args.format == "json"
        else "\n".join(lines)
    )
    if args.golden_dir:
        suffix = "json" if args.format == "json" else "txt"
        name = f"roots_{args.type}{'_table' if args.table else ''}.{suffix}"
        path = os.path.join(args.golden_dir, name)
        if args.bless:
            os.makedirs(args.golden_dir, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
            print(f"blessed {path}")
            return EXIT_OK
        with open(path, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if golden != rendered + "\n":
            print(f"golden mismatch against {path}", file=sys.stderr)
            return EXIT_FAIL
        print(f"golden match: {path}")
        return EXIT_OK
    print(rendered)
    return EXIT_OK


def _cmd_fixed(args) -> int:
    ctx = _context(args)
    autos = [ctx.automorphism(d) for d in args.auto]
    s = fixed_subalgebra(ctx.table, autos)
    ty = identify_type(s)
    payload = {
        "automorphisms": [a.descriptor for a in autos],
        "dim": str(s.dim),
        "type": str(ty),
        "pivots": [str(p) for p in s.pivots],
    }
    _emit(args, payload, [
        f"fixed({', '.join(a.descriptor for a in autos)})",
        f"dim {s.dim}",
        f"type {ty}",
    ])
    return EXIT_OK


def _cmd_identify(args) -> int:
    ctx = _context(args)
    autos = [ctx.automorphism(d) for d in args.auto]
    ty = identify_type(fixed_subalgebra(ctx.table, autos))
    payload = {"automorphisms": [a.descriptor for a in autos], "type": str(ty)}
    _emit(args, payload, [str(ty)])
    return EXIT_OK


def _cmd_realform(args) -> int:
    ctx = _context(args)
    theta = ctx.automorphism(args.theta)
    if not args.auto:
        desc = cartan_decomposition(ctx.cb, theta, ctx.catalog)
    else:
        gens = [ctx.automorphism(d) for d in args.auto]
        gamma = gens[0] if len(gens) == 1 else make_klein(gens[0], gens[1])
        desc = real_fixed_subalgebra(ctx.cb, gamma, theta, ctx.catalog)
    payload = {
        "theta": desc.theta,
        "fixed_of": list(desc.fixed_of),
        "g_type": desc.g_type,
        "k_type": desc.k_type,
        "signature": [str(desc.k_dim), str(desc.p_dim)],
        "name": desc.name,
    }
    _emit(args, payload, [
        f"theta {desc.theta}" + (f" on fixed({', '.join(desc.fixed_of)})" if desc.fixed_of else ""),
        f"g_type {desc.g_type}",
        f"k_type {desc.k_type}",
        f"signature ({desc.k_dim}, {desc.p_dim})",
        f"name {desc.name}",
    ])
    return EXIT_OK


def _cmd_search(args) -> int:
    ctx = _context(args)
    target, target_dim = args.target
    config = search_configuration(ctx, args.classes, target, target_dim)
    payload = {
        "a": config.a,
        "b": config.b,
        "theta": config.theta,
        "labels": dict(sorted(config.labels.items())),
        "provenance": {k: str(v) for k, v in sorted(config.provenance.items())},
    }
    lines = [f"a = {config.a}", f"b = {config.b}"]
    if config.theta:
        lines.append(f"theta = {config.theta}")
    lines += [f"labels: {json.dumps(dict(sorted(config.labels.items())), sort_keys=True)}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ctx = _context(args)
    if args.scenario == "all":
        reports = run_all(ctx)
    else:
        reports = [SCENARIOS[args.scenario](ctx)]
    if args.format == "json":
        print(reports_to_json(reports))
    else:
        for r in reports:
            print(r.render_text())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("search", "verify") and args.type.upper() != "E6":
        parser.error(f"{args.command} supports only --type E6, got {args.type}: "
                     "its class invariants and census counts are E6 facts")
    if args.command == "realform" and len(args.auto) > 2:
        parser.error("realform takes at most two --auto generators")
    if args.command == "roots" and args.bless and not args.golden_dir:
        parser.error("--bless needs --golden-dir")
    handlers = {
        "roots": _cmd_roots,
        "fixed": _cmd_fixed,
        "identify": _cmd_identify,
        "realform": _cmd_realform,
        "search": _cmd_search,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return EXIT_FAIL
    except Exception as exc:  # computation failures -> structured report, exit 1
        print(
            json.dumps(
                {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True
            ),
            file=sys.stderr,
        )
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
