"""Command-line front end: construction, identification, search, verification.

Output is deterministic (sorted keys, no timestamps), so identical inputs
give byte-identical output.  Exit codes: 0 all passed, 1 verification or
computation failure, 2 usage errors, among them every --auto or --theta
descriptor that autos.read_descriptor rejects: one outside the grammar, or a
torus factor whose coefficient count is not the rank of --type.
A golden mismatch is a failure (exit 1); a golden file is the roots output
itself, so `kleinfour roots ... > golden/<name>` regenerates it.
Each request is its own process, so it builds the top-level parser and only
the subparser its first argument names; -h, no arguments and an unknown
subcommand get the whole tree, which prints the same help and usage text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .autos import check_klein, read_descriptor
from .identify import fixed_subalgebra, identify_type, type_dim
from .realform import cartan_decomposition
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


class GoldenMismatchError(Exception):
    """roots output differs from its golden file."""


def _type_label(text: str) -> str:
    """The canonical label, e.g. E6 for e6: upper-case letter, ASCII rank."""
    try:
        cartan_matrix(text)
    except CartanMatrixError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return f"{text[0].upper()}{text[1:].lstrip('0')}"


def _class_labels(text: str) -> List[str]:
    labels = [x.strip() for x in text.split(",")]
    try:
        check_class_labels(labels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return labels


def _target(text: str) -> str:
    """The type label of a target such as B4 or B4:36; the dimension is checked."""
    target, colon, dim_s = text.partition(":")
    if colon and not (dim_s.isascii() and dim_s.isdigit()):
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
    return target


def _make_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The top-level parser with the subparser argv[0] names, or all of them if it names none."""
    p = argparse.ArgumentParser(
        prog="kleinfour",
        description="Exact verification of involution and Klein-four structure on E6.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", type=_type_label, default="E6",
                        help="algebra type label (default E6)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    auto = dict(action="append", default=[])
    commands = {  # name: (help, handler, [(argument, options)]) beside --type and --format
        "roots": ("list the root system in canonical order", _cmd_roots, [
            ("--table", dict(action="store_true",
                             help="also emit the structure table serialization")),
            ("--golden-dir", dict(help="compare output against golden files in this directory"))]),
        "fixed": ("fixed-point subalgebra of automorphisms", _cmd_fixed, [
            ("--auto", dict(auto, required=True, help="automorphism descriptor (repeatable)"))]),
        "identify": ("reductive type of the fixed subalgebra", _cmd_fixed,
                     [("--auto", dict(auto, required=True))]),
        "realform": ("Cartan decomposition / real fixed form", _cmd_realform, [
            ("--theta", dict(required=True, help="Cartan involution descriptor")),
            ("--auto", dict(auto, help="fixed-group generator descriptors (0, 1 or 2)"))]),
        "search": ("search commuting involution configurations", _cmd_search, [
            ("--classes", dict(type=_class_labels, required=True,
                               help="comma-separated class labels, e.g. sigma3,sigma2")),
            ("--target", dict(type=_target, required=True,
                              help="required joint fixed type, e.g. B4 or B4:36"))]),
        "verify": ("run verification scenarios", _cmd_verify,
                   [("scenario", dict(choices=("all",) + tuple(sorted(SCENARIOS))))]),
    }
    sub = p.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in commands else commands:
        help_line, handler, arguments = commands[name]
        command = sub.add_parser(name, parents=[common], help=help_line)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(handler=handler, usage_error=command.error)  # errors print its usage
    return p


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _context(args) -> VerifyContext:
    return VerifyContext(algebra=args.type)


def _cmd_roots(args) -> int:
    ctx = _context(args)
    rs = ctx.rs
    if args.format == "json":
        payload = {"root_system": root_system_to_jsonable(rs)}
        if args.table:
            payload["structure_table"] = structure_table_to_jsonable(ctx.table)
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        lines = [f"type {args.type}: {len(rs.roots)} roots, {rs.npos} positive"]
        for i, r in enumerate(rs.roots):
            coords = ",".join(str(c) for c in r.coords)
            lines.append(f"{i:3d}  height {r.height:3d}  [{coords}]")
        if args.table:
            # the store holds each bracket in both orders, with as many terms
            nz = sum(len(terms) for row in ctx.table._adj for terms in row.values()) // 2
            lines.append(f"structure table: dim {ctx.table.dim}, {nz} stored bracket terms")
        rendered = "\n".join(lines)
    if args.golden_dir:
        suffix = "json" if args.format == "json" else "txt"
        name = f"roots_{args.type}{'_table' if args.table else ''}.{suffix}"
        path = os.path.join(args.golden_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if golden != rendered + "\n":
            raise GoldenMismatchError(f"golden mismatch against {path}")
        print(f"golden match: {path}")
        return EXIT_OK
    print(rendered)
    return EXIT_OK


def _cmd_fixed(args) -> int:
    """fixed and identify: one pipeline, identify printing only the type."""
    ctx = _context(args)
    autos = [ctx.automorphism(d) for d in args.auto]
    descriptors = [a.descriptor for a in autos]
    s = fixed_subalgebra(ctx.table, autos)
    ty = identify_type(s)
    if args.command == "identify":
        _emit(args, {"automorphisms": descriptors, "type": str(ty)}, [str(ty)])
        return EXIT_OK
    payload = {
        "automorphisms": descriptors,
        "dim": str(s.dim),
        "type": str(ty),
        "pivots": [str(p) for p in s.pivots],
    }
    _emit(args, payload, [f"fixed({', '.join(descriptors)})", f"dim {s.dim}", f"type {ty}"])
    return EXIT_OK


def _cmd_realform(args) -> int:
    ctx = _context(args)
    theta = ctx.automorphism(args.theta)
    gens = [ctx.automorphism(d) for d in args.auto]
    if len(gens) == 2:
        check_klein(*gens)  # the Klein four axioms, each with its own message
    desc = cartan_decomposition(ctx.cb, theta, gens)
    fixed_of = [g.descriptor for g in gens]
    payload = {
        "theta": theta.descriptor,
        "fixed_of": fixed_of,
        "g_type": desc.g_type,
        "k_type": desc.k_type,
        "signature": [str(desc.k_dim), str(desc.p_dim)],
        "name": desc.name,
    }
    _emit(args, payload, [
        f"theta {theta.descriptor}" + (f" on fixed({', '.join(fixed_of)})" if fixed_of else ""),
        f"g_type {desc.g_type}",
        f"k_type {desc.k_type}",
        f"signature ({desc.k_dim}, {desc.p_dim})",
        f"name {desc.name}",
    ])
    return EXIT_OK


def _cmd_search(args) -> int:
    ctx = _context(args)
    config = search_configuration(ctx, args.classes, args.target)
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


def _origin(exc: BaseException) -> dict:
    """The module ("layer") and function ("check") of the innermost kleinfour frame exc passed."""
    where, tb = {}, exc.__traceback__
    while tb:
        module = getattr(tb.tb_frame.f_globals.get("__spec__"), "name", "")
        if module.startswith("kleinfour."):
            where = {"layer": module[len("kleinfour."):], "check": tb.tb_frame.f_code.co_name}
        tb = tb.tb_next
    return where


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, extra = _make_parser(argv).parse_known_args(argv)
    error = args.usage_error
    if extra:
        error(f"unrecognized arguments: {' '.join(extra)}")
    if args.command in ("search", "verify") and args.type != "E6":
        error(f"{args.command} supports only --type E6, got {args.type}: "
              "its class invariants and census counts are E6 facts")
    if args.command == "realform" and len(args.auto) > 2:
        error("realform takes at most two --auto generators")
    for text in getattr(args, "auto", []) + ([args.theta] if args.command == "realform" else []):
        try:
            read_descriptor(text, int(args.type[1:]))
        except ValueError as exc:
            error(str(exc))
    try:
        return args.handler(args)
    except BrokenPipeError:
        return EXIT_FAIL
    except Exception as exc:  # computation failures -> structured report, exit 1
        report = {"error": type(exc).__name__, "message": str(exc), **_origin(exc)}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
