"""Command line front end.

Subcommands: analyze (classification bundle), decompose (skew
representation), generate (seeded fixtures), verify (reconstruction
residuals).  Every invocation writes exactly one JSON document to stdout
and keeps diagnostics on stderr.  Exit codes: 0 for a true verdict or
success, 1 for a false verdict, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Sequence

from .classify import analyze
from .fixtures import FixtureSpec, make_fixture
from .graphs import (
    OperatorGraph,
    ParseError,
    SkewfitError,
    ToleranceConfig,
    dumps_canonical,
    load_graph,
    load_json_object,
    save_graph,
)
from .recovery import NotBimonotoneError, SkewDecomposition, decompose, verify_reconstruction

__all__ = ["build_parser", "main", "run"]


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps_canonical(doc) + "\n")


def _tolerance(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(abs_tol=args.tol_abs, rel_tol=args.tol_rel)


def _graph_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if path.endswith(".csv") else "json"


def _read_graph(path: str, explicit_format: str | None) -> OperatorGraph:
    with open(path, "rb") as handle:
        return load_graph(handle, _graph_format(path, explicit_format))


def _read_json_file(path: str) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return load_json_object(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.format)
    tol = _tolerance(args)
    reports = analyze(g, tol)
    docs = {name: report.to_dict() for name, report in reports.items()}
    docs["paramonotone"]["scope"] = "sampled-graph"
    _emit({"dimension": g.dimension, "num_points": len(g.points), "tolerance": tol.to_dict(), **docs})
    return 0 if reports["bimonotone"].verdict else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.format)
    tol = _tolerance(args)
    try:
        dec = decompose(g, basepoint=args.basepoint, tol=tol)
    except NotBimonotoneError as exc:
        doc = {"error": "not_bimonotone", "message": str(exc)}
        if exc.report is not None:
            doc["bimonotone"] = exc.report.to_dict()
        _emit(doc)
        return 1
    doc = dec.to_dict()
    payload = dumps_canonical(doc) + "\n"
    if args.out:
        Path(args.out).write_bytes(payload.encode("utf-8"))
    sys.stdout.write(payload)
    return 0


def _truth_path(out: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + ".truth.json")


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = FixtureSpec.from_dict(_read_json_file(args.spec))
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    fixture = make_fixture(spec)
    graph_format = _graph_format(args.out, args.format)
    Path(args.out).write_bytes(save_graph(fixture.graph, graph_format))
    truth_path = _truth_path(args.out)
    truth_doc = {"spec": spec.to_dict(), **fixture.truth.to_dict()}
    truth_path.write_bytes((dumps_canonical(truth_doc) + "\n").encode("utf-8"))
    _emit(
        {
            "spec": spec.to_dict(),
            "graph_path": args.out,
            "truth_path": str(truth_path),
            "dimension": fixture.graph.dimension,
            "num_points": len(fixture.graph.points),
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    dec = SkewDecomposition.from_dict(_read_json_file(args.decomposition))
    g = _read_graph(args.graph, args.format)
    report = verify_reconstruction(dec, g, _tolerance(args))
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and nonnegative")
    return value


def _add_common(parser: argparse.ArgumentParser, tolerances: bool = True) -> None:
    if tolerances:
        parser.add_argument("--tol-abs", type=_nonnegative, default=1e-9,
                            help="absolute tolerance (default 1e-9)")
        parser.add_argument("--tol-rel", type=_nonnegative, default=1e-9,
                            help="relative tolerance (default 1e-9)")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="graph file format; inferred from a .csv suffix when omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewfit",
        description="Classify sampled multivalued operators and recover their "
        "linear skew representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run all membership checks on a graph")
    analyze.add_argument("graph", help="path to a graph file")
    _add_common(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    dec = sub.add_parser("decompose", help="recover basis, skew matrix, and offset")
    dec.add_argument("graph", help="path to a graph file")
    dec.add_argument("--basepoint", type=int, default=None,
                     help="index of the pair translated to (0, 0); default 0")
    dec.add_argument("--out", default=None, help="also write the result to this path")
    _add_common(dec)
    dec.set_defaults(func=_cmd_decompose)

    gen = sub.add_parser("generate", help="synthesize a fixture from a spec file")
    gen.add_argument("spec", help="path to a fixture spec (JSON)")
    gen.add_argument("--out", required=True, help="path for the generated graph")
    gen.add_argument("--seed", type=int, default=None, help="override the spec seed")
    _add_common(gen, tolerances=False)
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check a decomposition against a graph")
    ver.add_argument("decomposition", help="path to a decomposition file (JSON)")
    ver.add_argument("graph", help="path to a graph file")
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SkewfitError, OSError, MemoryError) as exc:
        print(f"skewfit: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
