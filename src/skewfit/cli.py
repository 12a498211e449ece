"""Command line front end.

Subcommands: analyze (classification bundle), decompose (skew
representation), generate (seeded fixtures), verify (reconstruction
residuals).  Every invocation writes exactly one JSON document to stdout
and keeps diagnostics on stderr.  Exit codes: 0 for a true verdict or
success, 1 for a false verdict, 2 for usage or parse errors and for a
stdout that cannot take the document or the help, 3 for an internal error;
no exit code depends on whether stderr could take the message.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .classify import analyze
from .fixtures import FixtureSpec, make_fixture
from .graphs import (
    OperatorGraph,
    SkewfitError,
    ToleranceConfig,
    dumps_canonical,
    load_graph,
    load_json_object,
    save_graph,
    spelled_real,
)
from .recovery import NotBimonotoneError, SkewDecomposition, decompose, verify_reconstruction

__all__ = ["build_parser", "main", "run"]


def _read(path: str, parse):
    """``parse`` of the bytes of ``path``; an error in them names the file."""
    try:
        return parse(Path(path).read_bytes())
    except SkewfitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _write(name: str, text: str) -> None:
    """Write ``text`` to ``sys.stdout`` or ``sys.stderr`` (``name``) and flush it,
    so that a failed write raises here whatever the buffering."""
    stream = getattr(sys, name)
    if stream is None:  # Python started with that descriptor closed
        raise OSError(errno.EBADF, f"{name} is closed")
    stream.write(text)
    stream.flush()


def _emit(doc: dict, path: str | None = None) -> None:
    """Write ``doc`` as one canonical JSON line to ``path``, or to stdout."""
    text = dumps_canonical(doc) + "\n"
    if path is None:
        _write("stdout", text)
    else:
        Path(path).write_bytes(text.encode("utf-8"))


def _tolerance(args: argparse.Namespace) -> ToleranceConfig:
    return ToleranceConfig(abs_tol=args.tol_abs, rel_tol=args.tol_rel)


def _graph_format(path: str) -> str:
    return "csv" if path.endswith(".csv") else "json"


def _read_graph(path: str) -> OperatorGraph:
    return _read(path, lambda data: load_graph(data, _graph_format(path)))


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    tol = _tolerance(args)
    reports = analyze(g, tol)
    docs = {name: report.to_dict() for name, report in reports.items()}
    docs["paramonotone"]["scope"] = "sampled-graph"
    _emit({"dimension": g.dimension, "num_points": len(g.points), "tolerance": tol.to_dict(), **docs})
    return 0 if reports["bimonotone"].verdict else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    doc = decompose(_read_graph(args.graph), _tolerance(args)).to_dict()
    if args.out is not None:
        _emit(doc, args.out)
    _emit(doc)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _read(args.spec, lambda data: FixtureSpec.from_dict(load_json_object(data)))
    fixture = make_fixture(spec)
    out = Path(args.out)
    out.write_bytes(save_graph(fixture.graph, _graph_format(args.out)))
    truth_path = out.with_name(out.stem + ".truth.json")
    try:
        _emit({"spec": spec.to_dict(), **fixture.truth.to_dict()}, str(truth_path))
    except Exception:  # no graph file is left without its truth file
        with contextlib.suppress(OSError):
            out.unlink()
        raise
    _emit({"spec": spec.to_dict(), "graph_path": args.out, "truth_path": str(truth_path),
           "dimension": fixture.graph.dimension, "num_points": len(fixture.graph.points)})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    dec = _read(args.decomposition, lambda data: SkewDecomposition.from_dict(load_json_object(data)))
    report = verify_reconstruction(dec, _read_graph(args.graph), _tolerance(args))
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def _tolerance_flag(text: str) -> float:
    """A tolerance: a finite nonnegative number, spelled as JSON spells it."""
    value = spelled_real(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and nonnegative")
    return value


def _out_flag(text: str) -> str:
    """A path to write to; an empty one would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-abs", type=_tolerance_flag, default=1e-9,
                        help="absolute tolerance (default 1e-9)")
    parser.add_argument("--tol-rel", type=_tolerance_flag, default=1e-9,
                        help="relative tolerance (default 1e-9)")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that ``run`` reports them on one line,
    and whose help goes through ``_write``: argparse's own writer drops an OSError."""

    def error(self, message: str):
        raise SkewfitError(message)

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        _write("stdout", self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewfit",
        description="Classify sampled multivalued operators and recover their "
        "linear skew representation.  A graph file is CSV when its name ends in .csv, "
        "and JSON otherwise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run all membership checks on a graph")
    analyze.add_argument("graph", help="path to a graph file")
    _add_common(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    dec = sub.add_parser("decompose", help="recover basis, skew matrix, and offset")
    dec.add_argument("graph", help="path to a graph file")
    dec.add_argument("--out", type=_out_flag, default=None, help="also write the result to this path")
    _add_common(dec)
    dec.set_defaults(func=_cmd_decompose)

    gen = sub.add_parser("generate", help="synthesize a fixture from a spec file")
    gen.add_argument("spec", help="path to a fixture spec (JSON)")
    gen.add_argument("--out", type=_out_flag, required=True, help="path for the generated graph")
    gen.set_defaults(func=_cmd_generate)

    ver = sub.add_parser("verify", help="check a decomposition against a graph")
    ver.add_argument("decomposition", help="path to a decomposition file (JSON)")
    ver.add_argument("graph", help="path to a graph file")
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except NotBimonotoneError as exc:  # decompose or verify refused the sample: a false verdict
            _emit({"error": "not_bimonotone", "message": str(exc), "bimonotone": exc.report.to_dict()})
            return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (SkewfitError, OSError, MemoryError) as exc:
        with contextlib.suppress(OSError):  # the code stands if stderr cannot take the line
            _write("stderr", f"skewfit: error: {str(exc) or type(exc).__name__}\n")
        return 2


def main() -> None:
    """Run the command line on ``sys.argv`` and end the process at once: its
    output is flushed, and finalizing numpy and every module only adds time."""
    try:
        code = run()
    except Exception:  # a fault in skewfit, not in its input: never read as a verdict
        import traceback
        with contextlib.suppress(OSError):
            _write("stderr", traceback.format_exc())
        code = 3
    os._exit(code)
