"""In-process spans around the public functions of skewfit, set from outside.

Each traced site is a module attribute through which the program looks a
function up: ``cli.decompose`` is where the CLI finds ``decompose`` and
``recovery.domain`` is where ``decompose`` finds ``domain``.  Replacing the
attribute with a timing wrapper makes nested calls child spans of their
caller without editing the program.  A site the program no longer has is
skipped, so the layer it measured reads 0.

Spans stay in memory with their parent ids and are written out once, after
the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  One function may be reachable from
# several modules; each site is wrapped once, so no call is counted twice.
SITES = [
    ("cli", "load_graph", "graphs.load_graph"),
    ("cli", "save_graph", "graphs.save_graph"),
    ("cli", "dumps_canonical", "graphs.dumps_canonical"),
    ("graphs", "dumps_canonical", "graphs.dumps_canonical"),
    ("cli", "make_fixture", "fixtures.make_fixture"),
    ("cli", "monotone_check", "classify.monotone_check"),
    ("cli", "bimonotone_check", "classify.bimonotone_check"),
    ("cli", "paramonotone_check", "classify.paramonotone_check"),
    ("cli", "constant_on_domain_check", "classify.constant_on_domain_check"),
    ("classify", "monotone_check", "classify.monotone_check"),
    ("cli", "decompose", "recovery.decompose"),
    ("cli", "verify_reconstruction", "recovery.verify_reconstruction"),
    ("recovery", "bimonotone_check", "classify.bimonotone_check"),
    ("recovery", "translate", "graphs.translate"),
    ("recovery", "domain", "graphs.domain"),
    ("recovery", "span_basis", "recovery.span_basis"),
    ("recovery", "reduce", "recovery.reduce"),
    ("recovery", "single_valued_check", "recovery.single_valued_check"),
    ("recovery", "build_skew_operator", "recovery.build_skew_operator"),
]

# Top-level calls whose peak memory is reported per layer.
PEAK_SITES = [("cli", attr, "classify") for attr in
              ("monotone_check", "bimonotone_check", "paramonotone_check", "constant_on_domain_check")]
PEAK_SITES += [("cli", attr, "recovery") for attr in ("decompose", "verify_reconstruction")]

_PAGE = os.sysconf("SC_PAGE_SIZE")

PAIR_SCANS = ("classify.monotone_check", "classify.bimonotone_check", "classify.constant_on_domain_check")


def _count(name: str, args, result) -> dict:
    """Work counts recorded on a span, taken from its arguments and result."""
    if name == "graphs.load_graph":
        source = args[0]
        size = os.fstat(source.fileno()).st_size if hasattr(source, "fileno") else len(source)
        return {"bytes": size}
    if name in PAIR_SCANS or name == "classify.paramonotone_check":
        m = len(args[0].points)
        attrs = {"pairs": m * (m - 1) // 2}
        if name == "classify.paramonotone_check":
            attrs["short_circuit"] = type(result).__name__ == "NotMonotone"
        return attrs
    if name == "graphs.domain":
        return {"points": len(args[0].points), "distinct": len(result)}
    if name == "fixtures.make_fixture":
        return {"points": len(result.graph.points)}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _modules() -> dict:
    return {name: importlib.import_module(f"skewfit.{name}") for name in ("cli", "classify", "graphs", "recovery")}


@contextmanager
def _patched(wrap, sites):
    """Replace each (module, attribute, label) site by ``wrap(label, fn)``;
    restore on exit.  A site the program no longer has is skipped."""
    mods = _modules()
    saved = []
    try:
        for mod_name, attr, label in sites:
            mod = mods[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrap(label, fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


class Tracer:
    """Collects spans; ``call`` is the id shared by the spans of one CLI call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.call = -1

    def run(self, name: str, fn, *args, **kwargs):
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, self.call, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.attrs = _count(name, args, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        with _patched(self._wrap, SITES):
            yield self

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([s.__dict__ for s in self.spans]) + "\n")

    def metrics(self) -> dict[str, float]:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.seconds
            self_time[s.name] = self_time.get(s.name, 0.0) + s.seconds - child_time.get(s.id, 0.0)
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in s.attrs.items():
                counts[f"{s.name}:{key}"] = counts.get(f"{s.name}:{key}", 0) + value

        def t(name):
            return total.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        pairs = sum(counts.get(f"{n}:pairs", 0) for n in PAIR_SCANS)
        out = {
            "cli.run.s": t("cli.run"),
            "cli.run.self_s": self_time.get("cli.run", 0.0),
            "graphs.load_graph.s": t("graphs.load_graph"),
            "graphs.load_graph.mb_per_s": ratio(counts.get("graphs.load_graph:bytes", 0) / 1e6, t("graphs.load_graph")),
            "graphs.save_graph.s": t("graphs.save_graph"),
            "graphs.dumps_canonical.s": t("graphs.dumps_canonical"),
            "graphs.translate.s": t("graphs.translate"),
            "graphs.domain.s": t("graphs.domain"),
            "graphs.domain.distinct_ratio": ratio(counts.get("graphs.domain:distinct", 0), counts.get("graphs.domain:points", 0)),
            "recovery.decompose.s": t("recovery.decompose"),
            "recovery.decompose.self_s": self_time.get("recovery.decompose", 0.0),
            "recovery.span_basis.s": t("recovery.span_basis"),
            "recovery.reduce.s": t("recovery.reduce"),
            "recovery.single_valued_check.s": t("recovery.single_valued_check"),
            "recovery.build_skew_operator.s": t("recovery.build_skew_operator"),
            "recovery.verify_reconstruction.s": t("recovery.verify_reconstruction"),
            "classify.monotone_check.s": t("classify.monotone_check"),
            "classify.bimonotone_check.s": t("classify.bimonotone_check"),
            "classify.constant_on_domain_check.s": t("classify.constant_on_domain_check"),
            "classify.pairs": float(pairs),
            "classify.pairs_per_s": ratio(pairs, sum(t(n) for n in PAIR_SCANS)),
            "classify.paramonotone_check.s": t("classify.paramonotone_check"),
            "classify.paramonotone_check.self_s": self_time.get("classify.paramonotone_check", 0.0),
            "classify.paramonotone.short_circuit_ratio": ratio(
                counts.get("classify.paramonotone_check:short_circuit", 0), calls.get("classify.paramonotone_check", 0)),
            "fixtures.make_fixture.s": t("fixtures.make_fixture"),
            "fixtures.points_per_s": ratio(counts.get("fixtures.make_fixture:points", 0), t("fixtures.make_fixture")),
        }
        return out


class PeakMemory:
    """Peak growth of resident memory during each top-level classify and
    recovery call, in MB, largest over the calls.

    A thread samples ``/proc/self/statm`` every 2 ms while the call runs.
    tracemalloc would see every allocation, but it slows paramonotone's
    Python loop about sixfold; the arrays that set the peak are large enough
    to be mapped and unmapped whole, so resident memory follows them.
    """

    def __init__(self) -> None:
        self.peak_mb = {layer: 0.0 for _, _, layer in PEAK_SITES}

    @staticmethod
    def _rss() -> int:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * _PAGE

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            base = self._rss()
            peak = [base]
            stop = threading.Event()

            def sample():
                while not stop.wait(0.002):
                    peak[0] = max(peak[0], self._rss())

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
            try:
                return fn(*args, **kwargs)
            finally:
                stop.set()
                sampler.join()
                grown = max(peak[0], self._rss()) - base
                self.peak_mb[layer] = max(self.peak_mb[layer], grown / 1e6)
        return measured

    @contextmanager
    def installed(self):
        with _patched(self._wrap, PEAK_SITES):
            yield self


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)")


def import_seconds(env: dict, runs: int) -> dict[str, float]:
    """Seconds spent in the own modules of numpy, scipy and skewfit while a
    fresh interpreter imports ``skewfit.cli`` (``-X importtime`` self times,
    median of ``runs``)."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "skewfit": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import skewfit.cli"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        sums = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                top = match.group(3).split(".")[0]
                if top in sums:
                    sums[top] += int(match.group(1)) / 1e6
        for key, value in sums.items():
            samples[key].append(value)
    return {f"cli.import.{key}_s": statistics.median(values) for key, values in samples.items()}
