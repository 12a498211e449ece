"""skewfit benchmark: CLI latency on the certify, recover and screen workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 8 --trace 0

The benchmark builds its inputs from ``--seed`` (``gen.py``), drives the
program's CLI from ``src/`` as sequential subprocesses (one client, closed
loop), and checks every output against the planted truth (``oracle.py``).
A run repeats whole passes over the workload's fixed call set, starting
another while less than ``--seconds`` has gone by.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs the
same calls in process, each once plain and once with spans around each layer
(``tracing.py``), then once more with resident memory sampled, and reports
the per-layer metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
for people.  Work files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: steadier runs on a shared machine and bit-reproducible
# outputs.  BLAS reads the count when numpy loads, so it is set before any
# import of numpy, here and, through the environment, in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fresh imports timed before the passes, and as many after them.
SETUP_RUNS = 2
IMPORTTIME_RUNS = 5
CALL_TIMEOUT_S = 120
# No new pass starts after this much measuring, whatever --seconds says,
# so that a run ends well within three minutes.
MAX_MEASURE_S = 100
SUBCOMMANDS = ("analyze", "decompose", "verify", "generate")


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def in_process(run, argv: list[str]) -> oracle.Result:
    """Call the CLI entry ``run`` in this process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except Exception:  # an error escaped the CLI: a traceback and exit 1
            traceback.print_exc()
            code = 1
    seconds = perf_counter() - start
    return oracle.Result(code, out.getvalue().encode(), err.getvalue().encode(), seconds)


class Bench:
    """One workload's inputs, calls and verdicts, in ``.bench_work/<name>``."""

    def __init__(self, workload: gen.Workload):
        self.w = workload
        self.env = _child_env()
        self.workdir = ROOT / ".bench_work" / workload.name
        self.attempted = 0
        self.failures: list[str] = []  # every wrong answer
        self.broken: list[str] = []  # what makes the run incorrect
        self.corruptions_tried: set[str] = set()
        self.stdout_digests: list[dict[str, str]] = []

    def write_inputs(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for name, data in self.w.files.items():
            (self.workdir / name).write_bytes(data)
        on_disk = {name: hashlib.sha256((self.workdir / name).read_bytes()).hexdigest() for name in self.w.files}
        if on_disk != self.w.file_digests():
            raise SystemExit("perfbench: input files on disk differ from the generated bytes")

    def _clear_outputs(self) -> None:
        for call in self.w.order:
            if call.out:
                out = self.workdir / call.out
                out.unlink(missing_ok=True)
                out.with_name(Path(call.out).stem + ".truth.json").unlink(missing_ok=True)

    def score(self, results: oracle.Results) -> None:
        """Judge one pass: record wrong answers, run the oracle's self-check
        on the right ones, and keep the digest of each subcommand's stdout."""
        passed = []
        for call in self.w.order:
            res = results[(call.case, call.sub)]
            self.attempted += 1
            reason = oracle.score(call, res, results)
            if reason is None:
                passed.append((call, res))
                continue
            line = f"{call.case} {call.sub} exit {res.code}: {reason}"
            self.failures.append(line)
            if oracle.family(call) not in oracle.ROBUSTNESS:
                self.broken.append(line)
        tried, missed = oracle.self_check(passed, results)
        self.corruptions_tried.update(tried)
        self.broken.extend(f"self-check: {miss}" for miss in missed)
        self.stdout_digests.append({
            sub: _sha(results[(c.case, c.sub)].stdout for c in self.w.order if c.sub == sub)
            for sub in SUBCOMMANDS if any(c.sub == sub for c in self.w.order)
        })

    # -- CLI passes (trace 0) -------------------------------------------------

    def _python(self, argv: list[str]) -> oracle.Result:
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=self.workdir, env=self.env,
                                  capture_output=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return oracle.Result(-1, b"", b"timed out\n", perf_counter() - start)
        return oracle.Result(proc.returncode, proc.stdout, proc.stderr, perf_counter() - start)

    def _import_seconds(self) -> float:
        res = self._python(["-c", "import skewfit.cli"])
        if res.code != 0:
            raise SystemExit(f"perfbench: importing skewfit.cli failed: {res.stderr.decode(errors='replace')}")
        return res.seconds

    def cli_pass(self) -> oracle.Results:
        self._clear_outputs()
        results = oracle.Results(self.workdir)
        for call in self.w.order:
            results[(call.case, call.sub)] = self._python(["-m", "skewfit", *call.argv])
        self.score(results)
        return results

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Whole passes over the call set, another starting while less than
        ``seconds`` has gone by.  Set-up is sampled before and after the
        passes, so that its median spans the run."""
        setup = [self._import_seconds() for _ in range(SETUP_RUNS)]
        passes: list[oracle.Results] = []
        start = perf_counter()
        while not passes or perf_counter() - start < min(seconds, MAX_MEASURE_S):
            passes.append(self.cli_pass())
        setup += [self._import_seconds() for _ in range(SETUP_RUNS)]
        metrics = {
            "pass_s": statistics.median(sum(r.seconds for r in p.values()) for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        # Per-call figures for the report.  On certify and recover they rest
        # on three and five calls, too few to be steady on a shared machine,
        # so BENCHMARK.json does not gate on them.
        times = [r.seconds for p in passes for r in p.values()]
        extra = {"passes": len(passes), "call_p50_s": statistics.median(times), "call_p90_s": _quantile(times, 90)}
        for sub in SUBCOMMANDS:
            sub_times = [p[(c.case, c.sub)].seconds for p in passes for c in self.w.order if c.sub == sub]
            if sub_times:
                extra[f"{sub}_s"] = statistics.fmean(sub_times)
        return metrics, extra

    # -- in-process passes (trace 1) -----------------------------------------

    @contextmanager
    def in_workdir(self):
        """Import the CLI from ``src`` and run in the work directory."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from skewfit import cli

        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            yield cli
        finally:
            os.chdir(cwd)

    def in_process_pass(self, run) -> oracle.Results:
        self._clear_outputs()
        results = oracle.Results(self.workdir)
        for call in self.w.order:
            results[(call.case, call.sub)] = in_process(run, call.argv)
        return results

    def per_layer(self) -> tuple[dict, dict]:
        metrics = tracing.import_seconds(self.env, IMPORTTIME_RUNS)
        plain = oracle.Results(self.workdir)
        spanned = oracle.Results(self.workdir)
        tracer = tracing.Tracer()
        peaks = tracing.PeakMemory()
        with self.in_workdir() as cli:
            def traced(argv):
                with tracer.installed():
                    return tracer.run("cli.run", cli.run, argv)

            # Each call runs plain and traced back to back, the order
            # alternating, so warm-up falls on both sides of the overhead ratio.
            self._clear_outputs()
            for i, call in enumerate(self.w.order):
                tracer.call = i
                key = (call.case, call.sub)
                for side in ((plain, spanned) if i % 2 == 0 else (spanned, plain)):
                    side[key] = in_process(cli.run if side is plain else traced, call.argv)
            with peaks.installed():
                measured = self.in_process_pass(cli.run)
        self.score(plain)
        for label, other in (("traced", spanned), ("memory-sampled", measured)):
            for key, res in plain.items():
                if other[key].stdout != res.stdout or other[key].code != res.code:
                    self.broken.append(f"{key[0]} {key[1]}: {label} pass changed the output")
        tracer.write(self.workdir / "spans.json")
        metrics.update(tracer.metrics())
        metrics["classify.peak_mb"] = peaks.peak_mb["classify"]
        metrics["recovery.peak_mb"] = peaks.peak_mb["recovery"]
        untraced = sum(r.seconds for r in plain.values())
        metrics["trace.overhead_ratio"] = sum(r.seconds for r in spanned.values()) / untraced
        return metrics, {"in_process_s": untraced}


def _machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the CLI child it is waiting for before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "skewfit" / "cli.py").is_file():
        print(f"perfbench: no skewfit sources under {SRC}", file=sys.stderr)
        return 2

    workload = gen.build(args.workload, args.seed)
    bench = Bench(workload)
    bench.write_inputs()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values, extra = bench.per_layer() if args.trace else bench.end_to_end(args.seconds)
    if set(values) != set(units):
        raise SystemExit(f"perfbench: measured {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    digests = bench.stdout_digests
    if any(d != digests[0] for d in digests):
        bench.broken.append("stdout bytes differ between passes over the same inputs")

    print(f"skewfit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(_machine()))
    print(f"inputs sha256 {workload.digest()} ({len(workload.files)} files, {len(workload.order)} calls per pass)")
    for sub, digest in digests[0].items():
        print(f"stdout sha256 {sub} {digest}")
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    for name, value in extra.items():
        print(f"{name} {value!r}")
    failed = len(bench.failures)
    print(f"fail_ratio {failed / bench.attempted!r} ({failed}/{bench.attempted})")
    for line in bench.failures:
        print(f"FAIL {line}")
    for line in bench.broken:
        print(f"BROKEN {line}")
    print(json.dumps({
        "correct": not bench.broken,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
