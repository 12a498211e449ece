"""Output oracle: judges each CLI result against the planted truth.

A check returns ``None`` when the result is right and a one-line reason when
it is not.  Malformed program output (bad JSON, a missing key, a wrong type)
is a wrong result, never a crash of the benchmark: every read of program
output goes through ``_get`` or ``_json``, which raise ``Mismatch``.  Any
other exception is a fault in the benchmark and propagates.

Families marked ``ROBUSTNESS`` are the hard inputs the program is known to
get wrong today (near-degenerate spans, overflow, malformed documents).  They
are scored like every other call and count in ``failed``; they do not make a
run incorrect, because a run's ``correct`` means that nothing the program
already gets right has broken.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gen import Call

ROBUSTNESS = {"near_plane", "huge", "usage_error"}


class Mismatch(Exception):
    pass


@dataclass(eq=False)
class Result:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float


def family(call: Call) -> str:
    return call.expect.get("family", call.expect["check"])


def _need(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _json(data: bytes, what: str = "stdout"):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise Mismatch(f"{what} is not a JSON document: {exc}") from None


def _get(doc, key, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise Mismatch(f"missing key {key!r}")
    value = doc[key]
    if kind is float:
        _need(isinstance(value, (int, float)) and not isinstance(value, bool), f"{key} is not a number")
    elif kind is not None:
        _need(isinstance(value, kind) and not (kind is int and isinstance(value, bool)), f"{key} has the wrong type")
    return value


def _matrix(doc, key, shape=None) -> np.ndarray:
    try:
        arr = np.array(_get(doc, key, list), dtype=np.float64)
    except (ValueError, TypeError):
        raise Mismatch(f"{key} is not a numeric array") from None
    if shape is not None:
        _need(arr.shape == shape, f"{key} has shape {arr.shape}, expected {shape}")
    _need(bool(np.all(np.isfinite(arr))), f"{key} has non-finite entries")
    return arr


def _graph_rows(data: bytes, csv: bool) -> tuple[np.ndarray, np.ndarray]:
    """Primal and dual rows of a graph file the program wrote."""
    try:
        if csv:
            rows = [line.split(",") for line in data.decode("utf-8").splitlines() if line.strip()]
            try:
                float(rows[0][0])
            except ValueError:
                rows = rows[1:]
            arr = np.array(rows, dtype=np.float64)
        else:
            doc = json.loads(data.decode("utf-8"))
            arr = np.array([p["x"] + p["xstar"] for p in doc["points"]], dtype=np.float64)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise Mismatch(f"graph file does not parse: {exc}") from None
    _need(arr.ndim == 2 and arr.shape[1] % 2 == 0, "graph rows are ragged")
    n = arr.shape[1] // 2
    return arr[:, :n], arr[:, n:]


def _exit(res: Result, code: int) -> None:
    _need(res.code == code, f"exit code {res.code}, expected {code}")


def _report(doc, key, points: int):
    """A membership report: its verdict, after checking its invariants."""
    rep = _get(doc, key, dict)
    verdict = _get(rep, "verdict", bool)
    worst = _get(rep, "worst_violation", float)
    witness = _get(rep, "witness")
    _need(verdict == (worst <= 1.0), f"{key}: verdict disagrees with worst_violation")
    if witness is None:
        _need(verdict, f"{key}: failing report without witness")
    else:
        _need(isinstance(witness, list) and len(witness) == 2
              and all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < points for i in witness),
              f"{key}: witness {witness} is not a pair of point indices")
    return verdict, witness


# Expected verdicts per analyze family: monotone, bimonotone, paramonotone
# (None: not monotone), constant on domain, and the exit code.
_ANALYZE = {
    "planted": (True, True, False, False, 0),
    "constant": (True, True, True, True, 0),
    "monotone": (True, False, True, False, 1),
    "nonmonotone": (False, False, None, False, 1),
}


def check_analyze(call: Call, res: Result, results) -> None:
    e = call.expect
    fam = e["family"]
    if fam == "huge":
        # Fixed either by failing loudly or by exact rescaling; never by
        # calling two duals 1e300 apart constant.
        if res.code == 2:
            return check_usage_error(call, res, results)
        doc = _json(res.stdout)
        _need(_get(_get(doc, "constant_on_domain", dict), "verdict") is not True,
              "constant_on_domain is true although the duals differ by 1e300")
        return
    doc = _json(res.stdout)
    points = e["points"]
    _need(_get(doc, "num_points", int) == points, "num_points is wrong")
    mono, _ = _report(doc, "monotone", points)
    bi, bi_witness = _report(doc, "bimonotone", points)
    const, _ = _report(doc, "constant_on_domain", points)
    para_doc = _get(doc, "paramonotone", dict)
    if "status" in para_doc:
        _need(para_doc["status"] == "not_monotone", "unknown paramonotone status")
        _need(not mono, "paramonotone says not_monotone for a monotone sample")
        para = None
    else:
        _need(mono, "paramonotone report for a sample that is not monotone")
        para, _ = _report(doc, "paramonotone", points)
    if fam == "perturbed":
        _need(mono == e["monotone"], f"monotone verdict {mono}, expected {e['monotone']}")
        _need(not bi, "bimonotone verdict true for an in-span perturbation")
        _need(e["index"] in bi_witness, f"bimonotone witness {bi_witness} misses perturbed point {e['index']}")
        _need(not const, "constant_on_domain true for a perturbed sample")
        _exit(res, 1)
        return
    want = _ANALYZE[fam]
    for name, got, expected in zip(("monotone", "bimonotone", "paramonotone", "constant_on_domain"),
                                   (mono, bi, para, const), want):
        _need(got == expected, f"{name} verdict {got}, expected {expected}")
    _exit(res, want[4])


def _decomposition(doc, n: int):
    basis = _matrix(doc, "basis")
    _need(basis.ndim == 2 and basis.shape[0] == n, f"basis has shape {basis.shape}, expected ({n}, k)")
    k = basis.shape[1]
    a_hat = _matrix(doc, "a_hat", (k, k))
    v_hat = _matrix(doc, "v_hat", (k,))
    _need(np.max(np.abs(basis.T @ basis - np.eye(k)), initial=0.0) <= 1e-9, "basis is not orthonormal")
    _need(np.max(np.abs(a_hat + a_hat.T), initial=0.0) <= 1e-12, "a_hat is not skew-symmetric")
    return basis, a_hat, v_hat


def check_decompose(call: Call, res: Result, results) -> None:
    e = call.expect
    fam = e["family"]
    if fam == "perturbed":
        _exit(res, 1)
        doc = _json(res.stdout)
        _need(isinstance(doc, dict) and doc.get("error") == "not_bimonotone", "decompose of a perturbed sample did not report not_bimonotone")
        if "bimonotone" in doc:
            witness = _get(_get(doc, "bimonotone", dict), "witness")
            _need(isinstance(witness, list) and e["index"] in witness,
                  f"bimonotone witness {witness} misses perturbed point {e['index']}")
        return
    if fam == "near_plane":
        # The paper's equivalence: decompose succeeds whenever analyze certifies.
        analyze = results.get((call.case, "analyze"))
        if analyze is None:
            raise AssertionError(f"{call.case}: decompose scored before its analyze call")
        certified = analyze.code == 0
        if not certified:
            _exit(res, 1)
            return
        _need(res.code == 0, f"exit code {res.code} although analyze certified the sample bimonotone")
        _decomposition(_json(res.stdout), 3)
        return
    _exit(res, 0)
    truth = e["truth"]
    n, k = truth.basis.shape
    basis, a_hat, v_hat = _decomposition(_json(res.stdout), n)
    _need(basis.shape[1] == k, f"rank {basis.shape[1]}, expected {k}")
    q0 = truth.basis
    _need(np.max(np.abs(basis @ basis.T - q0 @ q0.T), initial=0.0) <= 1e-9, "basis spans the wrong subspace")
    err = np.max(np.abs(a_hat - basis.T @ truth.operator @ basis), initial=0.0)
    _need(err <= 1e-9, f"operator error {err:.3e} exceeds 1e-9")
    off = np.max(np.abs(v_hat - basis.T @ truth.offset), initial=0.0)
    _need(off <= 1e-9, f"offset error {off:.3e} exceeds 1e-9")
    written = results.workdir / call.out
    _need(written.is_file() and written.read_bytes() == res.stdout, "--out file differs from stdout")


def check_verify(call: Call, res: Result, results) -> None:
    e = call.expect
    tampered = e["tampered"]
    doc = _json(res.stdout)
    verdict = _get(doc, "verdict", bool)
    worst = _get(doc, "worst_index", int)
    residuals = _get(doc, "residuals", list)
    _need(len(residuals) == e["points"], f"{len(residuals)} residuals for {e['points']} points")
    _need(0 <= worst < e["points"], "worst_index out of range")
    if tampered is None:
        _need(verdict, "verify rejects a graph of the decomposed map")
        _exit(res, 0)
    else:
        _need(not verdict, "verify accepts a graph with a tampered point")
        _need(worst == tampered, f"worst_index {worst}, expected tampered point {tampered}")
        _exit(res, 1)


def check_generate(call: Call, res: Result, results) -> None:
    spec = call.expect["spec"]
    _exit(res, 0)
    doc = _json(res.stdout)
    got = _get(doc, "spec", dict)
    for key, value in spec.items():
        _need(key in got and got[key] == value, f"spec.{key} is {got.get(key)!r}, expected {value!r}")
    n, k, points = spec["n"], spec["k"], spec["m"] * spec["branches"]
    _need(_get(doc, "num_points", int) == points, "num_points is wrong")
    _need(_get(doc, "dimension", int) == n, "dimension is wrong")
    out = Path(call.out)
    truth_name = out.stem + ".truth.json"
    _need(_get(doc, "graph_path") == call.out and _get(doc, "truth_path") == truth_name, "wrong output paths")
    graph_file = results.workdir / call.out
    truth_file = results.workdir / truth_name
    _need(graph_file.is_file() and truth_file.is_file(), "output files missing")
    x, s = _graph_rows(graph_file.read_bytes(), csv=out.suffix == ".csv")
    _need(x.shape == (points, n), f"graph holds {x.shape}, expected ({points}, {n})")
    truth = _json(truth_file.read_bytes(), "truth file")
    a = _matrix(truth, "operator", (n, n))
    v = _matrix(truth, "offset", (n,))
    q = _matrix(truth, "basis", (n, k))
    scale = max(1.0, float(np.max(np.abs(a), initial=0.0)))
    _need(np.max(np.abs(q.T @ q - np.eye(k)), initial=0.0) <= 1e-9, "truth basis is not orthonormal")
    _need(np.max(np.abs(a + a.T), initial=0.0) <= 1e-12 * scale, "planted operator is not skew")
    _need(np.max(np.abs(x - (x @ q) @ q.T), initial=0.0) <= 1e-9 * max(1.0, float(np.max(np.abs(x)))),
          "primal points leave the planted span")
    residual = (s - x @ a.T - v) @ q
    _need(np.max(np.abs(residual), initial=0.0) <= 1e-9 * scale * max(1.0, float(np.max(np.abs(x)))),
          "duals are not the planted map on the span")


def check_usage_error(call: Call, res: Result, results) -> None:
    _exit(res, 2)
    _need(res.stdout == b"", "usage error wrote to stdout")
    lines = res.stderr.decode("utf-8", "replace").rstrip("\n").split("\n")
    _need(len(lines) == 1 and lines[0], f"usage error wrote {len(lines)} stderr lines, expected one")


CHECKS = {
    "analyze": check_analyze,
    "decompose": check_decompose,
    "verify": check_verify,
    "generate": check_generate,
    "usage_error": check_usage_error,
}


class Results(dict):
    """Results of one pass keyed by (case, subcommand), plus where they ran."""

    def __init__(self, workdir: Path):
        super().__init__()
        self.workdir = workdir


def score(call: Call, res: Result, results: Results) -> str | None:
    """``None`` when ``res`` is right for ``call``, else the reason it is wrong."""
    try:
        CHECKS[call.expect["check"]](call, res, results)
    except Mismatch as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Self-check: corrupted copies of right answers must score as wrong.
# ---------------------------------------------------------------------------

def _edit_json(res: Result, edit) -> Result | None:
    doc = json.loads(res.stdout)
    if edit(doc) is False:
        return None
    return Result(res.code, (json.dumps(doc) + "\n").encode(), res.stderr, res.seconds)


def _flip_verdict(res: Result, call: Call):
    def edit(doc):
        target = doc["bimonotone"] if call.sub == "analyze" else doc
        target["verdict"] = not target["verdict"]
    return _edit_json(res, edit)


def _wrong_rank(res: Result, call: Call):
    def edit(doc):
        if "basis" not in doc or not doc["a_hat"]:  # an error report, or rank 0
            return False
        doc["basis"] = [row[:-1] for row in doc["basis"]]
        doc["a_hat"] = [row[:-1] for row in doc["a_hat"][:-1]]
        doc["v_hat"] = doc["v_hat"][:-1]
    return _edit_json(res, edit)


def _wrong_witness(res: Result, call: Call):
    """A failing bimonotone report loses its witness, or, for a perturbed
    sample, gets a pair that misses the perturbed point."""
    def edit(doc):
        rep = doc["bimonotone"]
        if rep["verdict"]:
            return False
        index = call.expect.get("index")
        keep = (*rep["witness"], index)
        rep["witness"] = None if index is None else [p for p in range(call.expect["points"]) if p not in keep][:2]
    return _edit_json(res, edit)


def _wrong_index(res: Result, call: Call):
    def edit(doc):
        if call.expect["tampered"] is None:  # any index is right when all fit
            return False
        doc["worst_index"] = (doc["worst_index"] + 1) % call.expect["points"]
    return _edit_json(res, edit)


def _wrong_count(res: Result, call: Call):
    def edit(doc):
        doc["num_points"] += 1
    return _edit_json(res, edit)


CORRUPTIONS = {
    "analyze": (_flip_verdict, _wrong_witness),
    "decompose": (_wrong_rank,),
    "verify": (_flip_verdict, _wrong_index),
    "generate": (_wrong_count,),
}


def self_check(passed: list[tuple[Call, Result]], results: Results) -> tuple[list[str], list[str]]:
    """Corrupt right answers in every applicable way, once per family and
    corruption.  Returns the corruptions tried and those the oracle missed."""
    tried: list[str] = []
    missed: list[str] = []
    for call, res in passed:
        if family(call) in ROBUSTNESS:
            continue
        for corrupt in CORRUPTIONS.get(call.expect["check"], ()):
            label = f"{family(call)} {call.sub} {corrupt.__name__}"
            if label in tried:
                continue
            bad = corrupt(res, call)
            if bad is None:
                continue
            tried.append(label)
            if score(call, bad, results) is None:
                missed.append(f"{call.case}: oracle accepted {label}")
    return tried, missed
