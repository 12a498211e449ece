"""Seeded inputs for the skewfit benchmark, each with the truth the oracle checks.

Every input is built here from the workload seed with numpy alone; nothing
comes from ``skewfit.fixtures``, so a change to the program cannot alter what
the benchmark feeds it.  Each case draws from its own stream,
``SeedSequence([seed, workload id, case index])``, so adding or changing one
family moves no other input.  Floats are written with ``repr``, the shortest
string that reads back to the same double.

A workload is a list of chains.  A chain is the calls made on one case, in
order (``decompose`` before the ``verify`` that reads its output); the
workload's call order interleaves the chains in a seeded order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

WORKLOAD_IDS = {"certify": 1, "recover": 2, "screen": 3}

# The tolerance every call runs at (the CLI default).
TOL = 1e-9


@dataclass(eq=False)
class Truth:
    """A planted affine map ``x -> operator @ x + offset`` on span(basis)."""

    operator: np.ndarray
    offset: np.ndarray
    basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(eq=False)
class Call:
    """One CLI invocation and what its result must be.

    ``argv`` is relative to the work directory.  ``expect`` names an oracle
    check in ``oracle.CHECKS`` and carries its arguments.
    """

    sub: str
    argv: list[str]
    case: str
    expect: dict
    # Output file the call writes, checked by the oracle.
    out: str | None = None


@dataclass(eq=False)
class Workload:
    name: str
    files: dict[str, bytes] = field(default_factory=dict)
    chains: list[list[Call]] = field(default_factory=list)
    order: list[Call] = field(default_factory=list)

    def add(self, name: str, data: bytes) -> str:
        if name in self.files:
            raise ValueError(f"duplicate input file {name}")
        self.files[name] = data
        return name

    def file_digests(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.files.items())}

    def digest(self) -> str:
        """sha256 over every input file name and content, in name order."""
        h = hashlib.sha256()
        for name, hexdigest in self.file_digests().items():
            h.update(f"{name}\0{hexdigest}\n".encode())
        return h.hexdigest()


def _rng(seed: int, workload: str, case: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, WORKLOAD_IDS[workload], case])))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Samples.  Each returns (primal rows, dual rows, truth or None).
# ---------------------------------------------------------------------------

def planted(rng, n, k, domain_points, branches=1, offset_norm=1.0, noise_orthogonal=0.0, zero=False):
    """Skew map on a random k-plane plus an offset; each domain point carries
    ``branches`` duals that differ only orthogonally to the plane."""
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    b = rng.standard_normal((k, k))
    core = np.zeros((k, k)) if zero else (b - b.T) / 2.0
    operator = q @ core @ q.T
    offset = offset_norm * _unit(rng.standard_normal(n)) if offset_norm else np.zeros(n)
    x = rng.standard_normal((domain_points, k)) @ q.T
    x = np.repeat(x, branches, axis=0)
    s = x @ operator.T + offset
    if noise_orthogonal and k < n:
        w = rng.standard_normal(s.shape)
        w -= (w @ q) @ q.T
        s = s + noise_orthogonal * w / np.linalg.norm(w, axis=1, keepdims=True)
    return x, s, Truth(operator, offset, q)


def same_map(rng, truth: Truth, m):
    """Fresh points of an already planted map (a held-out graph)."""
    x = rng.standard_normal((m, truth.rank)) @ truth.basis.T
    return x, x @ truth.operator.T + truth.offset


def definite(rng, n, m, sign):
    """x -> sign * (P + K) x + v with P positive definite and K skew: every
    pairing of distinct points is strictly positive (sign 1) or negative."""
    g = rng.standard_normal((n, n))
    k = rng.standard_normal((n, n))
    op = sign * (np.eye(n) + g.T @ g / n) + (k - k.T) / 2.0
    x = rng.standard_normal((m, n))
    return x, x @ op.T + _unit(rng.standard_normal(n))


def near_plane(rng, m):
    """A skew map on a plane of R^3, sampled at points within 1e-12 of it."""
    x, s, truth = planted(rng, 3, 2, m)
    normal = np.linalg.svd(truth.basis.T)[2][-1]
    x = x + 1e-12 * rng.standard_normal((m, 1)) * normal
    return x, x @ truth.operator.T + truth.offset, truth


def in_span_kick(rng, s, truth: Truth, index, amplitude=1e-3):
    """Move one dual by ``amplitude`` inside the planted span."""
    s = s.copy()
    s[index] += amplitude * (truth.basis @ _unit(rng.standard_normal(truth.rank)))
    return s


def monotone_reference(x, s) -> bool:
    """Plain numpy monotone test at the default tolerance, used where the
    verdict depends on the sampled points (a perturbed planted sample)."""
    dx = x[:, None, :] - x[None, :, :]
    ds = s[:, None, :] - s[None, :, :]
    prod = np.einsum("ijk,ijk->ij", ds, dx)
    scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
    return bool(np.all(-prod <= TOL + TOL * np.maximum(scale, 1.0)))


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def graph_json(x, s) -> bytes:
    rows = ", ".join(
        '{"x": [%s], "xstar": [%s]}' % (", ".join(map(repr, a)), ", ".join(map(repr, b)))
        for a, b in zip(x.tolist(), s.tolist())
    )
    return ('{"dimension": %d, "points": [%s]}\n' % (x.shape[1], rows)).encode()


def graph_csv(x, s, header: bool) -> bytes:
    n = x.shape[1]
    lines = [",".join([f"x{i}" for i in range(n)] + [f"s{i}" for i in range(n)])] if header else []
    lines += [",".join(map(repr, a + b)) for a, b in zip(x.tolist(), s.tolist())]
    return ("\n".join(lines) + "\n").encode()


def _write_graph(w: Workload, stem: str, x, s, csv=False, header=False) -> str:
    if csv:
        return w.add(f"{stem}.csv", graph_csv(x, s, header))
    return w.add(f"{stem}.json", graph_json(x, s))


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

def _analyze(path, case, **expect):
    return Call("analyze", ["analyze", path], case, {"check": "analyze", **expect})


def _decompose(path, case, out, **expect):
    return Call("decompose", ["decompose", path, "--out", out], case, {"check": "decompose", **expect}, out=out)


def _verify(dec, path, case, **expect):
    return Call("verify", ["verify", dec, path], case, {"check": "verify", **expect})


def _generate(w: Workload, case: str, spec: dict, out: str) -> Call:
    spec_path = w.add(f"{case}.spec.json", (json.dumps(spec) + "\n").encode())
    return Call("generate", ["generate", spec_path, "--out", out], case,
                {"check": "generate", "spec": spec}, out=out)


def certify(seed: int) -> Workload:
    """``analyze`` on three 1000-point samples in R^20."""
    w = Workload("certify")
    for i, (label, sample) in enumerate([
        ("planted", lambda r: planted(r, 20, 8, 1000)),
        ("branched", lambda r: planted(r, 20, 8, 500, branches=2, noise_orthogonal=1.0)),
        ("monotone", lambda r: definite(r, 20, 1000, 1.0) + (None,)),
    ]):
        x, s, truth = sample(_rng(seed, w.name, i))
        case = f"c{i}_{label}"
        path = _write_graph(w, case, x, s)
        family = "monotone" if truth is None else "planted"
        w.chains.append([_analyze(path, case, family=family, points=x.shape[0])])
    w.order = [c for chain in w.chains for c in chain]
    return w


RECOVER_HELD_OUT = 20_000


def recover(seed: int) -> Workload:
    """``decompose`` two planted 1000-point samples, ``verify`` each against a
    20000-point held-out graph (one intact, one with a tampered point), then
    ``generate`` a 20000-point sample."""
    w = Workload("recover")
    for i, (label, domain_points, branches) in enumerate([("distinct", 1000, 1), ("duplicated", 500, 2)]):
        r = _rng(seed, w.name, i)
        x, s, truth = planted(r, 20, 8, domain_points, branches=branches,
                              noise_orthogonal=1.0 if branches > 1 else 0.0)
        case = f"r{i}_{label}"
        path = _write_graph(w, case, x, s)
        dec = f"{case}.dec.json"
        hx, hs = same_map(r, truth, RECOVER_HELD_OUT)
        tampered = None
        if label == "duplicated":
            tampered = int(r.integers(RECOVER_HELD_OUT))
            hs = in_span_kick(r, hs, truth, tampered)
        held = _write_graph(w, f"{case}.heldout", hx, hs)
        w.chains.append([
            _decompose(path, case, dec, family="planted", truth=truth),
            _verify(dec, held, case, points=RECOVER_HELD_OUT, tampered=tampered),
        ])
    r = _rng(seed, w.name, 2)
    spec = {"n": 20, "k": 8, "m": RECOVER_HELD_OUT // 2, "branches": 2, "offset_norm": 1.0,
            "noise_orthogonal": 1.0, "seed": int(r.integers(2**31))}
    w.chains.append([_generate(w, "r2_generate", spec, "r2_generate.out.json")])
    w.order = [c for chain in w.chains for c in chain]
    return w


# Known-bad documents: each must exit 2 with a one-line message.
_MALFORMED_GRAPH_JSON = b'{"dimension": 2, "points": [{"x": [0.0, 1.0], "xstar": [1.0'
_MALFORMED_GRAPH_KEY = b'{"dimension": 1, "points": [{"x": [0.0], "xstar": [1.0], "w": 2}]}\n'
_MALFORMED_CSV = b"0.0,1.0,2.0,3.0\n4.0,5.0,6.0\n"
_SMALL_GRAPH = b'{"dimension": 2, "points": [{"x": [0.0, 0.0], "xstar": [1.0, 0.0]}, {"x": [1.0, 0.0], "xstar": [1.0, 1.0]}]}\n'
_RAGGED_DECOMPOSITION = (
    b'{"basis": [[1.0, 0.0], [0.0]], "a_hat": [[0.0]], "v_hat": [0.0], '
    b'"basepoint": {"x": [0.0, 0.0], "xstar": [0.0, 0.0]}, "max_residual": 0.0, "skewness_defect": 0.0}\n'
)
_STRING_OFFSET_SPEC = b'{"n": 3, "k": 2, "m": 5, "offset_norm": "one"}\n'
_NON_UTF8_SPEC = b'{"n": 3, "k": 2, "m": 5, "seed": 1}\xff\xfe\n'

# The ROADMAP's overflow graph: the duals differ by 1e300, so the sample is
# not constant on its domain, whatever happens to the pairings.
_HUGE_GRAPH = b'{"dimension": 1, "points": [{"x": [1e300], "xstar": [1e300]}, {"x": [-1e300], "xstar": [0]}]}\n'

SCREEN_CALLS = 100


def screen(seed: int) -> Workload:
    """100 small calls over every family, in a seeded interleaved order."""
    w = Workload("screen")
    idx = 0

    def next_rng():
        nonlocal idx
        idx += 1
        return _rng(seed, w.name, idx)

    layout = _rng(seed, w.name, 0)

    def sizes(count, m_low=10, m_high=200):
        """``count`` fixed (n, m) pairs spread evenly over n in [2, 12] and m
        in [m_low, m_high] (log scale), the largest m with the smallest n.
        The seed only orders them, so the work in a pass hardly depends on
        the seed."""
        ns = np.linspace(2, 12, count).round().astype(int)
        ms = np.exp(np.linspace(np.log(m_high), np.log(m_low), count)).round().astype(int)
        pairs = list(zip(ns.tolist(), ms.tolist()))
        return [pairs[i] for i in layout.permutation(count)]

    for i, (n, m) in enumerate(sizes(12)):
        r = next_rng()
        k = int(r.integers(2, n + 1))
        branches = int(r.integers(1, 3)) if k < n else 1
        x, s, truth = planted(r, n, k, max(k + 1, m // branches), branches=branches,
                              offset_norm=float(r.uniform(0.0, 2.0)), noise_orthogonal=1.0)
        case = f"s_planted{i}"
        path = _write_graph(w, case, x, s, csv=i % 3 == 0, header=i % 2 == 0)
        dec = f"{case}.dec.json"
        w.chains.append([
            _analyze(path, case, family="planted", points=x.shape[0]),
            _decompose(path, case, dec, family="planted", truth=truth),
            _verify(dec, path, case, points=x.shape[0], tampered=None),
        ])
    for i, (n, m) in enumerate(sizes(3)):
        r = next_rng()
        x, s, truth = planted(r, n, min(n, m - 1), m, offset_norm=1.5, zero=True)
        case = f"s_constant{i}"
        path = _write_graph(w, case, x, s)
        dec = f"{case}.dec.json"
        w.chains.append([
            _analyze(path, case, family="constant", points=m),
            _decompose(path, case, dec, family="planted", truth=truth),
            _verify(dec, path, case, points=m, tampered=None),
        ])
    for i, (n, m) in enumerate(sizes(8)):
        r = next_rng()
        k = int(r.integers(2, min(n, m - 1) + 1))
        x, s, truth = planted(r, n, k, m, offset_norm=1.0)
        p = int(r.integers(m))
        s = in_span_kick(r, s, truth, p)
        case = f"s_perturbed{i}"
        path = _write_graph(w, case, x, s, csv=i % 2 == 1)
        w.chains.append([
            _analyze(path, case, family="perturbed", points=m, index=p,
                     monotone=monotone_reference(x, s)),
            _decompose(path, case, f"{case}.dec.json", family="perturbed", index=p),
        ])
    for label, sign in (("monotone", 1.0), ("nonmonotone", -1.0)):
        for i, (n, m) in enumerate(sizes(6)):
            r = next_rng()
            x, s = definite(r, n, m, sign)
            case = f"s_{label}{i}"
            path = _write_graph(w, case, x, s, csv=i % 3 == 2)
            w.chains.append([_analyze(path, case, family=label, points=m)])
    for i, (_, m) in enumerate(sizes(5, 10, 60)):
        r = next_rng()
        x, s, truth = near_plane(r, m)
        case = f"s_nearplane{i}"
        path = _write_graph(w, case, x, s)
        w.chains.append([
            _analyze(path, case, family="planted", points=x.shape[0]),
            _decompose(path, case, f"{case}.dec.json", family="near_plane"),
        ])
    huge = w.add("s_huge.json", _HUGE_GRAPH)
    w.chains.append([_analyze(huge, "s_huge", family="huge", points=2)])
    small = w.add("s_small.json", _SMALL_GRAPH)
    for case, argv in (
        ("s_bad_json", ["analyze", w.add("s_bad_json.json", _MALFORMED_GRAPH_JSON)]),
        ("s_bad_key", ["analyze", w.add("s_bad_key.json", _MALFORMED_GRAPH_KEY)]),
        ("s_bad_csv", ["analyze", w.add("s_bad_csv.csv", _MALFORMED_CSV)]),
        ("s_bad_dec", ["verify", w.add("s_bad_dec.json", _RAGGED_DECOMPOSITION), small]),
        ("s_bad_offset", ["generate", w.add("s_bad_offset.json", _STRING_OFFSET_SPEC), "--out", "s_bad_offset.out.json"]),
        ("s_bad_utf8", ["generate", w.add("s_bad_utf8.json", _NON_UTF8_SPEC), "--out", "s_bad_utf8.out.json"]),
    ):
        w.chains.append([Call(argv[0], argv, case, {"check": "usage_error"})])
    for i, (n, m) in enumerate(sizes(10)):
        r = next_rng()
        k = int(r.integers(1, n + 1))
        spec = {"n": n, "k": k, "m": m, "branches": 1 + i % 3,
                "offset_norm": float(r.uniform(0.0, 2.0)),
                "noise_orthogonal": float(i % 2), "seed": int(r.integers(2**31))}
        ext = "csv" if i % 4 == 3 else "json"
        w.chains.append([_generate(w, f"s_generate{i}", spec, f"s_generate{i}.out.{ext}")])

    # Seeded interleaving that keeps each chain's own order.
    r = next_rng()
    pending = [list(chain) for chain in w.chains]
    while any(pending):
        live = [c for c in pending if c]
        w.order.append(live[int(r.integers(len(live)))].pop(0))
    if len(w.order) != SCREEN_CALLS:
        raise AssertionError(f"screen has {len(w.order)} calls, expected {SCREEN_CALLS}")
    return w


WORKLOADS = {"certify": certify, "recover": recover, "screen": screen}


def build(workload: str, seed: int) -> Workload:
    return WORKLOADS[workload](seed)
