"""End-to-end acceptance suite.

Every test here exercises one guarantee of the package on seeded inputs and
prints a single PASS/FAIL line (run pytest with -s to see them).  The
thresholds are the contract: loosening them is a behavior change.
"""

import ast
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from skewfit import (
    ClassificationReport,
    OperatorGraph,
    ToleranceConfig,
    bimonotone_check,
    build_skew_operator,
    constant_on_domain_check,
    decompose,
    domain,
    inverse_graph,
    make_fixture,
    paramonotone_check,
    perturb,
    reduce,
    span_basis,
    translate,
)
import skewfit
from skewfit.cli import run
from skewfit.fixtures import FixtureSpec

import oracles


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def recovery_error(dec, truth):
    q = dec.basis.q
    diff = dec.a_hat - q.T @ truth.operator @ q
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def test_recovery_round_trip():
    # 200 seeded fixtures spanning ambient dimension, planted rank, sample
    # size, branching, and orthogonal noise; every one must certify as
    # bimonotone and decompose back to the planted operator
    with criterion("recovery-round-trip"):
        rng = np.random.Generator(np.random.Philox(1000))
        start = time.perf_counter()
        for i in range(200):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(0, n + 1))
            m = int(rng.integers(k + 1, 2 * k + 6))
            spec = FixtureSpec(
                n=n, k=k, m=m,
                branches=int(rng.integers(1, 4)),
                offset_norm=float(rng.uniform(0.0, 2.0)),
                noise_orthogonal=float(rng.integers(0, 2)),
                seed=10_000 + i,
            )
            fix = make_fixture(spec)
            assert bimonotone_check(fix.graph).verdict, spec
            dec = decompose(fix.graph)
            assert dec.rank == k, spec
            assert dec.skewness_defect <= 1e-10, spec
            assert dec.max_residual <= 1e-10, spec
            assert recovery_error(dec, fix.truth) <= 1e-9, spec
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"round trip took {elapsed:.2f}s"


def test_skew_synthesis_certified():
    # converse direction, built here from scratch: any graph synthesized
    # from an orthonormal basis, a skew matrix, an offset, and orthogonal
    # extensions certifies as bimonotone even at a 1000x tighter tolerance
    with criterion("skew-synthesis-certified"):
        rng = np.random.Generator(np.random.Philox(2000))
        tight = ToleranceConfig(abs_tol=1e-12, rel_tol=1e-12)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            m = int(rng.integers(k + 1, k + 7))
            q, _ = np.linalg.qr(rng.normal(size=(n, k)))
            b = rng.normal(size=(k, k))
            skew = q @ ((b - b.T) / 2.0) @ q.T
            offset = rng.normal(size=n)
            x = rng.normal(size=(m, k)) @ q.T
            s = x @ skew.T + offset
            if k < n:
                w = rng.normal(size=(m, n))
                s = s + (w - (w @ q) @ q.T)
            g = OperatorGraph.from_arrays(x, s)
            assert bimonotone_check(g).verdict
            assert bimonotone_check(g, tight).verdict
            assert oracles.max_abs_pairing(g) <= 1e-12 * max(
                1.0, float(np.max(np.abs(s))) * float(np.max(np.abs(x), initial=1.0))
            )


def test_least_squares_agreement():
    # the production skew least-squares fit, taken in the SVD basis, must
    # land on the same matrix as an independent least-squares fit over the
    # free entries of a skew matrix, entry by entry
    with criterion("least-squares-agreement"):
        rng = np.random.Generator(np.random.Philox(3000))
        for i in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, k + 4))
            m = int(rng.integers(k + 1, 13))
            spec = FixtureSpec(
                n=n, k=k, m=m,
                branches=int(rng.integers(1, 3)),
                offset_norm=float(rng.uniform(0.0, 1.0)),
                noise_orthogonal=float(rng.integers(0, 2)),
                seed=30_000 + i,
            )
            fix = make_fixture(spec)
            base = fix.graph.points[0]
            shifted = translate(fix.graph, base.x, base.xstar)
            basis = span_basis(domain(shifted))
            rg = reduce(shifted, basis)
            fitted = build_skew_operator(rg)
            ls = oracles.fit_skew_least_squares(rg.primal_matrix, rg.dual_matrix)
            assert np.max(np.abs(fitted - ls)) <= 1e-9, spec


def test_perturbation_detection():
    # nudging one dual inside the span by 1e-3 must always flip the verdict;
    # a full-size orthogonal nudge never may
    with criterion("perturbation-detection"):
        in_span_flips = 0
        orthogonal_flips = 0
        for s in range(100):
            n = 2 + s % 7
            k = 1 + s % (n - 1) if n > 2 else 1
            m = k + 1 + s % 5
            fix = make_fixture(FixtureSpec(n=n, k=k, m=m, offset_norm=1.0,
                                           seed=40_000 + s))
            assert bimonotone_check(fix.graph).verdict
            index = s % len(fix.graph.points)
            bad = perturb(fix.graph, index=index, direction="in_span",
                          amplitude=1e-3, basis=fix.truth.basis, seed=50_000 + s)
            if not bimonotone_check(bad).verdict:
                in_span_flips += 1
            harmless = perturb(fix.graph, index=index, direction="orthogonal",
                               amplitude=1.0, basis=fix.truth.basis,
                               seed=60_000 + s)
            if not bimonotone_check(harmless).verdict:
                orthogonal_flips += 1
        assert in_span_flips == 100, f"only {in_span_flips}/100 detected"
        assert orthogonal_flips == 0, f"{orthogonal_flips}/100 false alarms"


def test_constancy_collapse():
    # a sample certified bimonotone and paramonotone whose domain spans the
    # whole space must be constant, and its inverse (roles swapped) must
    # collapse to a single domain point; nonzero skew samples with
    # differing images must fail the paramonotone check on both sides
    with criterion("constancy-collapse"):
        for seed, n in enumerate([1, 2, 3, 4, 6], start=70_000):
            fix = make_fixture(FixtureSpec(n=n, k=n, m=n + 2, offset_norm=1.5,
                                           zero_operator=True, seed=seed))
            g = fix.graph
            assert bimonotone_check(g).verdict
            para = paramonotone_check(g)
            assert isinstance(para, ClassificationReport) and para.verdict
            base = g.points[0]
            full = span_basis(domain(translate(g, base.x, base.xstar)))
            assert full.rank == n  # hypothesis of the collapse holds
            assert constant_on_domain_check(g).verdict
            h = inverse_graph(g)
            assert bimonotone_check(h).verdict
            para_h = paramonotone_check(h)
            assert isinstance(para_h, ClassificationReport) and para_h.verdict
            assert len(domain(h)) == 1
        for seed, (n, k) in enumerate([(2, 2), (4, 2), (5, 3)], start=80_000):
            fix = make_fixture(FixtureSpec(n=n, k=k, m=k + 3, offset_norm=0.5,
                                           seed=seed))
            g = fix.graph
            assert not constant_on_domain_check(g).verdict  # images differ
            para = paramonotone_check(g)
            assert isinstance(para, ClassificationReport) and not para.verdict
            para_inv = paramonotone_check(inverse_graph(g))
            assert isinstance(para_inv, ClassificationReport)
            assert not para_inv.verdict


def test_degenerate_ranks():
    # a single pair reduces to the zero-dimensional representation with
    # residual exactly zero; a one-dimensional planted span always yields
    # the 1x1 zero matrix, bit for bit
    with criterion("degenerate-ranks"):
        g = OperatorGraph.from_arrays([[1.5, -2.0, 3.0]], [[0.5, 0.0, -1.0]])
        dec = decompose(g)
        assert dec.rank == 0
        assert dec.a_hat.shape == (0, 0) and dec.v_hat.shape == (0,)
        assert dec.max_residual == 0.0
        assert dec.skewness_defect == 0.0
        for seed, (n, m) in enumerate([(1, 3), (4, 5), (7, 8)], start=90_000):
            fix = make_fixture(FixtureSpec(n=n, k=1, m=m, branches=2,
                                           offset_norm=1.0,
                                           noise_orthogonal=1.0 if n > 1 else 0.0,
                                           seed=seed))
            dec = decompose(fix.graph)
            assert dec.rank == 1
            np.testing.assert_array_equal(dec.a_hat, np.array([[0.0]]))


def cli_suite(tmp_path, capsys):
    spec = {"n": 5, "k": 3, "m": 8, "branches": 2, "offset_norm": 1.0,
            "noise_orthogonal": 1.0, "seed": 31415}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    graph = str(tmp_path / "fix.json")
    dec = str(tmp_path / "dec.json")
    stdouts = []
    for argv in (
        ["generate", str(spec_path), "--out", graph],
        ["analyze", graph],
        ["decompose", graph, "--out", dec],
        ["verify", dec, graph],
    ):
        code = run(argv)
        assert code == 0, argv
        stdouts.append(capsys.readouterr().out)
    files = {
        name: (tmp_path / name).read_bytes()
        for name in ("fix.json", "fix.truth.json", "dec.json")
    }
    return stdouts, files


def test_cli_determinism(tmp_path, capsys):
    # identical seeds must reproduce every JSON document byte for byte,
    # both on stdout and on disk
    with criterion("cli-determinism"):
        first_out, first_files = cli_suite(tmp_path, capsys)
        second_out, second_files = cli_suite(tmp_path, capsys)
        assert first_out == second_out
        assert first_files == second_files


def test_public_names_are_declared_once():
    # skewfit.__all__ is its modules' __all__ lists and nothing else, and it
    # covers every name this suite imports from the package
    with criterion("public-names"):
        modules = (skewfit.classify, skewfit.fixtures, skewfit.graphs, skewfit.recovery)
        assert set(skewfit.__all__) == set().union(*(m.__all__ for m in modules))
        assert len(skewfit.__all__) == sum(len(m.__all__) for m in modules)
        for module in modules:
            for name in module.__all__:
                assert getattr(skewfit, name) is getattr(module, name), name
        tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "skewfit"
                    for alias in node.names}
        assert imported <= set(skewfit.__all__)


def test_every_import_in_the_package_is_used():
    # an imported name is read by its module or listed in its __all__
    with criterion("no-unused-imports"):
        for path in sorted(Path(skewfit.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {(alias.asname or alias.name).split(".")[0]
                        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                        and getattr(node, "module", None) != "__future__"
                        for alias in node.names if alias.name != "*"}
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            exported = {leaf.value for node in tree.body if isinstance(node, ast.Assign)
                        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                        for leaf in ast.walk(node.value) if isinstance(leaf, ast.Constant)}
            assert imported <= read | exported, (path.name, sorted(imported - read - exported))


# the package modules each module imports: graphs is the data model under all
# of them, recovery falls back on classify's pair check, and only cli and the
# package itself sit above recovery or fixtures
IMPORT_LAYERS = {
    "graphs": set(),
    "classify": {"graphs"},
    "recovery": {"graphs", "classify"},
    "fixtures": {"graphs"},
    "cli": {"graphs", "classify", "recovery", "fixtures"},
    "__init__": {"graphs", "classify", "recovery", "fixtures"},
    "__main__": {"cli"},
}


def test_the_package_imports_in_one_way_layers():
    # each module's relative imports, read with ast, are its layer's and no others
    with criterion("import-layers"):
        for path in sorted(Path(skewfit.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {node.module.split(".")[0] if node.module else alias.name
                        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                        for alias in node.names}
            assert imported == IMPORT_LAYERS[path.stem], (path.name, sorted(imported))
