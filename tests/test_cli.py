import copy
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewfit import OperatorGraph, classify, decompose, make_fixture, perturb, save_graph
from skewfit.cli import run
from skewfit.fixtures import FixtureSpec

SPEC = {"n": 4, "k": 2, "m": 6, "offset_norm": 1.0, "seed": 5}
CONSTANT_SPEC = {"n": 3, "k": 3, "m": 5, "offset_norm": 2.0,
                 "zero_operator": True, "seed": 6}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def generate(capsys, tmp_path, spec=SPEC, out_name="graph.json"):
    spec_path = write_spec(tmp_path, spec)
    out = str(tmp_path / out_name)
    code, stdout, _ = invoke(capsys, "generate", spec_path, "--out", out)
    assert code == 0
    return out, json.loads(stdout)


def perturbed_graph_file(tmp_path, spec=SPEC, index=3, amplitude=1e-3,
                         name="bad.json"):
    fix = make_fixture(FixtureSpec(**spec))
    bad = perturb(fix.graph, index=index, direction="in_span",
                  amplitude=amplitude, basis=fix.truth.basis, seed=77)
    path = tmp_path / name
    path.write_bytes(save_graph(bad, "json"))
    return str(path)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_graph_and_truth(capsys, tmp_path):
    out, doc = generate(capsys, tmp_path)
    assert doc["graph_path"] == out
    assert doc["truth_path"] == str(tmp_path / "graph.truth.json")
    assert doc["dimension"] == 4 and doc["num_points"] == 6
    graph_doc = json.loads((tmp_path / "graph.json").read_text())
    assert set(graph_doc) == {"dimension", "points"}
    truth_doc = json.loads((tmp_path / "graph.truth.json").read_text())
    assert set(truth_doc) == {"spec", "operator", "offset", "basis"}
    assert truth_doc["spec"]["seed"] == 5


def test_generate_is_deterministic(capsys, tmp_path):
    spec_path = write_spec(tmp_path, SPEC)
    runs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        code, stdout, _ = invoke(capsys, "generate", spec_path, "--out", out,
                                 "--seed", "123")
        assert code == 0
        runs.append((stdout, (tmp_path / name).read_bytes()))
    stdout_a, bytes_a = runs[0]
    stdout_b, bytes_b = runs[1]
    assert bytes_a == bytes_b
    assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()
    # stdout differs only in the paths it names
    assert json.loads(stdout_a)["spec"] == json.loads(stdout_b)["spec"]


def test_generate_seed_override_changes_output(capsys, tmp_path):
    spec_path = write_spec(tmp_path, SPEC)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert invoke(capsys, "generate", spec_path, "--out", out_a)[0] == 0
    assert invoke(capsys, "generate", spec_path, "--out", out_b, "--seed", "99")[0] == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_generate_rejects_bad_spec(capsys, tmp_path):
    spec_path = write_spec(tmp_path, {"n": 3, "k": 1, "m": 2, "sigma": 4})
    out = str(tmp_path / "graph.json")
    code, stdout, stderr = invoke(capsys, "generate", spec_path, "--out", out)
    assert code == 2
    assert stdout == ""
    assert "unknown key" in stderr


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_constant_fixture_all_true(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path, spec=CONSTANT_SPEC)
    code, stdout, _ = invoke(capsys, "analyze", out)
    assert code == 0
    doc = json.loads(stdout)
    for key in ("monotone", "bimonotone", "paramonotone", "constant_on_domain"):
        assert doc[key]["verdict"] is True, key
    assert doc["paramonotone"]["scope"] == "sampled-graph"
    assert doc["dimension"] == 3 and doc["num_points"] == 5
    assert doc["tolerance"] == {"abs_tol": 1e-9, "rel_tol": 1e-9}


def test_analyze_skew_fixture(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path)
    code, stdout, _ = invoke(capsys, "analyze", out)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["monotone"]["verdict"] is True
    assert doc["bimonotone"]["verdict"] is True
    # a nonzero skew map is not constant, and the sampled graph misses the
    # crossed pairs that the pointwise condition asks for
    assert doc["constant_on_domain"]["verdict"] is False
    assert doc["paramonotone"]["verdict"] is False


def test_analyze_perturbed_graph_exits_1(capsys, tmp_path):
    path = perturbed_graph_file(tmp_path)
    code, stdout, _ = invoke(capsys, "analyze", path)
    assert code == 1
    doc = json.loads(stdout)
    assert doc["bimonotone"]["verdict"] is False
    witness = doc["bimonotone"]["witness"]
    assert isinstance(witness, list) and len(witness) == 2 and 3 in witness


def test_analyze_loose_tolerance_accepts_small_noise(capsys, tmp_path):
    path = perturbed_graph_file(tmp_path)
    code, stdout, _ = invoke(capsys, "analyze", path, "--tol-abs", "1e-1")
    assert code == 0
    assert json.loads(stdout)["bimonotone"]["verdict"] is True


def test_analyze_csv_suffix_inference(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path, out_name="graph.csv")
    text = (tmp_path / "graph.csv").read_text()
    assert "{" not in text and "," in text
    code, stdout, _ = invoke(capsys, "analyze", out)
    assert code == 0
    assert json.loads(stdout)["bimonotone"]["verdict"] is True
    # forcing the wrong format turns it into a parse error
    code, stdout, stderr = invoke(capsys, "analyze", out, "--format", "json")
    assert code == 2 and stdout == "" and "error" in stderr


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_matches_generated_truth(capsys, tmp_path):
    out, gen_doc = generate(capsys, tmp_path)
    dec_out = str(tmp_path / "dec.json")
    code, stdout, _ = invoke(capsys, "decompose", out, "--out", dec_out)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["skewness_defect"] <= 1e-10
    assert doc["max_residual"] <= 1e-10
    truth = json.loads((tmp_path / "graph.truth.json").read_text())
    q = np.array(doc["basis"])
    a0 = np.array(truth["operator"])
    np.testing.assert_allclose(np.array(doc["a_hat"]), q.T @ a0 @ q, atol=1e-9)
    # --out wrote exactly the bytes that went to stdout
    assert (tmp_path / "dec.json").read_text() == stdout


def test_decompose_not_bimonotone_exits_1(capsys, tmp_path):
    path = perturbed_graph_file(tmp_path)
    code, stdout, _ = invoke(capsys, "decompose", path)
    assert code == 1
    doc = json.loads(stdout)
    assert doc["error"] == "not_bimonotone"
    assert "not bimonotone" in doc["message"]
    assert doc["bimonotone"]["verdict"] is False


def test_decompose_basepoint_flag(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path)
    code, stdout, _ = invoke(capsys, "decompose", out, "--basepoint", "2")
    assert code == 0
    doc = json.loads(stdout)
    graph_doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["basepoint"]["x"] == graph_doc["points"][2]["x"]
    code, _, stderr = invoke(capsys, "decompose", out, "--basepoint", "42")
    assert code == 2 and "out of range" in stderr


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_round_trip(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path)
    dec_out = str(tmp_path / "dec.json")
    assert invoke(capsys, "decompose", out, "--out", dec_out)[0] == 0
    code, stdout, _ = invoke(capsys, "verify", dec_out, out)
    assert code == 0
    doc = json.loads(stdout)
    assert doc["verdict"] is True
    assert doc["max_residual"] <= 1e-10
    assert len(doc["residuals"]) == 6


def test_verify_round_trip_at_rank_zero(capsys, tmp_path):
    # one point spans nothing: basis [[], []], a_hat [] and v_hat []
    graph = tmp_path / "one.json"
    graph.write_bytes(b'{"dimension": 2, "points": [{"x": [1.0, 2.0], "xstar": [3.0, 4.0]}]}')
    dec_out = str(tmp_path / "dec.json")
    assert invoke(capsys, "decompose", str(graph), "--out", dec_out)[0] == 0
    assert json.loads((tmp_path / "dec.json").read_text())["a_hat"] == []
    code, stdout, _ = invoke(capsys, "verify", dec_out, str(graph))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["verdict"] is True and doc["residuals"] == [0.0]


def test_verify_flags_tampered_graph(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path)
    dec_out = str(tmp_path / "dec.json")
    assert invoke(capsys, "decompose", out, "--out", dec_out)[0] == 0
    bad = perturbed_graph_file(tmp_path, index=4)
    code, stdout, _ = invoke(capsys, "verify", dec_out, bad)
    assert code == 1
    doc = json.loads(stdout)
    assert doc["verdict"] is False
    assert doc["worst_index"] == 4


# ---------------------------------------------------------------------------
# error handling and process-level behavior
# ---------------------------------------------------------------------------

def test_missing_file_exits_2(capsys):
    code, stdout, stderr = invoke(capsys, "analyze", "/nonexistent/graph.json")
    assert code == 2 and stdout == ""
    assert "error" in stderr


SMALL_GRAPH = b'{"dimension": 2, "points": [{"x": [0.0, 0.0], "xstar": [1.0, 0.0]}]}'
DECOMPOSITION = (
    b'{"basis": %s, "a_hat": [[0.0]], "v_hat": [0.0], '
    b'"basepoint": {"x": [0.0, 0.0], "xstar": [0.0, 0.0]}, '
    b'"max_residual": %s, "skewness_defect": 0.0}'
)
MALFORMED = {
    "bad_json": ("analyze", b'{"dimension": 2, "points": ['),
    "bad_key": ("analyze", b'{"dimension": 1, "points": [{"x": [0.0], "xstar": [1.0], "w": 2}]}'),
    "bad_csv": ("analyze", b"0.0,1.0,2.0,3.0\n4.0,5.0,6.0\n"),
    "ragged_basis": ("verify", DECOMPOSITION % (b"[[1.0, 0.0], [0.0]]", b"0.0")),
    "nan_residual": ("verify", DECOMPOSITION % (b"[[1.0], [0.0]]", b"NaN")),
    "string_offset": ("generate", b'{"n": 3, "k": 2, "m": 5, "offset_norm": "one"}'),
    "non_utf8_spec": ("generate", b'{"n": 3, "k": 2, "m": 5, "seed": 1}\xff\xfe'),
    # the pairings overflow to NaN, which must not pass as a verdict
    "overflow": ("analyze", b'{"dimension": 1, "points": [{"x": [1e300], "xstar": [1e300]}, '
                            b'{"x": [-1e300], "xstar": [0]}]}'),
    # the primal gap's norm overflows to inf, which would hide a violation of 1e9
    "overflow_margin": ("decompose", b'{"dimension":1,"points":[{"x":[1e200],"xstar":[1e-100]},'
                                     b'{"x":[-1e200],"xstar":[0]}]}'),
    # sizes whose float64 arrays no platform can index
    "huge_spec_n": ("generate", b'{"n": 1000000000000000000000000000000, "k": 1, "m": 2}'),
    "huge_spec_m": ("generate", b'{"n": 2, "k": 1, "m": 1000000000000000000000000000000}'),
    # within the index range, but no machine has the 711 PiB its arrays need
    "huge_spec_branches": ("generate", b'{"n": 1, "k": 1, "m": 1, "branches": 100000000000000000}'),
    # an integer literal beyond the range of a double
    "huge_integer": ("analyze", b'{"dimension": 1, "points": [{"x": [1' + b"0" * 400 + b'], "xstar": [0]}]}'),
    # the basis's Gram matrix overflows, which must not leak a numpy warning
    "basis_overflow": ("verify", DECOMPOSITION % (b"[[1e200], [0.0]]", b"0.0")),
    # the norms of duals near 1e160 overflow to inf, which would make the
    # margin inf and pass a relative error of 1e-7
    "residual_overflow": (
        "verify",
        b'{"basis": [[1.0]], "a_hat": [[0.0]], "v_hat": [1e160], '
        b'"basepoint": {"x": [0.0], "xstar": [1e160]}, '
        b'"max_residual": 0.0, "skewness_defect": 0.0}',
        b'{"dimension": 1, "points": [{"x": [0.0], "xstar": [1.0000001e160]}]}',
    ),
    # a bimonotone sample whose duals sit near 1e160: the fit's residual scales overflow
    "decompose_overflow": ("decompose", b'{"dimension": 2, "points": ['
                                        b'{"x": [0.0, 1.0], "xstar": [1e160, 0.0]}, '
                                        b'{"x": [1.0, 0.0], "xstar": [1e160, 0.0]}, '
                                        b'{"x": [2.0, 3.0], "xstar": [1e160, 0.0]}]}'),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_graph_exits_2(capsys, tmp_path, case):
    command, content, *graph_content = MALFORMED[case]
    path = tmp_path / ("broken.csv" if case == "bad_csv" else "broken.json")
    path.write_bytes(content)
    if command == "verify":
        graph = tmp_path / "small.json"
        graph.write_bytes(graph_content[0] if graph_content else SMALL_GRAPH)
        argv = ["verify", str(path), str(graph)]
    elif command == "generate":
        argv = ["generate", str(path), "--out", str(tmp_path / "out.json")]
    else:
        argv = [command, str(path)]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("skewfit: error: ") and stderr.count("\n") == 1


FUZZ_SPEC = {"n": 3, "k": 2, "m": 4, "branches": 2, "offset_norm": 1.0,
             "noise_in_span": 0.0, "noise_orthogonal": 0.5, "seed": 9}


def numeric_leaves(doc, path=()):
    """Paths to every number, booleans excluded, in a decoded JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in numeric_leaves(value, path + (key,))]
    return [path] if type(doc) in (int, float) else []


def _valid_documents():
    """A spec, the graph it generates and that graph's decomposition, by the
    subcommand that reads each."""
    fix = make_fixture(FixtureSpec(**FUZZ_SPEC))
    graph = json.loads(save_graph(fix.graph, "json"))
    return {"generate": FUZZ_SPEC, "analyze": graph, "verify": decompose(fix.graph).to_dict()}


VALID_DOCUMENTS = _valid_documents()


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(VALID_DOCUMENTS)), data=st.data(),
       junk=st.sampled_from([True, None, "1", [], {}]))
def test_mutated_documents_exit_2(capsys, tmp_path, command, data, junk):
    # one number of a valid document replaced by a value that is not a number
    doc = copy.deepcopy(VALID_DOCUMENTS[command])
    *parents, last = data.draw(st.sampled_from(numeric_leaves(doc)), label="leaf")
    target = doc
    for key in parents:
        target = target[key]
    target[last] = junk
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(VALID_DOCUMENTS["analyze"]))
    argv = {
        "analyze": ["analyze", str(path)],
        "generate": ["generate", str(path), "--out", str(tmp_path / "out.json")],
        "verify": ["verify", str(path), str(graph)],
    }[command]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("skewfit: error: ") and stderr.count("\n") == 1


def test_usage_errors_exit_2(capsys, tmp_path):
    assert invoke(capsys, )[0] == 2
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "analyze")[0] == 2
    path = tmp_path / "g.json"
    path.write_text("{}")
    assert invoke(capsys, "analyze", str(path), "--tol-abs", "-1")[0] == 2
    # a non-finite tolerance is refused while parsing, before the file is read
    for value in ("inf", "nan"):
        code, _, stderr = invoke(capsys, "analyze", str(path), "--tol-rel", value)
        assert code == 2 and "argument --tol-rel" in stderr
    # generate takes no tolerance
    spec_path = write_spec(tmp_path, SPEC)
    for flag in ("--tol-abs", "--tol-rel"):
        code, _, stderr = invoke(capsys, "generate", spec_path, "--out", str(tmp_path / "o.json"), flag, "5")
        assert code == 2 and f"unrecognized arguments: {flag} 5" in stderr
    assert not (tmp_path / "o.json").exists()


def test_module_entry_point(tmp_path):
    fix = make_fixture(FixtureSpec(**SPEC))
    path = tmp_path / "graph.json"
    path.write_bytes(save_graph(fix.graph, "json"))
    proc = subprocess.run(
        [sys.executable, "-m", "skewfit", "analyze", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bimonotone"]["verdict"] is True


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import skewfit.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_analyze_makes_one_pair_pass(capsys, tmp_path, monkeypatch):
    # one pass over the pairs gives every report; only a monotone sample
    # goes on to the crossed-pair search
    calls = {"_pair_pass": 0, "_crossed_pairs": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(classify, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(classify, name, counted)
    planted, _ = generate(capsys, tmp_path)
    falling = tmp_path / "falling.json"
    falling.write_bytes(save_graph(OperatorGraph([[0.0], [1.0]], [[1.0], [0.0]]), "json"))
    for path, code, counts in ((planted, 0, [1, 1]), (str(falling), 1, [1, 0])):
        calls.update(dict.fromkeys(calls, 0))
        assert invoke(capsys, "analyze", path)[0] == code
        assert list(calls.values()) == counts


def test_analyze_output_is_byte_deterministic(capsys, tmp_path):
    out, _ = generate(capsys, tmp_path)
    first = invoke(capsys, "analyze", out)
    second = invoke(capsys, "analyze", out)
    assert first == second


# y = A x with A symmetric: monotone, but not bimonotone
NON_SKEW_GRAPH = (b'{"dimension": 2, "points": [{"x": [0.0, 0.0], "xstar": [0.0, 0.0]}, '
                  b'{"x": [1.0, 0.0], "xstar": [2.0, 1.0]}, {"x": [0.0, 1.0], "xstar": [1.0, 3.0]}]}')
CERTIFICATE = (b'{"basis": [[1.0, 0.0], [0.0, 1.0]], "a_hat": %s, "v_hat": [0.0, 0.0], '
               b'"basepoint": {"x": [0.0, 0.0], "xstar": [0.0, 0.0]}, '
               b'"max_residual": %s, "skewness_defect": %s}')


@pytest.mark.parametrize(
    "a_hat, max_residual, defect, message",
    [
        (b"[[2.0, 1.0], [1.0, 3.0]]", b"-1", b"0.0", "a_hat must be exactly antisymmetric"),
        (b"[[0.0, 1.0], [-1.0, 0.0]]", b"-1", b"0.0", "max_residual must be finite and nonnegative"),
        (b"[[0.0, 1.0], [-1.0, 0.0]]", b"0.0", b"-0.5", "skewness_defect must be finite and nonnegative"),
        (b"[0.0, 1.0, -1.0, 0.0]", b"0.0", b"0.0", "a_hat must be a 2-D array, got shape (4,)"),
    ],
)
def test_verify_rejects_a_certificate_that_is_not_skew(capsys, tmp_path, a_hat, max_residual,
                                                      defect, message):
    graph = tmp_path / "graph.json"
    graph.write_bytes(NON_SKEW_GRAPH)
    code, stdout, _ = invoke(capsys, "analyze", str(graph))
    assert code == 1 and json.loads(stdout)["bimonotone"]["verdict"] is False
    dec = tmp_path / "dec.json"
    dec.write_bytes(CERTIFICATE % (a_hat, max_residual, defect))
    code, stdout, stderr = invoke(capsys, "verify", str(dec), str(graph))
    assert (code, stdout, stderr) == (2, "", f"skewfit: error: {message}\n")


def test_graph_files_with_a_byte_order_mark(capsys, tmp_path):
    csv = tmp_path / "g.csv"
    csv.write_bytes(b"\xef\xbb\xbf1,0,0,1\n2,0,0,2\n")
    code, stdout, _ = invoke(capsys, "analyze", str(csv))
    assert json.loads(stdout)["num_points"] == 2
    doc = tmp_path / "g.json"
    doc.write_bytes(b'\xef\xbb\xbf{"dimension": 1, "points": [{"x": [0.0], "xstar": [0.0]}]}')
    code, stdout, stderr = invoke(capsys, "analyze", str(doc))
    assert code == 2 and stdout == "" and stderr.count("\n") == 1
