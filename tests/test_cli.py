import argparse
import copy
import functools
import gc
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewfit import (OperatorGraph, bimonotone_check, classify, decompose, dumps_canonical, make_fixture,
                     perturb, save_graph)
from skewfit import cli
from skewfit.cli import run
from skewfit.fixtures import FixtureSpec

from families import off_plane_rotation
from oracles import exact_mean

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
        code, stdout, _ = invoke(capsys, "generate", spec_path, "--out", out)
        assert code == 0
        runs.append((stdout, (tmp_path / name).read_bytes()))
    stdout_a, bytes_a = runs[0]
    stdout_b, bytes_b = runs[1]
    assert bytes_a == bytes_b
    assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()
    # stdout differs only in the paths it names
    assert json.loads(stdout_a)["spec"] == json.loads(stdout_b)["spec"]


def test_generate_spec_seed_changes_output(capsys, tmp_path):
    # the spec's seed field is the one source of the seed
    spec_a = write_spec(tmp_path, SPEC, "a.spec.json")
    spec_b = write_spec(tmp_path, {**SPEC, "seed": 99}, "b.spec.json")
    assert invoke(capsys, "generate", spec_a, "--out", str(tmp_path / "a.json"))[0] == 0
    assert invoke(capsys, "generate", spec_b, "--out", str(tmp_path / "b.json"))[0] == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()


def test_generate_rejects_bad_spec(capsys, tmp_path):
    spec_path = write_spec(tmp_path, {"n": 3, "k": 1, "m": 2, "sigma": 4})
    out = str(tmp_path / "graph.json")
    code, stdout, stderr = invoke(capsys, "generate", spec_path, "--out", out)
    assert code == 2
    assert stdout == ""
    assert "unknown key" in stderr


def test_generate_refuses_a_spec_beyond_the_largest_float64_array(capsys, tmp_path):
    # refused as the spec is read, before make_fixture allocates anything
    spec_path = write_spec(tmp_path, {"n": 2**30, "k": 1, "m": 2**30})
    out = tmp_path / "graph.json"
    code, stdout, stderr = invoke(capsys, "generate", spec_path, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"skewfit: error: {spec_path}: n * m * branches exceeds the largest float64 array\n"
    assert not out.exists() and not (tmp_path / "graph.truth.json").exists()


def test_generate_overflowing_fixture_exits_2_with_one_line(capsys, tmp_path):
    # the duals overflow inside make_fixture: the graph's finiteness check
    # names them, and no numpy warning reaches stderr
    spec_path = write_spec(tmp_path, {"n": 3, "k": 2, "m": 5, "offset_norm": 1e308,
                                      "noise_in_span": 1e308})
    out = str(tmp_path / "graph.json")
    code, stdout, stderr = invoke(capsys, "generate", spec_path, "--out", out)
    assert (code, stdout) == (2, "")
    assert stderr == "skewfit: error: points[2].xstar contains non-finite entries\n"


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
    # the suffix alone picks the format: the same rows under a .json name are
    # a parse error
    renamed = tmp_path / "graph.json"
    renamed.write_text(text)
    code, stdout, stderr = invoke(capsys, "analyze", str(renamed))
    assert code == 2 and stdout == "" and stderr.startswith(f"skewfit: error: {renamed}: ")


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


def test_analyze_header_only_csv_exits_2(capsys, tmp_path):
    path = tmp_path / "graph.csv"
    path.write_text("x1,x2,xstar1,xstar2\n")
    code, stdout, stderr = invoke(capsys, "analyze", str(path))
    assert (code, stdout) == (2, "")
    assert stderr == f"skewfit: error: {path}: a graph must contain at least one point\n"


def test_decompose_basepoint_flag(capsys, tmp_path):
    # the fit goes through the centre of the sample, each coordinate its
    # column's exact mean rounded once, which the document records as its
    # basepoint; no flag chooses a point instead
    out, _ = generate(capsys, tmp_path)
    code, stdout, stderr = invoke(capsys, "decompose", out, "--basepoint", "0")
    assert (code, stdout) == (2, "")
    assert stderr == "skewfit: error: unrecognized arguments: --basepoint 0\n"
    code, stdout, _ = invoke(capsys, "decompose", out)
    assert code == 0
    points = json.loads((tmp_path / "graph.json").read_text())["points"]
    for key in ("x", "xstar"):
        centre = [float(exact_mean(column)) for column in zip(*(p[key] for p in points))]
        assert json.loads(stdout)["basepoint"][key] == centre


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


def test_verify_refuses_a_sample_that_is_not_bimonotone(capsys, tmp_path):
    # every residual fits the document, but the sample is not bimonotone:
    # verify exits 1 with the not_bimonotone document that decompose writes
    g, dec = off_plane_rotation()
    graph, doc = tmp_path / "graph.json", tmp_path / "dec.json"
    graph.write_bytes(save_graph(g, "json"))
    doc.write_text(dumps_canonical(dec.to_dict()))
    code, stdout, stderr = invoke(capsys, "verify", str(doc), str(graph))
    assert (code, stderr) == (1, "")
    assert json.loads(stdout) == {
        "error": "not_bimonotone",
        "message": "sample is not bimonotone at tolerance (worst_violation 5.202522e+01 at pair (3, 7))",
        "bimonotone": bimonotone_check(g).to_dict(),
    }
    assert invoke(capsys, "decompose", str(graph)) == (1, stdout, "")


RANK_ONE = (b'{"basis": [[1.0]], "a_hat": [[0.0]], "v_hat": [0.0], "basepoint": {"x": [0.0], "xstar": [0.0]}, '
            b'"max_residual": 0.0, "skewness_defect": 0.0}')
# two equal points whose sum overflows (their centre does not), and three
# whose centre is finite but whose second row less that centre is not
CENTRE_OVERFLOW = b'{"dimension": 1, "points": [{"x": [1e308], "xstar": [0.0]}, {"x": [1e308], "xstar": [0.0]}]}'
CENTRED_ROW_OVERFLOW = (b'{"dimension": 1, "points": [{"x": [1.7e308], "xstar": [0.0]}, '
                        b'{"x": [-1.7e308], "xstar": [0.0]}, {"x": [1.7e308], "xstar": [0.0]}]}')


@pytest.mark.filterwarnings("error")
def test_verify_overflows_are_decided_by_the_pair_check(capsys, tmp_path):
    doc, centre, row = tmp_path / "dec.json", tmp_path / "centre.json", tmp_path / "row.json"
    doc.write_bytes(RANK_ONE)
    centre.write_bytes(CENTRE_OVERFLOW)
    row.write_bytes(CENTRED_ROW_OVERFLOW)
    code, stdout, stderr = invoke(capsys, "verify", str(doc), str(centre))
    assert (code, stderr) == (0, "") and json.loads(stdout)["verdict"] is True
    code, stdout, stderr = invoke(capsys, "decompose", str(centre))
    assert (code, stderr) == (0, "")
    fitted = tmp_path / "centre.dec.json"
    fitted.write_text(stdout)
    code, stdout, stderr = invoke(capsys, "verify", str(fitted), str(centre))
    assert (code, stderr) == (0, "") and json.loads(stdout)["verdict"] is True
    for argv in (["verify", str(doc), str(row)], ["decompose", str(row)]):
        assert invoke(capsys, *argv) == (
            2, "", "skewfit: error: pair (0, 1) overflows double precision; rescale the sample\n")


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
    # the primal gap, 3.4e308, lies beyond double range, and an infinite
    # margin would hide a violation of 1e9
    "overflow_margin": ("decompose", b'{"dimension":1,"points":[{"x":[1.7e308],"xstar":[1e-100]},'
                                     b'{"x":[-1.7e308],"xstar":[0]}]}'),
    # sizes whose float64 arrays no platform can index
    "huge_spec_n": ("generate", b'{"n": 1000000000000000000000000000000, "k": 1, "m": 2}'),
    "huge_spec_m": ("generate", b'{"n": 2, "k": 1, "m": 1000000000000000000000000000000}'),
    # within the index range, but no machine has the 711 PiB its arrays need
    "huge_spec_branches": ("generate", b'{"n": 1, "k": 1, "m": 1, "branches": 100000000000000000}'),
    # an integer literal beyond the range of a double
    "huge_integer": ("analyze", b'{"dimension": 1, "points": [{"x": [1' + b"0" * 400 + b'], "xstar": [0]}]}'),
    # the basis's Gram matrix overflows, which must not leak a numpy warning
    "basis_overflow": ("verify", DECOMPOSITION % (b"[[1e200], [0.0]]", b"0.0")),
    # the residual, 3.4e308, lies beyond double range, which would make the
    # margin inf and pass any residual
    "residual_overflow": (
        "verify",
        b'{"basis": [[1.0]], "a_hat": [[0.0]], "v_hat": [-1.7e308], '
        b'"basepoint": {"x": [0.0], "xstar": [-1.7e308]}, '
        b'"max_residual": 0.0, "skewness_defect": 0.0}',
        b'{"dimension": 1, "points": [{"x": [0.0], "xstar": [1.7e308]}]}',
    ),
    # a bimonotone sample whose duals' norms, 2.4e308, lie beyond double
    # range: the fit's residual scales overflow
    "decompose_overflow": ("decompose", b'{"dimension": 3, "points": ['
                                        b'{"x": [0.0, 0.0, 0.0], "xstar": [1.7e308, 1.7e308, 0.0]}, '
                                        b'{"x": [1.0, 0.0, 0.0], "xstar": [1.7e308, 1.7e308, 0.0]}, '
                                        b'{"x": [0.0, 1.0, 0.0], "xstar": [1.7e308, 1.7e308, 0.0]}, '
                                        b'{"x": [0.0, 0.0, 1.0], "xstar": [1.7e308, 1.7e308, 0.0]}]}'),
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


def values_below(doc, path=()):
    """Paths to every value below the root of a decoded JSON document."""
    if not isinstance(doc, (dict, list)):
        return []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return [p for key, value in items for p in (path + (key,), *values_below(value, path + (key,)))]


def value_at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def numeric_leaves(doc):
    """Paths to every number, booleans excluded, in a decoded JSON document."""
    return [p for p in values_below(doc) if type(value_at(doc, p)) in (int, float)]


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


# JSON text that takes the place of one value: a 5000-digit integer, the
# extreme doubles, negative zero, every other JSON type, and a list nested 40 deep
JUNK = ["1" * 5000, "1e308", "5e-324", "-0.0", "true", "null", '"one"', "[]", "{}",
        "[" * 40 + "1.0" + "]" * 40]
# the digit three in Arabic-Indic, Devanagari, fullwidth and mathematical bold
UNICODE_DIGITS = ["٣", "३", "３", "\U0001d7d1"]
SENTINEL = "\x00junk\x00"
FUZZ_CSV = (b"x0,x1,x2,s0,s1,s2\n"
            + save_graph(make_fixture(FixtureSpec(**FUZZ_SPEC)).graph, "csv"))


def _mutated(kind, data) -> bytes:
    """A valid document of ``kind`` (a key of VALID_DOCUMENTS), mutated once."""
    doc = copy.deepcopy(VALID_DOCUMENTS[kind])
    how = data.draw(st.sampled_from(["value", "duplicate_key", "bom", "unicode_digit"]
                                    + (["csv"] if kind == "analyze" else [])), label="mutation")
    if how == "csv":
        return FUZZ_CSV
    junk = data.draw(st.sampled_from(JUNK), label="junk")
    if how == "value":
        *parents, last = data.draw(st.sampled_from(values_below(doc)), label="path")
        value_at(doc, parents)[last] = SENTINEL
    elif how == "duplicate_key":
        # the copy comes last, so it is the one json.loads keeps
        objects = [()] + [p for p in values_below(doc) if isinstance(value_at(doc, p), dict)]
        target = value_at(doc, data.draw(st.sampled_from(objects), label="object"))
        key = data.draw(st.sampled_from(sorted(target)), label="key")
        value = data.draw(st.sampled_from([json.dumps(target[key]), junk]), label="value")
        target[SENTINEL] = SENTINEL
        return json.dumps(doc).replace(json.dumps(SENTINEL) + ": ", json.dumps(key) + ": ").replace(
            json.dumps(SENTINEL), value).encode("utf-8")
    text = json.dumps(doc).replace(json.dumps(SENTINEL), junk)
    if how == "bom":
        return b"\xef\xbb\xbf" + text.encode("utf-8")
    if how == "unicode_digit":
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in "0123456789"]), label="at")
        text = text[:at] + data.draw(st.sampled_from(UNICODE_DIGITS), label="digit") + text[at + 1:]
    return text.encode("utf-8")


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(VALID_DOCUMENTS)), data=st.data())
def test_fuzzed_documents_keep_the_exit_code_contract(capsys, tmp_path, kind, data):
    # one mutation of a valid graph, spec or decomposition: the run ends in a
    # verdict (0 or 1) that its one JSON line agrees with, or in one error line (2)
    content = _mutated(kind, data)
    csv = content == FUZZ_CSV
    path = tmp_path / ("mutated.csv" if csv else "mutated.json")
    path.write_bytes(content)
    graph, dec = tmp_path / "graph.json", tmp_path / "dec.json"
    graph.write_text(json.dumps(VALID_DOCUMENTS["analyze"]))
    dec.write_text(json.dumps(VALID_DOCUMENTS["verify"]))
    tolerance = data.draw(st.sampled_from([[], ["--tol-abs", "0"], ["--tol-rel", "1e-3"]]), label="tol")
    if kind == "generate":
        command = "generate"
        argv = [str(path), "--out", str(tmp_path / "out.json")]
    elif kind == "verify":
        command, argv = "verify", [str(path), str(graph), *tolerance]
    else:
        command = data.draw(st.sampled_from(["analyze", "decompose", "verify"]), label="command")
        argv = ([str(dec)] if command == "verify" else []) + [str(path), *tolerance]
    code, stdout, stderr = invoke(capsys, command, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
        assert stderr.startswith("skewfit: error: ") and stderr.count("\n") == 1
        return
    assert stderr == "" and stdout.endswith("\n") and stdout.count("\n") == 1
    out = json.loads(stdout)
    success = {"analyze": lambda: out["bimonotone"]["verdict"], "verify": lambda: out["verdict"],
               "decompose": lambda: out.get("error") != "not_bimonotone",
               "generate": lambda: "error" not in out}[command]()
    assert success is (code == 0)


def test_readme_synopsis_names_every_flag_of_each_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) for line in synopsis.splitlines()}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
               for name, parser in sub.choices.items()}
    assert named == defined


def test_usage_errors_exit_2(capsys, tmp_path):
    def usage_error(*argv):
        # one line, with no usage block, for the parser and every subparser
        code, stdout, stderr = invoke(capsys, *argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith("skewfit: error: ") and stderr.count("\n") == 1
        return stderr

    usage_error()
    assert "invalid choice: 'frobnicate'" in usage_error("frobnicate")
    assert "required: graph" in usage_error("analyze")
    path = tmp_path / "g.json"
    path.write_text("{}")
    assert "argument --tol-abs" in usage_error("analyze", str(path), "--tol-abs", "-1")
    # a non-finite tolerance is refused while parsing, before the file is read
    for value in ("inf", "nan"):
        assert "argument --tol-rel" in usage_error("analyze", str(path), "--tol-rel", value)
    spec_path = write_spec(tmp_path, SPEC)
    # a tolerance follows the number rule of every file: it is spelled as a
    # JSON number
    for flag in ("--tol-abs", "--tol-rel"):
        for value in ("1_0", " 1e-9 ", ".5", "+1", "1.", "0x1", "1e-9\n"):
            stderr = usage_error("analyze", str(path), flag, value)
            assert stderr == f"skewfit: error: argument {flag}: not a number: {value!r}\n"
    # generate takes no tolerance, and no flag repeats what an input carries:
    # a graph file's suffix picks its format, and the spec's seed field the seed
    gen = ["generate", spec_path, "--out", str(tmp_path / "o.json")]
    for argv, flag in [(gen, "--tol-abs"), (gen, "--tol-rel"), (gen, "--seed"), (gen, "--format"),
                       (["analyze", str(path)], "--format"), (["decompose", str(path)], "--format"),
                       (["verify", str(path), str(path)], "--format")]:
        assert usage_error(*argv, flag, "1") == f"skewfit: error: unrecognized arguments: {flag} 1\n"
    assert not (tmp_path / "o.json").exists()
    code, stdout, stderr = invoke(capsys, "analyze", "--help")
    assert code == 0 and stdout.startswith("usage: skewfit analyze") and stderr == ""


def test_help_to_a_given_file_is_argparse_s(capsys):
    # only help bound for stdout goes through the document writer
    out = io.StringIO()
    cli.build_parser().print_help(out)
    assert out.getvalue().startswith("usage: skewfit") and capsys.readouterr() == ("", "")


def test_decompose_to_an_empty_out_path_exits_2(capsys, tmp_path):
    # an empty --out would name the current directory: it is refused by name
    # while the arguments are parsed, before any file is read or written
    graph, _ = generate(capsys, tmp_path)
    for argv in (["decompose", graph, "--out", ""], ["generate", write_spec(tmp_path, SPEC), "--out", ""]):
        code, stdout, stderr = invoke(capsys, *argv)
        assert (code, stdout, stderr) == (2, "", "skewfit: error: argument --out: must not be empty\n")


def test_generate_leaves_no_graph_file_when_the_truth_file_fails(capsys, tmp_path):
    (tmp_path / "g.truth.json").mkdir()
    argv = ["generate", write_spec(tmp_path, SPEC), "--out", str(tmp_path / "g.json")]
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (2, "") and stderr.count("\n") == 1
    assert "g.truth.json" in stderr and not (tmp_path / "g.json").exists()


# a spec and a graph document, each with an integer past Python's digit limit
TOO_MANY_DIGITS = {
    "generate": b'{"n": ' + b"1" * 5000 + b', "k": 1, "m": 1}',
    "analyze": b'{"dimension": ' + b"1" * 5000 + b', "points": []}',
}


def _exits_2_with_one_error_line(capsys, tmp_path, command, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out.json")] if command == "generate" else [])
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("skewfit: error: ") and stderr.count("\n") == 1
    return stderr


@pytest.mark.parametrize("command", ["generate", "analyze"])
def test_integer_past_the_digit_limit_exits_2(capsys, tmp_path, command):
    stderr = _exits_2_with_one_error_line(capsys, tmp_path, command, TOO_MANY_DIGITS[command])
    assert stderr.startswith(f"skewfit: error: {tmp_path / 'doc.json'}: invalid JSON at line 1, column ")


@pytest.mark.parametrize("command", ["generate", "analyze"])
def test_json_nested_100000_deep_exits_2(capsys, tmp_path, command):
    stderr = _exits_2_with_one_error_line(capsys, tmp_path, command, b"[" * 100_000 + b"]" * 100_000)
    assert stderr.endswith("JSON nested too deeply\n")


# a string of closing brackets, plain or after an escaped quote, that a count
# of the brackets in a document must skip
_CLOSERS = {"none": b"", "closers": b'"k": "' + b"]" * 100_000 + b'", ',
            "escaped-quote": b'"k": "\\"' + b"]" * 100_000 + b'", '}


@pytest.mark.parametrize("decoy", sorted(_CLOSERS))
def test_json_object_nested_100000_deep_exits_2(tmp_path, decoy):
    # orjson 3.8 overflows the C stack on this object, so it runs in a child
    path = tmp_path / "doc.json"
    path.write_bytes(b"{" + _CLOSERS[decoy] + b'"a": ' + b'{"a": ' * 100_000 + b"1" + b"}" * 100_001)
    proc = skewfit_process("analyze", str(path), unbuffered=False, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"skewfit: error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
@pytest.mark.parametrize("command, field", [("analyze", "dimension"), ("generate", "n"), ("generate", "k"),
                                            ("generate", "m"), ("generate", "branches"), ("generate", "seed")])
def test_integer_field_beyond_64_bits_is_not_an_integer(capsys, tmp_path, command, field, value):
    # the JSON reader reads an integer outside [-2**63, 2**64) as its nearest double
    doc = {"dimension": 1, "points": [{"x": [0.0], "xstar": [0.0]}]} if command == "analyze" else dict(SPEC)
    doc[field] = value
    stderr = _exits_2_with_one_error_line(capsys, tmp_path, command, json.dumps(doc).encode())
    assert stderr == f"skewfit: error: {tmp_path / 'doc.json'}: {field} must be an integer\n"


@pytest.mark.parametrize("depth", [33, 61])
def test_point_nested_past_numpy_axes_exits_2(capsys, tmp_path, depth):
    # the JSON reader reads it, as the document nests at most 64 deep; numpy's
    # functions take at most 32 axes
    x = b"[" * depth + b"0" + b"]" * depth
    doc = b'{"dimension": 1, "points": [{"x": ' + x + b', "xstar": [0]}]}'
    stderr = _exits_2_with_one_error_line(capsys, tmp_path, "analyze", doc)
    assert stderr.startswith(f"skewfit: error: {tmp_path / 'doc.json'}: primal is not an array of reals")


def test_internal_error_exits_3_with_its_traceback(capsys, tmp_path, monkeypatch):
    # a fault in the program, not in its input, is neither a verdict (1)
    # nor a usage error (2)
    def broken(args):
        raise RuntimeError("broken subcommand")
    monkeypatch.setattr(cli, "_cmd_analyze", broken)
    path = tmp_path / "g.json"
    path.write_bytes(SMALL_GRAPH)
    monkeypatch.setattr(sys, "argv", ["skewfit", "analyze", str(path)])
    # main ends its process with os._exit, which must not end pytest's
    def exit_(code):
        raise SystemExit(code)
    monkeypatch.setattr(cli.os, "_exit", exit_)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("RuntimeError: broken subcommand\n")


def test_negative_zero_tolerance_prints_as_zero(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(SMALL_GRAPH)
    code, stdout, _ = invoke(capsys, "analyze", str(path), "--tol-abs", "-0")
    assert code == 0 and '"tolerance": {"abs_tol": 0.0, "rel_tol": 1e-09}' in stdout


def test_tolerance_whose_margin_overflows_exit_2(capsys, tmp_path):
    graph, _ = generate(capsys, tmp_path)
    code, stdout, stderr = invoke(capsys, "analyze", graph, "--tol-abs", "1e308", "--tol-rel", "1e308")
    assert (code, stdout) == (2, "")
    assert stderr == "skewfit: error: abs_tol + rel_tol overflows double precision\n"


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


def child_env(unbuffered):
    """This environment, with a child's stdio unbuffered or block-buffered."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def skewfit_process(*argv, unbuffered, **kwargs):
    """``python -m skewfit *argv`` with stdout unbuffered or block-buffered."""
    return subprocess.run([sys.executable, "-m", "skewfit", *argv], env=child_env(unbuffered), **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stdout, message", [
    ("/dev/full", "[Errno 28] No space left on device"),
    ("broken pipe", "[Errno 32] Broken pipe"),
    ("closed", "[Errno 9] stdout is closed"),
])
def test_a_stdout_that_cannot_take_the_document_exits_2_with_one_line(tmp_path, stdout, message, unbuffered):
    # the document never arrives, so its verdict is not the exit code,
    # whether stdout is unbuffered or holds the document until a flush
    path = tmp_path / "g.json"
    path.write_bytes(SMALL_GRAPH)
    kwargs = {}
    if stdout == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
    elif stdout == "broken pipe":
        read_end, fd = os.pipe()
        os.close(read_end)
    else:
        fd = None
        kwargs["preexec_fn"] = lambda: os.close(1)
    try:
        proc = skewfit_process("analyze", str(path), unbuffered=unbuffered, stdout=fd,
                               stderr=subprocess.PIPE, text=True, **kwargs)
    finally:
        if fd is not None:
            os.close(fd)
    assert (proc.returncode, proc.stderr) == (2, f"skewfit: error: {message}\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_the_whole_output_survives_the_process_exit(capsys, tmp_path, unbuffered):
    # verify's document on 5000 points (about 117 KB) outgrows a 64 KiB pipe
    # buffer; generate's short summary must be flushed before the process
    # ends without finalizing, and its two files are written before that
    spec = write_spec(tmp_path, {**SPEC, "m": 5000})
    graph, dec = str(tmp_path / "graph.json"), str(tmp_path / "dec.json")
    assert run(["generate", spec, "--out", graph]) == 0
    summary = capsys.readouterr().out.replace(str(tmp_path / "graph"), str(tmp_path / "child"))
    assert run(["decompose", graph, "--out", dec]) == 0
    capsys.readouterr()
    assert run(["verify", dec, graph]) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 1 << 16
    proc = skewfit_process("verify", dec, graph, unbuffered=unbuffered, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected
    proc = skewfit_process("generate", spec, "--out", str(tmp_path / "child.json"),
                           unbuffered=unbuffered, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, summary.encode(), b"")
    for suffix in (".json", ".truth.json"):
        assert (tmp_path / f"child{suffix}").read_bytes() == (tmp_path / f"graph{suffix}").read_bytes()


def test_internal_error_exits_3_in_a_real_process(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(SMALL_GRAPH)
    script = """if True:
        import sys
        from skewfit import cli
        def broken(args):
            raise RuntimeError("broken subcommand")
        cli._cmd_analyze = broken
        sys.argv = ["skewfit", "analyze", sys.argv[1]]
        cli.main()
    """
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("RuntimeError: broken subcommand\n")


@pytest.fixture
def dev_full():
    """A descriptor open for writing on /dev/full, where every write fails."""
    if not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    fd = os.open("/dev/full", os.O_WRONLY)
    yield fd
    os.close(fd)


def stderr_that_fails(request, stderr):
    """Keyword arguments that start a child whose stderr is /dev/full or closed."""
    if stderr == "/dev/full":
        return {"stderr": request.getfixturevalue("dev_full")}
    return {"preexec_fn": lambda: os.close(2)}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stderr", ["/dev/full", "closed"])
@pytest.mark.parametrize("content", [None, b"{"], ids=["missing", "malformed"])
def test_an_input_error_exits_2_whatever_stderr_can_take(request, tmp_path, content, stderr, unbuffered):
    # 1 would read as a false verdict; the code never waits on the message
    path = tmp_path / "g.json"
    if content is not None:
        path.write_bytes(content)
    proc = skewfit_process("analyze", str(path), unbuffered=unbuffered, stdout=subprocess.PIPE,
                           **stderr_that_fails(request, stderr))
    assert (proc.returncode, proc.stdout) == (2, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("stderr", ["/dev/full", "closed"])
def test_an_internal_error_exits_3_whatever_stderr_can_take(request, tmp_path, stderr, unbuffered):
    path = tmp_path / "g.json"
    path.write_bytes(SMALL_GRAPH)
    script = """if True:
        import sys
        from skewfit import cli
        def broken(args):
            raise RuntimeError("broken subcommand")
        cli._cmd_analyze = broken
        sys.argv = ["skewfit", "analyze", sys.argv[1]]
        cli.main()
    """
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=child_env(unbuffered),
                          stdout=subprocess.PIPE, **stderr_that_fails(request, stderr))
    assert (proc.returncode, proc.stdout) == (3, b"")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["analyze", "-h"]], ids=["help", "analyze-h"])
def test_help_that_stdout_cannot_take_exits_2_with_one_line(dev_full, argv, unbuffered):
    # help is written and flushed as a document is, since argparse's own
    # writer drops the error of a failed write
    proc = skewfit_process(*argv, unbuffered=unbuffered, stdout=dev_full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (2, "skewfit: error: [Errno 28] No space left on device\n")


def test_no_file_is_left_open_when_a_call_ends(capsys, tmp_path):
    # a CLI process ends without running finalizers, so a leaked handle
    # would close unseen there; in process, its ResourceWarning shows it
    spec = write_spec(tmp_path, SPEC)
    graph, dec, bad = str(tmp_path / "graph.json"), str(tmp_path / "dec.json"), tmp_path / "bad.json"
    bad.write_bytes(b"{")
    argvs = [(["generate", spec, "--out", graph], 0), (["analyze", graph], 0),
             (["decompose", graph, "--out", dec], 0), (["verify", dec, graph], 0),
             (["analyze", str(bad)], 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for argv, code in argvs:
            assert run(argv) == code, argv
        gc.collect()
    capsys.readouterr()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import skewfit.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_no_numpy_module_beyond_import_numpy(tmp_path):
    # every CLI child pays for each numpy module it loads (np.unique, say,
    # loads numpy.ma); only numpy.random, which generate draws from and
    # numpy 1.x loads with numpy, may follow.  At m = 200 the crossed-pair
    # search samples thresholds and steps before its exact reads.
    spec = write_spec(tmp_path, {"n": 20, "k": 8, "m": 200, "offset_norm": 1.0, "seed": 3})
    graph, dec = str(tmp_path / "graph.json"), str(tmp_path / "dec.json")
    argvs = [["generate", spec, "--out", graph], ["analyze", graph],
             ["decompose", graph, "--out", dec], ["verify", dec, graph]]
    script = """if True:
        import contextlib, io, json, sys
        import numpy
        before = set(sys.modules)
        from skewfit.cli import run
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in json.loads(sys.argv[1]):
                assert run(argv) == 0, argv
        print(sorted(name for name in set(sys.modules) - before
                     if name.split(".")[0] == "numpy" and name.split(".")[:2] != ["numpy", "random"]))
    """
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    assert (code, stdout, stderr) == (2, "", f"skewfit: error: {dec}: {message}\n")


@pytest.mark.parametrize(
    "command, name, content, pattern",
    [
        # orjson words the message for malformed JSON, so only its position is pinned
        ("verify", "bad.json", b'{"dimension": 1,\n', r"invalid JSON at line 2, column [0-9]+: .+"),
        ("analyze", "bad.csv", b"1,2\n3,x\n", re.escape("line 2, field 2: not a number: 'x'")),
        ("generate", "spec.json", b'{"n": 3, "k": 2, "m": 4, "alpha": 1}',
         re.escape("unknown key 'alpha' in fixture spec")),
    ],
    ids=["verify graph", "analyze csv", "generate spec"],
)
def test_an_error_in_a_file_names_the_file(capsys, tmp_path, command, name, content, pattern):
    # verify's bad file is its second argument, the graph after a valid decomposition
    bad = tmp_path / name
    bad.write_bytes(content)
    argv = [command, str(bad)]
    if command == "verify":
        out, _ = generate(capsys, tmp_path, out_name="good.json")
        dec = str(tmp_path / "dec.json")
        assert invoke(capsys, "decompose", out, "--out", dec)[0] == 0
        argv.insert(1, dec)
    if command == "generate":
        argv += ["--out", str(tmp_path / "out.json")]
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (2, "") and re.fullmatch(f"skewfit: error: {re.escape(str(bad))}: {pattern}\n", stderr)


def test_graph_files_with_a_byte_order_mark(capsys, tmp_path):
    csv = tmp_path / "g.csv"
    csv.write_bytes(b"\xef\xbb\xbf1,0,0,1\n2,0,0,2\n")
    code, stdout, _ = invoke(capsys, "analyze", str(csv))
    assert json.loads(stdout)["num_points"] == 2
    doc = tmp_path / "g.json"
    doc.write_bytes(b'\xef\xbb\xbf{"dimension": 1, "points": [{"x": [0.0], "xstar": [0.0]}]}')
    code, stdout, stderr = invoke(capsys, "analyze", str(doc))
    assert code == 2 and stdout == "" and stderr.count("\n") == 1
