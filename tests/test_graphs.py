import hashlib
import io
import json
import re

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewfit import (
    GraphPoint,
    OperatorGraph,
    ParseError,
    ToleranceConfig,
    ValidationError,
    bimonotone_check,
    domain,
    dumps_canonical,
    inverse_graph,
    load_graph,
    make_fixture,
    reduce,
    save_graph,
    span_basis,
    translate,
)
from skewfit import graphs
from skewfit.fixtures import FixtureSpec
from skewfit.graphs import contains_origin, load_json_object

import oracles


def simple_graph():
    return OperatorGraph.from_arrays(
        [[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]],
        [[1.0, 1.0], [0.5, -2.0], [4.0, 0.0]],
    )


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_point_rejects_nan():
    with pytest.raises(ValidationError, match="non-finite"):
        GraphPoint([0.0, np.nan], [0.0, 0.0])


def test_point_rejects_inf():
    with pytest.raises(ValidationError):
        GraphPoint([0.0, 0.0], [np.inf, 0.0])


def test_point_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension"):
        GraphPoint([1.0, 2.0], [1.0])


def test_graph_requires_points():
    for empty in ([], np.zeros((0, 2))):
        with pytest.raises(ValidationError, match="at least one point"):
            OperatorGraph.from_arrays(empty, empty)


def test_graph_dimension_positive():
    # a graph in memory may live on R^0 (a sample reduced to the trivial
    # span), but a graph file must name a positive dimension
    assert OperatorGraph.from_arrays(np.zeros((1, 0)), np.zeros((1, 0))).dimension == 0
    with pytest.raises(ValidationError, match="positive"):
        load_graph(b'{"dimension": 0, "points": [{"x": [], "xstar": []}]}', "json")


def test_graph_point_dimension_checked():
    # rows of the wrong length, whole or in part, never make a graph
    with pytest.raises(ValidationError, match="shape"):
        OperatorGraph.from_arrays([[1.0]], [[2.0, 0.0]])
    with pytest.raises(ValidationError, match="shape"):
        OperatorGraph.from_arrays([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValidationError, match="array of reals"):
        OperatorGraph.from_arrays([[1.0, 2.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]])
    # the one constructor, under both of its names
    assert OperatorGraph(np.eye(2), np.eye(2)) == OperatorGraph.from_arrays(np.eye(2), np.eye(2))


def test_points_and_graphs_compare_and_print_as_values():
    g = simple_graph()
    point = g.points[0]
    # another type is not equal, whatever its contents
    assert point != (point.x, point.xstar) and g != (g.primal_matrix, g.dual_matrix)
    assert repr(GraphPoint([1.0, 2.0], [0.5, -0.0])) == "GraphPoint(x=[1.0, 2.0], xstar=[0.5, -0.0])"
    assert repr(g) == "OperatorGraph(dimension=2, points=<3>)"


def test_points_are_immutable():
    g = simple_graph()
    with pytest.raises(ValueError):
        g.points[0].x[0] = 99.0
    assert g.primal_matrix is g.primal_matrix
    for rows in (g.primal_matrix, g.dual_matrix):
        with pytest.raises(ValueError):
            rows[0, 0] = 99.0
    source = np.zeros((2, 2))
    copied = OperatorGraph.from_arrays(source, source)
    source[0, 0] = 99.0
    assert copied.primal_matrix[0, 0] == 0.0


def test_tolerance_rejects_negative():
    with pytest.raises(ValidationError):
        ToleranceConfig(abs_tol=-1e-9)


def test_tolerance_rejects_both_zero():
    with pytest.raises(ValidationError):
        ToleranceConfig(abs_tol=0.0, rel_tol=0.0)


def test_tolerance_rejects_a_margin_that_overflows():
    # the margin at the floored scale 1 is abs_tol + rel_tol
    with pytest.raises(ValidationError, match=r"^abs_tol \+ rel_tol overflows double precision$"):
        ToleranceConfig(abs_tol=1e308, rel_tol=1e308)
    assert ToleranceConfig(abs_tol=1e308, rel_tol=0.0).margin(1.0) == 1e308


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "1e-9", None, 10**400])
def test_tolerance_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="finite"):
        ToleranceConfig(**{field: value})


def test_tolerance_one_sided_zero_allowed():
    ToleranceConfig(abs_tol=0.0, rel_tol=1e-12)
    ToleranceConfig(abs_tol=1e-12, rel_tol=0.0)


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("zero", [-0.0, np.float32(-0.0)])
def test_tolerance_reads_negative_zero_as_zero(field, zero):
    tol = ToleranceConfig(**{field: zero})
    assert not np.signbit(getattr(tol, field))
    assert f'"{field}": 0.0' in dumps_canonical(tol.to_dict())


def test_tolerance_stores_numpy_scalars_as_floats():
    tol = ToleranceConfig(abs_tol=np.float32(1e-9), rel_tol=np.int64(0))
    assert type(tol.abs_tol) is float and type(tol.rel_tol) is float
    assert tol.abs_tol == float(np.float32(1e-9)) and tol.rel_tol == 0.0
    assert dumps_canonical(tol.to_dict()) == f'{{"abs_tol": {float(np.float32(1e-9))!r}, "rel_tol": 0.0}}'


# ---------------------------------------------------------------------------
# domain
# ---------------------------------------------------------------------------

def test_domain_single_point():
    g = OperatorGraph.from_arrays([[1.0, 2.0]], [[0.0, 0.0]])
    reps = domain(g)
    assert len(reps) == 1
    np.testing.assert_array_equal(reps[0], [1.0, 2.0])


def test_domain_multivalued_duplicate():
    g = OperatorGraph.from_arrays(
        [[1.0, 2.0], [1.0, 2.0]], [[0.0, 0.0], [5.0, 5.0]]
    )
    assert len(domain(g)) == 1


def test_domain_three_distinct_of_five():
    # two pairs differ by ~1e-10, below the default tolerance
    a = np.array([0.3, 0.7])
    b = np.array([1.2, -0.4])
    c = np.array([5.0, 5.0])
    primal = [a, a + 7e-11, b, b - 4e-11, c]
    dual = [np.zeros(2)] * 5
    g = OperatorGraph.from_arrays(primal, dual)
    reps = domain(g)
    assert len(reps) == 3
    np.testing.assert_array_equal(reps[0], a)
    np.testing.assert_array_equal(reps[1], b)
    np.testing.assert_array_equal(reps[2], c)


@pytest.mark.filterwarnings("error")
def test_closeness_overflow_raises():
    # a norm of a 1e200 point overflows to inf, and an infinite distance
    # within an infinite allowance must not read as close
    far = OperatorGraph.from_arrays([[1e200, 0.0], [0.0, 1e200], [3e200, 1e200]], np.zeros((3, 2)))
    with pytest.raises(ValidationError, match=r"^the distance from points\[1\]\.x to points\[0\]\.x "
                                              "overflows double precision"):
        domain(far)
    # no pair is near (0, 0)
    g = OperatorGraph.from_arrays([[1e200, 0.0], [1.0, 1.0]], [[1e200, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match=r"^points\[0\]\.x overflows double precision"):
        contains_origin(g)


def test_domain_first_appearance_order():
    g = OperatorGraph.from_arrays(
        [[2.0], [1.0], [2.0], [0.0]],
        [[0.0], [0.0], [9.0], [0.0]],
    )
    reps = domain(g)
    assert [float(r[0]) for r in reps] == [2.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# inverse and translate
# ---------------------------------------------------------------------------

def test_inverse_swaps_components():
    g = simple_graph()
    inv = inverse_graph(g)
    for p, q in zip(g.points, inv.points):
        np.testing.assert_array_equal(p.x, q.xstar)
        np.testing.assert_array_equal(p.xstar, q.x)


def test_inverse_is_involution():
    g = simple_graph()
    assert inverse_graph(inverse_graph(g)) == g


def test_inverse_preserves_bimonotone():
    for seed in range(5):
        fix = make_fixture(FixtureSpec(n=5, k=2, m=6, branches=2,
                                       noise_orthogonal=0.5, seed=seed))
        rep = bimonotone_check(fix.graph)
        rep_inv = bimonotone_check(inverse_graph(fix.graph))
        assert rep.verdict and rep_inv.verdict
        assert rep.worst_violation == rep_inv.worst_violation


def test_translate_moves_basepoint_to_zero():
    g = simple_graph()
    t = translate(g, g.points[1].x, g.points[1].xstar)
    np.testing.assert_array_equal(t.points[1].x, np.zeros(2))
    np.testing.assert_array_equal(t.points[1].xstar, np.zeros(2))


def test_translate_by_zero_is_identity():
    g = simple_graph()
    assert translate(g, np.zeros(2), np.zeros(2)) == g


def test_translate_dimension_error_names_argument():
    g = simple_graph()
    with pytest.raises(ValidationError, match=r"^u has dimension"):
        translate(g, np.zeros(3), np.zeros(2))
    with pytest.raises(ValidationError, match=r"^ustar has dimension"):
        translate(g, np.zeros(2), np.zeros(3))


def test_translate_round_trip_close():
    rng = np.random.Generator(np.random.Philox(3))
    g = OperatorGraph.from_arrays(rng.normal(size=(7, 3)), rng.normal(size=(7, 3)))
    u = rng.normal(size=3)
    ustar = rng.normal(size=3)
    back = translate(translate(g, u, ustar), -u, -ustar)
    for p, q in zip(g.points, back.points):
        np.testing.assert_allclose(q.x, p.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.xstar, p.xstar, rtol=0, atol=1e-12)


def test_translate_preserves_pairings():
    rng = np.random.Generator(np.random.Philox(4))
    g = OperatorGraph.from_arrays(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)))
    t = translate(g, rng.normal(size=3), rng.normal(size=3))
    before = oracles.pairwise_products(g)
    after = oracles.pairwise_products(t)
    for key in before:
        assert abs(before[key] - after[key]) <= 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_load_json_minimal():
    text = b'{"dimension": 2, "points": [{"x": [1, 0], "xstar": [0, 1]}]}'
    g = load_graph(text, "json")
    assert g.dimension == 2
    np.testing.assert_array_equal(g.points[0].x, [1.0, 0.0])
    np.testing.assert_array_equal(g.points[0].xstar, [0.0, 1.0])


def test_load_json_from_stream():
    text = b'{"dimension": 1, "points": [{"x": [2], "xstar": [3]}]}'
    g = load_graph(io.BytesIO(text), "json")
    assert g.dimension == 1


def test_load_json_unknown_top_key():
    text = b'{"dimension": 1, "points": [], "extra": 1}'
    with pytest.raises(ParseError, match="unknown key 'extra'"):
        load_graph(text, "json")


def test_load_json_unknown_point_key():
    text = b'{"dimension": 1, "points": [{"x": [1], "xstar": [2], "tag": 3}]}'
    with pytest.raises(ParseError, match="unknown key 'tag'"):
        load_graph(text, "json")


def test_load_json_wrong_vector_length():
    text = b'{"dimension": 2, "points": [{"x": [1, 2, 3], "xstar": [0, 0]}]}'
    with pytest.raises(ValidationError, match=r"points\[0\].x has length 3"):
        load_graph(text, "json")


def test_load_json_rejects_infinity_token():
    text = b'{"dimension": 1, "points": [{"x": [Infinity], "xstar": [0]}]}'
    with pytest.raises(ParseError, match=r"^invalid JSON at line 1, column [0-9]+: "):
        load_graph(text, "json")


def test_load_json_malformed_reports_position():
    with pytest.raises(ParseError, match="line"):
        load_graph(b'{"dimension": 2,', "json")


def test_load_json_empty_points_rejected():
    with pytest.raises(ValidationError, match="at least one point"):
        load_graph(b'{"dimension": 2, "points": []}', "json")


def test_load_csv_row_convention():
    g = load_graph(b"1,0,0,1\n", "csv")
    assert g.dimension == 2
    np.testing.assert_array_equal(g.points[0].x, [1.0, 0.0])
    np.testing.assert_array_equal(g.points[0].xstar, [0.0, 1.0])


def test_load_csv_header_detected():
    g = load_graph(b"x1,x2,s1,s2\n1,0,0,1\n", "csv")
    assert len(g.points) == 1


def test_load_csv_bad_field_names_line_and_field():
    with pytest.raises(ParseError, match="line 2, field 3"):
        load_graph(b"1,0,0,1\n2,0,oops,1\n", "csv")


def test_load_csv_inconsistent_columns():
    with pytest.raises(ParseError, match="line 2"):
        load_graph(b"1,0,0,1\n1,0,0\n", "csv")


def test_load_csv_odd_columns():
    with pytest.raises(ParseError, match="even number"):
        load_graph(b"1,0,0\n", "csv")


@pytest.mark.parametrize("field", ["1_0", "+1", ".5", "1.", "01", "0x10", "1e", "\u0661"])
def test_load_csv_fields_follow_the_json_number_rule(field):
    # a spelling that a JSON graph rejects is not a number in a CSV graph
    with pytest.raises(ParseError):
        load_graph(b'{"dimension": 1, "points": [{"x": [%s], "xstar": [0]}]}' % field.encode(), "json")
    with pytest.raises(ParseError, match=re.escape(f"line 1, field 1: not a number: {field!r}")):
        load_graph(f"{field},0,0,1\n".encode(), "csv")


def test_load_csv_reads_json_numbers():
    g = load_graph(b" -0 ,1E+2,2.5e-1\t,-12.75e0\n", "csv")
    np.testing.assert_array_equal(g.primal_matrix, [[-0.0, 100.0]])
    np.testing.assert_array_equal(g.dual_matrix, [[0.25, -12.75]])


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_load_csv_ends_a_row_only_at_a_line_break(separator):
    # str.splitlines also breaks at these; a CSV row ends at \n, \r\n or \r
    message = "line 1: expected an even number of columns (x then xstar), found 3"
    with pytest.raises(ParseError, match=re.escape(message)):
        load_graph(f"1,2{separator}3,4\n".encode(), "csv")


@pytest.mark.parametrize("data", [b"1,2\r3,4\r", b"1,2\r\n3,4\r\n", b"1,2\n3,4"])
def test_load_csv_reads_every_line_break(data):
    g = load_graph(data, "csv")
    np.testing.assert_array_equal(g.primal_matrix, [[1.0], [3.0]])
    with pytest.raises(ParseError, match=re.escape("line 2, field 2: not a number")):
        load_graph(data.replace(b"4", b"x"), "csv")


def test_load_csv_pads_a_field_only_with_spaces_and_tabs():
    with pytest.raises(ParseError, match=re.escape("line 1, field 1: not a number")):
        load_graph("\u00a01,2\n".encode(), "csv")


def test_load_csv_rejects_nan_token():
    with pytest.raises(ParseError, match="non-finite"):
        load_graph(b"nan,0,0,1\n", "csv")


@pytest.mark.parametrize("data", [b"\xef\xbb\xbf1,0,0,1\n2,0,0,2\n", b"\xef\xbb\xbfx1,x2,s1,s2\n1,0,0,1\n2,0,0,2\n"])
def test_load_csv_drops_a_byte_order_mark(data):
    g = load_graph(data, "csv")
    np.testing.assert_array_equal(g.primal_matrix, [[1.0, 0.0], [2.0, 0.0]])


def test_load_csv_first_row_with_a_number_is_data():
    # only a row in which no field reads as a number is a header
    with pytest.raises(ParseError, match=re.escape("line 1, field 1: not a number: '1.0.0'")):
        load_graph(b"1.0.0,0,0,1\n2,0,0,2\n", "csv")
    with pytest.raises(ParseError, match=re.escape("line 3, field 1: not a number: 'x1'")):
        load_graph(b"\n1,0,0,1\nx1,x2,s1,s2\n", "csv")


def test_load_json_with_a_byte_order_mark_is_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON at line 1, column 1"):
        load_graph(b'\xef\xbb\xbf{"dimension": 1, "points": [{"x": [0.0], "xstar": [0.0]}]}', "json")


def test_load_unknown_format():
    with pytest.raises(ValidationError, match="unknown format"):
        load_graph(b"", "xml")


def test_save_unknown_format():
    with pytest.raises(ValidationError, match="^unknown format 'xml'; expected 'json' or 'csv'$"):
        save_graph(simple_graph(), "xml")


def _random_wide_range_graph(seed, m=1000, n=3):
    rng = np.random.Generator(np.random.Philox(seed))
    mag = 10.0 ** rng.uniform(-12, 12, size=(m, 2 * n))
    vals = rng.normal(size=(m, 2 * n)) * mag
    return OperatorGraph.from_arrays(vals[:, :n], vals[:, n:])


def test_saved_bytes_use_shortest_round_trip_floats():
    g = OperatorGraph.from_arrays([[0.0, 1e-9], [9.9999999999999997e+199, -2.5]],
                                  [[0.1, 3.0], [-0.0, 1e22]])
    assert save_graph(g, "json") == (
        b'{"dimension": 2, "points": [{"x": [0.0, 1e-09], "xstar": [0.1, 3.0]}, '
        b'{"x": [1e+200, -2.5], "xstar": [-0.0, 1e+22]}]}\n'
    )
    assert save_graph(g, "csv") == b"0.0,1e-09,0.1,3.0\n1e+200,-2.5,-0.0,1e+22\n"
    with pytest.raises(ValidationError, match="non-finite"):
        dumps_canonical({"max_residual": float("nan")})


def test_save_load_json_round_trip_exact():
    g = _random_wide_range_graph(10)
    assert load_graph(save_graph(g, "json"), "json") == g


def test_save_load_csv_round_trip_exact():
    g = _random_wide_range_graph(11)
    assert load_graph(save_graph(g, "csv"), "csv") == g


# sha256 of both formats, pinned before save_graph formatted repeated rows
# once: branches repeat every primal row, and the zero operator repeats the
# duals of every branch too
@pytest.mark.parametrize("spec, json_sha, csv_sha", [
    (FixtureSpec(n=4, k=2, m=6, offset_norm=1.0, seed=1),
     "1f9e45f5ffc25ef30cf2271d33e38462acfbaafc2d8f2de975a62da5fe3391f0",
     "ad75989b5028b5067c63f4f2cae443de7e8e213c2b0960ee4599cb5ae09c31e7"),
    (FixtureSpec(n=5, k=3, m=7, branches=2, offset_norm=1.0, noise_orthogonal=1.0, seed=2),
     "e0c8b957a266b41d41433c31f37e3b77d38f66b11de8727acea396cf817b1f28",
     "1a8b1988347c80311cfeb5c8d46f1799c884a23932c43456d571b05079736911"),
    (FixtureSpec(n=3, k=2, m=5, branches=3, offset_norm=0.5, seed=3),
     "9f5cf7087d94433b2e36e748a8b3523b035f8135271b4d4c1c5f4b2310c7420d",
     "eb4781423eb102cb72974e95b03a5a17dae59a229f7c6c37630143be854f1066"),
    (FixtureSpec(n=3, k=3, m=4, branches=2, offset_norm=1.0, zero_operator=True, seed=4),
     "ed70d14ac1719fabd6ba995924a05074d92126509c8be400ee3d56c196d2b673",
     "0eb5d88b4e3ed262f76c0b307abeefeb82d03259ae53f5bed3877205a3f609b2"),
])
def test_saved_fixture_bytes_are_pinned(spec, json_sha, csv_sha):
    g = make_fixture(spec).graph
    assert hashlib.sha256(save_graph(g, "json")).hexdigest() == json_sha
    assert hashlib.sha256(save_graph(g, "csv")).hexdigest() == csv_sha


def test_saved_rows_that_differ_only_in_the_sign_of_a_zero():
    # equal rows are equal bits: 0.0 and -0.0 compare equal but are written apart
    g = OperatorGraph.from_arrays([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
                                  [[1.0, -0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert save_graph(g, "json") == (
        b'{"dimension": 2, "points": [{"x": [0.0, 1.0], "xstar": [1.0, -0.0]}, '
        b'{"x": [-0.0, 1.0], "xstar": [1.0, 0.0]}, {"x": [-0.0, 1.0], "xstar": [1.0, 0.0]}, '
        b'{"x": [0.0, 1.0], "xstar": [1.0, 0.0]}]}\n'
    )
    assert save_graph(g, "csv") == b"0.0,1.0,1.0,-0.0\n-0.0,1.0,1.0,0.0\n-0.0,1.0,1.0,0.0\n0.0,1.0,1.0,0.0\n"
    assert load_graph(save_graph(g, "json")).primal_matrix.tobytes() == g.primal_matrix.tobytes()


def _repr_bytes(g, fmt):
    """What ``save_graph`` writes, built from ``repr`` of every float."""
    rows = list(zip(g.primal_matrix.tolist(), g.dual_matrix.tolist()))
    if fmt == "csv":
        return "".join(",".join(map(repr, x + s)) + "\n" for x, s in rows).encode()
    points = ", ".join(f'{{"x": [{", ".join(map(repr, x))}], "xstar": [{", ".join(map(repr, s))}]}}'
                       for x, s in rows)
    return f'{{"dimension": {g.dimension}, "points": [{points}]}}\n'.encode()


# where repr switches between fixed and exponent notation, with the ulps on
# either side, and the ends of the double range
_NOTATION_EDGES = [float(v) for base in (1e-05, 1e-04, 1e16)
                   for v in (np.nextafter(base, 0.0), base, np.nextafter(base, np.inf))]
_NOTATION_EDGES += [5e-324, 1.7976931348623157e308, 0.0]
_any_float = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(_NOTATION_EDGES + [-v for v in _NOTATION_EDGES]))


@st.composite
def any_float_graphs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    table = np.array(draw(st.lists(_any_float, min_size=2 * n * m, max_size=2 * n * m))).reshape(m, 2 * n)
    return OperatorGraph(table[:, :n], table[:, n:])


@settings(derandomize=True, max_examples=300)
@given(any_float_graphs())
def test_saved_bytes_spell_every_float_as_repr(g):
    for fmt in ("json", "csv"):
        assert save_graph(g, fmt) == _repr_bytes(g, fmt)


def test_saved_bytes_respell_a_writer_that_uses_exponents(monkeypatch):
    # a writer with the same shortest digits in exponent form everywhere,
    # as some orjson release might use for a part of repr's fixed range
    def spell(a):
        if a.ndim:
            return "[" + ",".join(map(spell, a)) + "]"
        return "null" if np.isnan(a) else np.format_float_scientific(a, unique=True, trim="-")
    dumps = lambda a, option: spell(a).encode()
    monkeypatch.setattr(graphs.orjson, "dumps", dumps)
    g = _random_wide_range_graph(12, m=40)
    for fmt in ("json", "csv"):
        assert save_graph(g, fmt) == _repr_bytes(g, fmt)


def test_saved_bytes_of_many_rows_spell_every_float_as_repr():
    # exponent-form values scattered over both halves of 1200 rows, the first
    # and the last row of each half among them, amid fixed-notation values
    rng = np.random.Generator(np.random.Philox(14))
    m, n = 1200, 3
    table = rng.normal(size=(m, 2 * n))
    rows = np.concatenate([[0, 0, m - 1, m - 1], rng.integers(m, size=60)])
    cols = np.concatenate([[0, n, n - 1, 2 * n - 1], rng.integers(2 * n, size=60)])
    table[rows, cols] = rng.choice([1e-5, -3.25e-7, 5e-324, 1e16, -2.5e20, 1.7976931348623157e308], size=64)
    g = OperatorGraph.from_arrays(table[:, :n], table[:, n:])
    for fmt in ("json", "csv"):
        assert save_graph(g, fmt) == _repr_bytes(g, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_save_refuses_a_graph_that_load_refuses(fmt):
    # a sample reduced to a rank-0 basis has dimension 0, and no document of it loads
    g = reduce(OperatorGraph([[0.0, 0.0]], [[1.0, 2.0]]), span_basis(np.zeros((1, 2))))
    assert g.dimension == 0
    with pytest.raises(ValidationError, match="^a graph of dimension 0 cannot be saved$"):
        save_graph(g, fmt)
    with pytest.raises(ValidationError, match="^dimension must be a positive integer$"):
        load_graph(b'{"dimension": 0, "points": [{"x": [], "xstar": []}]}')


_coords = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False, width=64
)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    rows = st.lists(st.lists(_coords, min_size=n, max_size=n), min_size=m, max_size=m)
    return OperatorGraph.from_arrays(draw(rows), draw(rows))


@settings(derandomize=True, max_examples=60)
@given(small_graphs())
def test_round_trip_property_json(g):
    assert load_graph(save_graph(g, "json"), "json") == g


@settings(derandomize=True, max_examples=60)
@given(small_graphs())
def test_round_trip_property_csv(g):
    assert load_graph(save_graph(g, "csv"), "csv") == g


@settings(derandomize=True, max_examples=60)
@given(small_graphs())
def test_involution_property(g):
    assert inverse_graph(inverse_graph(g)) == g


@pytest.mark.parametrize(
    "text, error, message",
    [
        (b"[1, 2]", ParseError, "top-level JSON value must be an object"),
        (b'{"dimension": 1, "points": [], "zeta": 1, "alpha": 2}', ParseError,
         "unknown key 'alpha' in graph document"),
        (b"{}", ParseError, "graph document is missing key 'dimension'"),
        (b'{"dimension": 1}', ParseError, "graph document is missing key 'points'"),
        (b'{"dimension": 1, "points": {}}', ParseError, "points must be an array"),
        (b'{"dimension": 1, "points": [[1, 2]]}', ParseError, "points[0] must be an object"),
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [0]}, {}]}', ParseError,
         "points[1] is missing key 'x'"),
        (b'{"dimension": 1, "points": [{"x": [0]}]}', ParseError,
         "points[0] is missing key 'xstar'"),
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [0], "w": 1, "v": 2}]}', ParseError,
         "unknown key 'v' in points[0]"),
        (b'{"dimension": 1, "points": [{"x": 1, "xstar": [0]}]}', ParseError,
         "points[0].x must be an array of numbers"),
        # readers decode and the constructor checks the numbers
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [true]}]}', ValidationError,
         "dual is not an array of reals: points[0].xstar[0] is a bool; only numbers are allowed"),
        (b'{"dimension": 2, "points": [{"x": [0, "1"], "xstar": [0, 0]}]}', ValidationError,
         "primal is not an array of reals: points[0].x[1] is a str; only numbers are allowed"),
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [0]}, {"x": [null], "xstar": [0]}]}',
         ValidationError,
         "primal is not an array of reals: points[1].x[0] is None; only numbers are allowed"),
        (b'{"dimension": 1, "points": [{"x": [[0]], "xstar": [0]}]}', ValidationError,
         "primal rows have shape (1, 1, 1), dual rows (1, 1)"),
        (b'{"dimension": true, "points": []}', ValidationError, "dimension must be an integer"),
        (b'{"dimension": 1.0, "points": []}', ValidationError, "dimension must be an integer"),
        (b'{"dimension": "1", "points": []}', ValidationError, "dimension must be an integer"),
    ],
)
def test_load_json_error_messages(text, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        load_graph(text, "json")


# the reader's messages for each kind of leaf that is not a float, which are
# the array rule's, since the reader hands its rows to the constructor: in x
# of point 1, in xstar of point 2, and in both, where the primal is named first
_LEAF_MESSAGES = {
    "bool": (True, "{side} is not an array of reals: {where} is a bool; only numbers are allowed"),
    "str": ("1.0", "{side} is not an array of reals: {where} is a str; only numbers are allowed"),
    "None": (None, "{side} is not an array of reals: {where} is None; only numbers are allowed"),
    "list": ([1.0], "{side} is not an array of reals: it is ragged at {where}"),
    "dict": ({"a": 1.0}, "{side} is not an array of reals: {where} is a dict; only numbers are allowed"),
}


@pytest.mark.parametrize("kind", sorted(_LEAF_MESSAGES))
@pytest.mark.parametrize("place", ["x", "xstar", "both"])
def test_load_json_names_the_first_leaf_that_is_not_a_real(kind, place):
    leaf, message = _LEAF_MESSAGES[kind]
    points = [{"x": [1.0, 2.0], "xstar": [0.5, 0.25]} for _ in range(3)]
    if place != "xstar":
        points[1]["x"] = [1.0, leaf]
    if place != "x":
        points[2]["xstar"] = [leaf, 0.25]
    side, where = ("dual", "points[2].xstar[0]") if place == "xstar" else ("primal", "points[1].x[1]")
    text = json.dumps({"dimension": 2, "points": points}).encode()
    with pytest.raises(ValidationError, match="^" + re.escape(message.format(side=side, where=where)) + "$"):
        load_graph(text)


def test_load_json_reads_integers_as_their_nearest_doubles():
    # integers mixed with floats read bit for bit as float(int) does
    ints = [0, -0, 7, 2**53 + 1, -(2**63) - 1, 10**300]
    text = json.dumps({"dimension": 3, "points": [
        {"x": [ints[i], 0.5, -0.0], "xstar": [1.5, ints[-1 - i], 2]} for i in range(len(ints))]})
    g = load_graph(text.encode())
    assert g.primal_matrix[:, 0].tobytes() == np.array([float(i) for i in ints]).tobytes()
    assert g.dual_matrix[:, 1].tobytes() == np.array([float(i) for i in ints[::-1]]).tobytes()
    assert g.primal_matrix[:, 2].tobytes() == np.full(len(ints), -0.0).tobytes()
    assert g == load_graph(save_graph(g))


_json_leaves = (st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**63), 2**63 - 1)
                | st.text() | st.booleans() | st.none())
_json_values = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=4)
                            | st.dictionaries(st.text(), inner, max_size=4), max_leaves=30)


@settings(derandomize=True, max_examples=300)
@given(st.dictionaries(st.text(), _json_values, max_size=5), st.booleans())
def test_load_json_object_reads_what_json_loads_reads(doc, ascii):
    # repr tells -0.0 from 0.0 and 1 from 1.0; escapes are json.dumps's
    text = json.dumps(doc, ensure_ascii=ascii).encode()
    assert repr(load_json_object(text)) == repr(json.loads(text))


def test_load_json_object_reads_integers_beyond_64_bits_as_doubles():
    # the one difference from json.loads on a document that both read: an
    # integer literal outside [-2**63, 2**64) reads as its nearest double
    text = b'{"a": [18446744073709551615, 18446744073709551616, -9223372036854775808, ' \
           b'-9223372036854775809, 1' + b"0" * 300 + b']}'
    assert repr(load_json_object(text)) == repr({"a": [2**64 - 1, float(2**64), -(2**63), float(-(2**63) - 1), 1e300]})
    with pytest.raises(ValidationError, match="^dimension must be an integer$"):
        load_graph(b'{"dimension": 18446744073709551616, "points": [{"x": [0.0], "xstar": [0.0]}]}')


# the refusals whose message skewfit writes itself
@pytest.mark.parametrize("text, message", [
    (b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b'}', "JSON nested too deeply"),
    (b"[1]", "top-level JSON value must be an object"),
    (b'"a"', "top-level JSON value must be an object"),
])
def test_load_json_object_keeps_every_refusal_message(text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        load_json_object(text)


# orjson words these refusals, and its words and columns may change between
# releases, so only the line of the position is pinned
_MALFORMED_JSON = {
    "empty": (b"", 1),
    "truncated": (b'{"a": 1,', 1),
    "truncated after a newline": (b'{"a": 1,\n', 2),
    "extra data": (b'{"a": 1} x', 1),
    "trailing comma": (b'{"a": [1, 2,]}', 1),
    "leading zero": (b'{"a": 01}', 1),
    "control character": (b'{"a": "\x01"}', 1),
    "NaN": (b'{"a": NaN}', 1),
    "-Infinity": (b'{"a": -Infinity}', 1),
    "5000 digits": (b'{"a": ' + b"1" * 5000 + b'}', 1),
    "integer beyond double range": (b'{"a": ' + str(10**400).encode() + b'}', 1),
    "1e400": (b'{"a": 1e400, "b": -1e999}', 1),
    "1e400 in a graph": (b'{"dimension": 1, "points": [{"x": [1e400], "xstar": [0]}]}', 1),
    "lone surrogates": (b'{"a": "\\ud800", "b": "\\udc00x"}', 1),
    "byte order mark": (b'\xef\xbb\xbf{"a": 1}', 1),
}


@pytest.mark.parametrize("kind", list(_MALFORMED_JSON))
def test_load_json_object_refuses_malformed_json_at_its_line(kind):
    text, line = _MALFORMED_JSON[kind]
    with pytest.raises(ParseError, match=rf"^invalid JSON at line {line}, column [1-9][0-9]*: .+$"):
        load_json_object(text)


# bytes that are not UTF-8 are named by the first bad byte and its offset,
# in Python's words, whatever orjson says of them
@pytest.mark.parametrize("text, byte, position", [
    (b'{"a": "\xff"}', "0xff", 7),
    (b'{"n": 3, "k": 2, "m": 5, "seed": 1}\xff\xfe\n', "0xff", 35),
    (b'{"a": "\xc3("}', "0xc3", 7),
], ids=["in a string", "after the object", "bad continuation"])
def test_load_json_object_names_the_byte_that_is_not_utf8(text, byte, position):
    with pytest.raises(ParseError, match=rf"^input is not valid UTF-8: 'utf-8' codec can't decode "
                                         rf"byte {byte} in position {position}: "):
        load_json_object(text)


def _nested(depth: int, decoy: bytes) -> bytes:
    """A JSON object whose key ``a`` holds arrays, ``depth`` deep in all,
    after the members ``decoy``."""
    return b"{" + decoy + b'"a": ' + b"[" * (depth - 1) + b"]" * (depth - 1) + b"}"


# brackets inside strings, plain or after an escaped quote or backslash, that
# a count of the brackets must skip: each decoy moves a wrong count past 64
# one way or the other
_DECOYS = {"none": b"", "closers": b'"k": "]]]}}", ', "openers": b'"k": "[[[{{", ',
           "escaped quote": b'"k": "\\"]]", ', "escaped backslash": b'"k": "\\\\", "j": "[[[", '}


@pytest.mark.parametrize("decoy", list(_DECOYS))
def test_load_json_object_reads_64_deep_and_refuses_65_deep_unread(decoy, monkeypatch):
    text = _nested(64, _DECOYS[decoy])
    assert repr(load_json_object(text)) == repr(json.loads(text))

    def unreachable(data):
        raise AssertionError("orjson.loads was called")

    monkeypatch.setattr(orjson, "loads", unreachable)
    with pytest.raises(ParseError, match="^JSON nested too deeply$"):
        load_json_object(_nested(65, _DECOYS[decoy]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GraphPoint(["a"], [1.0]),
        lambda: GraphPoint([[0.0], [1.0, 2.0]], [1.0]),
        lambda: translate(simple_graph(), "x", np.zeros(2)),
        lambda: translate(simple_graph(), np.zeros(2), [{}, 1.0]),
        # str, bytes and bool are not reals, even where numpy would convert them
        lambda: OperatorGraph([["1.5", True]], [[0.0, 0.0]]),
        lambda: GraphPoint([True], [1.0]),
        lambda: GraphPoint([b"1"], [1.0]),
        lambda: GraphPoint(np.array([True]), [1.0]),
        lambda: span_basis([["1", "0"]]),
        lambda: translate(simple_graph(), ["1", "0"], np.zeros(2)),
    ],
)
def test_vectors_that_are_not_reals_raise_validation_error(build):
    with pytest.raises(ValidationError, match="not an array of reals"):
        build()


@pytest.mark.parametrize(
    "primal",
    [
        np.array([[1.5, -2.0]], dtype=np.float32),
        np.array([[3, -2]], dtype=np.int64),
        np.array([[3, 2]], dtype=np.uint8),
        [[np.float32(1.5), np.int64(-2)]],
        [np.array([1.5, -2.0], dtype=np.float32)],
    ],
)
def test_real_arrays_and_numpy_scalars_are_accepted(primal):
    g = OperatorGraph(primal, [[0, 0.5]])
    assert g.primal_matrix.dtype == np.float64 and g.dual_matrix.dtype == np.float64
    np.testing.assert_array_equal(g.primal_matrix, np.array(primal, dtype=np.float64))
    np.testing.assert_array_equal(GraphPoint(primal[0], [0, 0.5]).x, g.primal_matrix[0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OperatorGraph([[0.0, 1.0], [1.0, "2"]], [[0.0, 0.0], [0.0, 0.0]]),
         "primal is not an array of reals: points[1].x[1] is a str; only numbers are allowed"),
        (lambda: OperatorGraph([[0.0, 1.0]], [[0.0, [1.0]]]),
         "dual is not an array of reals: it is ragged at points[0].xstar[1]"),
        (lambda: GraphPoint([0.0, 10**400], [0.0, 0.0]), "x overflows double precision"),
        (lambda: translate(simple_graph(), np.zeros(2), [1.0, 1 + 2j]),
         "ustar is not an array of reals: ustar[1] is a complex; only numbers are allowed"),
    ],
)
def test_array_rule_names_the_first_entry_that_is_not_a_real(build, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OperatorGraph([[None]], [[1.0]]), "primal is not an array of reals"),
        (lambda: OperatorGraph([[1.0]], [[None]]), "dual is not an array of reals"),
        (lambda: translate(simple_graph(), np.zeros(2), [None, 1.0]), "ustar is not an array of reals"),
        (lambda: GraphPoint([0.0, None], [1.0, 1.0]), "x is not an array of reals"),
    ],
)
def test_none_is_not_a_real(build, message):
    # numpy reads None as NaN, which must not pass for a non-finite real
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        build()


def test_array_rule_names_what_numpy_cannot_hold():
    # arrays of different shapes fill no object array, so numpy raises
    # ValueError, reported as the array rule's error
    with pytest.raises(ValidationError, match="^primal is not an array of reals: could not broadcast "):
        OperatorGraph([np.zeros((2, 2)), np.zeros((2, 3))], [[0, 0], [0, 0]])


def test_dumps_canonical_rejects_numpy_values():
    # every writer hands plain Python values to the serializer
    for value in (np.zeros(2), np.int64(3)):
        with pytest.raises(ValidationError, match="not JSON serializable"):
            dumps_canonical({"value": value})


@pytest.mark.parametrize("depth", [33, 900])
def test_points_nested_past_numpy_axes_raise_validation_error(depth):
    # numpy's functions take at most 32 axes; deeper input is not an array
    # (older numpy reads it as ragged)
    x = [0.0]
    for _ in range(depth - 1):
        x = [x]
    with pytest.raises(ValidationError, match="^primal is not an array of reals"):
        OperatorGraph([x], [[0.0]])
    with pytest.raises(ValidationError, match="^dual is not an array of reals"):
        OperatorGraph([[0.0]], [x])
