import io
import re

import numpy as np
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
    save_graph,
    translate,
)
from skewfit.fixtures import FixtureSpec
from skewfit.graphs import contains_origin

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


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "1e-9", None, 10**400])
def test_tolerance_rejects_non_finite(field, value):
    with pytest.raises(ValidationError, match="finite"):
        ToleranceConfig(**{field: value})


def test_tolerance_one_sided_zero_allowed():
    ToleranceConfig(abs_tol=0.0, rel_tol=1e-12)
    ToleranceConfig(abs_tol=1e-12, rel_tol=0.0)


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
    with pytest.raises(ParseError, match="non-finite"):
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
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [true]}]}', ParseError,
         "points[0].xstar[0] is not a number"),
        (b'{"dimension": 1, "points": [{"x": [1e400], "xstar": [0]}]}', ValidationError,
         "points[0].x contains non-finite entries"),
        (b'{"dimension": 1, "points": [{"x": [0], "xstar": [0]}, {"x": [0], "xstar": [-1e400]}]}',
         ValidationError, "points[1].xstar contains non-finite entries"),
    ],
)
def test_load_json_error_messages(text, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        load_graph(text, "json")


@pytest.mark.parametrize(
    "build",
    [
        lambda: GraphPoint(["a"], [1.0]),
        lambda: GraphPoint([[0.0], [1.0, 2.0]], [1.0]),
        lambda: translate(simple_graph(), "x", np.zeros(2)),
        lambda: translate(simple_graph(), np.zeros(2), [{}, 1.0]),
    ],
)
def test_vectors_that_are_not_reals_raise_validation_error(build):
    with pytest.raises(ValidationError, match="not an array of reals"):
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


def test_dumps_canonical_rejects_numpy_values():
    # every writer hands plain Python values to the serializer
    for value in (np.zeros(2), np.int64(3)):
        with pytest.raises(ValidationError, match="not JSON serializable"):
            dumps_canonical({"value": value})
