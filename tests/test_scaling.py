"""The paper's scaling (x, s) -> (2^k x, 2^-k s) keeps every pairing, so the
monotone, bimonotone and constant reports are scale-free, bit for bit.

Every norm is ``graphs._norm``'s, which takes a norm whose squares leave the
normal range by power-of-two scaling, so the reports of a sample mapped by
k in [-1000, 1000] equal its reports at k = 0 wherever every entry and every
difference of two rows stays finite and normal (zero included).  The
samples are planted fixtures, the first boundary samples and the hard
families of ``families``.

``decompose`` and ``verify`` never exit for overflow there: ``decompose``
succeeds exactly when the sample is bimonotone, and ``verify`` passes on its
output.  The skew fit scales as 2^-2k, but where it would leave double range
(k below about -511) the primal points lie within ``abs_tol`` of the origin,
so the span, and with it the fit, is empty.

The paramonotone report and the rank are not asserted.  The paramonotone
gaps are measured against max(|x_i|, |x_j|) and the rank against
``abs_tol``, neither of which is scale-free: at k = 500 the paramonotone
report of ``FixtureSpec(n=5, k=3, m=30, offset_norm=1.0, seed=0)`` goes from
False (7.2e8) to True.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewfit import (
    NotBimonotoneError,
    OperatorGraph,
    bimonotone_check,
    constant_on_domain_check,
    decompose,
    make_fixture,
    monotone_check,
    paramonotone_check,
    verify_reconstruction,
)
from skewfit.fixtures import FixtureSpec
from families import boundary_family, hard_families

FIXTURE = make_fixture(FixtureSpec(n=5, k=3, m=30, offset_norm=1.0, seed=0)).graph
SAMPLES = [
    FIXTURE,
    *(make_fixture(FixtureSpec(n=n, k=k, m=20, offset_norm=1.0, seed=seed)).graph
      for seed, (n, k) in enumerate([(2, 2), (4, 1), (6, 4)], start=1)),
    *boundary_family(40),
    *hard_families(3),
]
CHECKS = (monotone_check, bimonotone_check, constant_on_domain_check)
_SMALLEST_NORMAL = 2.0 ** -1022


def _scaled(g, k):
    return OperatorGraph.from_arrays(np.ldexp(g.primal_matrix, k), np.ldexp(g.dual_matrix, -k))


def _normal(g):
    """Whether every entry and every difference of two rows of ``g`` is
    zero or a finite normal double."""
    def normal(a):
        a = np.abs(a)
        return bool(np.all((a == 0) | ((a >= _SMALLEST_NORMAL) & (a < np.inf))))
    with np.errstate(over="ignore", invalid="ignore"):
        return all(normal(a) and normal(a[:, None, :] - a[None, :, :])
                   for a in (g.primal_matrix, g.dual_matrix))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [510, 520, -520])
def test_the_fixture_reads_the_same_far_beyond_a_squared_norms_range(k):
    # every square above about 1.3e154 overflows, and every one below about
    # 1.5e-154 loses bits: these maps make both, and change no report
    g = _scaled(FIXTURE, k)
    report = bimonotone_check(g)
    assert (report.worst_violation, report.witness) == (2.0838999495315821e-07, (5, 22))
    assert [check(g) for check in CHECKS] == [check(FIXTURE) for check in CHECKS]


def test_paramonotone_is_not_scale_free():
    # a gap's margin is abs_tol + rel_tol max(1, |x_i|, |x_j|): at 2^-500 every
    # dual gap is far inside its floor, so every crossed pair finds a match
    before, after = paramonotone_check(FIXTURE), paramonotone_check(_scaled(FIXTURE, 500))
    assert not before.verdict and 7e8 < before.worst_violation < 8e8
    assert after.verdict


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(range(len(SAMPLES))), st.integers(-1000, 1000))
def test_scaling_keeps_every_pairing_report(i, k):
    g, h = SAMPLES[i], _scaled(SAMPLES[i], k)
    if not _normal(h):
        return
    assert [repr(check(h)) for check in CHECKS] == [repr(check(g)) for check in CHECKS]
    bimonotone = bimonotone_check(g).verdict
    try:
        dec = decompose(h)
    except NotBimonotoneError:
        assert not bimonotone
        return
    assert bimonotone
    assert verify_reconstruction(dec, h).verdict
    assert math.isfinite(dec.max_residual)
