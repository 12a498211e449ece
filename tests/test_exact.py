"""Certificates against exact arithmetic on the float inputs.

``oracles.exact_bimonotone`` decides the bimonotone rule on the float inputs
with no rounding.  ``decompose`` skips the O(m^2 n) pair check only where
its fit's bound B certifies the sample, and every sample certified that way
here passes the exact rule.  The samples are ``test_scaling``'s, also mapped
by (2^k x, 2^-k s) at k = 300 and 520, where B certifies what it certifies
at k = 0, the first boundary samples and the hard and two-branch families, at
the default tolerance.  The band of exact violations near 1 within which a
float verdict may differ from the exact one is not measured here.
"""

from skewfit import NotBimonotoneError, ToleranceConfig, bimonotone_check, decompose
from families import boundary_family, hard_families, two_branch_family
from oracles import exact_bimonotone
from test_scaling import SAMPLES, _scaled

TOL = ToleranceConfig()


def _certified(samples, pair_checks):
    """The samples that ``decompose`` certifies without a pair check."""
    out = []
    for g in samples:
        before = len(pair_checks)
        try:
            decompose(g, TOL)
        except NotBimonotoneError:
            pass
        if len(pair_checks) == before:
            out.append(g)
    return out


def test_every_sample_the_bound_certifies_passes_the_exact_check(pair_checks):
    scaled = [_scaled(g, k) for k in (0, 300, 520) for g in SAMPLES]
    families = [*boundary_family(200), *hard_families(10), *two_branch_family(5)]
    certified = _certified(scaled, pair_checks), _certified(families, pair_checks)
    assert [g for c in certified for g in c if not exact_bimonotone(g, TOL)] == []
    assert [len(c) for c in certified] == [54, 67]


def test_the_exact_check_agrees_with_the_pair_check():
    # the oracle is not vacuous: it refuses exactly what the float pass
    # refuses on these samples, none of which lies within rounding of the
    # margin
    samples = [*SAMPLES, *boundary_family(60)]
    verdicts = [(exact_bimonotone(g, TOL), bimonotone_check(g, TOL).verdict) for g in samples]
    assert [i for i, (exact, float_) in enumerate(verdicts) if exact != float_] == []
    assert 0 < sum(exact for exact, _ in verdicts) < len(samples)
