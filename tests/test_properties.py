"""Properties of the decoy key rate over generated observables (hypothesis).

Every ``DecoyObservables`` the validation accepts either gives a breakdown of
finite numbers or raises ``DomainError``; observables in the range a weak
coherent source reaches never raise.  ``secure`` needs a positive rate, a
positive single-photon gain bound and a single-photon error bound below 1/2.

The simulator's tallies of any non-negative ``(n_blocks, 3, 3, 4)`` counts
array are ordered, sum over blocks to the tallies of the summed counts, and
read the same through a block's row as through the series.

The gain threshold search finds the reference bisection's threshold in no
more rate calls: a sign change of the expected rate, with a positive rate at
every gain probed above it.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import direct_rate, reference_threshold, searched_threshold

from oamqkd import (
    BlockSeries,
    DecoyObservables,
    DomainError,
    ECModel,
    LinkBudgetParams,
    secret_key_rate,
)
from oamqkd.simulator import _tallies

FIELDS = ("q1_lower", "e1_upper", "q0", "leak_ec", "rate")


def finite(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def observables(draw, mu_min, mu_max, ratio_min, gain_min, y0_max):
    mu = draw(finite(mu_min, mu_max, exclude_min=mu_min == 0.0))
    nu = mu * draw(finite(ratio_min, 1.0, exclude_min=ratio_min == 0.0, exclude_max=True))
    assume(0.0 < nu < mu)
    gain = finite(gain_min, 1.0, exclude_min=gain_min == 0.0)
    qber = finite(0.0, 1.0)
    return DecoyObservables(mu, nu, draw(gain), draw(qber), draw(gain), draw(qber),
                            draw(finite(0.0, y0_max)))


#: Every value the validation accepts, float extremes included.
ANY = observables(mu_min=0.0, mu_max=1.7e308, ratio_min=0.0, gain_min=0.0, y0_max=1.7e308)
#: Mean photon numbers in [1e-3, 10], nu/mu from 1e-3, gains from 1e-12, y0 a probability.
PHYSICAL = observables(mu_min=1e-3, mu_max=10.0, ratio_min=1e-3, gain_min=1e-12, y0_max=1.0)
EC = st.builds(ECModel, f=finite(1.0, 10.0), e0=finite(0.0, 1.0))


def check_breakdown(b) -> None:
    assert all(math.isfinite(getattr(b, name)) for name in FIELDS), b
    assert 0.0 <= b.e1_upper <= 1.0
    if b.q1_lower == 0.0:  # one zero-gain policy: no single photon certified, errors unbounded
        assert b.e1_upper == 1.0 and b.e1_clamped, b
    if b.secure:
        assert b.rate > 0.0 and b.q1_lower > 0.0 and b.e1_upper < 0.5, b


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(ANY, EC)
def test_any_valid_observables_give_finite_fields_or_domain_error(obs, ec):
    try:
        b = secret_key_rate(obs, ec)
    except DomainError:
        return
    check_breakdown(b)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(PHYSICAL, EC)
def test_physical_observables_give_finite_fields(obs, ec):
    check_breakdown(secret_key_rate(obs, ec))


#: Block x class x photon number x outcome counts; 216 entries of at most 2**54 fit in int64.
COUNTS = st.integers(0, 6).flatmap(
    lambda n: hnp.arrays(np.int64, (n, 3, 3, 4), elements=st.integers(0, 2**54)))
TALLIES = ("sent", "detected", "sifted", "errors")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(COUNTS)
def test_block_tallies_are_ordered_and_pool_like_the_summed_counts(counts):
    series = BlockSeries(counts)
    sent, detected, sifted, errors = (getattr(series, name) for name in TALLIES)
    assert np.all((errors <= sifted) & (sifted <= detected) & (detected <= sent))
    assert np.array_equal(sent, counts.sum(axis=(2, 3)))
    for name, pooled in zip(TALLIES, _tallies(counts.sum(axis=(0, 2)))):
        assert np.array_equal(getattr(series, name).sum(axis=0), pooled), name
    assert np.array_equal(np.isnan(series.gains), sent == 0)
    assert np.array_equal(np.isnan(series.qbers), sifted == 0)
    for b, tally in enumerate(series):
        assert tally.block_index == b and tally.block_size == sent[b].sum()
        for name in (*TALLIES, "gains", "qbers"):
            assert np.array_equal(getattr(tally, name), getattr(series, name)[b], equal_nan=True)


#: mu in [0.2, 1] with nu below 0.9 mu, e_ch up to 8%, 1-3,000 Hz dark counts, f in [1, 1.6].
BUDGETS = st.builds(
    lambda mu, ratio, e_ch, dark_rate, f: LinkBudgetParams(
        mu=mu, nu=ratio * mu, e_ch=e_ch, dark_rate=dark_rate, f=f),
    finite(0.2, 1.0), finite(1e-3, 0.9, exclude_max=True), finite(0.0, 0.08),
    finite(1.0, 3000.0), finite(1.0, 1.6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(BUDGETS)
def test_gain_threshold_is_the_reference_sign_change_in_no_more_rate_calls(p):
    reference, reference_calls = reference_threshold(p)
    g_star, rate_calls = searched_threshold(p)
    assert rate_calls <= reference_calls
    assert (g_star is None) == (reference is None)
    if g_star is None:
        return
    assert math.isclose(g_star, reference, rel_tol=1e-11)
    assert direct_rate(g_star, p) > 0.0 >= direct_rate(math.nextafter(g_star, 0.0), p)
    for q in np.logspace(math.log10(g_star * (1.0 + 1e-6)), 0.0, 25).tolist():
        assert direct_rate(q, p) > 0.0, q
