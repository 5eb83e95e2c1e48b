"""Properties of the decoy key rate over generated observables (hypothesis).

Every ``DecoyObservables`` the validation accepts either gives a breakdown of
finite numbers or raises ``DomainError``; observables in the range a weak
coherent source reaches never raise.  ``secure`` needs a positive rate, a
positive single-photon gain bound and a single-photon error bound below 1/2.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oamqkd import DecoyObservables, DomainError, ECModel, secret_key_rate

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
