"""Closed-form vacuum+weak decoy-state analysis in the infinite-key limit.

Given the measured gains and error rates of the signal and decoy intensity
classes plus the vacuum yield, these routines bound the single-photon gain
from below and the single-photon error rate from above, model the
error-correction leakage as ``f * h2(E)``, and assemble the secret key rate
in secret bits per sifted bit.  Each bound returns ``(value, clamped)``; a
zero gain bound pins the error bound at 1, flagged, and adds no key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError

_FALSE_POSITION_STEPS = 100
E0 = 0.5  # error rate of a background (dark or vacuum) click: its bit is a fair coin


@dataclass(frozen=True)
class DecoyObservables:
    """Per-session decoy observables: intensities, gains, QBERs, vacuum yield.

    ``q_mu``/``q_nu`` are detections per sent pulse of each class, ``e_mu``/
    ``e_nu`` are errors per sifted bit of each class, ``y0`` is the detection
    probability of an empty pulse.  Every field is checked on construction,
    and the record is frozen so that it stays as checked.
    """

    mu: float
    nu: float
    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y0: float

    def __post_init__(self) -> None:
        if not (math.inf > self.mu > self.nu > 0.0):
            raise ValidationError(f"need finite mu > nu > 0, got mu={self.mu}, nu={self.nu}")
        if not 0.0 < self.q_mu <= 1.0:
            raise ValidationError(f"q_mu must lie in (0, 1], got {self.q_mu}")
        if not 0.0 < self.q_nu <= 1.0:
            raise ValidationError(f"q_nu must lie in (0, 1], got {self.q_nu}")
        if not 0.0 <= self.e_mu <= 1.0:
            raise ValidationError(f"e_mu must lie in [0, 1], got {self.e_mu}")
        if not 0.0 <= self.e_nu <= 1.0:
            raise ValidationError(f"e_nu must lie in [0, 1], got {self.e_nu}")
        if not 0.0 <= self.y0 < math.inf:
            raise ValidationError(f"y0 must be non-negative and finite, got {self.y0}")


@dataclass(frozen=True)
class ECModel:
    """Error-correction model: leakage ``f * h2(E)``."""

    f: float = 1.05

    def __post_init__(self) -> None:
        if not 1.0 <= self.f < math.inf:
            raise ValidationError(
                f"error-correction efficiency f must be finite and >= 1, got {self.f}"
            )


@dataclass
class KeyRateBreakdown:
    """All terms entering the decoy secret key rate, plus the rate itself.

    A plain result record that checks nothing; :func:`secret_key_rate` builds
    it positionally, in field order.  ``rate`` is reported as computed,
    negative values included.  A gain bound of zero pins ``e1_upper`` at 1
    with ``e1_clamped``.  ``secure`` needs ``rate > 0``, a positive
    single-photon gain bound and a single-photon error bound below 1/2:
    without the last two the single-photon term is zero and a rate from the
    vacuum term alone certifies no key.
    """

    q1_lower: float
    e1_upper: float
    q0: float
    leak_ec: float
    rate: float
    q1_clamped: bool
    e1_clamped: bool
    secure: bool


def binary_entropy(x: float) -> float:
    """Binary entropy h2(x) in bits, with h2(0) = h2(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def q1_lower(obs: DecoyObservables) -> tuple[float, bool]:
    """Lower bound on the single-photon gain of the signal class, and whether it clamped.

    ``mu^2 e^-mu / (mu nu - nu^2) * (Q_nu e^nu - Q_mu e^mu nu^2/mu^2
    - (mu^2 - nu^2)/mu^2 * Y0)``, with negative values (possible under
    statistical fluctuation of the inputs) clamped to zero and flagged.
    """
    mu, nu = obs.mu, obs.nu
    denom = mu * nu - nu * nu
    if denom <= 0.0:
        raise DomainError(f"decoy bound needs mu > nu, got mu={mu}, nu={nu}")
    bracket = (
        obs.q_nu * math.exp(nu)
        - obs.q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * obs.y0
    )
    value = mu * mu * math.exp(-mu) / denom * bracket
    if value < 0.0:
        return 0.0, True
    return value, False


def e1_upper(obs: DecoyObservables, q1l: float) -> tuple[float, bool]:
    """Upper bound on the single-photon error rate, and whether it clamped.

    Evaluates ``(E_nu Q_nu e^nu - E0 Y0) / (Q1_L (nu/mu) e^mu)`` and clamps
    the result into [0, 1], flagged, when it falls outside.  A gain bound
    ``q1l <= 0`` certifies no single photon, so nothing bounds their errors:
    the bound is then 1, flagged, its pessimistic extreme.
    """
    if q1l <= 0.0:
        return 1.0, True
    numerator = obs.e_nu * obs.q_nu * math.exp(obs.nu) - E0 * obs.y0
    value = numerator / (q1l * (obs.nu / obs.mu) * math.exp(obs.mu))
    if value < 0.0:
        return 0.0, True
    if value > 1.0:
        return 1.0, True
    return value, False


def q0_gain(obs: DecoyObservables) -> float:
    """Vacuum contribution to the signal-class gain, ``e^-mu * Y0``."""
    return math.exp(-obs.mu) * obs.y0


def secret_key_rate(obs: DecoyObservables, ec: ECModel = ECModel()) -> KeyRateBreakdown:
    """Assemble the decoy secret key rate in secret bits per sifted bit.

    ``rate = Q1_L/Q_mu * (1 - h2(e1_U)) - f*h2(E_mu) + Q0/Q_mu``, from
    :func:`q1_lower` and :func:`e1_upper` as they stand.  An error bound at
    or beyond 1/2 certifies nothing, so the amplification factor is floored
    at zero there instead of letting ``1 - h2`` grow again; a zero gain
    bound, whose error bound is 1, thus adds nothing.

    Raises :class:`DomainError` where the bounds leave the float range, which
    only observables far outside the decoy model's reach can cause.
    """
    try:
        q1, q1_clamped = q1_lower(obs)
        e1, e1_clamped = e1_upper(obs, q1)
        q0 = q0_gain(obs)
        leak = ec.f * binary_entropy(obs.e_mu)
        rate = q1 / obs.q_mu * (1.0 - binary_entropy(min(e1, 0.5))) - leak + q0 / obs.q_mu
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"decoy bounds leave the float range ({exc}) for {obs}") from None
    if not math.isfinite(rate):
        raise DomainError(f"key rate {rate} is not finite for {obs}")
    secure = rate > 0.0 and q1 > 0.0 and e1 < 0.5
    return KeyRateBreakdown(q1, e1, q0, leak, rate, q1_clamped, e1_clamped, secure)


def single_photon_rate(e_mu: float, ec: ECModel = ECModel()) -> float:
    """Key rate achievable at QBER ``e_mu`` with an ideal single-photon source."""
    if not 0.0 <= e_mu <= 1.0:
        raise DomainError(f"QBER must lie in [0, 1], got {e_mu}")
    return 1.0 - binary_entropy(e_mu) - ec.f * binary_entropy(e_mu)


def _false_position(f, pos: float, f_pos: float, neg: float, f_neg: float) -> float:
    """Illinois false position on a bracket with ``f(pos) > 0 >= f(neg)``, in either order.

    Probes the secant root, or the midpoint where that leaves the bracket, and
    halves an end's value once the other end has moved twice in a row.
    Returns the positive end once the two ends are adjacent floats.
    """
    moved = 0  # the end the last step moved: +1 positive, -1 non-positive
    for _ in range(_FALSE_POSITION_STEPS):
        mid = 0.5 * (pos + neg)
        if mid in (pos, neg):
            break
        x = pos - f_pos * (pos - neg) / (f_pos - f_neg)
        if not min(pos, neg) < x < max(pos, neg):
            x = mid
        fx = f(x)
        if fx > 0.0:
            pos, f_pos, f_neg = x, fx, f_neg * 0.5 if moved == 1 else f_neg
        else:
            neg, f_neg, f_pos = x, fx, f_pos * 0.5 if moved == -1 else f_pos
        moved = 1 if fx > 0.0 else -1
    return pos


def qber_threshold(ec_f: float) -> float:
    """Largest QBER with a positive single-photon key rate, by :func:`_false_position`."""
    if not 1.0 <= ec_f < math.inf:
        raise DomainError(f"error-correction efficiency must be finite and >= 1, got {ec_f}")

    def excess(e: float) -> float:
        return 1.0 - (1.0 + ec_f) * binary_entropy(e)

    if not (f_lo := excess(1e-15)) > 0.0:
        raise DomainError(f"no QBER down to 1e-15 has a positive rate at f={ec_f}")
    return _false_position(excess, 1e-15, f_lo, 0.5, excess(0.5))
