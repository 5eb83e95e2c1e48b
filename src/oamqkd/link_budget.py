"""Predictive link-budget analysis: expected QBERs and rate as the gain shrinks.

Given source intensities, an intrinsic channel QBER and a dark yield, the
expected signal/decoy error rates at a hypothetical signal gain ``Q_mu`` are

    E* = E0 * w + E_ch * (1 - w),   w = min(1, Y0 / Q),   E0 = 1/2 (keyrate.E0)

with the decoy gain tied to the signal gain by ``Q_nu = (nu/mu) Q_mu``.
Feeding these into the decoy key-rate bounds yields the rate-versus-gain
curve and its threshold: a downward decade scan from gain 1, then Illinois
false position to adjacent floats, gives the smallest probed gain with a positive rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError, ThresholdUndefinedError, ValidationError
from .keyrate import (E0, DecoyObservables, ECModel, KeyRateBreakdown, _false_position,
                      secret_key_rate)
from .simulator import SourceParams

_SCAN_FLOOR = 1e-7
_SCAN_RATIO = 10.0


@dataclass(frozen=True)
class LinkBudgetParams:
    """Inputs of the gain sweep; ``y0`` defaults to ``dark_rate * gate``."""

    mu: float = SourceParams.mu
    nu: float = SourceParams.nu
    e_ch: float = 0.02
    f: float = ECModel.f
    dark_rate: float = 100.0
    gate: float = 50e-9
    y0: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.inf > self.mu > self.nu > 0.0):
            raise ValidationError(f"need finite mu > nu > 0, got mu={self.mu}, nu={self.nu}")
        if not 0.0 <= self.e_ch <= 0.5:
            raise ValidationError(f"channel QBER must lie in [0, 0.5], got {self.e_ch}")
        self.ec_model  # builds and validates the ECModel once, on f
        if not (0.0 <= self.dark_rate < math.inf and 0.0 <= self.gate < math.inf):
            raise ValidationError("dark rate and gate duration must be non-negative and finite")
        if self.y0 is None:
            object.__setattr__(self, "y0", self.dark_rate * self.gate)
        elif not 0.0 <= self.y0 < math.inf:
            raise ValidationError(f"y0 must be non-negative and finite, got {self.y0}")

    @cached_property
    def ec_model(self) -> ECModel:
        return ECModel(f=self.f)


def _starred(q: float, p: LinkBudgetParams) -> float:
    """``E*`` at gain ``q``, the dark fraction ``Y0/Q`` clamped at 1."""
    w = min(1.0, p.y0 / q)
    return E0 * w + p.e_ch * (1.0 - w)


def _observables(q_mu: float, p: LinkBudgetParams) -> DecoyObservables:
    """The validated decoy observables expected at signal gain ``q_mu``."""
    q_nu = (p.nu / p.mu) * q_mu
    return DecoyObservables(p.mu, p.nu, q_mu, _starred(q_mu, p), q_nu, _starred(q_nu, p), p.y0)


class RatePoint(NamedTuple):
    """One point of the rate-versus-gain curve."""

    q_mu: float
    e_mu_star: float
    e_nu_star: float
    breakdown: KeyRateBreakdown


def _rate_point(q_mu: float, p: LinkBudgetParams) -> RatePoint:
    obs = _observables(q_mu, p)
    return RatePoint(q_mu, obs.e_mu, obs.e_nu, secret_key_rate(obs, p.ec_model))


def rate_vs_gain(q_mu_grid: Sequence[float], p: LinkBudgetParams) -> list[RatePoint]:
    """Evaluate the expected key rate at every gain in ``q_mu_grid``."""
    grid = [float(q) for q in q_mu_grid]
    if not grid:
        raise ValidationError("gain grid is empty")
    if not all(0.0 < q <= 1.0 for q in grid):
        raise ValidationError("gain grid values must lie in (0, 1]")
    return [_rate_point(q, p) for q in grid]


def gain_threshold(p: LinkBudgetParams) -> float:
    """Smallest signal gain with a positive expected key rate.

    Scans gains downward from 1 by factors of 10 until the rate turns
    non-positive, then runs Illinois false position on that decade down to
    adjacent floats and returns the upper: the smallest probed gain with a
    positive rate.  The scan descends to bracket the physically meaningful
    (uppermost) zero crossing; below the dark floor the vacuum term inflates
    the formula rate spuriously.
    """

    ec = p.ec_model

    def rate_at(q: float) -> float:
        return secret_key_rate(_observables(q, p), ec).rate

    hi, f_hi = 1.0, rate_at(1.0)
    if f_hi <= 0.0:
        raise ThresholdUndefinedError("rate is non-positive over the whole scanned range")
    lo = hi / _SCAN_RATIO
    while (f_lo := rate_at(lo)) > 0.0:
        hi, f_hi = lo, f_lo
        lo /= _SCAN_RATIO
        if lo < _SCAN_FLOOR:
            raise ThresholdUndefinedError(
                f"rate stays positive down to gain {hi}; no threshold above {_SCAN_FLOOR}"
            )
    return _false_position(rate_at, hi, f_hi, lo, f_lo)


def loss_margin_db(measured_gain: float, g_star: float) -> float:
    """Extra channel loss (dB) tolerable before the gain hits the threshold."""
    if not (0.0 < measured_gain <= 1.0 and 0.0 < g_star <= 1.0):
        raise DomainError(
            f"gains must lie in (0, 1] to compute a loss margin, got {measured_gain}, {g_star}"
        )
    return 10.0 * math.log10(measured_gain / g_star)
