"""Closed forms and properties that oamqkd's outputs are checked against.

Nothing here imports oamqkd.  Every expected value is derived again from the
physics or from the published formulas, never from a saved copy of an
earlier output:

* decoy bounds and key rate: Ma, Qi, Zhao & Lo, PRA 72, 012326 (2005), with
  the clamping conventions that oamqkd documents (gain bound floored at 0,
  error bound clamped into [0, 1], privacy amplification floored at zero
  from an error bound of 1/2 on);
* expected gain and QBER of each intensity class: Poisson photon number,
  per-photon survival ``min(1, eta * M)``, dark clicks with probability
  ``y0``, the ``sin^2(theta)/2`` misalignment of polarization encoding, the
  ``e_ch`` flip and the dark/photon coin rule, averaged over the log-normal
  scintillation multiplier ``M`` by Gauss-Hermite quadrature;
* link budget: ``E* = w/2 + e_ch (1 - w)`` with ``w = min(1, Y0/Q)``;
* beam wander: ``sigma = sqrt((var_x + var_y)/2)``, ``r0 = 2L/(k sigma)``,
  ``Cn2 = r0^(-5/3) / (0.423 k^2 L)`` and chi-square bounds on ``sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Sampling checks accept |deviation| <= Z_MAX standard deviations (plus
#: Z_MAX^2 counts, which keeps the normal approximation honest for classes
#: with only a handful of clicks).  A false alarm has odds of about 1e-9 per
#: quantity; a deliberate 10-sigma error is still refused.
Z_MAX = 6.0

#: Relative tolerance between two float64 evaluations of the same formula.
FLOAT_REL = 1e-9

#: A threshold g* must be a sign change of the rate between g*(1 -/+ THRESHOLD_REL).
THRESHOLD_REL = 1e-6

#: Error rate of a dark count (a random bit).
E0 = 0.5

#: Gauss-Hermite nodes for the average over the log-normal scintillation.
HERMITE_NODES = 40


class CheckFailed(AssertionError):
    """An output of oamqkd disagrees with its independent expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(name: str, got: float, want: float, rel: float = FLOAT_REL,
                  abs_tol: float = 0.0) -> None:
    got, want = float(got), float(want)
    if not abs(got - want) <= rel * abs(want) + abs_tol:  # also refuses nan and inf
        raise CheckFailed(f"{name}: got {got!r}, expected {want!r} "
                          f"(rel {rel:g}, abs {abs_tol:g})")


def require_count(name: str, k: float, n: float, p: float, extra_var: float = 0.0) -> None:
    """``k`` successes in ``n`` trials at probability ``p``, plus an extra
    variance of the success fraction from block-to-block fluctuation."""
    sd = math.sqrt(n * p * (1.0 - p) + n * n * extra_var)
    dev = abs(k - n * p)
    require(dev <= Z_MAX * sd + Z_MAX**2,
            f"{name}: {k:.6g}/{n:.6g} = {k / n if n else math.nan:.6g}, expected {p:.6g} "
            f"(deviation {dev / sd if sd else math.inf:.2f} sd, limit {Z_MAX})")


# --- decoy key rate (Ma, Qi, Zhao & Lo 2005) ---------------------------------

def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def decoy_key_rate(mu, nu, q_mu, e_mu, q_nu, e_nu, y0, f=1.05) -> dict:
    """Vacuum+weak decoy bounds and the key rate per sifted bit, in float64."""
    q1 = (mu * mu * math.exp(-mu) / (mu * nu - nu * nu)
          * (q_nu * math.exp(nu) - q_mu * math.exp(mu) * nu * nu / (mu * mu)
             - (mu * mu - nu * nu) / (mu * mu) * y0))
    q1 = max(q1, 0.0)
    if q1 > 0.0:
        e1 = (e_nu * q_nu * math.exp(nu) - E0 * y0) / (q1 * (nu / mu) * math.exp(mu))
        e1 = min(max(e1, 0.0), 1.0)
        amplified = 1.0 - h2(min(e1, 0.5))
    else:
        e1, amplified = 1.0, 0.0
    q0 = math.exp(-mu) * y0
    leak = f * h2(e_mu)
    rate = q1 / q_mu * amplified - leak + q0 / q_mu
    return {"q1_lower": q1, "e1_upper": e1, "q0": q0, "leak_ec": leak, "rate": rate}


def check_key_rate(got: dict, want: dict) -> None:
    """``got`` maps the key-rate field names to the program's values."""
    for key in ("q1_lower", "e1_upper", "q0", "leak_ec", "rate"):
        require_close(key, got[key], want[key], abs_tol=1e-12)
    if "secure" in got:
        if want["rate"] <= 0.0:
            require(not got["secure"], f"secure=true at rate {want['rate']!r}")
        elif want["q1_lower"] > 0.0:
            require(got["secure"], f"secure=false at rate {want['rate']!r}")


# --- link budget --------------------------------------------------------------

@dataclass(frozen=True)
class Budget:
    mu: float
    nu: float
    e_ch: float
    y0: float
    f: float = 1.05


def budget_point(q: float, b: Budget) -> dict:
    """Expected QBERs at signal gain ``q`` and the decoy rate they give."""
    def starred(gain: float) -> float:
        w = min(1.0, b.y0 / gain)
        return 0.5 * w + b.e_ch * (1.0 - w)

    q_nu = b.nu / b.mu * q
    e_mu, e_nu = starred(q), starred(q_nu)
    point = decoy_key_rate(b.mu, b.nu, q, e_mu, q_nu, e_nu, b.y0, f=b.f)
    point.update(q_mu=q, e_mu_star=e_mu, e_nu_star=e_nu)
    return point


def check_budget_point(got: dict, b: Budget, rel: float = FLOAT_REL,
                       abs_tol: float = 1e-12) -> None:
    want = budget_point(float(got["q_mu"]), b)
    for key in ("e_mu_star", "e_nu_star", "q1_lower", "e1_upper", "rate"):
        require_close(f"q_mu={got['q_mu']!r} {key}", got[key], want[key], rel=rel,
                      abs_tol=abs_tol)


def check_threshold(g_star: float, b: Budget) -> None:
    """``g_star`` is the uppermost sign change of the expected rate."""
    require(math.isfinite(g_star) and 0.0 < g_star < 1.0, f"g*={g_star!r} outside (0, 1)")
    above = budget_point(g_star * (1.0 + THRESHOLD_REL), b)["rate"]
    below = budget_point(g_star * (1.0 - THRESHOLD_REL), b)["rate"]
    require(above > 0.0 >= below,
            f"g*={g_star!r} is no sign change: rate {below!r} below, {above!r} above")
    for q in np.logspace(math.log10(g_star * (1.0 + THRESHOLD_REL)), 0.0, 25).tolist():
        if not budget_point(q, b)["rate"] > 0.0:
            raise CheckFailed(f"rate is not positive at q={q!r} above g*={g_star!r}")


def loss_margin_db(measured_gain: float, g_star: float) -> float:
    return 10.0 * math.log10(measured_gain / g_star)


def mp_budget_point(q: float, b: Budget) -> dict:
    """The same chain as :func:`budget_point` in 50-digit arithmetic."""
    import mpmath as mp

    ctx = mp.mp.clone()
    ctx.dps = 50
    mu, nu, e_ch, y0, f, q = (ctx.mpf(v) for v in (b.mu, b.nu, b.e_ch, b.y0, b.f, q))

    def h(x):
        if x <= 0 or x >= 1:
            return ctx.mpf(0)
        return -x * ctx.log(x, 2) - (1 - x) * ctx.log(1 - x, 2)

    def starred(gain):
        w = min(ctx.mpf(1), y0 / gain)
        return w / 2 + e_ch * (1 - w)

    q_nu = nu / mu * q
    e_mu, e_nu = starred(q), starred(q_nu)
    q1 = mu**2 * ctx.exp(-mu) / (mu * nu - nu**2) * (
        q_nu * ctx.exp(nu) - q * ctx.exp(mu) * nu**2 / mu**2 - (mu**2 - nu**2) / mu**2 * y0)
    e1 = (e_nu * q_nu * ctx.exp(nu) - y0 / 2) / (q1 * (nu / mu) * ctx.exp(mu))
    rate = q1 / q * (1 - h(e1)) - f * h(e_mu) + ctx.exp(-mu) * y0 / q
    return {"q_mu": float(q), "e_mu_star": float(e_mu), "e_nu_star": float(e_nu),
            "q1_lower": float(q1), "e1_upper": float(e1), "rate": float(rate)}


# --- simulated channel ----------------------------------------------------------

@dataclass(frozen=True)
class Link:
    """What the simulator is asked to model, in the benchmark's own terms."""

    eta: float
    e_ch: float
    y0: float
    theta: float
    polarization: bool
    sigma: float  # log-normal block scintillation, E[M] = 1
    p_class: tuple  # (signal, decoy, vacuum)
    intensities: tuple  # (mu, nu, 0)

    @property
    def misalignment_error(self) -> float:
        # Polarization: error sin^2(theta) in one basis and 0 in the other;
        # the hybrid states carry no angular momentum and see no rotation.
        return 0.5 * math.sin(self.theta) ** 2 if self.polarization else 0.0

    @property
    def photon_error(self) -> float:
        em = self.misalignment_error
        return em * (1.0 - self.e_ch) + (1.0 - em) * self.e_ch


def _multipliers(sigma: float):
    if sigma == 0.0:
        return np.ones(1), np.ones(1)
    x, w = np.polynomial.hermite.hermgauss(HERMITE_NODES)
    return np.exp(sigma * math.sqrt(2.0) * x - 0.5 * sigma * sigma), w / math.sqrt(math.pi)


def _click_and_error(p_photon, y0: float, e_p: float):
    """P(click) and P(click with a wrong bit) given the photon-click probability."""
    detected = 1.0 - (1.0 - p_photon) * (1.0 - y0)
    wrong = (p_photon * (1.0 - y0) * e_p
             + p_photon * y0 * (0.5 * e_p + 0.25)
             + (1.0 - p_photon) * y0 * 0.5)
    return detected, wrong


@dataclass(frozen=True)
class Expected:
    """Expected fraction and the extra block-to-block variance of its estimate
    per block (divide by the number of blocks)."""

    gain: float
    gain_block_var: float
    qber: float
    qber_block_var: float


def _average(detected, wrong, weights) -> Expected:
    gain = float(weights @ detected)
    qber = float(weights @ wrong) / gain
    gain_var = float(weights @ (detected - gain) ** 2)
    qber_var = float(weights @ ((detected / gain) ** 2 * (wrong / detected - qber) ** 2))
    return Expected(gain, gain_var, qber, qber_var)


def class_expectation(link: Link, lam: float) -> Expected:
    """Gain and QBER of the intensity class with mean photon number ``lam``."""
    m, w = _multipliers(link.sigma)
    p_survive = np.minimum(1.0, link.eta * m)
    detected, wrong = _click_and_error(1.0 - np.exp(-lam * p_survive), link.y0,
                                       link.photon_error)
    return _average(detected, wrong, w)


def single_photon_expectation(link: Link) -> Expected:
    """Detection and error of signal pulses that carried exactly one photon.

    ``gain`` is per signal pulse sent (it includes the factor mu e^-mu).
    """
    m, w = _multipliers(link.sigma)
    detected, wrong = _click_and_error(np.minimum(1.0, link.eta * m), link.y0,
                                       link.photon_error)
    one = _average(detected, wrong, w)
    mu = link.intensities[0]
    p1 = mu * math.exp(-mu)
    return Expected(p1 * one.gain, p1 * p1 * one.gain_block_var, one.qber, one.qber_block_var)


def check_tallies(link: Link, sent, detected, sifted, errors, n_blocks: int,
                  classes=("signal", "decoy", "vacuum")) -> None:
    """Pooled per-class counts against the class mix and the expected gain and QBER."""
    total = sum(sent)
    for i, name in enumerate(classes):
        require_count(f"{name} share of pulses", sent[i], total, link.p_class[i])
        lam = link.intensities[i]
        exp = class_expectation(link, lam)
        require_count(f"{name} gain", detected[i], sent[i], exp.gain,
                      exp.gain_block_var / n_blocks)
        # Each click is sifted when the two independent basis choices agree.
        require_count(f"{name} sifted", sifted[i], detected[i], 0.5)
        if lam > 0.0:
            require_count(f"{name} qber", errors[i], sifted[i], exp.qber,
                          exp.qber_block_var / n_blocks)


def check_single_photon(link: Link, gain: float, error_rate: float, sp_sifted: int,
                        signal_sent: int, n_blocks: int) -> None:
    exp = single_photon_expectation(link)
    require_count("single-photon gain", gain * signal_sent, signal_sent, exp.gain,
                  exp.gain_block_var / n_blocks)
    require_count("single-photon error", error_rate * sp_sifted, sp_sifted, exp.qber,
                  exp.qber_block_var / n_blocks)


# --- beam wander ----------------------------------------------------------------

FRIED_CONSTANT = 0.423


def wander_sigma_m(xs_mm, ys_mm) -> float:
    x = np.asarray(xs_mm, dtype=float)
    y = np.asarray(ys_mm, dtype=float)
    var_x = float(np.mean((x - x.mean()) ** 2))
    var_y = float(np.mean((y - y.mean()) ** 2))
    return math.sqrt(0.5 * (var_x + var_y)) * 1e-3


def fried_r0(sigma_m: float, length_m: float, wavelength_m: float) -> float:
    return 2.0 * length_m * wavelength_m / (2.0 * math.pi * sigma_m)


def cn2(r0: float, length_m: float, wavelength_m: float) -> float:
    k = 2.0 * math.pi / wavelength_m
    return r0 ** (-5.0 / 3.0) / (FRIED_CONSTANT * k * k * length_m)


def check_turbulence(sigma_m: float, r0: float, cn2_si: float, xs_mm, ys_mm,
                     length_m: float, wavelength_m: float, rel: float = FLOAT_REL) -> None:
    """The estimate follows from the centroids through the closed forms."""
    want_sigma = wander_sigma_m(xs_mm, ys_mm)
    require_close("sigma_m", sigma_m, want_sigma, rel=rel)
    want_r0 = fried_r0(want_sigma, length_m, wavelength_m)
    require_close("r0", r0, want_r0, rel=rel)
    require_close("cn2", cn2_si, cn2(want_r0, length_m, wavelength_m), rel=rel)


def chi2_quantile(k: int, z: float) -> float:
    """Wilson-Hilferty approximation to the chi-square quantile at normal score z."""
    c = 2.0 / (9.0 * k)
    return k * max(0.0, 1.0 - c + z * math.sqrt(c)) ** 3


def check_wander(sigma_m: float, injected_m: float, n_frames: int) -> None:
    """The pooled per-axis population variance times 2n/sigma^2 is chi-square
    with 2(n - 1) degrees of freedom."""
    k = 2 * (n_frames - 1)
    lo = math.sqrt(chi2_quantile(k, -Z_MAX) / (2 * n_frames)) * injected_m
    hi = math.sqrt(chi2_quantile(k, Z_MAX) / (2 * n_frames)) * injected_m
    require(lo <= sigma_m <= hi,
            f"wander sigma {sigma_m:.6g} m outside [{lo:.6g}, {hi:.6g}] for injected "
            f"{injected_m:.6g} m over {n_frames} frames")
