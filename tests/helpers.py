"""Shared helpers for the test suite."""

from unittest import mock

import numpy as np

import oamqkd.link_budget as lb
from oamqkd import (
    DecoyObservables,
    ECModel,
    HybridState,
    PolarizationState,
    ThresholdUndefinedError,
    gain_threshold,
    secret_key_rate,
)


def random_unit_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows of complex amplitude pairs, each normalized to unit norm."""
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_polarization_states(rng: np.random.Generator, n: int) -> list:
    return [PolarizationState(a, b) for a, b in random_unit_pairs(rng, n)]


def random_hybrid_states(rng: np.random.Generator, n: int) -> list:
    return [HybridState(a, b) for a, b in random_unit_pairs(rng, n)]


def starred(q, p):
    """``E* = 0.5 w + E_ch (1 - w)`` with ``w = min(1, Y0/Q)``: the expected QBER at gain q."""
    w = min(1.0, p.y0 / q)
    return 0.5 * w + p.e_ch * (1.0 - w)


def direct_breakdown(q_mu, p):
    """E* -> DecoyObservables -> secret_key_rate, spelled out: ((E*_mu, E*_nu), breakdown)."""
    q_nu = p.nu / p.mu * q_mu
    stars = (starred(q_mu, p), starred(q_nu, p))
    obs = DecoyObservables(mu=p.mu, nu=p.nu, q_mu=q_mu, e_mu=stars[0], q_nu=q_nu,
                           e_nu=stars[1], y0=p.y0)
    return stars, secret_key_rate(obs, ECModel(f=p.f))


def direct_rate(q_mu, p):
    return direct_breakdown(q_mu, p)[1].rate


def reference_threshold(p):
    """The decade scan, then a fixed 100 bisection steps: (g*, rate calls).

    g* is the bracket's upper end, or None where the scan finds no bracket.
    Rate calls are the scan's plus one per step that moves the bracket: the
    calls of a bisection that stops once the bracket stops moving.
    """
    hi, lo, calls = 1.0, 0.1, 2
    if direct_rate(hi, p) <= 0.0:
        return None, 1
    while direct_rate(lo, p) > 0.0:
        hi, lo = lo, lo / 10.0
        if lo < 1e-7:
            return None, calls
        calls += 1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        calls += mid not in (lo, hi)
        if direct_rate(mid, p) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi, calls


def searched_threshold(p):
    """``gain_threshold(p)``, or None where it raises, and the rate calls it made."""
    with mock.patch.object(lb, "secret_key_rate", wraps=lb.secret_key_rate) as rate:
        try:
            g_star = gain_threshold(p)
        except ThresholdUndefinedError:
            g_star = None
    return g_star, rate.call_count
