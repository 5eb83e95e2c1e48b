"""Acceptance suite: one test per release criterion, each printing a verdict.

Expected values are checked at their stated tolerances; the decoy key-rate
criterion is compared against an independent 50-digit mpmath transcription of
the closed-form bounds evaluated inside this module.
"""

import csv
import math
import time

import mpmath as mp
import numpy as np
from scipy import stats

from helpers import random_unit_pairs

from oamqkd import (
    ChannelParams,
    Encoding,
    HybridState,
    IntensityClass,
    PolarizationState,
    SourceParams,
    basis,
    embed_hybrid,
    measure_probabilities,
    q1_lower,
    qber_threshold,
    qplate_inverse,
    qplate_map,
    rotate_frame,
    run_session,
)
from oamqkd.cli import main
from oamqkd.fileio import read_key_values
from oamqkd.keyrate import e1_upper
from oamqkd.simulator import BlockSeries, simulate_blocks

TABLE_CSV = """mu,nu,q_mu,e_mu,q_nu,e_nu,y0
0.623,0.165,1.43e-2,0.0381,4.77e-3,0.0763,3.77e-4
0.623,0.165,1.30e-2,0.0688,4.12e-3,0.0867,2.55e-4
0.623,0.165,1.11e-2,0.0416,2.77e-3,0.0447,6.63e-5
0.623,0.165,0.85e-2,0.0584,2.34e-3,0.0623,1.13e-4
"""

ANGLES_DEG = (0.0, 15.0, 45.0, 60.0)


def _report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {verdict} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _oracle_breakdown(q_mu, e_mu, q_nu, e_nu, y0, mu="0.623", nu="0.165", f="1.05"):
    """Independent high-precision evaluation of the decoy rate closed forms."""
    mp.mp.dps = 50
    mu, nu = mp.mpf(mu), mp.mpf(nu)
    q_mu, e_mu, q_nu, e_nu, y0 = (mp.mpf(v) for v in (q_mu, e_mu, q_nu, e_nu, y0))

    def h2(x):
        if x <= 0 or x >= 1:
            return mp.mpf(0)
        return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)

    pref = mu**2 * mp.e**(-mu) / (mu * nu - nu**2)
    q1l = pref * (q_nu * mp.e**nu - q_mu * mp.e**mu * nu**2 / mu**2
                  - (mu**2 - nu**2) / mu**2 * y0)
    e1u = (e_nu * q_nu * mp.e**nu - mp.mpf("0.5") * y0) / (q1l * (nu / mu) * mp.e**mu)
    q0 = mp.e**(-mu) * y0
    rate = q1l / q_mu * (1 - h2(e1u)) - mp.mpf(f) * h2(e_mu) + q0 / q_mu
    return float(q1l), float(e1u), float(rate)


def test_criterion_1_and_2_fried_parameter_and_cn2(tmp_path):
    start = time.perf_counter()
    rc = main(["turbulence", "--sigma-m-mm", "0.33", "--length-m", "210",
               "--wavelength-nm", "850", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    est = read_key_values(tmp_path / "estimate.txt")
    r0 = float(est["r0_m"])
    cn2 = float(est["cn2_si"])
    ok1 = abs(r0 - 0.17) / 0.17 <= 0.05 and elapsed < 1.0
    _report(1, ok1, f"r0 = {r0:.4f} m (target 0.17 m +/- 5%), {elapsed:.2f}s")
    ok2 = abs(cn2 - 4e-15) / 4e-15 <= 0.25 and elapsed < 1.0
    _report(2, ok2, f"Cn2 = {cn2:.3e} (target 4e-15 +/- 25%), {elapsed:.2f}s")


def test_criterion_3_reference_key_rates(tmp_path):
    start = time.perf_counter()
    table = tmp_path / "table.csv"
    table.write_text(TABLE_CSV)
    assert main(["keyrate", "--csv", str(table), "--out", str(tmp_path / "decoy")]) == 0
    assert main(["keyrate", "--csv", str(table), "--single-photon",
                 "--out", str(tmp_path / "ideal")]) == 0
    decoy = _read_rows(tmp_path / "decoy" / "keyrate.csv")
    ideal = _read_rows(tmp_path / "ideal" / "keyrate.csv")
    elapsed = time.perf_counter() - start

    all_positive = all(float(r["rate"]) > 0 for r in decoy)
    rowwise = all(float(i["rate"]) > float(d["rate"]) for i, d in zip(ideal, decoy))

    _, _, oracle_rate = _oracle_breakdown("1.43e-2", "0.0381", "4.77e-3", "0.0763", "3.77e-4")
    got = float(decoy[0]["rate"])
    oracle_match = abs(got - oracle_rate) / oracle_rate <= 1e-10

    ok = all_positive and rowwise and oracle_match and elapsed < 1.0
    _report(3, ok,
            f"4/4 rates positive={all_positive}, ideal>decoy rowwise={rowwise}, "
            f"zero-angle rate {got:.12f} vs oracle {oracle_rate:.12f}, {elapsed:.2f}s")


def test_criterion_4_qber_threshold():
    start = time.perf_counter()
    root = qber_threshold(1.0)
    elapsed = time.perf_counter() - start
    ok = abs(root - 0.110) <= 0.001 and elapsed < 1.0
    _report(4, ok, f"positive-rate QBER limit = {root:.6f} (target 0.110 +/- 0.001), {elapsed:.2f}s")


def test_criterion_5_gain_threshold(tmp_path):
    start = time.perf_counter()
    rc = main(["sweep", "--measured-gain", "1.2e-2", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    thresh = read_key_values(tmp_path / "threshold.txt")
    g_star = float(thresh["g_star"])
    margin = float(thresh["loss_margin_db"])
    ok = 5e-5 <= g_star <= 2e-4 and 18.0 <= margin <= 22.0 and elapsed < 5.0
    _report(5, ok, f"g* = {g_star:.3e} (target [5e-5, 2e-4]), "
                   f"loss margin = {margin:.2f} dB (target 20 +/- 2), {elapsed:.2f}s")


def _signal_qber(theta_deg: float, encoding: Encoding, seed: int) -> tuple[float, int]:
    """QBER of the signal class over 1e6 pulses, lossy but otherwise noiseless."""
    src = SourceParams(p_mu=1.0, p_nu=0.0, p_vac=0.0)
    ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, e_ch=0.0, y0=0.0,
                       theta=math.radians(theta_deg), encoding=encoding)
    blocks = BlockSeries(simulate_blocks(src, ch, 50_000, seed, "simulate", range(20)))
    sifted = int(blocks.sifted[:, IntensityClass.SIGNAL].sum())
    errors = int(blocks.errors[:, IntensityClass.SIGNAL].sum())
    return errors / sifted, sifted


def test_criterion_6_rotation_invariance():
    start = time.perf_counter()
    hybrid = [_signal_qber(deg, Encoding.HYBRID, 100 + i)
              for i, deg in enumerate(ANGLES_DEG)]
    ok_hybrid = True
    for qa, na in hybrid:
        for qb, nb in hybrid:
            pooled = max(qa, qb)
            sigma = math.sqrt(max(pooled * (1 - pooled), 0.0) * (1 / na + 1 / nb))
            ok_hybrid &= abs(qa - qb) <= 5.0 * sigma

    ok_pol = True
    pol_detail = []
    for i, deg in enumerate(ANGLES_DEG):
        expected = 0.5 * math.sin(math.radians(deg)) ** 2
        qber, n = _signal_qber(deg, Encoding.POLARIZATION, 200 + i)
        sigma = math.sqrt(expected * (1 - expected) / n)
        ok_pol &= abs(qber - expected) <= 5.0 * sigma
        pol_detail.append(f"{deg:.0f}deg {qber:.4f}/{expected:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok_hybrid and ok_pol and elapsed < 60.0
    _report(6, ok,
            f"hybrid QBERs {[f'{q:.5f}' for q, _ in hybrid]} angle-independent={ok_hybrid}; "
            f"polarization obs/theory {', '.join(pol_detail)} within 5 sigma={ok_pol}; "
            f"{elapsed:.1f}s")


def test_criterion_7_decoy_bound_validity():
    start = time.perf_counter()
    src = SourceParams(p_mu=0.5, p_nu=0.4, p_vac=0.1)
    ch = ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, e_ch=0.05, y0=3.77e-4)
    held = 0
    runs = 500
    for i in range(runs):
        session = run_session(src, ch, 1_000_000, block_size=100_000,
                              master_seed=1000 + i)
        bound, _ = q1_lower(session.observables)
        truth = session.single_photon
        good = bound <= truth.gain
        if good and bound > 0.0 and truth.error_rate is not None:
            good = e1_upper(session.observables, bound)[0] >= truth.error_rate
        held += good
    elapsed = time.perf_counter() - start
    ok = held >= int(0.99 * runs) and elapsed < 600.0
    _report(7, ok, f"bounds held in {held}/{runs} sessions (need >= 495), {elapsed:.0f}s")


def _block_gains(sigma: float, n_blocks: int, seed: int) -> np.ndarray:
    src = SourceParams(p_mu=1.0, p_nu=0.0, p_vac=0.0)
    ch = ChannelParams(eta_ch=0.10, eta_c=0.35, eta_d=0.60,
                       block_scintillation_sigma=sigma)
    counts = simulate_blocks(src, ch, 2880, seed, "simulate", range(n_blocks))
    return BlockSeries(counts).gains[:, IntensityClass.SIGNAL]


def test_criterion_8_block_statistics():
    start = time.perf_counter()
    n_blocks = 1000

    gains = _block_gains(0.3, n_blocks, seed=300)
    q_hat = gains.mean()
    floor = q_hat * (1.0 - q_hat) / 2880
    excess = gains.var(ddof=1) - floor
    five_sigma = 5.0 * floor * math.sqrt(2.0 / (n_blocks - 1))
    ok_excess = excess > five_sigma

    calm = _block_gains(0.0, n_blocks, seed=301)
    q_hat0 = calm.mean()
    statistic = float(np.sum((calm - q_hat0) ** 2) * 2880 / (q_hat0 * (1.0 - q_hat0)))
    lo, hi = stats.chi2.ppf([1e-5, 1 - 1e-5], n_blocks - 1)
    ok_floor = lo < statistic < hi

    elapsed = time.perf_counter() - start
    ok = ok_excess and ok_floor and elapsed < 60.0
    _report(8, ok,
            f"scintillating variance excess {excess:.2e} > 5 sigma {five_sigma:.2e}: {ok_excess}; "
            f"calm chi2 {statistic:.0f} in [{lo:.0f}, {hi:.0f}]: {ok_floor}; {elapsed:.1f}s")


def test_criterion_9_state_algebra_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    n = 10_000
    pairs = random_unit_pairs(rng, n)
    thetas = rng.uniform(0.0, 2.0 * math.pi, n)
    worst = 0.0
    for (a, b), theta in zip(pairs, thetas):
        p = PolarizationState(a, b)
        h = qplate_map(p)
        worst = max(worst, abs(abs(h.amp_lr) ** 2 + abs(h.amp_rl) ** 2 - 1.0))
        back = qplate_inverse(h)
        worst = max(worst, abs(back.amp_r - p.amp_r), abs(back.amp_l - p.amp_l))
        rotated = rotate_frame(embed_hybrid(h), float(theta))
        worst = max(worst, abs(float(np.sum(np.abs(rotated.amps) ** 2)) - 1.0))
        for label in ("Z", "X"):
            rot = measure_probabilities(rotated, basis(label, Encoding.HYBRID))
            ref = measure_probabilities(h, basis(label, Encoding.HYBRID))
            worst = max(worst, abs(rot[0] - ref[0]), abs(rot[1] - ref[1]))
    for enc in (Encoding.POLARIZATION, Encoding.HYBRID):
        z, x = basis("Z", enc), basis("X", enc)
        for i in range(2):
            for j in range(2):
                worst = max(worst, abs(abs(np.vdot(x.kets[i], z.kets[j])) ** 2 - 0.5))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    _report(9, ok, f"worst deviation {worst:.2e} over {n} random states "
                   f"(tolerance 1e-12), {elapsed:.1f}s")
