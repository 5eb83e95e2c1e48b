"""Tests of the benchmark itself: every workload end to end at a tiny size,
and every check refusing a deliberately perturbed output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oamqkd  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from worker import Loop  # noqa: E402

SEED = 3


def tiny(name: str, tmp_path: Path):
    if name == "decoy_sessions":
        return workloads.DecoySessions(SEED, pulses=100_000, block_size=10_000)
    if name == "link_budget_grid":
        return workloads.LinkBudgetGrid(SEED, grid=[
            workloads.DEFAULT_BUDGET, dict(mu=0.5, nu=0.1, e_ch=0.01, dark_rate=1000.0)])
    if name == "turbulence_frames":
        return workloads.TurbulenceFrames(SEED, n_frames=12, size=64, pitch_mm=0.2)
    return workloads.CliPipeline(SEED, tmp_path / "work", pulses=30_000, n_frames=4, size=64,
                                 pitch_mm=0.2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    w = tiny(name, tmp_path)
    loop = Loop(w)
    for i in range(2 * w.round_size):
        loop.run_op(i)
    w.finish()
    assert loop.attempted == 2 * w.round_size
    assert loop.failed == 0
    assert loop.problems == []


def test_a_refused_op_counts_as_failed_not_as_wrong_or_completed():
    class HalfRefusing:
        round_size = 2

        def inputs(self, i):
            return i

        def op(self, i):
            time.sleep(0.01)
            if i % 2:
                raise oamqkd.ValidationError("refused")
            return i

        def check(self, i, output):
            assert i % 2 == 0, "a failed op has no output to check"

    loop = Loop(HalfRefusing())
    ops, busy = loop.run_for(0.0)
    assert (ops, loop.attempted, loop.failed, loop.problems) == (1, 2, 1, [])
    assert len(loop.latencies) == 1  # only the completed op has a latency
    assert busy >= 0.02  # but the failed op's time is busy time


# --- decoy_sessions -------------------------------------------------------------

@pytest.fixture(scope="module")
def session():
    w = workloads.DecoySessions(SEED, pulses=200_000, block_size=20_000)
    s, key = w.op(w.inputs(0))
    return w, s, key


def _sigma_q_mu(s):
    n = sum(int(b.sent[0]) for b in s.blocks)
    q = s.observables.q_mu
    return math.sqrt(q * (1 - q) / n)


def _check(w, s, key):
    workloads.check_session(w.link, w.pulses // w.block_size, w.block_size, s, key)


def test_session_passes_its_checks(session):
    _check(*session)


def test_q_mu_off_by_ten_sigma_is_refused(session):
    w, s, key = session
    obs = dataclasses.replace(s.observables, q_mu=s.observables.q_mu + 10 * _sigma_q_mu(s))
    with pytest.raises(CheckFailed, match="q_mu"):
        _check(w, dataclasses.replace(s, observables=obs), key)


def test_tallies_off_by_ten_sigma_are_refused(session):
    w, s, _ = session
    sent, detected, sifted, errors = (t.sum(axis=0) for t in workloads._tallies(s))
    n_blocks = len(s.blocks)
    oracles.check_tallies(w.link, sent, detected, sifted, errors, n_blocks)
    shifted = detected.copy()
    shifted[0] += int(10 * _sigma_q_mu(s) * sent[0])
    with pytest.raises(CheckFailed, match="signal gain"):
        oracles.check_tallies(w.link, sent, shifted, sifted, errors, n_blocks)
    exp = oracles.class_expectation(w.link, 0.623)
    wrong = errors.copy()
    wrong[0] += int(10 * math.sqrt(exp.qber * sifted[0]))
    with pytest.raises(CheckFailed, match="signal qber"):
        oracles.check_tallies(w.link, sent, detected, sifted, wrong, n_blocks)


def test_single_photon_truth_off_by_ten_sigma_is_refused(session):
    w, s, key = session
    sp = s.single_photon
    n = sum(int(b.sent[0]) for b in s.blocks)
    off = dataclasses.replace(sp, gain=sp.gain + 10 * math.sqrt(sp.gain / n))
    with pytest.raises(CheckFailed, match="single-photon gain"):
        _check(w, dataclasses.replace(s, single_photon=off), key)


def test_key_rate_off_in_the_ninth_digit_is_refused(session):
    w, s, key = session
    with pytest.raises(CheckFailed, match="rate"):
        _check(w, s, dataclasses.replace(key, rate=key.rate * (1 + 1e-8)))


def test_a_repeated_seed_must_repeat_its_tallies(session):
    w, s, key = session
    w.check(w.inputs(0), (s, key))
    w.finish()
    seed, tallies = w._first
    tallies[1][0, 0] += 1
    with pytest.raises(CheckFailed, match="different tallies"):
        w.finish()


def test_expectations_match_a_brute_force_average():
    link = oracles.Link(eta=0.018, e_ch=0.01, y0=2e-5, theta=math.radians(15), polarization=True,
                        sigma=0.3, p_class=(0.7, 0.2, 0.1), intensities=(0.623, 0.165, 0.0))
    m = np.exp(0.3 * np.random.default_rng(0).standard_normal(400_000) - 0.045)
    p = 1 - np.exp(-0.623 * 0.018 * m)
    q = 1 - (1 - p) * (1 - 2e-5)
    exp = oracles.class_expectation(link, 0.623)
    assert exp.gain == pytest.approx(q.mean(), rel=1e-3)
    assert exp.gain_block_var == pytest.approx(q.var(), rel=2e-2)
    assert link.misalignment_error == pytest.approx(0.5 * math.sin(math.radians(15)) ** 2)


# --- link_budget_grid -------------------------------------------------------------

@pytest.fixture(scope="module")
def budget():
    w = tiny("link_budget_grid", None)
    k = next(k for k, p in enumerate(w.points) if p[3])
    return w, k, w.op(k)


def _check_budget(w, k, curve, g_star, margin):
    _, b, measured, is_default = w.points[k]
    expected = workloads.expected_curve(w.q_grid, b)
    workloads.check_budget(b, expected, measured, is_default, curve, g_star, margin)


def test_budget_passes_its_checks(budget):
    w, k, out = budget
    _check_budget(w, k, *out)


def test_g_star_off_by_one_percent_is_refused(budget):
    w, k, (curve, g_star, margin) = budget
    for factor in (1.01, 0.99):
        moved = g_star * factor
        with pytest.raises(CheckFailed, match="sign change"):
            _check_budget(w, k, curve, moved, oracles.loss_margin_db(workloads.REFERENCE_GAIN,
                                                                      moved))


def test_a_wrong_curve_point_or_margin_is_refused(budget):
    w, k, (curve, g_star, margin) = budget
    bent = list(curve)
    pt = bent[20]
    bent[20] = pt._replace(breakdown=dataclasses.replace(pt.breakdown,
                                                         rate=pt.breakdown.rate * 1.001))
    with pytest.raises(CheckFailed, match="rate"):
        _check_budget(w, k, bent, g_star, margin)
    with pytest.raises(CheckFailed, match="loss margin"):
        _check_budget(w, k, curve, g_star, margin + 0.01)


def test_the_mpmath_oracle_agrees_with_the_float_closed_form():
    b = oracles.Budget(mu=0.623, nu=0.165, e_ch=0.02, y0=5e-6)
    for q in (1e-2, 3e-4, 1e-4):
        want = oracles.mp_budget_point(q, b)
        got = oracles.budget_point(q, b)
        for key in ("e_mu_star", "e_nu_star", "q1_lower", "e1_upper", "rate"):
            assert got[key] == pytest.approx(want[key], rel=1e-10)


# --- turbulence_frames ------------------------------------------------------------

@pytest.fixture(scope="module")
def frames():
    w = tiny("turbulence_frames", None)
    inputs = w.inputs(0)
    return w, inputs, w.op(inputs)


def test_a_moved_centroid_is_refused(frames):
    w, inputs, (centroids, estimate) = frames
    w.check(inputs, (centroids, estimate))
    moved = list(centroids)
    moved[3] = oamqkd.CentroidSample(moved[3].x_mm + 0.01, moved[3].y_mm)
    with pytest.raises(CheckFailed, match="sigma_m"):
        w.check(inputs, (moved, estimate))


def test_a_wrong_estimate_is_refused(frames):
    w, inputs, (centroids, estimate) = frames
    for field, factor in (("r0", 1 + 1e-6), ("cn2", 1 - 1e-6)):
        bad = dataclasses.replace(estimate, **{field: getattr(estimate, field) * factor})
        with pytest.raises(CheckFailed, match=field):
            w.check(inputs, (centroids, bad))


def test_sigma_outside_the_injected_wander_is_refused():
    oracles.check_wander(0.33e-3, 0.33e-3, 177)
    for sigma in (0.2e-3, 0.45e-3):
        with pytest.raises(CheckFailed, match="outside"):
            oracles.check_wander(sigma, 0.33e-3, 177)


# --- cli_pipeline -----------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    w = tiny("cli_pipeline", tmp_path_factory.mktemp("cli"))
    w.op(w.inputs(0))
    keep = tmp_path_factory.mktemp("cli_out")
    for path in w.out.iterdir():
        shutil.copy(path, keep / path.name)
    return w, keep


def _perturbed(cli_out, tmp_path, name, edit):
    w, keep = cli_out
    out = tmp_path / "out"
    shutil.copytree(keep, out)
    path = out / name
    path.write_text(edit(path.read_text()))
    return lambda: workloads.check_cli_outputs(out, w.cfg, w.link, w.budget, w.centres)


def test_cli_outputs_pass_their_checks(cli_out, tmp_path):
    _perturbed(cli_out, tmp_path, "estimate.txt", lambda s: s)()


def _edit_csv(column, row, change):
    def edit(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        cells = lines[row + 1].split(",")
        i = header.index(column)
        cells[i] = change(cells[i])
        lines[row + 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def _edit_key(key, change):
    def edit(text):
        return "".join(f"{key}={change(line.partition('=')[2])}\n" if line.startswith(key + "=")
                       else line + "\n" for line in text.splitlines())
    return edit


@pytest.mark.parametrize("name, edit, match", [
    ("centroids.csv", _edit_csv("x_mm", 1, lambda v: repr(float(v) + 0.01)), "centroid"),
    ("blocks.csv", _edit_csv("sent", 4, lambda v: str(int(v) + 1)), "pulses"),
    ("keyrate.csv", _edit_csv("rate", 0, lambda v: repr(float(v) * (1 + 1e-6))), "rate"),
    ("observables.txt", _edit_key("q_mu", lambda v: repr(float(v) * 1.5)), "q_mu"),
    ("threshold.txt", _edit_key("g_star", lambda v: repr(float(v) * 1.01)), "sign change"),
    ("sweep.csv", _edit_csv("rate", 30, lambda v: repr(float(v) * 1.001)), "rate"),
    ("estimate.txt", _edit_key("r0_m", lambda v: repr(float(v) * (1 + 1e-5))), "r0"),
])
def test_a_perturbed_cli_output_is_refused(cli_out, tmp_path, name, edit, match):
    check = _perturbed(cli_out, tmp_path, name, edit)
    with pytest.raises(CheckFailed, match=match):
        check()


# --- tracing and the command ------------------------------------------------------

def test_tracer_counts_layers_and_restores_the_package():
    import oamqkd.link_budget as lb
    from oamqkd import cli

    originals = (oamqkd.run_session, lb.secret_key_rate, cli._COMMANDS["sweep"])
    w = workloads.DecoySessions(SEED, pulses=40_000, block_size=10_000)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oamqkd.run_session is not originals[0]
        assert lb.secret_key_rate is not originals[1]
        assert cli._COMMANDS["sweep"] is not originals[2]
        w.op(w.inputs(0))
        lb.gain_threshold(lb.LinkBudgetParams())
    finally:
        tracer.uninstall()
    assert (oamqkd.run_session, lb.secret_key_rate, cli._COMMANDS["sweep"]) == originals
    layers = tracer.layer_metrics(1)
    assert set(tracing.LAYER_METRICS) < set(layers)
    assert layers["simulator.blocks"] == 4
    assert layers["simulator.pulses"] == 40_000
    assert layers["keyrate.secret_key_rate_calls"] == 1 + layers[
        "link_budget.rate_evals_per_threshold"]
    assert layers["simulator.run_session_self_s"] > 0.0


def test_tracer_wraps_every_target_wherever_it_is_bound():
    targets = tracing.TARGETS + tracing.COUNT_ONLY
    originals = [getattr(importlib.import_module(m), attr) for m, attr, _, _ in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _, _), original in zip(targets, originals):
            assert getattr(importlib.import_module(module), attr) is not original, attr
            for namespace in tracing.MODULES:
                assert original not in vars(importlib.import_module(namespace)).values(), attr
    finally:
        tracer.uninstall()


def test_tracer_refuses_a_target_it_cannot_find(monkeypatch):
    from oamqkd import cli

    originals = (oamqkd.run_session, cli.cmd_sweep)
    targets = tracing.TARGETS
    missing = ("oamqkd.simulator", "no_such_layer", "simulator.no_such_layer", None)
    monkeypatch.setattr(tracing, "TARGETS", targets + (missing,))
    with pytest.raises(AttributeError, match="no_such_layer"):
        tracing.Tracer().install()
    monkeypatch.setattr(tracing, "TARGETS", targets)
    monkeypatch.delattr(cli, "_COMMANDS")
    with pytest.raises(AttributeError, match="_COMMANDS"):
        tracing.Tracer().install()
    assert (oamqkd.run_session, cli.cmd_sweep) == originals  # nothing was left wrapped


def test_the_command_prints_every_end_to_end_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "link_budget_grid",
                          "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.NAMES) == set(run.NAMES)
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_the_traced_command_prints_every_per_layer_metric():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "link_budget_grid",
                          "--seed", "1", "--seconds", "0.2", "--trace", "1"],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert result["metrics"]["simulator.pulses"]["value"] == 0
    assert result["metrics"]["keyrate.secret_key_rate_calls"]["value"] > 100


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
                          "link_budget_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
