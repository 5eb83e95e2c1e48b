"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, then offers
``inputs(i)`` (untimed), ``op(inputs)`` (the timed call into oamqkd) and
``check(inputs, output)`` (untimed, raises :class:`oracles.CheckFailed`).
``finish()`` runs the checks that need more than one op.  Ops are attempted in
whole rounds of ``round_size`` so that every run covers the same mix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

import oamqkd
from oamqkd import cli

import oracles
from oracles import CheckFailed, require, require_close


class OpFailed(RuntimeError):
    """The program refused an op (an exception or a non-zero exit code)."""


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode("ascii")])


def _session_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# --- decoy_sessions -----------------------------------------------------------

class DecoySessions:
    """One op: a 1e6-pulse session on acceptance criterion 7's channel, then
    the decoy key rate of its observables.  A new master seed every op."""

    name = "decoy_sessions"
    round_size = 1

    def __init__(self, seed: int, pulses: int = 1_000_000, block_size: int = 100_000) -> None:
        self.pulses, self.block_size = pulses, block_size
        self.src = oamqkd.SourceParams(p_mu=0.5, p_nu=0.4, p_vac=0.1)
        self.ch = oamqkd.ChannelParams(eta_ch=0.2, eta_c=1.0, eta_d=1.0, e_ch=0.05, y0=3.77e-4)
        self.link = oracles.Link(eta=0.2, e_ch=0.05, y0=3.77e-4, theta=0.0, polarization=False,
                                 sigma=0.0, p_class=(0.5, 0.4, 0.1),
                                 intensities=(0.623, 0.165, 0.0))
        self._rng = _rng(seed, self.name)
        self._seeds: list[int] = []
        self._first = None

    def inputs(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(_session_seed(self._rng))
        return self._seeds[i]

    def op(self, master_seed: int):
        session = oamqkd.run_session(self.src, self.ch, self.pulses,
                                     block_size=self.block_size, master_seed=master_seed)
        return session, oamqkd.secret_key_rate(session.observables)

    def check(self, master_seed: int, output) -> None:
        session, key = output
        check_session(self.link, self.pulses // self.block_size, self.block_size, session, key)
        if self._first is None:
            self._first = (master_seed, _tallies(session))

    def finish(self) -> None:
        if self._first is None:  # no op returned an output to repeat
            return
        master_seed, tallies = self._first
        again = _tallies(self.op(master_seed)[0])
        require(all(np.array_equal(a, b) for a, b in zip(tallies, again)),
                f"master seed {master_seed} gave different tallies on a second run")


def _tallies(session) -> list[np.ndarray]:
    return [np.array([getattr(b, f) for b in session.blocks])
            for f in ("sent", "detected", "sifted", "errors")]


def check_session(link: oracles.Link, n_blocks: int, block_size: int, session, key) -> None:
    sent, detected, sifted, errors = (t.sum(axis=0) for t in _tallies(session))
    require(len(session.blocks) == n_blocks, f"{len(session.blocks)} blocks, expected {n_blocks}")
    require(int(sent.sum()) == n_blocks * block_size,
            f"{int(sent.sum())} pulses tallied, expected {n_blocks * block_size}")
    obs = session.observables
    require_close("q_mu", obs.q_mu, detected[0] / sent[0])
    require_close("e_mu", obs.e_mu, errors[0] / sifted[0])
    require_close("q_nu", obs.q_nu, detected[1] / sent[1])
    require_close("e_nu", obs.e_nu, errors[1] / sifted[1])
    require_close("y0", obs.y0, detected[2] / sent[2])
    # The pooled observables must be the tallies' (checked above), so a
    # statistical check of the tallies covers the observables too.
    oracles.check_tallies(link, sent, detected, sifted, errors, n_blocks)
    sp = session.single_photon
    oracles.check_single_photon(link, sp.gain, sp.error_rate, sp.sifted, int(sent[0]), n_blocks)
    want = oracles.decoy_key_rate(obs.mu, obs.nu, obs.q_mu, obs.e_mu, obs.q_nu, obs.e_nu, obs.y0)
    oracles.check_key_rate({f: getattr(key, f) for f in (*want, "secure")}, want)


# --- link_budget_grid -----------------------------------------------------------

DEFAULT_BUDGET = dict(mu=0.623, nu=0.165, e_ch=0.02, dark_rate=100.0)
REFERENCE_GAIN = 1.2e-2
CURVE_POINTS = 51


class LinkBudgetGrid:
    """One op: a 51-point rate-vs-gain curve, the gain threshold and the loss
    margin of one grid point.  The grid spans e_ch x dark rate x (mu, nu);
    the seed fixes the visiting order and each point's measured gain."""

    name = "link_budget_grid"
    E_CH = (0.0, 0.01, 0.02, 0.03)
    DARK_HZ = (10.0, 100.0, 1000.0)
    MU_NU = ((0.623, 0.165), (0.5, 0.1), (0.8, 0.2))
    GATE_S = 50e-9

    def __init__(self, seed: int, grid=None) -> None:
        rng = _rng(seed, self.name)
        grid = grid if grid is not None else [
            dict(mu=mu, nu=nu, e_ch=e_ch, dark_rate=dark)
            for e_ch in self.E_CH for dark in self.DARK_HZ for mu, nu in self.MU_NU]
        order = rng.permutation(len(grid))
        gains = 10.0 ** rng.uniform(math.log10(3e-3), math.log10(3e-2), len(grid))
        self.points = []
        for j, g in zip(order, gains):
            spec = grid[j]
            measured = REFERENCE_GAIN if spec == DEFAULT_BUDGET else float(g)
            params = oamqkd.LinkBudgetParams(gate=self.GATE_S, **spec)
            budget = oracles.Budget(mu=spec["mu"], nu=spec["nu"], e_ch=spec["e_ch"],
                                    y0=spec["dark_rate"] * self.GATE_S)
            self.points.append((params, budget, measured, spec == DEFAULT_BUDGET))
        self.round_size = len(self.points)
        self.q_grid = np.logspace(-5.0, 0.0, CURVE_POINTS)
        self._expected: dict[int, np.ndarray] = {}
        self._thresholds_checked: dict[int, float] = {}

    def inputs(self, i: int) -> int:
        return i % len(self.points)

    def op(self, k: int):
        params, _, measured, _ = self.points[k]
        curve = oamqkd.rate_vs_gain(self.q_grid, params)
        g_star = oamqkd.gain_threshold(params)
        return curve, g_star, oamqkd.loss_margin_db(measured, g_star)

    def check(self, k: int, output) -> None:
        _, budget, measured, is_default = self.points[k]
        if k not in self._expected:
            self._expected[k] = expected_curve(self.q_grid, budget)
        # A threshold equal to one already checked for this point needs no new search.
        known = self._thresholds_checked.get(k) == output[1]
        check_budget(budget, self._expected[k], measured, is_default, *output,
                     threshold_known=known)
        self._thresholds_checked[k] = output[1]

    def finish(self) -> None:
        k = next(k for k, p in enumerate(self.points) if p[3])
        curve, _, _ = self.op(k)
        row = int(np.argmin(np.abs(np.log10(self.q_grid) + 2.0)))  # q_mu = 1e-2
        pt = curve[row]
        want = oracles.mp_budget_point(pt.q_mu, self.points[k][1])
        got = (pt.q_mu, pt.e_mu_star, pt.e_nu_star, pt.breakdown.q1_lower,
               pt.breakdown.e1_upper, pt.breakdown.rate)
        for key, value in zip(CURVE_FIELDS, got):
            require_close(f"mpmath reference row {key}", value, want[key], rel=1e-10)


CURVE_FIELDS = ("q_mu", "e_mu_star", "e_nu_star", "q1_lower", "e1_upper", "rate")


def expected_curve(q_grid, budget) -> np.ndarray:
    """One row per gain, one column per ``CURVE_FIELDS`` entry."""
    return np.array([[p[f] for f in CURVE_FIELDS]
                     for p in (oracles.budget_point(float(q), budget) for q in q_grid)])


def check_budget(budget, expected, measured, is_default, curve, g_star, margin,
                 threshold_known: bool = False) -> None:
    require(len(curve) == len(expected), f"{len(curve)} curve points, expected {len(expected)}")
    got = np.array([[pt.q_mu, pt.e_mu_star, pt.e_nu_star, pt.breakdown.q1_lower,
                     pt.breakdown.e1_upper, pt.breakdown.rate] for pt in curve])
    tolerance = oracles.FLOAT_REL * np.abs(expected) + 1e-12
    tolerance[:, 0] = 0.0  # the gains themselves must be the requested ones
    bad = ~(np.abs(got - expected) <= tolerance)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise CheckFailed(f"q_mu={expected[row, 0]:.4g} {CURVE_FIELDS[col]}: got "
                          f"{got[row, col]!r}, expected {expected[row, col]!r}")
    if not threshold_known:
        oracles.check_threshold(g_star, budget)
    require_close("loss margin", margin, oracles.loss_margin_db(measured, g_star))
    if is_default:
        require(5e-5 <= g_star <= 2e-4, f"default g*={g_star:.4g} outside [5e-5, 2e-4]")
        require(abs(margin - 20.0) <= 2.0, f"default loss margin {margin:.3f} dB not 20 +/- 2")


# --- turbulence_frames ----------------------------------------------------------

LENGTH_M, WAVELENGTH_NM = 210.0, 850.0  # the paper's link
GEOMETRY = (LENGTH_M, WAVELENGTH_NM * 1e-9)
PROFILES = ("gaussian", "annular")


class TurbulenceFrames:
    """One op: 177 synthetic 256x256 frames (the paper's frame count), the
    centroid of each and the turbulence estimate.  Gaussian and annular spots
    take turns; the seed draws each op's frame seed and injected wander."""

    name = "turbulence_frames"
    round_size = len(PROFILES)

    def __init__(self, seed: int, n_frames: int = 177, size: int = 256,
                 pitch_mm: float = 0.05) -> None:
        self.n_frames = n_frames
        self.spots = [oamqkd.SpotModel(rows=size, cols=size, pitch_mm=pitch_mm, profile=p)
                      for p in PROFILES]
        self.geom = oamqkd.LinkGeometry(*GEOMETRY)
        self._rng = _rng(seed, self.name)
        self._inputs: list[tuple] = []

    def inputs(self, i: int):
        while len(self._inputs) <= i:
            self._inputs.append((_session_seed(self._rng),
                                 float(self._rng.uniform(0.25e-3, 0.45e-3))))
        return (i % len(self.spots), *self._inputs[i])

    def op(self, inputs):
        profile, frame_seed, wander_m = inputs
        frames = oamqkd.synthesize_frames(self.n_frames, self.spots[profile], wander_m,
                                          rng_seed=frame_seed)
        centroids = [oamqkd.centroid(f) for f in frames]
        return centroids, oamqkd.estimate_turbulence(centroids, self.geom)

    def check(self, inputs, output) -> None:
        check_frames(self.spots[inputs[0]], self.n_frames, inputs[2], *output)

    def finish(self) -> None:
        for spot in self.spots:
            (frame,) = oamqkd.synthesize_frames(1, spot, 0.0)
            c = oamqkd.centroid(frame)
            require_close(f"{spot.profile} centre x", c.x_mm, 0.5 * spot.cols * spot.pitch_mm,
                          rel=0.0, abs_tol=1e-9)
            require_close(f"{spot.profile} centre y", c.y_mm, 0.5 * spot.rows * spot.pitch_mm,
                          rel=0.0, abs_tol=1e-9)


def check_frames(spot, n_frames, wander_m, centroids, estimate) -> None:
    require(len(centroids) == n_frames, f"{len(centroids)} centroids, expected {n_frames}")
    xs = [c.x_mm for c in centroids]
    ys = [c.y_mm for c in centroids]
    width, height = spot.cols * spot.pitch_mm, spot.rows * spot.pitch_mm
    require(all(0.0 < x < width for x in xs) and all(0.0 < y < height for y in ys),
            "a centroid lies outside its frame")
    oracles.check_turbulence(estimate.sigma_m, estimate.r0, estimate.cn2, xs, ys, *GEOMETRY)
    oracles.check_wander(estimate.sigma_m, wander_m, n_frames)


# --- cli_pipeline ---------------------------------------------------------------

CLI_CONFIG = {
    "source.mu": 0.623, "source.nu": 0.165,
    "source.p_mu": 0.7, "source.p_nu": 0.2, "source.p_vac": 0.1,
    "channel.eta_ch": 0.10, "channel.eta_c": 0.30, "channel.eta_d": 0.60,
    "channel.e_ch": 0.01, "channel.y0": 2e-5, "channel.theta": math.radians(15.0),
    "channel.encoding": "polarization", "channel.scintillation_sigma": 0.3,
    "run.pulses": 1_000_000,
    "budget.mu": 0.623, "budget.nu": 0.165, "budget.e_ch": 0.03, "budget.y0": 2e-5,
    "geometry.length_m": LENGTH_M, "geometry.wavelength_nm": WAVELENGTH_NM,
}
CLI_BLOCK_SIZE = 2880  # the CLI's default; the config leaves it unset on purpose
SPOT_WAIST_MM = 1.0  # 1/e^2 radius of the spots drawn into the frame files


def cli_link(cfg: dict) -> oracles.Link:
    return oracles.Link(
        eta=cfg["channel.eta_ch"] * cfg["channel.eta_c"] * cfg["channel.eta_d"],
        e_ch=cfg["channel.e_ch"], y0=cfg["channel.y0"], theta=cfg["channel.theta"],
        polarization=cfg["channel.encoding"] == "polarization",
        sigma=cfg["channel.scintillation_sigma"],
        p_class=(cfg["source.p_mu"], cfg["source.p_nu"], cfg["source.p_vac"]),
        intensities=(cfg["source.mu"], cfg["source.nu"], 0.0))


def draw_spot(size: int, pitch_mm: float, cx_mm: float, cy_mm: float,
              annular: bool) -> np.ndarray:
    centres = (np.arange(size) + 0.5) * pitch_mm
    r_sq = (centres[None, :] - cx_mm) ** 2 + (centres[:, None] - cy_mm) ** 2
    values = np.exp(-2.0 * r_sq / SPOT_WAIST_MM**2)
    return values * (r_sq / SPOT_WAIST_MM**2) if annular else values


class CliPipeline:
    """One op: the four commands a user runs for one link, through
    ``oamqkd.cli.main``: simulate from a config file, keyrate on its
    observables, sweep at the simulated signal gain and turbulence on a
    directory of frame files that set-up wrote."""

    name = "cli_pipeline"
    round_size = 1

    def __init__(self, seed: int, workdir: Path, pulses: int = 1_000_000, n_frames: int = 16,
                 size: int = 256, pitch_mm: float = 0.05) -> None:
        self.cfg = dict(CLI_CONFIG, **{"run.pulses": pulses})
        self.link = cli_link(self.cfg)
        self.budget = oracles.Budget(mu=self.cfg["budget.mu"], nu=self.cfg["budget.nu"],
                                     e_ch=self.cfg["budget.e_ch"], y0=self.cfg["budget.y0"])
        self.work = Path(workdir)
        self.config = self.work / "link.cfg"
        self.frames = self.work / "frames"
        self.out = self.work / "out"
        self.frames.mkdir(parents=True)
        self.out.mkdir()
        self.config.write_text("".join(f"{k}={v!r}\n" if isinstance(v, float) else f"{k}={v}\n"
                                       for k, v in self.cfg.items()), encoding="utf-8")
        rng = _rng(seed, self.name)
        half = 0.5 * size * pitch_mm
        offsets = np.clip(rng.normal(0.0, 0.33, size=(n_frames, 2)), -2.0, 2.0)
        self.centres = half + offsets
        for j, (cx, cy) in enumerate(self.centres):
            values = draw_spot(size, pitch_mm, cx, cy, annular=j % 2 == 1)
            with open(self.frames / f"frame_{j:03d}.txt", "w", encoding="utf-8") as fh:
                fh.write(f"{size} {size} {pitch_mm!r}\n")
                np.savetxt(fh, values, fmt="%.10g")
        self._rng = rng
        self._seeds: list[int] = []

    def inputs(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(_session_seed(self._rng))
        return self._seeds[i]

    def _run(self, argv: list[str]) -> None:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"oamqkd {' '.join(argv)} exited {code}: {err.getvalue().strip()}")

    def op(self, seed: int) -> None:
        common = ["--config", str(self.config), "--out", str(self.out)]
        self._run(["simulate", "--seed", str(seed), *common])
        obs = _read_key_values(self.out / "observables.txt")
        self._run(["keyrate", "--observables", str(self.out / "observables.txt"), *common])
        self._run(["sweep", "--measured-gain", obs["q_mu"], *common])
        self._run(["turbulence", "--frames", str(self.frames), *common])

    def check(self, seed: int, output) -> None:
        try:
            check_cli_outputs(self.out, self.cfg, self.link, self.budget, self.centres)
        finally:
            for path in self.out.iterdir():
                path.unlink()

    def finish(self) -> None:
        pass


def _read_key_values(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, sep, value = line.partition("=")
            require(sep == "=", f"{path}: malformed line {line!r}")
            out[key.strip()] = value.strip()
    return out


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# Data files render floats with 10 significant digits.
TEXT_REL = 1e-9


def check_cli_outputs(out: Path, cfg: dict, link: oracles.Link, budget: oracles.Budget,
                      centres: np.ndarray) -> None:
    # simulate: blocks.csv and observables.txt
    obs = _read_key_values(out / "observables.txt")
    n_blocks = cfg["run.pulses"] // CLI_BLOCK_SIZE
    require(int(obs["n_blocks"]) == n_blocks, f"n_blocks={obs['n_blocks']}, expected {n_blocks}")
    require(int(obs["block_size"]) == CLI_BLOCK_SIZE, f"block_size={obs['block_size']}")
    classes = ("signal", "decoy", "vacuum")
    counts = {c: np.zeros(4, dtype=np.int64) for c in classes}
    rows = _read_csv(out / "blocks.csv")
    require(len(rows) == 3 * n_blocks, f"blocks.csv has {len(rows)} rows, expected {3 * n_blocks}")
    for row in rows:
        counts[row["class"]] += [int(row[f]) for f in ("sent", "detected", "sifted", "errors")]
    sent, detected, sifted, errors = np.array([counts[c] for c in classes]).T
    require(int(sent.sum()) == n_blocks * CLI_BLOCK_SIZE,
            f"blocks.csv sends {int(sent.sum())} pulses, expected {n_blocks * CLI_BLOCK_SIZE}")
    pooled = {"q_mu": detected[0] / sent[0], "e_mu": errors[0] / sifted[0],
              "q_nu": detected[1] / sent[1], "e_nu": errors[1] / sifted[1],
              "y0": detected[2] / sent[2]}
    for key, want in pooled.items():
        require_close(f"observables.txt {key}", float(obs[key]), want, rel=TEXT_REL)
    oracles.check_tallies(link, sent, detected, sifted, errors, n_blocks)
    sp_sifted = int(obs["single_photon_sifted"])
    oracles.check_single_photon(link, float(obs["single_photon_gain"]),
                                float(obs["single_photon_error_rate"]), sp_sifted,
                                int(sent[0]), n_blocks)

    # keyrate: recomputed from observables.txt as written
    values = {k: float(obs[k]) for k in ("mu", "nu", "q_mu", "e_mu", "q_nu", "e_nu", "y0")}
    (key_row,) = _read_csv(out / "keyrate.csv")
    want = oracles.decoy_key_rate(**values)
    got = {k: float(key_row[k]) for k in want}
    got["secure"] = key_row["secure"] == "true"
    oracles.check_key_rate(got, want)

    # sweep: every curve row and the threshold
    curve = _read_csv(out / "sweep.csv")
    require(len(curve) == CURVE_POINTS, f"sweep.csv has {len(curve)} rows")
    for row, q in zip(curve, np.logspace(-5.0, 0.0, CURVE_POINTS)):
        require_close("sweep q_mu", float(row["q_mu"]), float(q), rel=TEXT_REL)
        oracles.check_budget_point({k: float(row[k]) for k in CURVE_FIELDS}, budget,
                                   rel=1e-7, abs_tol=1e-10)
    threshold = _read_key_values(out / "threshold.txt")
    g_star = float(threshold["g_star"])
    oracles.check_threshold(g_star, budget)
    require_close("measured_gain", float(threshold["measured_gain"]), values["q_mu"], rel=TEXT_REL)
    require_close("loss_margin_db", float(threshold["loss_margin_db"]),
                  oracles.loss_margin_db(values["q_mu"], g_star), rel=1e-8)

    # turbulence: centroids of the spots set-up drew, then the estimate
    rows = _read_csv(out / "centroids.csv")
    require(len(rows) == len(centres), f"centroids.csv has {len(rows)} rows")
    xs = [float(r["x_mm"]) for r in rows]
    ys = [float(r["y_mm"]) for r in rows]
    for j, (x, y) in enumerate(zip(xs, ys)):
        require(abs(x - centres[j, 0]) <= 1e-6 and abs(y - centres[j, 1]) <= 1e-6,
                f"frame {j}: centroid ({x}, {y}) mm, spot drawn at "
                f"({centres[j, 0]}, {centres[j, 1]}) mm")
    est = _read_key_values(out / "estimate.txt")
    oracles.check_turbulence(float(est["sigma_m_m"]), float(est["r0_m"]), float(est["cn2_si"]),
                             xs, ys, *GEOMETRY, rel=1e-7)


def make(name: str, seed: int, workdir: Path):
    if name == CliPipeline.name:
        return CliPipeline(seed, workdir)
    return {w.name: w for w in (DecoySessions, LinkBudgetGrid, TurbulenceFrames)}[name](seed)


NAMES = (DecoySessions.name, LinkBudgetGrid.name, TurbulenceFrames.name, CliPipeline.name)
