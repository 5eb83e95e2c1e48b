"""End-to-end command-line runs: file schemas, determinism, exit codes."""

import csv
import math
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oamqkd import LinkBudgetParams, SpotModel, synthesize_frames
from oamqkd.cli import DEFAULTS, FLAGS, main
from oamqkd.fileio import read_key_values
from oamqkd.turbulence import write_frame

TABLE_CSV = """mu,nu,q_mu,e_mu,q_nu,e_nu,y0
0.623,0.165,1.43e-2,0.0381,4.77e-3,0.0763,3.77e-4
0.623,0.165,1.30e-2,0.0688,4.12e-3,0.0867,2.55e-4
0.623,0.165,1.11e-2,0.0416,2.77e-3,0.0447,6.63e-5
0.623,0.165,0.85e-2,0.0584,2.34e-3,0.0623,1.13e-4
"""


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, entries):
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))


class TestSimulate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["simulate", "--pulses", "30000", "--seed", "9",
                       "--out", str(tmp_path / name)])
            assert rc == 0
        for fname in ("blocks.csv", "observables.txt"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_noiseless_config_has_zero_qber(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {
            "channel.eta_ch": 0.5, "channel.eta_c": 1.0, "channel.eta_d": 1.0,
            "channel.e_ch": 0.0, "channel.y0": 0.0, "run.pulses": 50_000,
        })
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        obs = read_key_values(tmp_path / "out" / "observables.txt")
        assert float(obs["e_mu"]) == 0.0

    def test_rotation_sweep_qber_stable_in_hybrid(self, tmp_path):
        qbers = []
        for i, deg in enumerate((0, 15, 45, 60)):
            cfg = tmp_path / f"theta{deg}.cfg"
            write_config(cfg, {
                "channel.eta_ch": 0.25, "channel.eta_c": 1.0, "channel.eta_d": 1.0,
                "channel.e_ch": 0.03, "channel.theta": math.radians(deg),
                "channel.encoding": "hybrid", "run.pulses": 100_000,
            })
            out = tmp_path / f"out{deg}"
            assert main(["simulate", "--config", str(cfg), "--seed", str(50 + i),
                         "--out", str(out)]) == 0
            obs = read_key_values(out / "observables.txt")
            rows = read_csv(out / "blocks.csv")
            sifted = sum(int(r["sifted"]) for r in rows if r["class"] == "signal")
            qbers.append((float(obs["e_mu"]), sifted))
        for qa, na in qbers:
            for qb, nb in qbers:
                sigma = math.sqrt(0.03 * 0.97 * (1 / na + 1 / nb))
                assert abs(qa - qb) <= 5 * sigma

    def test_blocks_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--pulses", "20000", "--out", str(out)]) == 0
        rows = read_csv(out / "blocks.csv")
        assert set(rows[0]) == {"block_index", "class", "sent", "detected",
                                "sifted", "errors", "gain", "qber"}
        for row in rows:
            assert row["class"] in ("signal", "decoy", "vacuum")
            assert int(row["errors"]) <= int(row["sifted"]) <= int(row["detected"])
            float(row["gain"]), float(row["qber"])  # parseable, nan allowed

    def test_estimation_failure_exits_2(self, tmp_path):
        cfg = tmp_path / "dead.cfg"
        write_config(cfg, {"channel.eta_ch": 0.0, "channel.y0": 0.0,
                           "run.pulses": 5760})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_config_value_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, {"source.mu": "banana"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("flags", [["--block-size", "0"], ["--pulses", "-5"],
                                       ["--encoding", "polarization", "--theta", "nan"]])
    def test_invalid_run_exits_1(self, tmp_path, flags, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--pulses", "30000", *flags, "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()


class TestKeyrate:
    def test_table_csv_gives_four_positive_rates(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(TABLE_CSV)
        out = tmp_path / "out"
        assert main(["keyrate", "--csv", str(table), "--out", str(out)]) == 0
        rows = read_csv(out / "keyrate.csv")
        assert len(rows) == 4
        assert list(rows[0]) == ["q1_lower", "e1_upper", "q0", "leak_ec", "rate", "secure",
                                 "q1_clamped", "e1_clamped"]
        assert all(float(r["rate"]) > 0 and r["secure"] == "true" for r in rows)
        assert all(r["q1_clamped"] == r["e1_clamped"] == "false" for r in rows)

    def test_inline_flags(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["keyrate", "--q-mu", "1.43e-2", "--e-mu", "0.0381",
                   "--q-nu", "4.77e-3", "--e-nu", "0.0763", "--y0", "3.77e-4",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "keyrate.csv")
        assert float(rows[0]["rate"]) == pytest.approx(0.231526613027, rel=1e-9)

    def test_single_photon_mode_flags_high_qber(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["keyrate", "--single-photon", "--q-mu", "1e-2", "--e-mu", "0.12",
                   "--q-nu", "3e-3", "--e-nu", "0.12", "--y0", "1e-5",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "keyrate.csv")
        assert set(rows[0]) == {"e_mu", "leak_ec", "rate", "secure"}
        assert float(rows[0]["rate"]) < 0 and rows[0]["secure"] == "false"

    def test_simulate_then_keyrate_chain(self, tmp_path):
        sim_out = tmp_path / "sim"
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {
            "channel.eta_ch": 0.10, "channel.eta_c": 0.35, "channel.eta_d": 0.60,
            "channel.y0": 4e-4, "channel.e_ch": 0.02, "run.pulses": 400_000,
        })
        assert main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--out", str(sim_out)]) == 0
        kr_out = tmp_path / "kr"
        assert main(["keyrate", "--observables", str(sim_out / "observables.txt"),
                     "--out", str(kr_out)]) == 0
        rows = read_csv(kr_out / "keyrate.csv")
        assert len(rows) == 1
        float(rows[0]["rate"])

    def test_malformed_csv_exits_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("q_mu,e_mu\n0.01,0.03\n")
        assert main(["keyrate", "--csv", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_inline_flags_exit_1(self, tmp_path):
        assert main(["keyrate", "--q-mu", "0.01", "--out", str(tmp_path / "o")]) == 1

    def test_infinite_vacuum_yield_exits_1(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["keyrate", "--q-mu", "1.43e-2", "--e-mu", "0.0381", "--q-nu", "4.77e-3",
                   "--e-nu", "0.0763", "--y0", "inf", "--out", str(out)])
        assert rc == 1
        assert not (out / "keyrate.csv").exists()

    def test_vacuum_term_alone_is_not_secure(self, tmp_path):
        out = tmp_path / "o"
        assert main(["keyrate", "--q-mu", "6e-4", "--e-mu", "0", "--q-nu", "5e-4",
                     "--e-nu", "0.5", "--y0", "1e-3", "--out", str(out)]) == 0
        (row,) = read_csv(out / "keyrate.csv")
        assert row["q1_lower"] == "0" and row["rate"] == "0.8938883710215404"
        assert row["secure"] == "false"
        assert row["q1_clamped"] == "true"

    def test_error_bound_at_half_is_not_secure(self, tmp_path):
        out = tmp_path / "o"
        assert main(["keyrate", "--mu", "0.623", "--nu", "0.165", "--q-mu", "1e-3",
                     "--e-mu", "0", "--q-nu", "3e-4", "--e-nu", "0.5", "--y0", "1e-4",
                     "--out", str(out)]) == 0
        (row,) = read_csv(out / "keyrate.csv")
        assert float(row["q1_lower"]) > 0.0 and row["q1_clamped"] == "false"
        assert float(row["e1_upper"]) == pytest.approx(0.7174101763, rel=1e-9)
        assert row["rate"] == "0.053633302261292419"
        assert row["secure"] == "false"

    def test_overflowing_intensity_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["keyrate", "--mu", "800", "--nu", "0.1", *INLINE_OBSERVABLES,
                   "--out", str(out)])
        assert rc == 2
        assert "float range" in capsys.readouterr().err
        assert not (out / "keyrate.csv").exists()

    def test_inconsistent_intensities_exit_1(self, tmp_path):
        rc = main(["keyrate", "--mu", "0.1", "--nu", "0.6", "--q-mu", "1e-2",
                   "--e-mu", "0.03", "--q-nu", "3e-3", "--e-nu", "0.05",
                   "--y0", "1e-5", "--out", str(tmp_path / "o")])
        assert rc == 1


class TestTurbulence:
    def test_direct_sigma(self, tmp_path):
        out = tmp_path / "out"
        assert main(["turbulence", "--sigma-m-mm", "0.33", "--out", str(out)]) == 0
        est = read_key_values(out / "estimate.txt")
        assert float(est["r0_m"]) == pytest.approx(0.172176711163, rel=1e-9)
        assert float(est["cn2_si"]) == pytest.approx(3.86629011843e-15, rel=1e-9)
        assert est["weak_turbulence_flag"] == "true"
        assert not (out / "centroids.csv").exists()

    def test_synthetic_run_emits_both_files(self, tmp_path):
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = main(["turbulence", "--synthetic", "--n-frames", "177",
                   "--wander-std-mm", "0.33", "--seed", "12", "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 5.0  # 177 frames at 256x256
        rows = read_csv(out / "centroids.csv")
        assert len(rows) == 177
        assert set(rows[0]) == {"frame_index", "x_mm", "y_mm"}
        est = read_key_values(out / "estimate.txt")
        assert 0.1 < float(est["r0_m"]) < 0.3

    def test_frame_directory_mode(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        spot = SpotModel(rows=64, cols=64, pitch_mm=0.1, waist_mm=0.7)
        for i, frame in enumerate(synthesize_frames(8, spot, 0.4e-3, rng_seed=13)):
            write_frame(frames_dir / f"frame_{i:03d}.txt", frame)
        out = tmp_path / "out"
        assert main(["turbulence", "--frames", str(frames_dir), "--out", str(out)]) == 0
        assert len(read_csv(out / "centroids.csv")) == 8

    def test_frame_directory_holds_one_frame_at_a_time(self, tmp_path):
        """The traced peak does not grow with the number of frame files."""
        spot = SpotModel(rows=64, cols=64, pitch_mm=0.1, waist_mm=0.4)
        frames = list(synthesize_frames(16, spot, 0.4e-3, rng_seed=19))
        dirs = {n: tmp_path / f"frames{n}" for n in (4, 16)}
        for n, frames_dir in dirs.items():
            frames_dir.mkdir()
            for i, frame in enumerate(frames[:n]):
                write_frame(frames_dir / f"frame_{i:03d}.txt", frame)
        assert main(["turbulence", "--frames", str(dirs[4]), "--out", str(tmp_path / "warm")]) == 0
        peaks = {}
        for n, frames_dir in dirs.items():
            tracemalloc.start()
            try:
                rc = main(["turbulence", "--frames", str(frames_dir),
                           "--out", str(tmp_path / f"out{n}")])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert peaks[16] <= 1.25 * peaks[4], peaks

    def test_all_zero_frame_file_exits_2(self, tmp_path):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        (frames_dir / "a.txt").write_text("2 2 0.05\n1 2\n3 4\n")
        (frames_dir / "b.txt").write_text("2 2 0.05\n0 0\n0 0\n")
        assert main(["turbulence", "--frames", str(frames_dir),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_frame_names_file(self, tmp_path, capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        (frames_dir / "a.txt").write_text("not a frame\n")
        (frames_dir / "b.txt").write_text("not a frame\n")
        assert main(["turbulence", "--frames", str(frames_dir),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.count("a.txt") == 1

    @pytest.mark.parametrize("header", ["2 2 0.05", "0 0 0.05"])
    def test_header_only_frame_names_file_once(self, tmp_path, capsys, header):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        (frames_dir / "a.txt").write_text(header + "\n")
        (frames_dir / "b.txt").write_text("2 2 0.05\n1 2\n3 4\n")
        assert main(["turbulence", "--frames", str(frames_dir),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("a.txt") == 1
        assert "Warning" not in err

    @pytest.mark.parametrize("radius", ["-1", "0"])
    def test_non_positive_beam_radius_exits_1(self, tmp_path, radius):
        out = tmp_path / "out"
        rc = main(["turbulence", "--sigma-m-mm", "0.33", "--beam-radius-m", radius,
                   "--out", str(out)])
        assert rc == 1
        assert not (out / "estimate.txt").exists()

    @pytest.mark.parametrize("pitch", ["nan", "inf"])
    def test_non_finite_header_pitch_exits_1(self, tmp_path, capsys, pitch):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        spot = SpotModel(rows=32, cols=32, pitch_mm=0.1, waist_mm=0.4)
        for i, frame in enumerate(synthesize_frames(3, spot, 0.2e-3, rng_seed=15)):
            write_frame(frames_dir / f"frame_{i:03d}.txt", frame)
        path = frames_dir / "frame_001.txt"
        body = path.read_text().split("\n", 1)[1]
        path.write_text(f"32 32 {pitch}\n{body}")
        out = tmp_path / "out"
        assert main(["turbulence", "--frames", str(frames_dir), "--out", str(out)]) == 1
        assert "frame_001.txt" in capsys.readouterr().err
        assert not (out / "estimate.txt").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_wander_std_names_the_key(self, tmp_path, capsys, source, value):
        args = ["turbulence", "--synthetic", "--n-frames", "4", "--out", str(tmp_path / "o")]
        if source == "flag":
            args += ["--wander-std-mm", value]
        else:
            write_config(tmp_path / "run.cfg", {"spot.wander_std_mm": value})
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "spot.wander_std_mm must be" in err and f"got {float(value)}" in err

    def test_frozen_gaussian_spot_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["turbulence", "--synthetic", "--wander-std-mm", "0", "--n-frames", "3",
                   "--profile", "gaussian", "--waist-mm", "1.28", "--out", str(out)])
        assert rc == 2
        assert "do not wander" in capsys.readouterr().err
        assert not (out / "estimate.txt").exists()

    def test_frozen_spot_exits_2(self, tmp_path):
        rc = main(["turbulence", "--synthetic", "--n-frames", "10",
                   "--wander-std-mm", "0", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_mode_required(self, tmp_path):
        assert main(["turbulence", "--out", str(tmp_path / "o")]) == 1


class TestSweep:
    def test_default_sweep_and_threshold(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert set(rows[0]) == {"q_mu", "e_mu_star", "e_nu_star", "q1_lower",
                                "e1_upper", "rate", "secure"}
        thresh = read_key_values(out / "threshold.txt")
        assert 5e-5 <= float(thresh["g_star"]) <= 2e-4
        assert float(thresh["loss_margin_db"]) == pytest.approx(21.08, abs=0.1)

    def test_single_point_reference_qber(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--q-mu-min", "1e-4", "--q-mu-max", "1e-4",
                     "--points", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1
        assert float(rows[0]["e_mu_star"]) == pytest.approx(0.044, rel=1e-9)

    def test_noiseless_threshold_warns_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--e-ch", "0", "--y0", "0", "--out", str(out)])
        assert rc == 0
        assert "threshold undefined" in capsys.readouterr().err
        thresh = read_key_values(out / "threshold.txt")
        assert thresh["g_star"] == "nan"

    def test_rows_without_a_gain_bound_are_not_secure(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--e-ch", "0.03", "--y0", "2e-5", "--out", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0]["q1_lower"] == "0" and rows[0]["rate"] == "0.02266604523"
        assert all(r["secure"] == "false" for r in rows if float(r["q1_lower"]) == 0.0)
        assert any(r["secure"] == "true" for r in rows)

    def test_empty_grid_exits_1(self, tmp_path):
        assert main(["sweep", "--points", "0", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("gain", ["0", "-1"])
    def test_non_positive_measured_gain_exits_1_before_writing(self, tmp_path, gain):
        out = tmp_path / "out"
        assert main(["sweep", "--measured-gain", gain, "--out", str(out)]) == 1
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("flags", [["--q-mu-max", "2"], ["--q-mu-min", "2"]])
    def test_gain_grid_beyond_one_exits_1_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["sweep", *flags, "--out", str(out)]) == 1
        assert "sweep.q_mu_max <= 1" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_measured_gain_above_one_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--measured-gain", "2", "--out", str(out)]) == 1
        assert "sweep.measured_gain must lie in (0, 1]" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_overflowing_intensity_exits_2(self, tmp_path):
        assert main(["sweep", "--mu", "800", "--out", str(tmp_path / "o")]) == 2

    def test_sweep_determinism(self, tmp_path):
        for name in ("a", "b"):
            assert main(["sweep", "--points", "11", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


class TestParserContract:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_1(self):
        assert main(["simulate", "--warp-drive"]) == 1

    def test_help_shows_each_flag_default(self, capsys):
        for command, flags in FLAGS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            for flag, key in flags.items():
                default = DEFAULTS[key]
                shown = "derived" if default is None else getattr(default, "value", default)
                assert f"{flag} {key.upper()} default: {shown}" in text


INLINE_OBSERVABLES = ["--q-mu", "1.43e-2", "--e-mu", "0.0381", "--q-nu", "4.77e-3",
                      "--e-nu", "0.0763", "--y0", "3.77e-4"]
#: Per command, arguments that make a short run which reads every key of the command.
QUICK_ARGS = {
    "simulate": ["--pulses", "30000"],
    "keyrate": INLINE_OBSERVABLES,
    "turbulence": ["--synthetic", "--n-frames", "4", "--rows", "64", "--cols", "64",
                   "--pitch-mm", "0.2"],
    "sweep": ["--points", "3"],
}
VALUE_FLAGS = [(command, QUICK_ARGS[command], flag)
               for command, flags in FLAGS.items() for flag in flags]
VALUE_FLAGS += [("keyrate", INLINE_OBSERVABLES, flag) for flag in INLINE_OBSERVABLES[::2]]
VALUE_FLAGS += [("turbulence", [], "--sigma-m-mm")]


@pytest.mark.parametrize("command,base,flag", VALUE_FLAGS,
                         ids=[f"{c}{f}" for c, _, f in VALUE_FLAGS])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
def test_flag_value_exits_cleanly(tmp_path, command, base, flag, value):
    """Any value ends in exit 0, 1 or 2; a non-finite one is refused as usage."""
    rc = main([command, *base, f"{flag}={value}", "--out", str(tmp_path / "o")])
    assert rc in (0, 1, 2)
    if value in ("nan", "inf", "-inf"):
        assert rc == 1


OBSERVABLE_HEADER = "mu,nu,q_mu,e_mu,q_nu,e_nu,y0\n"
#: Invocations refused with exit 1: (id, argv, files to write first, what the message names).
#: ``{d}`` is the test's directory.
REFUSALS = [
    ("negative-seed", ["simulate", "--seed", "-1"], {}, "--seed"),
    ("seed-above-64-bits", ["simulate", "--seed", str(2**64)], {}, "--seed"),
    ("missing-observables", ["keyrate", "--observables", "{d}/none.txt"], {}, "{d}/none.txt"),
    ("missing-csv", ["keyrate", "--csv", "{d}/none.csv"], {}, "{d}/none.csv"),
    ("empty-csv", ["keyrate", "--csv", "{d}/obs.csv"], {"obs.csv": ""}, "{d}/obs.csv"),
    ("header-only-csv", ["keyrate", "--csv", "{d}/obs.csv"], {"obs.csv": OBSERVABLE_HEADER},
     "{d}/obs.csv"),
    ("non-numeric-q-mu", ["keyrate", "--csv", "{d}/obs.csv"],
     {"obs.csv": OBSERVABLE_HEADER + "0.623,0.165,abc,0.0381,4.77e-3,0.0763,3.77e-4\n"},
     "{d}/obs.csv"),
    ("missing-frame-directory", ["turbulence", "--frames", "{d}/none"], {}, "{d}/none"),
    ("one-frame-file", ["turbulence", "--frames", "{d}/frames"],
     {"frames/frame_0.txt": "1 1 1\n1\n"}, "{d}/frames"),
]


@pytest.mark.parametrize("argv, files, named", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refused_input_exits_1_naming_the_flag_or_path(tmp_path, capsys, argv, files, named):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    argv = [arg.format(d=tmp_path) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert named.format(d=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestConfigKeys:
    @pytest.mark.parametrize("key", ["channel.eta_chh", "source.pulse_rate",
                                     "source.effective_bitrate"])
    def test_unknown_key_exits_1(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {key: 0.9, "run.pulses": 30_000})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_values_parse_by_the_type_of_their_default(self, tmp_path):
        """An int in any base prefix, a float and a str; absent keys keep their defaults."""
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {"run.block_size": "0x0B40", "run.pulses": 5760,
                           "channel.theta": 0.3, "channel.encoding": "polarization"})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        obs = read_key_values(out / "observables.txt")
        assert (obs["block_size"], obs["n_blocks"]) == ("2880", "2")
        assert (obs["encoding"], float(obs["theta"])) == ("polarization", 0.3)
        assert float(obs["mu"]) == DEFAULTS["source.mu"]

    @pytest.mark.parametrize("key, raw", [("run.block_size", "2.5"), ("source.mu", "banana"),
                                          ("run.pulses", "")])
    def test_invalid_value_names_file_and_key(self, tmp_path, capsys, key, raw):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {key: raw})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: key {key!r} has invalid value {raw!r}" in err

    @pytest.mark.parametrize("command, flag, key", [
        (["simulate"], "--pulses", "run.pulses"),
        (["simulate"], "--block-size", "run.block_size"),
        (["turbulence", "--synthetic"], "--n-frames", "spot.n_frames"),
        (["sweep"], "--points", "sweep.points"),
        (["turbulence", "--synthetic"], "--length-m", "geometry.length_m"),
        (["turbulence", "--synthetic"], "--wavelength-nm", "geometry.wavelength_nm"),
        (["turbulence", "--sigma-m-mm", "0.33"], "--beam-radius-m", "geometry.beam_radius_m"),
    ])
    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_positive_count_names_the_key(self, tmp_path, capsys, command, flag, key,
                                              value, source):
        out = tmp_path / "o"
        args = command + ["--out", str(out)]
        if source == "flag":
            args += [flag, value]
        else:
            write_config(tmp_path / "run.cfg", {key: value})
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 1
        assert f"error: {key} must be positive, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_block_size_above_pulses_names_both_keys(self, tmp_path, capsys, source):
        out = tmp_path / "o"
        args = ["simulate", "--out", str(out)]
        if source == "flag":
            args += ["--pulses", "100"]
        else:
            write_config(tmp_path / "run.cfg", {"run.pulses": 100})
            args += ["--config", str(tmp_path / "run.cfg")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "run.block_size=2880, run.pulses=100" in err
        assert not out.exists()

    def test_trailing_partial_block_is_reported(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--pulses", "5000", "--out", str(out)]) == 0
        assert "simulated 2880 of run.pulses=5000" in capsys.readouterr().err
        written = read_key_values(out / "observables.txt")
        assert written["n_blocks"] == "1"
        assert written["dropped_pulses"] == "2120"

    def test_int_flags_parse_like_config_values(self, tmp_path):
        """A base prefix works on the flag as in the file, with the same outputs."""
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {"run.block_size": "0x0B40", "run.pulses": 5760})
        by_file, by_flag = tmp_path / "file", tmp_path / "flag"
        assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(by_file)]) == 0
        assert main(["simulate", "--pulses", "5760", "--block-size", "0x0B40", "--seed", "3",
                     "--out", str(by_flag)]) == 0
        for name in ("blocks.csv", "observables.txt"):
            assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()

    def test_leading_zero_int_exits_1_on_the_flag_as_in_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {"run.pulses": "010"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        assert main(["simulate", "--pulses", "010", "--out", str(tmp_path / "b")]) == 1
        assert "argument --pulses: invalid int value: '010'" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_unknown_encoding_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {"channel.encoding": "foo", "run.pulses": 30_000})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "encoding" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["geometry.wavelength_nm", "sweep.measured_gain"])
    def test_non_finite_plain_value_exits_1(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, {key: "inf"})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_every_key_at_its_default_changes_no_output(self, tmp_path):
        entries = {}
        for key, default in DEFAULTS.items():
            if default is None:  # budget.y0: the dark yield LinkBudgetParams derives
                default = LinkBudgetParams().y0
            entries[key] = getattr(default, "value", default)
        cfg = tmp_path / "defaults.cfg"
        write_config(cfg, entries)
        for command in FLAGS:
            argv = {"keyrate": INLINE_OBSERVABLES, "turbulence": ["--synthetic"]}.get(command, [])
            plain, configured = tmp_path / command / "plain", tmp_path / command / "configured"
            assert main([command, *argv, "--out", str(plain)]) == 0
            assert main([command, *argv, "--config", str(cfg), "--out", str(configured)]) == 0
            names = sorted(p.name for p in plain.iterdir())
            assert names == sorted(p.name for p in configured.iterdir())
            for name in names:
                assert (plain / name).read_bytes() == (configured / name).read_bytes(), name

    def test_readme_lists_every_key_with_its_default_and_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z_]+\.[a-z0-9_]+)` \| (.+?) \| (.*?) \|", readme, re.M)
        listed = {key: (default, flags) for key, default, flags in rows}
        assert set(listed) == set(DEFAULTS)
        for key, default in DEFAULTS.items():
            flags = ", ".join(f"`{command} {flag}`" for command, table in FLAGS.items()
                              for flag, k in table.items() if k == key)
            assert listed[key][1] == flags, key
            if default is not None:
                assert listed[key][0] == str(getattr(default, "value", default)), key
