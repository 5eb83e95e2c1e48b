"""Command-line front end: simulate, keyrate, turbulence, sweep.

Parameters come from an optional flat key=value config file (section-prefixed
keys such as ``source.mu``; any other key is an error) with command-line flags
taking precedence.  Data goes to files in the output directory; diagnostics go
to stderr.  Exit codes: 0 success, 1 usage/config error, 2 runtime/domain error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import link_budget as lb
from . import simulator as sim
from . import turbulence as turb
from .errors import (
    DegenerateInputError,
    DomainError,
    EstimationError,
    ThresholdUndefinedError,
    ValidationError,
)
from .fileio import FULL_FLOAT_FORMAT, read_key_values, write_csv, write_key_values
from .keyrate import (
    DecoyObservables,
    ECModel,
    binary_entropy,
    secret_key_rate,
    single_photon_rate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OBSERVABLE_FIELDS = ("mu", "nu", "q_mu", "e_mu", "q_nu", "e_nu", "y0")

#: Config sections whose keys are the fields of one dataclass.
SECTIONS = {"source": sim.SourceParams, "channel": sim.ChannelParams, "ec": ECModel,
            "spot": turb.SpotModel, "budget": lb.LinkBudgetParams}
#: Keys that no dataclass holds, with their defaults.
PLAIN_DEFAULTS = {
    "run.pulses": 1_000_000, "run.block_size": sim.DEFAULT_BLOCK_SIZE,
    "geometry.length_m": 210.0, "geometry.wavelength_nm": 850.0, "geometry.beam_radius_m": 0.015,
    "spot.wander_std_mm": 0.33, "spot.n_frames": 177,
    "sweep.q_mu_min": 1e-5, "sweep.q_mu_max": 1.0, "sweep.points": 51,
    "sweep.measured_gain": 1.2e-2,
}
#: Plain keys whose value must be positive.
_POSITIVE = {"run.pulses", "run.block_size", "spot.n_frames", "sweep.points",
             "geometry.length_m", "geometry.wavelength_nm", "geometry.beam_radius_m"}


#: Every config key with its default; ``None`` leaves the dataclass to derive the value.
DEFAULTS = {f"{section}.{f.name}": f.default
            for section, cls in SECTIONS.items() for f in dataclasses.fields(cls)}
DEFAULTS.update(PLAIN_DEFAULTS)

#: Per command, the flags that set a config key: flag -> key.
FLAGS = {
    "simulate": {"--pulses": "run.pulses", "--block-size": "run.block_size",
                 "--encoding": "channel.encoding", "--theta": "channel.theta"},
    "keyrate": {"--mu": "source.mu", "--nu": "source.nu", "--f": "ec.f", "--e0": "ec.e0"},
    "turbulence": {"--n-frames": "spot.n_frames", "--wander-std-mm": "spot.wander_std_mm",
                   "--rows": "spot.rows", "--cols": "spot.cols", "--pitch-mm": "spot.pitch_mm",
                   "--waist-mm": "spot.waist_mm", "--profile": "spot.profile",
                   "--length-m": "geometry.length_m", "--wavelength-nm": "geometry.wavelength_nm",
                   "--beam-radius-m": "geometry.beam_radius_m"},
    "sweep": {"--q-mu-min": "sweep.q_mu_min", "--q-mu-max": "sweep.q_mu_max",
              "--points": "sweep.points", "--measured-gain": "sweep.measured_gain",
              "--mu": "budget.mu", "--nu": "budget.nu", "--e-ch": "budget.e_ch",
              "--dark-rate-hz": "budget.dark_rate", "--gate-s": "budget.gate",
              "--y0": "budget.y0", "--f": "budget.f"},
}


class UsageError(Exception):
    """Bad invocation, bad config, or a malformed/missing input file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _value_type(key: str) -> type:
    """int, float or str: the type of the key's default, float when it has none."""
    default = DEFAULTS[key]
    return str if isinstance(default, str) else int if isinstance(default, int) else float


#: How a flag or a config value is read, by :func:`_value_type` of its key.
_PARSERS = {int: lambda text: int(text, 0), float: float, str: str}  # ints in any base prefix
_PARSERS[int].__name__ = "int"  # argparse names the type in "invalid int value"


def _resolve(args) -> dict:
    """Every config key's value: the flag if given, else the config file, else the default."""
    path, cfg = None, {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        cfg = read_key_values(path)
    unknown = sorted(cfg.keys() - DEFAULTS.keys())
    if unknown:
        raise UsageError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    flags = vars(args)
    values = {}
    for key, default in DEFAULTS.items():
        value = flags.get(key)
        if value is None and key in cfg:
            raw = cfg[key]
            try:
                value = _PARSERS[_value_type(key)](raw)
            except ValueError:
                raise ValidationError(f"{path}: key {key!r} has invalid value {raw!r}") from None
        if value is None:
            value = default
        if key in PLAIN_DEFAULTS and not math.isfinite(value):
            raise UsageError(f"{key} must be finite, got {value}")
        if key == "spot.wander_std_mm" and value < 0.0:
            raise UsageError(f"{key} must be non-negative, got {value}")
        if key in _POSITIVE and value <= 0:
            raise UsageError(f"{key} must be positive, got {value}")
        values[key] = value
    if values["run.block_size"] > values["run.pulses"]:
        raise UsageError(f"run.block_size must not exceed run.pulses, got "
                         f"run.block_size={values['run.block_size']}, "
                         f"run.pulses={values['run.pulses']}")
    return values


def _build(section: str, values: dict):
    """The section's dataclass, built from resolved values."""
    cls = SECTIONS[section]
    return cls(**{f.name: values[f"{section}.{f.name}"] for f in dataclasses.fields(cls)})


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key=value config file")
    common.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    common.add_argument("--out", type=str, default=".", help="output directory")

    parser = _Parser(prog="oamqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    summaries = {"simulate": "Monte Carlo BB84+decoy session", "keyrate": "decoy key-rate analysis",
                 "turbulence": "beam-wander turbulence estimate",
                 "sweep": "rate-vs-gain sweep and threshold"}
    parsers = {}
    for command, flags in FLAGS.items():
        p = parsers[command] = sub.add_parser(command, parents=[common], help=summaries[command])
        for flag, key in flags.items():
            default = DEFAULTS[key]
            shown = "derived" if default is None else getattr(default, "value", default)
            p.add_argument(flag, dest=key, type=_PARSERS[_value_type(key)],
                           help=f"default: {shown}")

    p = parsers["keyrate"]
    src_group = p.add_mutually_exclusive_group()
    src_group.add_argument("--observables", type=str, default=None,
                           help="key=value observables file (as written by simulate)")
    src_group.add_argument("--csv", type=str, default=None,
                           help="CSV of observables, one breakdown per row")
    for name in OBSERVABLE_FIELDS[2:]:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None)
    p.add_argument("--single-photon", action="store_true",
                   help="rate for an ideal single-photon source instead of decoy bounds")

    mode = parsers["turbulence"].add_mutually_exclusive_group()
    mode.add_argument("--frames", type=str, default=None, help="directory of frame files")
    mode.add_argument("--synthetic", action="store_true", help="generate synthetic frames")
    mode.add_argument("--sigma-m-mm", type=float, default=None,
                      help="skip frames; use this wander sigma (mm) directly")
    return parser


def cmd_simulate(args) -> int:
    values = _resolve(args)
    src, ch = _build("source", values), _build("channel", values)
    n_pulses, block_size = values["run.pulses"], values["run.block_size"]
    session = sim.run_session(src, ch, n_pulses, block_size=block_size, master_seed=args.seed)

    out = Path(args.out)
    blocks = session.blocks
    columns = [a.tolist() for a in (blocks.sent, blocks.detected, blocks.sifted, blocks.errors,
                                    blocks.gains, blocks.qbers)]
    classes = [cls.name.lower() for cls in sim.IntensityClass]
    write_csv(
        out / "blocks.csv",
        ("block_index", "class", "sent", "detected", "sifted", "errors", "gain", "qber"),
        [(b, name, *(column[b][i] for column in columns))
         for b in range(len(blocks)) for i, name in enumerate(classes)],
    )

    obs = session.observables
    sp = session.single_photon
    dropped = n_pulses % block_size
    write_key_values(
        out / "observables.txt",
        {
            **{name: getattr(obs, name) for name in OBSERVABLE_FIELDS},
            "n_blocks": len(session.blocks),
            "block_size": block_size,
            "encoding": ch.encoding.value,
            "theta": ch.theta,
            "seed": args.seed,
            "single_photon_gain": sp.gain,
            "single_photon_error_rate": math.nan if sp.error_rate is None else sp.error_rate,
            "single_photon_sifted": sp.sifted,
            "dropped_pulses": dropped,
        },
    )
    if dropped:
        print(f"note: simulated {n_pulses - dropped} of run.pulses={n_pulses} in whole blocks "
              f"of run.block_size={block_size}; the trailing {dropped} were dropped",
              file=sys.stderr)
    print(f"wrote {out / 'blocks.csv'} and {out / 'observables.txt'}", file=sys.stderr)
    return EXIT_OK


def _observables_from_map(values: dict, source: str, mu: float, nu: float) -> DecoyObservables:
    missing = [k for k in OBSERVABLE_FIELDS[2:] if k not in values]
    if missing:
        raise UsageError(f"{source}: missing observable field(s): {', '.join(missing)}")
    try:
        fields = {k: float(values[k]) for k in OBSERVABLE_FIELDS[2:]}
        mu = float(values.get("mu", mu))
        nu = float(values.get("nu", nu))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{source}: non-numeric observable value ({exc})") from None
    return DecoyObservables(mu=mu, nu=nu, **fields)


def _collect_observables(args, values: dict) -> list[tuple[str, DecoyObservables]]:
    mu_default, nu_default = values["source.mu"], values["source.nu"]
    if args.csv is not None:
        path = Path(args.csv)
        if not path.is_file():
            raise UsageError(f"observables CSV not found: {path}")
        rows = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise UsageError(f"{path}: empty CSV")
            for lineno, row in enumerate(reader, start=2):
                source = f"{path}:{lineno}"
                rows.append((source, _observables_from_map(row, source, mu_default, nu_default)))
        if not rows:
            raise UsageError(f"{path}: no data rows")
        return rows
    if args.observables is not None:
        path = Path(args.observables)
        if not path.is_file():
            raise UsageError(f"observables file not found: {path}")
        obs = _observables_from_map(read_key_values(path), str(path), mu_default, nu_default)
        return [(str(path), obs)]
    inline = {k: getattr(args, k) for k in OBSERVABLE_FIELDS[2:]}
    missing = [k for k, v in inline.items() if v is None]
    if missing:
        raise UsageError(
            "provide --observables, --csv, or all inline observable flags "
            f"(missing: {', '.join('--' + k.replace('_', '-') for k in missing)})"
        )
    return [("<flags>", DecoyObservables(mu=mu_default, nu=nu_default, **inline))]


def cmd_keyrate(args) -> int:
    values = _resolve(args)
    ec = _build("ec", values)
    out = Path(args.out)
    rows = []
    for source, obs in _collect_observables(args, values):
        if args.single_photon:
            rate = single_photon_rate(obs.e_mu, ec)
            rows.append((obs.e_mu, ec.f * binary_entropy(obs.e_mu), rate, rate > 0.0))
        else:
            b = secret_key_rate(obs, ec)
            rows.append((b.q1_lower, b.e1_upper, b.q0, b.leak_ec, b.rate, b.secure,
                         b.q1_clamped, b.e1_clamped))
    header = (("e_mu", "leak_ec", "rate", "secure") if args.single_photon
              else ("q1_lower", "e1_upper", "q0", "leak_ec", "rate", "secure",
                    "q1_clamped", "e1_clamped"))
    write_csv(out / "keyrate.csv", header, rows, float_format=FULL_FLOAT_FORMAT)
    print(f"wrote {out / 'keyrate.csv'}", file=sys.stderr)
    return EXIT_OK


def _read_frame_file(path: Path) -> turb.IntensityFrame:
    try:
        return turb.read_frame(path)
    except (ValidationError, ValueError) as exc:
        raise UsageError(f"malformed frame file {path}: {exc}") from None


def cmd_turbulence(args) -> int:
    values = _resolve(args)
    geom = turb.LinkGeometry(
        length_m=values["geometry.length_m"],
        wavelength_m=values["geometry.wavelength_nm"] * 1e-9,
    )
    beam_radius_m = values["geometry.beam_radius_m"]
    out = Path(args.out)

    if args.sigma_m_mm is not None:
        if not 0.0 < args.sigma_m_mm < math.inf:
            raise UsageError("--sigma-m-mm must be positive and finite")
        estimate = turb.estimate_from_sigma(args.sigma_m_mm / turb.MM_PER_M, geom)
    else:
        if args.frames is not None:
            frame_dir = Path(args.frames)
            if not frame_dir.is_dir():
                raise UsageError(f"frame directory not found: {frame_dir}")
            paths = sorted(p for p in frame_dir.iterdir() if p.is_file())
            if len(paths) < 2:
                raise UsageError(f"{frame_dir}: need at least 2 frame files, found {len(paths)}")
            frames = map(_read_frame_file, paths)  # each file is read when its centroid is taken
        elif args.synthetic:
            frames = turb.synthesize_frames(
                values["spot.n_frames"], _build("spot", values),
                values["spot.wander_std_mm"] / turb.MM_PER_M, rng_seed=args.seed,
            )
        else:
            raise UsageError("choose one of --frames, --synthetic, or --sigma-m-mm")
        centroids = [turb.centroid(f) for f in frames]
        estimate = turb.estimate_turbulence(centroids, geom)
        write_csv(
            out / "centroids.csv",
            ("frame_index", "x_mm", "y_mm"),
            [(i, c.x_mm, c.y_mm) for i, c in enumerate(centroids)],
        )
    write_key_values(
        out / "estimate.txt",
        {
            "sigma_m_m": estimate.sigma_m,
            "r0_m": estimate.r0,
            "cn2_si": estimate.cn2,
            "weak_turbulence_flag": turb.is_weak_turbulence(beam_radius_m, estimate.r0),
            "beam_radius_m": beam_radius_m,
            "length_m": geom.length_m,
            "wavelength_m": geom.wavelength_m,
            "wander_relation_note": (
                "per-axis beam-wander relation applied unchanged to annular OAM spots"
            ),
        },
    )
    print(f"wrote {out / 'estimate.txt'}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = _resolve(args)
    params = _build("budget", values)
    q_min, q_max = values["sweep.q_mu_min"], values["sweep.q_mu_max"]
    points, measured_gain = values["sweep.points"], values["sweep.measured_gain"]
    if not 0.0 < q_min <= q_max <= 1.0:
        raise UsageError(
            f"need 0 < sweep.q_mu_min <= sweep.q_mu_max <= 1, got {q_min}, {q_max}"
        )
    if not 0.0 < measured_gain <= 1.0:
        raise UsageError(f"sweep.measured_gain must lie in (0, 1], got {measured_gain}")

    grid = np.logspace(math.log10(q_min), math.log10(q_max), points)
    curve = lb.rate_vs_gain(grid, params)
    out = Path(args.out)
    write_csv(
        out / "sweep.csv",
        ("q_mu", "e_mu_star", "e_nu_star", "q1_lower", "e1_upper", "rate", "secure"),
        [
            (pt.q_mu, pt.e_mu_star, pt.e_nu_star, pt.breakdown.q1_lower,
             pt.breakdown.e1_upper, pt.breakdown.rate, pt.breakdown.secure)
            for pt in curve
        ],
    )

    try:
        g_star = lb.gain_threshold(params)
        margin = lb.loss_margin_db(measured_gain, g_star)
    except ThresholdUndefinedError as exc:
        print(f"warning: gain threshold undefined: {exc}", file=sys.stderr)
        g_star = math.nan
        margin = math.nan
    write_key_values(
        out / "threshold.txt",
        {"g_star": g_star, "measured_gain": measured_gain, "loss_margin_db": margin},
    )
    print(f"wrote {out / 'sweep.csv'} and {out / 'threshold.txt'}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "keyrate": cmd_keyrate,
    "turbulence": cmd_turbulence,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed must be an unsigned 64-bit integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, EstimationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
