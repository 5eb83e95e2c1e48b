"""Beam-wander turbulence analysis from receiver intensity frames.

The pipeline is: extract intensity centroids frame by frame, take the
centroid wander statistic ``sigma_m = sqrt((sigma_x^2 + sigma_y^2) / 2)``,
convert it to the Fried coherence length ``r0 = 2 L / (k sigma_m)`` for the
link geometry, and invert ``r0 = [0.423 k^2 Cn2 L]^(-3/5)`` for the
refractive-index structure constant.  A synthetic frame generator (Gaussian
or annular spot on a wandering center) closes the loop for validation.

Frame coordinates: x runs along columns, y along rows, both measured in mm
from the frame corner to the pixel center.  Wander statistics and everything
derived from them are in SI units (meters).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, ValidationError

#: Constant in the Fried-parameter definition r0 = [0.423 k^2 Cn2 L]^(-3/5).
FRIED_CN2_CONSTANT = 0.423

MM_PER_M = 1e3

SPOT_PROFILES = ("gaussian", "annular")


@dataclass(frozen=True, eq=False)
class IntensityFrame:
    """A non-negative intensity grid with a pixel pitch in mm/pixel."""

    values: np.ndarray
    pitch_mm: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ValidationError(f"frame must be a non-empty 2-d grid, got shape {values.shape}")
        # NaN fails both comparisons; neither allocates a per-pixel temporary.
        if not (values.min() >= 0.0 and values.max() < math.inf):
            raise ValidationError("frame intensities must be finite and non-negative")
        if not 0.0 < self.pitch_mm < math.inf:
            raise ValidationError(f"pixel pitch must be positive and finite, got {self.pitch_mm}")
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CentroidSample:
    """Intensity-weighted spot position in the frame plane, in mm."""

    x_mm: float
    y_mm: float


@dataclass(frozen=True)
class LinkGeometry:
    """Propagation path length and wavelength, both in meters."""

    length_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        if not (0.0 < self.length_m < math.inf and 0.0 < self.wavelength_m < math.inf):
            raise ValidationError("path length and wavelength must be positive and finite")

    @property
    def wavevector(self) -> float:
        """k = 2 pi / wavelength, in 1/m."""
        return 2.0 * math.pi / self.wavelength_m


@dataclass(frozen=True)
class TurbulenceEstimate:
    """Wander sigma (m), Fried parameter (m) and Cn2 (m^-2/3)."""

    sigma_m: float
    r0: float
    cn2: float

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.sigma_m, self.r0, self.cn2)):
            raise ValidationError("turbulence estimate fields must be positive and finite")


def centroid(frame: IntensityFrame) -> CentroidSample:
    """Intensity-weighted mean of pixel centers, scaled by the pitch."""
    row_sums = frame.values.sum(axis=1)
    total = float(row_sums.sum())
    if total <= 0.0:
        raise DegenerateInputError("cannot take the centroid of an all-zero frame")
    rows = np.arange(frame.rows) + 0.5
    cols = np.arange(frame.cols) + 0.5
    y = float((row_sums @ rows) / total) * frame.pitch_mm
    x = float((frame.values.sum(axis=0) @ cols) / total) * frame.pitch_mm
    return CentroidSample(x_mm=x, y_mm=y)


def wander_sigma(samples: Sequence[CentroidSample]) -> float:
    """Centroid wander statistic in meters.

    Takes the population standard deviation of each axis about its own mean
    and combines them as ``sqrt((sigma_x^2 + sigma_y^2) / 2)``, i.e. the RMS
    per-axis displacement.
    """
    if len(samples) < 2:
        raise DegenerateInputError(f"need at least 2 centroid samples, got {len(samples)}")
    x = np.array([s.x_mm for s in samples])
    y = np.array([s.y_mm for s in samples])
    sigma_mm = math.sqrt(0.5 * (float(np.var(x)) + float(np.var(y))))
    return sigma_mm / MM_PER_M


def fried_parameter(sigma_m: float, geom: LinkGeometry) -> float:
    """Fried coherence length ``r0 = 2 L / (k sigma_m)`` in meters."""
    if sigma_m <= 0.0:
        raise DegenerateInputError(
            f"wander sigma must be positive for a finite r0, got {sigma_m}"
        )
    return 2.0 * geom.length_m / (geom.wavevector * sigma_m)


def cn2_from_fried(r0: float, geom: LinkGeometry) -> float:
    """Structure constant for a path-constant profile: ``r0^(-5/3) / (0.423 k^2 L)``."""
    if r0 <= 0.0:
        raise DegenerateInputError(f"r0 must be positive, got {r0}")
    return r0 ** (-5.0 / 3.0) / (FRIED_CN2_CONSTANT * geom.wavevector**2 * geom.length_m)


def is_weak_turbulence(beam_radius_m: float, r0: float) -> bool:
    """Whether the beam is narrower than the coherence length (wander-dominated)."""
    return beam_radius_m < r0


def estimate_turbulence(samples: Sequence[CentroidSample], geom: LinkGeometry) -> TurbulenceEstimate:
    """Run the wander -> r0 -> Cn2 chain on a set of centroid samples."""
    sigma = wander_sigma(samples)
    if sigma <= 0.0:
        raise DegenerateInputError("centroids do not wander; turbulence is unresolvable")
    return estimate_from_sigma(sigma, geom)


def estimate_from_sigma(sigma_m: float, geom: LinkGeometry) -> TurbulenceEstimate:
    """Same chain as :func:`estimate_turbulence`, starting from a known sigma."""
    r0 = fried_parameter(sigma_m, geom)
    return TurbulenceEstimate(sigma_m=sigma_m, r0=r0, cn2=cn2_from_fried(r0, geom))


@dataclass(frozen=True)
class SpotModel:
    """Synthetic spot description for the frame generator.

    ``annular`` (the default) gives the doughnut intensity ring of a
    first-order OAM mode (``r^2 exp(-2 r^2 / w^2)``); ``gaussian`` gives
    ``exp(-2 r^2 / w^2)``.
    """

    rows: int = 256
    cols: int = 256
    pitch_mm: float = 0.05
    waist_mm: float = 1.0
    profile: str = "annular"

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValidationError("frame dimensions must be positive")
        if not (0.0 < self.pitch_mm < math.inf and 0.0 < self.waist_mm < math.inf):
            raise ValidationError("pitch and waist must be positive and finite")
        if self.profile not in SPOT_PROFILES:
            raise ValidationError(f"profile must be one of {SPOT_PROFILES}, got {self.profile!r}")
        half_extent = 0.5 * min(self.rows, self.cols) * self.pitch_mm
        if 4.0 * self.waist_mm > half_extent:
            raise ValidationError(
                f"spot (waist {self.waist_mm} mm) is too large for a "
                f"{self.rows}x{self.cols} frame at {self.pitch_mm} mm/pixel"
            )


def synthesize_frames(
    n: int, spot: SpotModel, wander_std_m: float, rng_seed: int = 0
) -> list[IntensityFrame]:
    """Generate ``n`` frames whose spot center performs Gaussian wander.

    The per-axis wander standard deviation is ``wander_std_m`` (meters);
    zero freezes the spot at the frame center.  Deterministic per seed.

    The profile is separable: ``exp(-2 r^2 / w^2)`` is the outer product of a
    row profile ``exp(-2 dy^2 / w^2)`` and a column profile
    ``exp(-2 dx^2 / w^2)``, so each frame costs ``rows + cols`` exponentials.
    All frames are slices of one ``(n, rows, cols)`` buffer.
    """
    if n <= 0:
        raise ValidationError(f"frame count must be positive, got {n}")
    if wander_std_m < 0.0:
        raise ValidationError("wander standard deviation must be non-negative")
    gen = np.random.default_rng(rng_seed)
    offsets = gen.normal(0.0, wander_std_m * MM_PER_M, size=(n, 2))
    x = (np.arange(spot.cols) + 0.5) * spot.pitch_mm
    y = (np.arange(spot.rows) + 0.5) * spot.pitch_mm
    cx = 0.5 * spot.cols * spot.pitch_mm + offsets[:, :1]
    cy = 0.5 * spot.rows * spot.pitch_mm + offsets[:, 1:]
    w_sq = spot.waist_mm**2
    ux = (x - cx) ** 2 / w_sq  # (n, cols): dx^2 / w^2
    uy = (y - cy) ** 2 / w_sq  # (n, rows): dy^2 / w^2
    values = np.exp(-2.0 * uy)[:, :, None] * np.exp(-2.0 * ux)[:, None, :]
    if spot.profile == "annular":
        r_sq = np.empty((spot.rows, spot.cols))  # r^2 / w^2, reused frame by frame
        for frame, uy_i, ux_i in zip(values, uy, ux):
            np.add(uy_i[:, None], ux_i, out=r_sq)
            frame *= r_sq
    return [IntensityFrame(values=v, pitch_mm=spot.pitch_mm) for v in values]


def read_frame(path) -> IntensityFrame:
    """Read the plain-text frame format.

    Line 1 is ``rows cols pitch_mm``; each of the following ``rows`` lines
    holds ``cols`` space-separated non-negative intensities.  Error messages
    leave naming the file to the caller.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValidationError("header must be 'rows cols pitch_mm'")
        try:
            rows, cols, pitch = int(header[0]), int(header[1]), float(header[2])
        except ValueError as exc:
            raise ValidationError(f"malformed header: {exc}") from None
        if rows <= 0 or cols <= 0:
            raise ValidationError(f"header dimensions must be positive, got {rows}x{cols}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is refused below
            values = np.loadtxt(fh, dtype=float, ndmin=2)
    if values.size == 0:
        raise ValidationError("no intensity values after the header")
    if values.shape != (rows, cols):
        raise ValidationError(
            f"expected a {rows}x{cols} grid, got {values.shape[0]}x{values.shape[1]}"
        )
    return IntensityFrame(values=values, pitch_mm=pitch)


def write_frame(path, frame: IntensityFrame) -> None:
    """Write a frame in the plain-text format read by :func:`read_frame`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{frame.rows} {frame.cols} {frame.pitch_mm:.10g}\n")
        for row in frame.values:
            fh.write(" ".join(f"{v:.10g}" for v in row))
            fh.write("\n")
