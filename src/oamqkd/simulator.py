"""Monte Carlo simulation of the BB84+decoy free-space link, block by block.

Pulses are i.i.d. given their block's scintillation multiplier, so each
block's counts are drawn at once from their exact multinomial law over 36
categories (intensity class x photon number x outcome).  A session is one
``(n_blocks, 3, 3, 4)`` counts array: the laws of all its blocks come from
one evaluation of that law over the blocks' multipliers.  The outcome axis is
decoded once, by :func:`_tallies`, from the counts array: :class:`BlockSeries`
holds its per-block tallies as ``(n_blocks, 3)`` arrays.
Each seed keys one Philox (counter-based) generator and block ``b`` draws
from counter range ``b`` of that key, so a session is reproducible and is a
prefix of any longer session of the same seed.

Detection outcomes follow the exact single-qubit Born probabilities from
:mod:`oamqkd.optics`: the transmitted state is frame-rotated by the channel
misalignment angle and measured in the receiver's basis, so polarization
encoding picks up the ``sin^2``-type misalignment errors while the hybrid
encoding does not.  The pulse-level path (:func:`generate_pulses`,
:func:`transmit`, :func:`tally_blocks`) is the reference for the block law; it
counts its pulses into the same 36 categories and the same
:class:`BlockSeries`.
"""

from __future__ import annotations

import operator
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError
from .keyrate import DecoyObservables
from .optics import Encoding, basis, embed_hybrid, measure_probabilities, rotate_frame

_PROB_SUM_TOL = 1e-9
_BASIS_LABELS = ("Z", "X")

#: Pulses per block, unless a caller says otherwise.
DEFAULT_BLOCK_SIZE = 2880


class IntensityClass(IntEnum):
    SIGNAL = 0
    DECOY = 1
    VACUUM = 2


@dataclass(frozen=True)
class SourceParams:
    """Transmitter model: intensity classes and their probabilities."""

    mu: float = 0.623
    nu: float = 0.165
    p_mu: float = 0.7
    p_nu: float = 0.2
    p_vac: float = 0.1

    def __post_init__(self) -> None:
        if not (np.inf > self.mu > self.nu > 0.0):
            raise ValidationError(f"need finite mu > nu > 0, got mu={self.mu}, nu={self.nu}")
        probs = (self.p_mu, self.p_nu, self.p_vac)
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise ValidationError(f"class probabilities must lie in [0, 1]: {probs}")
        if abs(sum(probs) - 1.0) > _PROB_SUM_TOL:
            raise ValidationError(f"class probabilities must sum to 1, got {sum(probs)}")

    @property
    def class_probabilities(self) -> tuple[float, float, float]:
        return (self.p_mu, self.p_nu, self.p_vac)

    @property
    def intensities(self) -> tuple[float, float, float]:
        return (self.mu, self.nu, 0.0)


@dataclass(frozen=True)
class ChannelParams:
    """Channel and receiver model: loss chain, noise, misalignment, encoding."""

    eta_ch: float = 0.10
    eta_c: float = 0.30
    eta_d: float = 0.60
    e_ch: float = 0.0
    y0: float = 0.0
    theta: float = 0.0
    encoding: Encoding = Encoding.HYBRID
    scintillation_sigma: float = 0.0

    def __post_init__(self) -> None:
        encodings = [e.value for e in Encoding]
        if self.encoding not in encodings:
            raise ValidationError(f"encoding must be one of {encodings}, got {self.encoding!r}")
        object.__setattr__(self, "encoding", Encoding(self.encoding))
        for name in ("eta_ch", "eta_c", "eta_d", "e_ch", "y0"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if not np.isfinite(self.theta):
            raise ValidationError(f"theta must be finite, got {self.theta}")
        if not 0.0 <= self.scintillation_sigma < np.inf:
            raise ValidationError("scintillation_sigma must be non-negative and finite")

    @property
    def eta(self) -> float:
        """End-to-end single-photon survival probability (channel x coupling x detector)."""
        return self.eta_ch * self.eta_c * self.eta_d


@dataclass(eq=False)
class PulseBatch:
    """Columnar storage for a sequence of pulses.

    Detection columns use -1 as the not-set sentinel.
    """

    intensity_class: np.ndarray
    basis: np.ndarray
    bit: np.ndarray
    photon_count: np.ndarray
    detected: np.ndarray
    detected_bit: np.ndarray
    detector_basis: np.ndarray

    def __len__(self) -> int:
        return self.intensity_class.shape[0]


#: Second entropy word of every seed's key, kept so that each seed's data files stay the same.
_KEY_TAG = zlib.crc32(b"simulate")


def _session_key(master_seed: int) -> np.random.Philox:
    if master_seed < 0:
        raise ValidationError(f"seed must be non-negative, got {master_seed}")
    return np.random.Philox(np.random.SeedSequence([master_seed, _KEY_TAG]))


def _block_streams(master_seed: int, n_blocks: int):
    """Yield :func:`block_generator` of blocks 0 .. n_blocks - 1: one generator, moved each time."""
    bits = _session_key(master_seed)
    gen = np.random.Generator(bits)
    state = bits.state  # counter 0, buffer empty
    counter = state["state"]["counter"] = [0, 0, 0, 0]
    for b in range(n_blocks):
        counter[2] = b
        bits.state = state
        yield gen


def block_generator(master_seed: int, block_index: int) -> np.random.Generator:
    """The generator of block ``block_index`` of the seed's session.

    Its key comes from ``SeedSequence([master_seed, crc32(b"simulate")])``;
    block ``b`` reads counter range ``b`` of that key, which is
    ``Philox.jumped(b)``, so blocks own disjoint ranges of 2**128 counters.
    """
    key = _session_key(master_seed)
    try:
        b = operator.index(block_index)  # 1.5 is no block; int() would make it block 1
    except TypeError:
        b = -1
    if not 0 <= b < 2**128:
        raise ValidationError(f"block index must be an integer in [0, 2**128), got {block_index!r}")
    return np.random.Generator(key.jumped(b))


def generate_pulses(n: int, src: SourceParams, rng) -> PulseBatch:
    """Draw ``n`` transmitter pulses: class, basis, bit, Poisson photon number.

    ``rng`` may be a seed or a ``numpy.random.Generator``; a fixed seed gives
    a fixed batch.
    """
    if n <= 0:
        raise ValidationError(f"pulse count must be positive, got {n}")
    gen = np.random.default_rng(rng)
    cls = gen.choice(3, size=n, p=src.class_probabilities).astype(np.int8)
    bases_bits = gen.integers(0, 2, size=(2, n), dtype=np.int8)
    lam = np.asarray(src.intensities)[cls]
    photons = gen.poisson(lam).astype(np.int64)
    return PulseBatch(
        intensity_class=cls,
        basis=bases_bits[0],
        bit=bases_bits[1],
        photon_count=photons,
        detected=np.zeros(n, dtype=bool),
        detected_bit=np.full(n, -1, dtype=np.int8),
        detector_basis=np.full(n, -1, dtype=np.int8),
    )


@lru_cache(maxsize=None)
def detection_bit_probabilities(theta: float, encoding: Encoding) -> np.ndarray:
    """P(receiver reads 1) indexed by [sender basis, sender bit, receiver basis].

    Hybrid states are pushed through the full product space (embed, rotate,
    project) so the table reflects the rotation physics rather than assuming
    invariance.  The table is cached and shared, so it is read only.
    """
    table = np.empty((2, 2, 2))
    for a in (0, 1):
        for bit in (0, 1):
            state = basis(_BASIS_LABELS[a], encoding).state(bit)
            if encoding is Encoding.HYBRID:
                rotated = rotate_frame(embed_hybrid(state), theta)
            else:
                rotated = rotate_frame(state, theta)
            for b in (0, 1):
                _, p1 = measure_probabilities(rotated, basis(_BASIS_LABELS[b], encoding))
                table[a, bit, b] = p1
    table.flags.writeable = False
    return table


def transmit(pulses, ch: ChannelParams, block_transmission_multiplier: float = 1.0, rng=None):
    """Propagate pulses through the lossy channel and fill the detection fields.

    Each photon survives independently with probability
    ``eta_ch * eta_c * eta_d * multiplier`` (clamped to 1); a dark/background
    event fires with probability ``y0``.  Surviving photons are measured in a
    uniformly chosen receiver basis using the exact rotated-state outcome
    probabilities, then flipped with probability ``e_ch``; dark-only events
    give a uniform bit and photon/dark disagreements resolve to a fresh coin.
    The batch is filled in place and returned.
    """
    if block_transmission_multiplier <= 0.0:
        raise ValidationError("block transmission multiplier must be positive")

    gen = np.random.default_rng(rng)
    n = len(pulses)
    p_survive = min(1.0, ch.eta * block_transmission_multiplier)

    survivors = gen.binomial(pulses.photon_count, p_survive)
    dark = gen.random(n) < ch.y0
    detector_basis = gen.integers(0, 2, size=n, dtype=np.int8)

    table = detection_bit_probabilities(ch.theta, ch.encoding)
    p_one = table[pulses.basis, pulses.bit, detector_basis]
    photon_bit = (gen.random(n) < p_one).astype(np.int8)
    if ch.e_ch > 0.0:
        photon_bit ^= (gen.random(n) < ch.e_ch).astype(np.int8)
    dark_bit = gen.integers(0, 2, size=n, dtype=np.int8)
    coin = gen.integers(0, 2, size=n, dtype=np.int8)

    photon_detected = survivors > 0
    detected = photon_detected | dark
    out = np.where(photon_detected, photon_bit, dark_bit).astype(np.int8)
    disagreement = photon_detected & dark & (photon_bit != dark_bit)
    out[disagreement] = coin[disagreement]

    pulses.detected = detected
    pulses.detector_basis = detector_basis
    pulses.detected_bit = np.where(detected, out, np.int8(-1)).astype(np.int8)
    return pulses


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den elementwise; NaN where den is 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, np.nan)


def _tallies(outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(sent, detected, sifted, errors)`` of counts on :func:`_block_law`'s outcome axis."""
    sent = outcomes.sum(axis=-1)
    return sent, sent - outcomes[..., 0], outcomes[..., 2] + outcomes[..., 3], outcomes[..., 3]


@dataclass(eq=False)
class BlockTally:
    """Per-class tallies of one block: row ``block_index`` of a :class:`BlockSeries`."""

    block_index: int
    block_size: int
    sent: np.ndarray
    detected: np.ndarray
    sifted: np.ndarray
    errors: np.ndarray
    gains: np.ndarray
    qbers: np.ndarray


class BlockSeries(Sequence):
    """Tallies of ``(n_blocks, 3, 3, 4)`` counts as ``(n_blocks, 3)`` arrays, block x class.

    ``sent``, ``detected``, ``sifted`` and ``errors`` are counts; ``gains``
    (detected/sent) and ``qbers`` (errors/sifted) are NaN where the count
    below them is 0.  Indexing and iteration give one :class:`BlockTally`
    per block, whose arrays are rows of these.
    """

    def __init__(self, counts: np.ndarray) -> None:
        self.sent, self.detected, self.sifted, self.errors = _tallies(counts.sum(axis=2))

    @cached_property
    def gains(self) -> np.ndarray:
        return _ratio(self.detected, self.sent)

    @cached_property
    def qbers(self) -> np.ndarray:
        return _ratio(self.errors, self.sifted)

    def __len__(self) -> int:
        return self.sent.shape[0]

    def __getitem__(self, index: int) -> BlockTally:
        b = range(len(self))[index]  # IndexError past the end stops iteration
        return BlockTally(b, int(self.sent[b].sum()), self.sent[b], self.detected[b],
                          self.sifted[b], self.errors[b], self.gains[b], self.qbers[b])


def _pulse_counts(pulses: PulseBatch, block_size: int) -> np.ndarray:
    """Counts of each whole block of a transmitted batch, ``(n_blocks, 3, 3, 4)``.

    The axes are those of :func:`_block_law`.  Blocks are consecutive and
    non-overlapping; a trailing partial block is dropped.
    """
    if block_size <= 0:
        raise ValidationError(f"block size must be positive, got {block_size}")
    n_blocks = len(pulses) // block_size
    n = n_blocks * block_size
    photons = np.minimum(pulses.photon_count[:n], 2)
    outcome = np.select(
        [~pulses.detected[:n], pulses.basis[:n] != pulses.detector_basis[:n],
         pulses.bit[:n] == pulses.detected_bit[:n]],
        [0, 1, 2], 3)
    category = (pulses.intensity_class[:n] * 3 + photons) * 4 + outcome
    category += np.arange(n) // block_size * 36
    return np.bincount(category, minlength=36 * n_blocks).reshape(n_blocks, 3, 3, 4)


def tally_blocks(pulses: PulseBatch, block_size: int = DEFAULT_BLOCK_SIZE) -> BlockSeries:
    """Per-class tallies of each whole block of consecutive pulses; a partial block is dropped."""
    return BlockSeries(_pulse_counts(pulses, block_size))


def estimate_observables(blocks: BlockSeries, src: SourceParams) -> DecoyObservables:
    """Pool block tallies into session-level decoy observables.

    Gains are detected/sent per class, QBERs are errors/sifted per class and
    the vacuum yield is detected/sent among empty pulses.
    """
    if not len(blocks):
        raise DomainError("no blocks to estimate from")
    sent, detected, sifted, errors = (a.sum(axis=0).tolist() for a in (
        blocks.sent, blocks.detected, blocks.sifted, blocks.errors))

    if 0 in sent:
        missing = [cls.name for cls in IntensityClass if sent[cls] == 0]
        raise DomainError(f"no pulses sent in class(es): {', '.join(missing)}")
    for cls in (IntensityClass.SIGNAL, IntensityClass.DECOY):
        if detected[cls] == 0:
            raise DomainError(f"no detections in class {cls.name}; gain not estimable")
        if sifted[cls] == 0:
            raise DomainError(f"no sifted bits in class {cls.name}; QBER not estimable")

    i, j, k = IntensityClass
    return DecoyObservables(mu=src.mu, nu=src.nu, q_mu=detected[i] / sent[i],
                            e_mu=errors[i] / sifted[i], q_nu=detected[j] / sent[j],
                            e_nu=errors[j] / sifted[j], y0=detected[k] / sent[k])


@dataclass(frozen=True)
class SinglePhotonStats:
    """Ground-truth tallies over pulses that carried exactly one photon."""

    gain: float
    error_rate: Optional[float]
    sifted: int


@dataclass(eq=False)
class SessionTally:
    """Outcome of a simulated session: block series plus pooled observables."""

    blocks: BlockSeries
    observables: DecoyObservables
    single_photon: SinglePhotonStats


def _block_law(src: SourceParams, ch: ChannelParams, multipliers) -> np.ndarray:
    """Law of one pulse of :func:`generate_pulses` then :func:`transmit`, per multiplier.

    Shaped ``np.shape(multipliers) + (3, 3, 4)``; the last three axes are
    intensity class, photon number {0, 1, >=2} and outcome {undetected, basis
    mismatch, sifted-correct, sifted-error}.  Each law is computed from its
    own multiplier alone, so it does not depend on the others.
    """
    shape = np.shape(multipliers)
    p = np.minimum(1.0, ch.eta * np.asarray(multipliers, dtype=float))[..., None]
    q = 1.0 - p
    lam = np.asarray(src.intensities)
    e_lam = np.exp(-lam)
    lam_e_lam = lam * e_lam
    # class x photon number, split by whether some photon survives
    clicked = np.zeros(shape + (3, 3))
    unclicked = np.empty(shape + (3, 3))
    clicked[..., 1] = lam_e_lam * p
    unclicked[..., 0] = e_lam
    unclicked[..., 1] = lam_e_lam * q
    # P(n >= 2, some photon survives) and P(n >= 2, none does): a Poisson total
    # minus its n <= 1 part, in expm1 form; rounding can leave them just below 0
    clicked[..., 2] = np.maximum(-np.expm1(-lam * p) - lam_e_lam * p, 0.0)
    unclicked[..., 2] = np.maximum(
        -np.exp(-lam * p) * np.expm1(-lam * q) - lam_e_lam * q, 0.0)
    weight = np.asarray(src.class_probabilities)[:, None]
    clicked *= weight
    unclicked *= weight

    table = detection_bit_probabilities(ch.theta, ch.encoding)
    raw = 0.25 * (table[0, 0, 0] + table[1, 0, 1] + 2.0 - table[0, 1, 0] - table[1, 1, 1])
    e_p = raw + ch.e_ch * (1.0 - 2.0 * raw)
    photon_only = clicked * (1.0 - ch.y0)
    dark_only = unclicked * ch.y0
    both = clicked * ch.y0  # the dark bit agrees or a fresh coin decides
    law = np.empty(shape + (3, 3, 4))
    law[..., 0] = unclicked * (1.0 - ch.y0)
    law[..., 1] = 0.5 * (photon_only + dark_only + both)
    law[..., 2] = 0.5 * (photon_only * (1.0 - e_p) + 0.5 * dark_only + both * (0.75 - 0.5 * e_p))
    law[..., 3] = 0.5 * (photon_only * e_p + 0.5 * dark_only + both * (0.5 * e_p + 0.25))
    flat = law.reshape(-1, 36)
    flat /= flat.sum(axis=1, keepdims=True)
    return law


@lru_cache(maxsize=1)  # repeated sessions on one link without scintillation share it
def _stationary_law(src: SourceParams, ch: ChannelParams) -> np.ndarray:
    """:func:`_block_law` at multiplier 1, flattened to 36 categories; read only."""
    law = _block_law(src, ch, 1.0).ravel()
    law.flags.writeable = False
    return law


def simulate_blocks(
    src: SourceParams, ch: ChannelParams, block_size: int, master_seed: int, n_blocks: int
) -> np.ndarray:
    """Counts of blocks ``0 .. n_blocks - 1``, shaped ``(n_blocks, 3, 3, 4)``.

    Each block draws from :func:`block_generator`'s stream for it, in this
    order: its scintillation multiplier (only when sigma > 0), then its counts
    from :func:`_block_law`.  So these are the first rows of any longer run.
    """
    if n_blocks * 36 > np.iinfo(np.intp).max:  # refused before any draw
        raise ValidationError(f"{n_blocks} blocks exceed numpy's largest counts array")
    sigma = ch.scintillation_sigma
    if sigma > 0.0:
        # mean-corrected log-normal: E[multiplier] = 1
        normals = np.array([gen.standard_normal() for gen in _block_streams(master_seed, n_blocks)])
        multipliers = np.exp(sigma * normals - 0.5 * sigma * sigma)
        laws = _block_law(src, ch, multipliers).reshape(-1, 36)
    else:
        laws = repeat(_stationary_law(src, ch))
    counts = np.empty((n_blocks, 36), dtype=np.int64)
    for row, law, gen in zip(counts, laws, _block_streams(master_seed, n_blocks)):
        if sigma > 0.0:
            gen.standard_normal()  # the multiplier again, to reach the block's counts
        row[:] = gen.multinomial(block_size, law)
    return counts.reshape(-1, 3, 3, 4)


def run_session(
    src: SourceParams,
    ch: ChannelParams,
    n_pulses: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    master_seed: int = 0,
) -> SessionTally:
    """Simulate a whole session block by block and pool the statistics.

    Only whole blocks are simulated (``n_pulses // block_size`` of them).
    Identical arguments give bit-identical results, and a shorter session's
    blocks are the first blocks of a longer one.
    """
    if not 0 < block_size <= n_pulses:
        raise ValidationError(
            f"need 0 < block_size <= n_pulses, got block_size={block_size}, n_pulses={n_pulses}"
        )
    counts = simulate_blocks(src, ch, block_size, master_seed, n_pulses // block_size)
    blocks = BlockSeries(counts)

    signal_sent = int(blocks.sent[:, IntensityClass.SIGNAL].sum())
    one = counts[:, IntensityClass.SIGNAL, 1].sum(axis=0)  # single-photon signal pulses
    _, sp_detected, sp_sifted, sp_errors = map(int, _tallies(one))
    single_photon = SinglePhotonStats(
        gain=sp_detected / signal_sent if signal_sent else 0.0,
        error_rate=sp_errors / sp_sifted if sp_sifted else None,
        sifted=sp_sifted,
    )
    observables = estimate_observables(blocks, src)
    return SessionTally(blocks=blocks, observables=observables, single_photon=single_photon)
