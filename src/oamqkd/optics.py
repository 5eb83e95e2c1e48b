"""State algebra for polarization qubits and hybrid polarization-OAM qubits.

Circular polarization kets carry spin angular momentum (L: +1, R: -1 in units
of hbar) and the first-order OAM kets carry orbital angular momentum
(l: +1, r: -1).  A rotation of the transverse reference frame by an angle
``theta`` multiplies each product-basis amplitude by ``exp(-i*m*theta)`` where
``m`` is the total angular-momentum index of that basis element.  The hybrid
qubit subspace spanned by ``|L>|r>`` and ``|R>|l>`` has ``m = 0`` throughout,
which is what makes it rotation invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EncodingMismatchError, ValidationError

#: Absolute tolerance on |amplitudes|^2 summing to one.
NORM_TOL = 1e-12

#: Spin index of the circular polarization coordinates (amp_r, amp_l).
_SPIN = np.array([-1.0, 1.0])

#: Total angular-momentum index of the product basis
#: (|R>|l>, |R>|r>, |L>|l>, |L>|r>).
_PRODUCT_M = np.array([0.0, -2.0, 2.0, 0.0])


class Encoding(str, Enum):
    """Which two-dimensional qubit space a state or basis lives in."""

    POLARIZATION = "polarization"
    HYBRID = "hybrid"


def _check_norm(*amps: complex) -> None:
    norm_sq = float(sum(abs(a) ** 2 for a in amps))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValidationError(f"state is not normalized: |amps|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class PolarizationState:
    """Qubit on the circular polarization basis {|R>, |L>}."""

    amp_r: complex
    amp_l: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp_r", complex(self.amp_r))
        object.__setattr__(self, "amp_l", complex(self.amp_l))
        _check_norm(self.amp_r, self.amp_l)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.amp_r, self.amp_l])


@dataclass(frozen=True)
class HybridState:
    """Qubit on the rotation-invariant basis {|L>|r>, |R>|l>}."""

    amp_lr: complex
    amp_rl: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp_lr", complex(self.amp_lr))
        object.__setattr__(self, "amp_rl", complex(self.amp_rl))
        _check_norm(self.amp_lr, self.amp_rl)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.amp_lr, self.amp_rl])


@dataclass(frozen=True, eq=False)
class ProductState:
    """State on the full polarization (x) OAM basis (|R>|l>, |R>|r>, |L>|l>, |L>|r>).

    The basis ordering fixes the total angular-momentum indices
    ``m = (0, -2, +2, 0)`` used by :func:`rotate_frame`.
    """

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (4,):
            raise ValidationError(f"product state needs 4 amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amps", amps)
        _check_norm(*amps)


@dataclass(frozen=True, eq=False)
class Basis:
    """A two-state measurement basis in one of the qubit encodings.

    ``kets`` holds the two basis kets as coordinate rows in the encoding's
    own two-dimensional space: (amp_r, amp_l) for polarization,
    (amp_lr, amp_rl) for hybrid.
    """

    label: str
    encoding: Encoding
    kets: np.ndarray

    def __post_init__(self) -> None:
        kets = np.asarray(self.kets, dtype=np.complex128)
        if kets.shape != (2, 2):
            raise ValidationError("a basis needs two kets of two amplitudes each")
        gram = kets.conj() @ kets.T
        if not np.allclose(gram, np.eye(2), atol=1e-12):
            raise ValidationError(f"basis kets are not orthonormal: {self.label}")
        object.__setattr__(self, "kets", kets)

    def state(self, bit: int):
        """Return the basis ket encoding the classical ``bit`` as a state object."""
        a0, a1 = self.kets[bit]
        if self.encoding is Encoding.POLARIZATION:
            return PolarizationState(a0, a1)
        return HybridState(a0, a1)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

Z_POLARIZATION = Basis("Z", Encoding.POLARIZATION, np.array([[1, 0], [0, 1]]))
X_POLARIZATION = Basis(
    "X",
    Encoding.POLARIZATION,
    np.array([[_INV_SQRT2, _INV_SQRT2], [1j * _INV_SQRT2, -1j * _INV_SQRT2]]),
)
Z_HYBRID = Basis("Z", Encoding.HYBRID, np.array([[1, 0], [0, 1]]))
X_HYBRID = Basis(
    "X",
    Encoding.HYBRID,
    np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]),
)

_BASES = {
    ("Z", Encoding.POLARIZATION): Z_POLARIZATION,
    ("X", Encoding.POLARIZATION): X_POLARIZATION,
    ("Z", Encoding.HYBRID): Z_HYBRID,
    ("X", Encoding.HYBRID): X_HYBRID,
}


def basis(label: str, encoding: Encoding) -> Basis:
    """Look up one of the four protocol bases (Z/X in either encoding)."""
    try:
        return _BASES[(label, Encoding(encoding))]
    except KeyError:
        raise ValidationError(f"unknown basis {label!r} for encoding {encoding!r}") from None


def qplate_map(p: PolarizationState) -> HybridState:
    """Convert a polarization qubit into a hybrid polarization-OAM qubit.

    The charge-1/2 plate sends ``alpha|R> + beta|L>`` (on a zero-OAM carrier)
    to ``alpha|L>|r> + beta|R>|l>``, preserving the amplitudes.
    """
    return HybridState(amp_lr=p.amp_r, amp_rl=p.amp_l)


def qplate_inverse(h: HybridState) -> PolarizationState:
    """Convert a hybrid qubit back to the polarization qubit it came from."""
    return PolarizationState(amp_r=h.amp_lr, amp_l=h.amp_rl)


def embed_hybrid(h: HybridState) -> ProductState:
    """Embed a hybrid qubit into the four-dimensional product space."""
    return ProductState(np.array([h.amp_rl, 0.0, 0.0, h.amp_lr]))


def rotate_frame(state, theta: float):
    """Apply a transverse reference-frame rotation by ``theta`` radians.

    Product-state amplitudes pick up ``exp(-i*m*theta)`` phases with ``m`` the
    total angular-momentum index of each basis element.  For a bare
    polarization qubit the OAM factor is held fixed, so the restriction uses
    the spin index alone.  A bare hybrid qubit is refused: rotate
    :func:`embed_hybrid` of it, so that its invariance follows from the phases
    of its ``m = 0`` elements instead of being assumed.
    """
    if isinstance(state, ProductState):
        return ProductState(state.amps * np.exp(-1j * _PRODUCT_M * theta))
    if isinstance(state, PolarizationState):
        phases = np.exp(-1j * _SPIN * theta)
        return PolarizationState(state.amp_r * phases[0], state.amp_l * phases[1])
    raise TypeError(f"cannot rotate object of type {type(state).__name__}")


def measure_probabilities(state, b: Basis) -> tuple[float, float]:
    """Born-rule outcome probabilities of measuring ``state`` in basis ``b``.

    Returns ``(p0, p1)`` with ``p0 + p1 = 1``.  Product states are accepted
    against hybrid bases as long as they carry no weight outside the hybrid
    subspace.
    """
    if isinstance(state, (PolarizationState, HybridState)):
        name = "polarization" if isinstance(state, PolarizationState) else "hybrid"
        if b.encoding.value != name:
            raise EncodingMismatchError(f"{name} state measured in a non-{name} basis")
        vec, kets = state.amplitudes, b.kets
    elif isinstance(state, ProductState):
        if b.encoding is not Encoding.HYBRID:
            raise EncodingMismatchError("product states can only be measured in hybrid bases")
        vec, kets = state.amps, np.zeros((2, 4), dtype=np.complex128)
        kets[:, 0] = b.kets[:, 1]  # |R>|l> component
        kets[:, 3] = b.kets[:, 0]  # |L>|r> component
    else:
        raise TypeError(f"cannot measure object of type {type(state).__name__}")

    probs = np.abs(kets.conj() @ vec) ** 2
    p0, p1 = float(probs[0]), float(probs[1])
    if abs(p0 + p1 - 1.0) > NORM_TOL:
        raise ValidationError(
            f"state has weight outside the measured subspace: p0 + p1 = {p0 + p1!r}"
        )
    return p0, p1


def polarization_qber_theory(theta: float) -> float:
    """Misalignment error rate of plain polarization encoding at angle ``theta``.

    Circular states are rotation eigenstates and contribute no error; the two
    linear states each flip with probability sin^2(theta), so the four-state
    average is ``sin^2(theta) / 2``.
    """
    return 0.5 * math.sin(theta) ** 2
