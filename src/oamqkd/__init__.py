"""Free-space QKD link simulator and analysis toolkit.

Covers rotation-invariant hybrid polarization-OAM encoding, BB84+decoy
Monte Carlo simulation, closed-form decoy key-rate bounds, beam-wander
turbulence estimation and rate-versus-gain link budgets.
"""

from .errors import DomainError, ThresholdUndefinedError, ValidationError
from .keyrate import (
    DecoyObservables,
    ECModel,
    KeyRateBreakdown,
    binary_entropy,
    e1_upper,
    q0_gain,
    q1_lower,
    qber_threshold,
    secret_key_rate,
    single_photon_rate,
)
from .link_budget import (
    LinkBudgetParams,
    RatePoint,
    gain_threshold,
    loss_margin_db,
    rate_vs_gain,
)
from .optics import (
    Basis,
    Encoding,
    HybridState,
    PolarizationState,
    ProductState,
    basis,
    embed_hybrid,
    measure_probabilities,
    polarization_qber_theory,
    qplate_inverse,
    qplate_map,
    rotate_frame,
)
from .simulator import (
    BlockSeries,
    BlockTally,
    ChannelParams,
    IntensityClass,
    PulseBatch,
    SessionTally,
    SourceParams,
    estimate_observables,
    generate_pulses,
    run_session,
    tally_blocks,
    transmit,
)
from .turbulence import (
    CentroidSample,
    IntensityFrame,
    LinkGeometry,
    SpotModel,
    TurbulenceEstimate,
    centroid,
    cn2_from_fried,
    estimate_turbulence,
    fried_parameter,
    is_weak_turbulence,
    synthesize_frames,
    wander_sigma,
)

__version__ = "0.1.0"
