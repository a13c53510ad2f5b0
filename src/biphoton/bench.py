"""Static description of a photon-pair bench and closed-form rate predictions.

A :class:`BenchConfig` fixes everything about one simulated experiment:
source state, trigger and analyzer polarizers, the high-voltage pulse
driving the conditional rotation, detector parameters, timing, and the
coincidence electronics.  The ``predict_*`` functions give the analytic
singles/coincidence behaviour for the configurations where a closed form
exists; the Monte Carlo engine in :mod:`biphoton.simulate` is checked
against them and takes over everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .polarization import STATE_KINDS, Projector

FAILURE_MODELS = ("uniform_depolarizer", "bernoulli_identity")

_ANGLE_ATOL = 1e-9
_AMPLITUDE_ATOL = 1e-12


class ConfigError(ValueError):
    """Invalid bench configuration."""


def _finite_nonneg(value: float) -> bool:
    """False for negative values, NaN and infinity alike."""
    return 0.0 <= value < math.inf


class NoClosedFormError(ValueError):
    """No analytic prediction for this configuration; use the Monte Carlo."""


@dataclass(frozen=True)
class PulseShape:
    """High-voltage pulse profile: linear rise, flat top, linear fall.

    Amplitude is normalized to [0, 1]; 1 means the full conditional
    rotation is applied to a photon sampling that instant.
    """

    rise_ns: float = 5.0
    flat_ns: float = 100.0
    fall_ns: float = 3500.0

    def __post_init__(self):
        if not all(map(_finite_nonneg, (self.rise_ns, self.flat_ns, self.fall_ns))):
            raise ConfigError("PulseShape: durations must be finite and >= 0")

    @property
    def total_ns(self) -> float:
        return self.rise_ns + self.flat_ns + self.fall_ns

    def amplitude(self, t_ns: float) -> float:
        """Instantaneous amplitude at ``t_ns`` after the pulse start."""
        if t_ns < 0.0:
            return 0.0
        if t_ns < self.rise_ns:
            return t_ns / self.rise_ns
        t = t_ns - self.rise_ns
        if t <= self.flat_ns:
            return 1.0
        t -= self.flat_ns
        if t < self.fall_ns:
            return 1.0 - t / self.fall_ns
        return 0.0


@dataclass(frozen=True)
class DriverPolicy:
    """Rate protection of the high-voltage driver.

    When the trailing-one-second trigger rate exceeds ``rate_threshold_hz``
    the driver stops scheduling pulses for ``disable_duration_s``.
    """

    rate_threshold_hz: float = 1.0e4
    disable_duration_s: float = 1.0

    def __post_init__(self):
        if not self.rate_threshold_hz > 0:
            raise ConfigError("DriverPolicy: rate_threshold_hz must be > 0")
        if not self.disable_duration_s >= 0:
            raise ConfigError("DriverPolicy: disable_duration_s must be >= 0")


@dataclass(frozen=True)
class DetectorParams:
    """Quantum efficiency, non-paralyzable dead time, and dark-count rate."""

    eta: float = 0.5
    dead_time_ns: float = 0.0
    dark_rate_hz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"DetectorParams: eta = {self.eta} outside [0, 1]")
        if not (_finite_nonneg(self.dead_time_ns) and _finite_nonneg(self.dark_rate_hz)):
            raise ConfigError(
                "DetectorParams: dead time and dark rate must be finite and >= 0"
            )


@dataclass(frozen=True)
class PockelsParams:
    """Conditional-rotation element and its imperfection model.

    ``q`` is the coincidence-visibility parameter of the apparatus.  Under
    ``uniform_depolarizer`` it is an always-on isotropic Stokes contraction
    applied to every idler photon; under ``bernoulli_identity`` the rotation
    succeeds with probability p = (1 + q)/2 and otherwise does nothing, so
    both models produce the same coincidence visibility q.
    """

    q: float = 1.0
    failure_model: str = "uniform_depolarizer"
    rotation_angle_deg: float = 90.0

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ConfigError(f"PockelsParams: q = {self.q} outside [0, 1]")
        if self.failure_model not in FAILURE_MODELS:
            raise ConfigError(
                f"PockelsParams: failure_model {self.failure_model!r} not in {FAILURE_MODELS}"
            )
        if not math.isfinite(self.rotation_angle_deg):
            raise ConfigError("PockelsParams: rotation_angle_deg must be finite")

    @property
    def success_probability(self) -> float:
        """Rotation success probability of the bernoulli_identity model."""
        return (1.0 + self.q) / 2.0


@dataclass(frozen=True)
class TacParams:
    """Start-stop coincidence circuit: acceptance window and stop-line delay."""

    window_ns: float = 4.0
    stop_delay_ns: float = 9.3

    def __post_init__(self):
        if not 0 < self.window_ns < math.inf:
            raise ConfigError("TacParams: window_ns must be finite and > 0")
        if not _finite_nonneg(self.stop_delay_ns):
            raise ConfigError("TacParams: stop_delay_ns must be finite and >= 0")


@dataclass(frozen=True)
class BenchConfig:
    """Complete static description of one experiment.

    ``idler_path_loss`` is the transmission fraction of the idler optical
    path (fiber coupling, cell, filters) before the analyzer.  The default
    ``fiber_delay_ns = 50`` lands the idler on the pulse flat top when the
    electronic delay is zero; ``electronic_delay_ns`` shifts the idler's
    sampling point further along the pulse profile.
    """

    pair_rate_hz: float = 1.0e5
    source_kind: str = "mixed_hv"
    state_visibility: float = 1.0
    idler_path_loss: float = 1.0
    trigger_projector: Projector = field(default_factory=lambda: Projector(90.0))
    analyzer: Projector = field(default_factory=lambda: Projector(0.0))
    pockels: PockelsParams = field(default_factory=PockelsParams)
    fiber_delay_ns: float = 50.0
    electronic_delay_ns: float = 0.0
    pulse: PulseShape = field(default_factory=PulseShape)
    driver: DriverPolicy = field(default_factory=DriverPolicy)
    det1: DetectorParams = field(default_factory=lambda: DetectorParams(eta=0.45, dead_time_ns=40.0))
    det2: DetectorParams = field(default_factory=lambda: DetectorParams(eta=0.40, dead_time_ns=40.0))
    tac: TacParams = field(default_factory=TacParams)
    background_rate_hz: float = 0.0

    def __post_init__(self):
        if not _finite_nonneg(self.pair_rate_hz):
            raise ConfigError("BenchConfig: pair_rate_hz must be finite and >= 0")
        if self.source_kind not in STATE_KINDS:
            raise ConfigError(
                f"BenchConfig: source_kind {self.source_kind!r} not in {STATE_KINDS}"
            )
        if not 0.0 <= self.state_visibility <= 1.0:
            raise ConfigError("BenchConfig: state_visibility outside [0, 1]")
        if not 0.0 <= self.idler_path_loss <= 1.0:
            raise ConfigError("BenchConfig: idler_path_loss outside [0, 1]")
        if not (
            _finite_nonneg(self.fiber_delay_ns) and _finite_nonneg(self.electronic_delay_ns)
        ):
            raise ConfigError("BenchConfig: delays must be finite and >= 0")
        if not _finite_nonneg(self.background_rate_hz):
            raise ConfigError("BenchConfig: background_rate_hz must be finite and >= 0")

    def pulse_amplitude_at_idler(self) -> float:
        """Pulse amplitude sampled by the idler for this timing setup."""
        return self.pulse.amplitude(self.fiber_delay_ns + self.electronic_delay_ns)


# ---------------------------------------------------------------------------
# analytic predictions


def _trigger_sign(cfg: BenchConfig) -> float:
    axis = cfg.trigger_projector.angle_deg % 180.0
    if math.isclose(axis, 90.0, abs_tol=_ANGLE_ATOL):
        return -1.0  # V trigger: analyzer minimum at theta = 0
    if math.isclose(axis, 0.0, abs_tol=_ANGLE_ATOL) or math.isclose(
        axis, 180.0, abs_tol=_ANGLE_ATOL
    ):
        return 1.0
    raise NoClosedFormError(
        f"no closed form for an HV-mixed source triggered at "
        f"{cfg.trigger_projector.angle_deg} deg; use the Monte Carlo engine"
    )


def _require_flat_top(cfg: BenchConfig) -> None:
    if abs(cfg.pulse_amplitude_at_idler() - 1.0) > _AMPLITUDE_ATOL:
        raise NoClosedFormError(
            "no closed form off the pulse flat top "
            f"(sampled amplitude {cfg.pulse_amplitude_at_idler():.4f}); "
            "use the Monte Carlo engine"
        )


def _heralding_contrast(cfg: BenchConfig) -> float:
    # |cos 2theta_t| for the HV mixture, 1 for the entangled sources
    if cfg.source_kind == "mixed_hv":
        return abs(math.cos(math.radians(2.0 * cfg.trigger_projector.angle_deg)))
    return 1.0


def predict_singles_rate(cfg: BenchConfig, theta_deg: float) -> float:
    """Analyzer singles rate (counts/s) at analyzer angle ``theta_deg``.

    Valid for the HV-mixed source triggered on H or V under the
    uniform_depolarizer model, with the idler on the pulse flat top:

        rate = R * (1 -+ m cos 2theta),   R = N0 * alpha * eta2 * eps_a / 2,
        m = eta1 * eps_t * v * q

    (minus sign for a V trigger).  R absorbs every angle-independent factor;
    only visibilities, never absolute rates, are compared against measured
    data.  Dark and background counts are additive extras not included here.
    """
    if cfg.pockels.failure_model != "uniform_depolarizer":
        raise NoClosedFormError(
            f"no closed form for failure model {cfg.pockels.failure_model!r}"
        )
    if cfg.source_kind != "mixed_hv":
        raise NoClosedFormError(
            f"no closed form for source kind {cfg.source_kind!r}; "
            "use the Monte Carlo engine"
        )
    sign = _trigger_sign(cfg)
    _require_flat_top(cfg)
    scale = (
        cfg.pair_rate_hz
        * cfg.idler_path_loss
        * cfg.det2.eta
        * cfg.analyzer.transmittance
        / 2.0
    )
    m = (
        cfg.det1.eta
        * cfg.trigger_projector.transmittance
        * cfg.state_visibility
        * cfg.pockels.q
    )
    return scale * (1.0 + sign * m * math.cos(math.radians(2.0 * theta_deg)))


def predict_singles_visibility(cfg: BenchConfig) -> float:
    """Modulation visibility of the analyzer singles over an angle scan.

    uniform_depolarizer:  eta1 * eps_t * v * k * q
    bernoulli_identity:   eta1 * eps_t * v * k * (1 + q)/2

    where k is the heralding contrast of the trigger choice (|cos 2theta_t|
    for the HV mixture, 1 for the entangled sources).  With an ideal
    trigger polarizer and source this reduces to eta1 * q, and to eta1 for
    a perfect rotation: the singles visibility reads off the trigger
    detector's quantum efficiency.
    """
    _require_flat_top(cfg)
    if cfg.pockels.failure_model == "uniform_depolarizer":
        m_pockels = cfg.pockels.q
    else:
        m_pockels = cfg.pockels.success_probability
    return (
        cfg.det1.eta
        * cfg.trigger_projector.transmittance
        * cfg.state_visibility
        * _heralding_contrast(cfg)
        * m_pockels
    )


def predict_coincidence_visibility(cfg: BenchConfig) -> float:
    """Visibility of the coincidence rate over an analyzer scan.

    Trigger efficiency and eta2 drop out of the coincidence pattern, so
    this isolates the rotation apparatus: both imperfection models give
    q * v * k (for bernoulli_identity, 2p - 1 = q).
    """
    _require_flat_top(cfg)
    return cfg.pockels.q * cfg.state_visibility * _heralding_contrast(cfg)
