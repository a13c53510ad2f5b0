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

from ._checked import _Checked, _choices, _range
from .polarization import STATE_KINDS, Projector

FAILURE_MODELS = ("uniform_depolarizer", "bernoulli_identity")

_ANGLE_ATOL = 1e-9
_AMPLITUDE_ATOL = 1e-12
# Event times are float ns.  Two delays at this bound (one second each) keep
# the float spacing of a delayed time in a short run near 2.4e-7 ns, far below
# the 4 ns TAC window; at 1e300 ns every idler time rounds to one float.
MAX_DELAY_NS = 1.0e9


class ConfigError(ValueError):
    """Invalid bench configuration."""


class NoClosedFormError(ValueError):
    """No analytic prediction for this configuration; use the Monte Carlo."""


@dataclass(frozen=True)
class PulseShape(_Checked):
    """High-voltage pulse profile: linear rise, flat top, linear fall.

    Amplitude is normalized to [0, 1]; 1 means the full conditional
    rotation is applied to a photon sampling that instant.
    """

    _error = ConfigError
    rise_ns: float = field(default=5.0, metadata=_range(0.0))
    flat_ns: float = field(default=100.0, metadata=_range(0.0))
    fall_ns: float = field(default=3500.0, metadata=_range(0.0))

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
class DriverPolicy(_Checked):
    """Rate protection of the high-voltage driver.

    When the trailing-one-second trigger rate exceeds ``rate_threshold_hz``
    the driver stops scheduling pulses for ``disable_duration_s``.
    """

    _error = ConfigError
    rate_threshold_hz: float = field(default=1.0e4, metadata=_range(0.0, lo_open=True, inf_ok=True))
    disable_duration_s: float = field(default=1.0, metadata=_range(0.0, inf_ok=True))


@dataclass(frozen=True)
class DetectorParams(_Checked):
    """Quantum efficiency, non-paralyzable dead time, and dark-count rate."""

    _error = ConfigError
    eta: float = field(default=0.5, metadata=_range(0.0, 1.0))
    dead_time_ns: float = field(default=0.0, metadata=_range(0.0))
    dark_rate_hz: float = field(default=0.0, metadata=_range(0.0))


@dataclass(frozen=True)
class PockelsParams(_Checked):
    """Conditional-rotation element and its imperfection model.

    ``q`` is the coincidence-visibility parameter of the apparatus.  Under
    ``uniform_depolarizer`` it is an always-on isotropic Stokes contraction
    applied to every idler photon; under ``bernoulli_identity`` the rotation
    succeeds with probability p = (1 + q)/2 and otherwise does nothing, so
    both models produce the same coincidence visibility q.
    """

    _error = ConfigError
    q: float = field(default=1.0, metadata=_range(0.0, 1.0))
    failure_model: str = field(default="uniform_depolarizer", metadata=_choices(FAILURE_MODELS))
    rotation_angle_deg: float = field(default=90.0, metadata=_range())

    @property
    def success_probability(self) -> float:
        """Rotation success probability of the bernoulli_identity model."""
        return (1.0 + self.q) / 2.0


@dataclass(frozen=True)
class TacParams(_Checked):
    """Start-stop coincidence circuit: acceptance window and stop-line delay."""

    _error = ConfigError
    window_ns: float = field(default=4.0, metadata=_range(0.0, lo_open=True))
    stop_delay_ns: float = field(default=9.3, metadata=_range(0.0, MAX_DELAY_NS))


@dataclass(frozen=True)
class BenchConfig(_Checked):
    """Complete static description of one experiment.

    ``idler_path_loss`` is the transmission fraction of the idler optical
    path (fiber coupling, cell, filters) before the analyzer.  The default
    ``fiber_delay_ns = 50`` lands the idler on the pulse flat top when the
    electronic delay is zero; ``electronic_delay_ns`` shifts the idler's
    sampling point further along the pulse profile.
    """

    _error = ConfigError
    pair_rate_hz: float = field(default=1.0e5, metadata=_range(0.0))
    source_kind: str = field(default="mixed_hv", metadata=_choices(STATE_KINDS))
    state_visibility: float = field(default=1.0, metadata=_range(0.0, 1.0))
    idler_path_loss: float = field(default=1.0, metadata=_range(0.0, 1.0))
    trigger_projector: Projector = field(default_factory=lambda: Projector(90.0))
    analyzer: Projector = field(default_factory=lambda: Projector(0.0))
    pockels: PockelsParams = field(default_factory=PockelsParams)
    fiber_delay_ns: float = field(default=50.0, metadata=_range(0.0, MAX_DELAY_NS))
    electronic_delay_ns: float = field(default=0.0, metadata=_range(0.0, MAX_DELAY_NS))
    pulse: PulseShape = field(default_factory=PulseShape)
    driver: DriverPolicy = field(default_factory=DriverPolicy)
    det1: DetectorParams = field(default_factory=lambda: DetectorParams(eta=0.45, dead_time_ns=40.0))
    det2: DetectorParams = field(default_factory=lambda: DetectorParams(eta=0.40, dead_time_ns=40.0))
    tac: TacParams = field(default_factory=TacParams)
    background_rate_hz: float = field(default=0.0, metadata=_range(0.0))

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
    # the heralding contrast of an H or V trigger is exactly 1.0
    m = predict_singles_visibility(cfg)
    scale = cfg.pair_rate_hz * cfg.idler_path_loss * cfg.det2.eta * cfg.analyzer.transmittance / 2.0
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
