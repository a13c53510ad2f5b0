"""Exact polarization-qubit algebra.

Density matrices for single photons (2x2, basis {|H>, |V>}) and photon
pairs (4x4, basis {|HH>, |HV>, |VH>, |VV>}), CPTP channels in operator-sum
form, Stokes vectors, and the entropy / degree-of-polarization observables
used by the calibration analysis.

Conventions
-----------
* Angles are degrees from horizontal at every public boundary; radians
  appear only inside trig calls.
* Stokes components: s1 = Tr[rho (|H><H| - |V><V|)], s2 along the 45/135
  axis, s3 = +1 for right-circular (|R> = (|H> - i|V>)/sqrt(2)).  With this
  choice the heralded idler state produced by a V-trigger has s1 = -eta1.
* Entropy is base 2, so a polarization qubit scores in [0, 1].

All types are immutable after construction and all operations are pure
functions, so everything here is safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-12
KRAUS_ATOL = 1e-10
MIN_CONDITION_PROBABILITY = 1e-15

STATE_KINDS = ("psi_plus", "phi_minus_45", "mixed_hv")


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on a measurement outcome of zero probability."""


def linear_ket(angle_deg: float) -> np.ndarray:
    """Jones vector of linear polarization at ``angle_deg`` from horizontal."""
    t = math.radians(angle_deg)
    return np.array([math.cos(t), math.sin(t)], dtype=complex)


def _immutable(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=complex)
    a.setflags(write=False)
    return a


def _check_density(m: np.ndarray, dim: int, label: str) -> None:
    if m.shape != (dim, dim):
        raise ValueError(f"{label}: expected {dim}x{dim} matrix, got {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
        raise ValueError(f"{label}: matrix is not Hermitian")
    if abs(m.trace().real - 1.0) > TRACE_ATOL or abs(m.trace().imag) > TRACE_ATOL:
        raise ValueError(f"{label}: trace is {m.trace()}, expected 1")
    if np.min(np.linalg.eigvalsh(m)) < -PSD_ATOL:
        raise ValueError(f"{label}: matrix is not positive semidefinite")


@dataclass(frozen=True, eq=False)
class PolarizationDensity:
    """Single-photon polarization density matrix in the {|H>, |V>} basis."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _immutable(self.matrix))
        _check_density(self.matrix, 2, "PolarizationDensity")


@dataclass(frozen=True, eq=False)
class JointDensity:
    """Two-photon density matrix, basis order {|HH>, |HV>, |VH>, |VV>}."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _immutable(self.matrix))
        _check_density(self.matrix, 4, "JointDensity")


@dataclass(frozen=True)
class StokesVector:
    """Stokes 4-vector (s0, s1, s2, s3); intensities in consistent units."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if self.s0 < 0:
            raise ValueError(f"StokesVector: s0 = {self.s0} must be >= 0")
        pol2 = self.s1**2 + self.s2**2 + self.s3**2
        if pol2 > self.s0**2 * (1.0 + 1e-9):
            raise ValueError("StokesVector: |s| exceeds s0 (overpolarized)")


@dataclass(frozen=True, eq=False)
class PolarizationChannel:
    """Completely positive trace-preserving map in operator-sum form.

    The Kraus operators must satisfy sum_k K_k^dag K_k = I to within
    ``KRAUS_ATOL``; violations are rejected here, at construction, so
    :func:`apply_channel` never has to re-check.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_immutable(k) for k in self.kraus)
        if not ops:
            raise ValueError("PolarizationChannel: no Kraus operators")
        object.__setattr__(self, "kraus", ops)
        total = sum(k.conj().T @ k for k in ops)
        if np.max(np.abs(total - np.eye(2))) > KRAUS_ATOL:
            raise ValueError("PolarizationChannel: completeness relation violated")


@dataclass(frozen=True)
class Projector:
    """Linear polarizer: transmission axis ``angle_deg`` from horizontal,
    intensity transmittance ``transmittance`` along that axis."""

    angle_deg: float
    transmittance: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"Projector: angle_deg {self.angle_deg} must be finite")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError(
                f"Projector: transmittance {self.transmittance} outside [0, 1]"
            )

    def matrix(self) -> np.ndarray:
        """Rank-1 projector |theta><theta| (transmittance not included)."""
        k = linear_ket(self.angle_deg)
        return np.outer(k, k.conj())

    def orthogonal(self) -> "Projector":
        """Polarizer rotated 90 degrees, same transmittance."""
        return Projector(self.angle_deg + 90.0, self.transmittance)


# ---------------------------------------------------------------------------
# state construction


def make_state(kind: str, state_visibility: float = 1.0) -> JointDensity:
    """Build a photon-pair state, optionally diluted with white noise.

    Parameters
    ----------
    kind:
        ``psi_plus``      (|HV> + |VH>)/sqrt(2)
        ``phi_minus_45``  (|45,45> - |135,135>)/sqrt(2), written out in the
                          HV basis.  Its matrix coincides with ``psi_plus``:
                          the two are the same state expressed in different
                          bases.
        ``mixed_hv``      equal classical mixture of |HV> and |VH>, the
                          state produced when the birefringent-walk-off
                          compensation is removed.
    state_visibility:
        Convex weight of the ideal state; the remainder is the fully mixed
        4x4 state.  1.0 gives the ideal state, 0.0 the identity / 4.
    """
    if not 0.0 <= state_visibility <= 1.0:
        raise ValueError(f"state_visibility {state_visibility} outside [0, 1]")
    h, v = linear_ket(0.0), linear_ket(90.0)
    if kind == "psi_plus":
        ket = (np.kron(h, v) + np.kron(v, h)) / math.sqrt(2)
        ideal = np.outer(ket, ket.conj())
    elif kind == "phi_minus_45":
        d, a = linear_ket(45.0), linear_ket(135.0)
        ket = (np.kron(d, d) - np.kron(a, a)) / math.sqrt(2)
        ideal = np.outer(ket, ket.conj())
    elif kind == "mixed_hv":
        hv, vh = np.kron(h, v), np.kron(v, h)
        ideal = (np.outer(hv, hv.conj()) + np.outer(vh, vh.conj())) / 2.0
    else:
        raise ValueError(f"unknown state kind {kind!r}; expected one of {STATE_KINDS}")
    out = state_visibility * ideal + (1.0 - state_visibility) * np.eye(4) / 4.0
    return JointDensity(out)


def _partial_trace(m: np.ndarray, keep: int) -> np.ndarray:
    r = m.reshape(2, 2, 2, 2)
    if keep == 2:  # trace out photon 1
        return np.einsum("abac->bc", r)
    return np.einsum("abcb->ac", r)  # trace out photon 2


def conditional_state(
    joint: JointDensity, trigger: Projector, arm: int = 1
) -> tuple[float, PolarizationDensity]:
    """Project one photon onto a polarizer outcome and return the partner.

    Returns ``(probability, state)`` where ``probability`` is the chance the
    measured photon is transmitted (polarizer transmittance included) and
    ``state`` is the normalized conditional density matrix of the other
    photon.  Conditioning on an outcome with probability below
    ``MIN_CONDITION_PROBABILITY`` raises :class:`ImpossibleOutcomeError`.
    """
    if arm not in (1, 2):
        raise ValueError(f"arm must be 1 or 2, got {arm}")
    p = trigger.matrix()
    big = np.kron(p, np.eye(2)) if arm == 1 else np.kron(np.eye(2), p)
    projected = big @ joint.matrix @ big
    raw = projected.trace().real
    if raw < MIN_CONDITION_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"impossible outcome: projection at {trigger.angle_deg} deg has "
            f"probability {raw:.3e}"
        )
    reduced = _partial_trace(projected, keep=2 if arm == 1 else 1) / raw
    return trigger.transmittance * raw, PolarizationDensity(reduced)


# ---------------------------------------------------------------------------
# channels


def apply_channel(rho: PolarizationDensity, ch: PolarizationChannel) -> PolarizationDensity:
    """Apply a CPTP map: rho -> sum_k K_k rho K_k^dag."""
    out = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
    return PolarizationDensity(out)


def rotator(angle_deg: float) -> PolarizationChannel:
    """Unitary rotation of the polarization plane by ``angle_deg``.

    Geometric SO(2) rotation of the linear-polarization plane: a polarizer
    axis at theta maps to theta + angle, whichever linear basis the
    experiment is set up in.  rotator(90) sends |H> to |V>.
    """
    t = math.radians(angle_deg)
    r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return PolarizationChannel((r,))


def depolarizer(q: float) -> PolarizationChannel:
    """Isotropic depolarizing channel contracting (s1, s2, s3) by exactly ``q``.

    ``q = 1`` is the identity, ``q = 0`` maps everything to the fully mixed
    state.  s0 is untouched.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizer strength q = {q} outside [0, 1]")
    p = 1.0 - q
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = (
        math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2),
        math.sqrt(p / 4.0) * sx,
        math.sqrt(p / 4.0) * sy,
        math.sqrt(p / 4.0) * sz,
    )
    return PolarizationChannel(ops)


# ---------------------------------------------------------------------------
# Stokes description


def stokes_from_density(rho: PolarizationDensity) -> StokesVector:
    """Stokes vector of a (unit-trace) polarization density matrix."""
    m = rho.matrix
    return StokesVector(
        s0=m.trace().real,
        s1=(m[0, 0] - m[1, 1]).real,
        s2=2.0 * m[0, 1].real,
        s3=2.0 * m[0, 1].imag,
    )


def density_from_stokes(s: StokesVector) -> PolarizationDensity:
    """Density matrix of a Stokes vector, normalized to unit trace."""
    if s.s0 <= 0.0:
        raise ValueError("density_from_stokes: s0 must be positive")
    n1, n2, n3 = s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0
    m = 0.5 * np.array(
        [[1.0 + n1, n2 + 1j * n3], [n2 - 1j * n3, 1.0 - n1]], dtype=complex
    )
    return PolarizationDensity(m)


def degree_of_polarization(s: StokesVector) -> float:
    """P = sqrt(s1^2 + s2^2 + s3^2) / s0."""
    if s.s0 <= 0.0:
        raise ValueError("degree_of_polarization undefined for s0 <= 0")
    return math.sqrt(s.s1**2 + s.s2**2 + s.s3**2) / s.s0


def von_neumann_entropy(rho: PolarizationDensity) -> float:
    """Base-2 von Neumann entropy, with the 0*log(0) term taken as 0.

    Eigenvalues of a unit-trace 2x2 density matrix are (1 +- r)/2 with r the
    Bloch-vector length, so this is evaluated in closed form rather than
    through an iterative eigensolver.
    """
    s = stokes_from_density(rho)
    r = min(1.0, math.sqrt(s.s1**2 + s.s2**2 + s.s3**2))
    out = 0.0
    for lam in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
        if lam > 0.0:
            out -= lam * math.log2(lam)
    return min(1.0, max(0.0, out))


def heralded_idler_state(eta1: float) -> PolarizationDensity:
    """Idler polarization after the trigger-conditioned 90-degree rotation.

    A trigger detector of quantum efficiency ``eta1`` fires on V-selected
    photons from the HV-mixed source; each fire rotates the partner H photon
    to V, giving diag((1 - eta1)/2, (1 + eta1)/2).  Degree of polarization
    equals eta1; entropy falls from 1 (eta1 = 0) to 0 (eta1 = 1).
    """
    if not 0.0 <= eta1 <= 1.0:
        raise ValueError(f"eta1 = {eta1} outside [0, 1]")
    return PolarizationDensity(
        np.diag([(1.0 - eta1) / 2.0, (1.0 + eta1) / 2.0]).astype(complex)
    )
