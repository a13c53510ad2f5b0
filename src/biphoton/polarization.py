"""Exact polarization-qubit algebra.

Density matrices for single photons (2x2, basis {|H>, |V>}) and photon
pairs (4x4, basis {|HH>, |HV>, |VH>, |VV>}), CPTP channels in operator-sum
form, and the Bloch vector with the entropy / degree-of-polarization
observables used by the calibration analysis.

Conventions
-----------
* Angles are degrees from horizontal at every public boundary; radians
  appear only inside trig calls.
* Bloch components (the Stokes parameters of a unit-intensity beam):
  s1 = Tr[rho (|H><H| - |V><V|)], s2 = +1 for linear polarization at 45
  degrees, s3 = +1 for right-circular (|R> = (|H> - i|V>)/sqrt(2)).  With
  this choice the heralded idler state produced by a V-trigger has
  s1 = -eta1.
* Entropy is base 2, so a polarization qubit scores in [0, 1].

All types are immutable after construction and all operations are pure
functions, so everything here is safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checked import _Checked, _range

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-12
KRAUS_ATOL = 1e-10
MIN_CONDITION_PROBABILITY = 1e-15

STATE_KINDS = ("psi_plus", "phi_minus_45", "mixed_hv")
_PAULI = tuple(  # sigma_x, sigma_y, sigma_z
    np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
)


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on a measurement outcome of zero probability."""


def _jones(angle_deg: float) -> tuple[float, float]:
    """The (real) entries of :func:`linear_ket`, for callers that build many kets at once."""
    t = math.radians(angle_deg)
    return math.cos(t), math.sin(t)


def linear_ket(angle_deg: float) -> np.ndarray:
    """Jones vector of linear polarization at ``angle_deg`` from horizontal."""
    return np.array(_jones(angle_deg), dtype=complex)


def _immutable(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=complex)
    a.setflags(write=False)
    return a


def _check_density(m: np.ndarray, dim: int, label: str) -> None:
    if m.shape != (dim, dim):
        raise ValueError(f"{label}: expected {dim}x{dim} matrix, got {m.shape}")
    # checked first: numpy warns on the inf - inf of an infinite entry in m - m^H
    if not np.isfinite(m).all():
        raise ValueError(f"{label}: matrix has a non-finite entry")
    if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_ATOL:
        raise ValueError(f"{label}: matrix is not Hermitian")
    if not (abs(m.trace().real - 1.0) <= TRACE_ATOL and abs(m.trace().imag) <= TRACE_ATOL):
        raise ValueError(f"{label}: trace is {m.trace()}, expected 1")
    if not np.min(np.linalg.eigvalsh(m)) >= -PSD_ATOL:
        raise ValueError(f"{label}: matrix is not positive semidefinite")


@dataclass(frozen=True, eq=False)
class _Density:
    """Density matrix of dimension ``_dim``, checked and made read-only when built."""

    matrix: np.ndarray
    _dim = 2

    def __post_init__(self):
        object.__setattr__(self, "matrix", _immutable(self.matrix))
        _check_density(self.matrix, self._dim, type(self).__name__)


class PolarizationDensity(_Density):
    """Single-photon polarization density matrix in the {|H>, |V>} basis."""


class JointDensity(_Density):
    """Two-photon density matrix, basis order {|HH>, |HV>, |VH>, |VV>}."""

    _dim = 4


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
        # an infinite entry makes the sum NaN or inf, which fails the test below,
        # and numpy warns on its way there (inf * 0 in the matmul)
        with np.errstate(invalid="ignore", over="ignore"):
            total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(2))) <= KRAUS_ATOL:  # False for NaN
            raise ValueError("PolarizationChannel: completeness relation violated")


@dataclass(frozen=True)
class Projector(_Checked):
    """Linear polarizer: transmission axis ``angle_deg`` from horizontal,
    intensity transmittance ``transmittance`` along that axis."""

    _error = ValueError
    angle_deg: float = field(metadata=_range())
    transmittance: float = field(default=1.0, metadata=_range(0.0, 1.0))

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


def conditional_state(joint: JointDensity, trigger: Projector) -> tuple[float, PolarizationDensity]:
    """Project photon 1 onto a polarizer outcome and return photon 2.

    Returns ``(probability, state)`` where ``probability`` is the chance
    photon 1 is transmitted (polarizer transmittance included) and
    ``state`` is the normalized conditional density matrix of photon 2.
    Conditioning on an outcome with probability below
    ``MIN_CONDITION_PROBABILITY`` raises :class:`ImpossibleOutcomeError`.
    """
    big = np.kron(trigger.matrix(), np.eye(2))
    projected = big @ joint.matrix @ big
    raw = projected.trace().real
    if raw < MIN_CONDITION_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"impossible outcome: projection at {trigger.angle_deg} deg has "
            f"probability {raw:.3e}"
        )
    reduced = np.einsum("abac->bc", projected.reshape(2, 2, 2, 2)) / raw  # trace out photon 1
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
    state.  The trace is untouched.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizer strength q = {q} outside [0, 1]")
    p = 1.0 - q
    ops = (math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2), *(math.sqrt(p / 4.0) * s for s in _PAULI))
    return PolarizationChannel(ops)


# ---------------------------------------------------------------------------
# observables


def bloch_vector(rho: PolarizationDensity) -> tuple[float, float, float]:
    """Bloch vector (s1, s2, s3) of a polarization density matrix."""
    m = rho.matrix
    off = 2.0 * m[0, 1]
    return float((m[0, 0] - m[1, 1]).real), float(off.real), float(off.imag)


def degree_of_polarization(rho: PolarizationDensity) -> float:
    """P = |(s1, s2, s3)|, the length of the Bloch vector."""
    return math.hypot(*bloch_vector(rho))


def von_neumann_entropy(rho: PolarizationDensity) -> float:
    """Base-2 von Neumann entropy, with the 0*log(0) term taken as 0.

    Eigenvalues of a unit-trace 2x2 density matrix are (1 +- r)/2 with r the
    Bloch-vector length, so this is evaluated in closed form rather than
    through an iterative eigensolver.
    """
    r = min(1.0, degree_of_polarization(rho))
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
