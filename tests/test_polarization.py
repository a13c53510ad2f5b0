import math

import numpy as np
import pytest

from biphoton.polarization import (
    ImpossibleOutcomeError,
    JointDensity,
    PolarizationChannel,
    PolarizationDensity,
    Projector,
    apply_channel,
    bloch_vector,
    conditional_state,
    degree_of_polarization,
    depolarizer,
    heralded_idler_state,
    linear_ket,
    make_state,
    rotator,
    von_neumann_entropy,
)


def dm(matrix) -> PolarizationDensity:
    return PolarizationDensity(np.asarray(matrix, dtype=complex))


def bloch_state(s1, s2, s3) -> PolarizationDensity:
    """Density matrix (I + s1 sigma_z + s2 sigma_x + s3 sigma_y) / 2."""
    return dm(0.5 * np.array([[1.0 + s1, s2 + 1j * s3], [s2 - 1j * s3, 1.0 - s1]]))


def ket_state(ket) -> PolarizationDensity:
    k = np.asarray(ket, dtype=complex)
    return dm(np.outer(k, k.conj()))


H = dm([[1, 0], [0, 0]])
V = dm([[0, 0], [0, 1]])


# ---------------------------------------------------------------------------
# state construction


def test_make_state_psi_plus_matrix():
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(make_state("psi_plus", 1.0).matrix, expected, atol=1e-15)


def test_make_state_mixed_hv_diagonal():
    state = make_state("mixed_hv", 1.0)
    assert np.allclose(np.diag(state.matrix), [0.0, 0.5, 0.5, 0.0], atol=1e-15)
    assert np.allclose(state.matrix, np.diag(np.diag(state.matrix)), atol=1e-15)


def test_make_state_fully_mixed_limit():
    assert np.allclose(make_state("psi_plus", 0.0).matrix, np.eye(4) / 4, atol=1e-15)


def test_make_state_phi_minus_45_literal_construction():
    # independent construction of (|45,45> - |135,135>)/sqrt(2)
    k45 = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    k135 = np.array([math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)])
    ket = (np.kron(k45, k45) - np.kron(k135, k135)) / math.sqrt(2)
    assert np.allclose(make_state("phi_minus_45", 1.0).matrix, np.outer(ket, ket), atol=1e-15)


def test_make_state_mixture_is_convex():
    v = 0.7
    full = make_state("mixed_hv", 1.0).matrix
    mixed = make_state("mixed_hv", v).matrix
    assert np.allclose(mixed, v * full + (1 - v) * np.eye(4) / 4, atol=1e-15)


@pytest.mark.parametrize("kind", ["psi_plus", "phi_minus_45", "mixed_hv"])
@pytest.mark.parametrize("vis", [0.0, 0.3, 1.0])
def test_make_state_outputs_valid_densities(kind, vis):
    m = make_state(kind, vis).matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert abs(m.trace() - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(m)) > -1e-12


def test_make_state_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown state kind"):
        make_state("bell", 1.0)
    with pytest.raises(ValueError, match="state_visibility"):
        make_state("psi_plus", 1.5)


def test_density_constructors_reject_invalid():
    with pytest.raises(ValueError, match="Hermitian"):
        PolarizationDensity(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        PolarizationDensity(np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        PolarizationDensity(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        JointDensity(np.eye(4))
    with pytest.raises(ValueError, match="expected 2x2 matrix"):
        PolarizationDensity(np.eye(3, dtype=complex) / 3)
    for bad in (
        np.diag([np.nan, np.nan]),
        np.diag([0.5, 0.5 + 1j * np.nan]),
        np.diag([np.inf, 0.0]),
        np.diag([0.5, 0.5 - 1j * np.inf]),
    ):
        with pytest.raises(ValueError, match="finite"):
            PolarizationDensity(bad.astype(complex))
    for bad in (np.diag([np.nan, 0.0, 0.0, 1.0]), np.diag([np.inf, 0.0, 0.0, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            JointDensity(bad.astype(complex))


def test_density_matrices_are_immutable():
    state = make_state("psi_plus", 1.0)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# conditioning


def test_conditional_psi_plus_on_h_gives_v():
    p, rho = conditional_state(make_state("psi_plus", 1.0), Projector(0.0))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rho.matrix, V.matrix, atol=1e-12)


def test_conditional_mixed_on_v_gives_h():
    p, rho = conditional_state(make_state("mixed_hv", 1.0), Projector(90.0))
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rho.matrix, H.matrix, atol=1e-12)


def test_conditional_phi_minus_on_45_gives_45():
    p, rho = conditional_state(make_state("phi_minus_45", 1.0), Projector(45.0))
    k = linear_ket(45.0)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(rho.matrix, np.outer(k, k.conj()), atol=1e-12)


def test_conditional_probability_includes_transmittance():
    p, _ = conditional_state(make_state("psi_plus", 1.0), Projector(0.0, transmittance=0.7))
    assert p == pytest.approx(0.35, abs=1e-12)


@pytest.mark.parametrize("angle", [0.0, 17.0, 45.0, 90.0, 133.0])
def test_conditional_probabilities_complete_to_transmittance(angle):
    joint = make_state("psi_plus", 0.8)
    trig = Projector(angle, transmittance=0.9)
    p1, _ = conditional_state(joint, trig)
    p2, _ = conditional_state(joint, trig.orthogonal())
    assert p1 + p2 == pytest.approx(0.9, abs=1e-12)


def test_conditional_zero_probability_raises():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    with pytest.raises(ImpossibleOutcomeError, match="impossible outcome"):
        conditional_state(JointDensity(hh), Projector(90.0))


# ---------------------------------------------------------------------------
# channels


def test_rotator_90_maps_h_to_v():
    assert np.allclose(apply_channel(H, rotator(90.0)).matrix, V.matrix, atol=1e-12)


def test_rotator_0_and_depolarizer_1_are_identity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = bloch_state(*rng.uniform(-0.5, 0.5, 3))
        assert np.allclose(apply_channel(rho, rotator(0.0)).matrix, rho.matrix, atol=1e-12)
        assert np.allclose(apply_channel(rho, depolarizer(1.0)).matrix, rho.matrix, atol=1e-12)


def test_depolarizer_0_fully_mixes():
    out = apply_channel(H, depolarizer(0.0))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_depolarizer_contracts_stokes_exactly():
    # oracle: s -> q * s applied by hand
    q = 0.832
    out = apply_channel(H, depolarizer(q))
    assert np.allclose(np.diag(out.matrix).real, [(1 + q) / 2, (1 - q) / 2], atol=1e-12)
    assert np.allclose(np.diag(out.matrix).real, [0.916, 0.084], atol=1e-12)
    s_out = bloch_vector(apply_channel(bloch_state(0.2, -0.4, 0.3), depolarizer(q)))
    assert s_out == pytest.approx((q * 0.2, q * -0.4, q * 0.3), abs=1e-12)


def test_rotator_90_stokes_map_matches_matrix_oracle():
    # oracle: conjugate the density matrix by the rotation matrix directly
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    rho_in = bloch_state(1.0, 0.0, 0.0)
    expected = r @ rho_in.matrix @ r.T
    out = apply_channel(rho_in, rotator(90.0))
    assert np.allclose(out.matrix, expected, atol=1e-12)
    assert out.matrix.trace().real == pytest.approx(1.0, abs=1e-12)
    assert bloch_vector(out) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-12)


def test_channels_preserve_trace_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(10):
        vec = rng.normal(size=3)
        vec *= rng.uniform(0, 1) / np.linalg.norm(vec)
        rho = bloch_state(*vec)
        for ch in (rotator(rng.uniform(0, 360)), depolarizer(rng.uniform(0, 1))):
            out = apply_channel(rho, ch)
            assert abs(out.matrix.trace() - 1.0) < 1e-10


@pytest.mark.parametrize("q", [0.0, 0.5, 0.832, 1.0])
@pytest.mark.parametrize("angle", [0.0, 30.0, 90.0, 145.0])
def test_depolarizer_commutes_with_rotator(q, angle):
    rng = np.random.default_rng(7)
    vec = rng.normal(size=3)
    vec *= 0.8 / np.linalg.norm(vec)
    rho = bloch_state(*vec)
    a = apply_channel(apply_channel(rho, rotator(angle)), depolarizer(q))
    b = apply_channel(apply_channel(rho, depolarizer(q)), rotator(angle))
    assert np.allclose(a.matrix, b.matrix, atol=1e-10)


def test_non_cptp_channel_rejected_at_construction():
    with pytest.raises(ValueError, match="no Kraus operators"):
        PolarizationChannel(())
    with pytest.raises(ValueError, match="completeness"):
        PolarizationChannel((np.eye(2) * 0.5,))
    with pytest.raises(ValueError, match="completeness"):
        PolarizationChannel((np.diag([1.0, np.nan]),))
    for ops in ((np.diag([1.0, np.inf]),), (np.eye(2) / 2, np.diag([np.inf, 0.0]))):
        with pytest.raises(ValueError, match="completeness"):
            PolarizationChannel(ops)
    with pytest.raises(ValueError, match="completeness"):
        rotator(math.nan)


def test_depolarizer_rejects_bad_strength():
    with pytest.raises(ValueError):
        depolarizer(1.2)


# ---------------------------------------------------------------------------
# Bloch vector and degree of polarization


def test_stokes_of_h_state():
    assert bloch_vector(H) == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)


R2 = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize(
    "ket, expected",
    [
        ((1.0, 0.0), (1.0, 0.0, 0.0)),  # |H>
        ((0.0, 1.0), (-1.0, 0.0, 0.0)),  # |V>
        ((R2, R2), (0.0, 1.0, 0.0)),  # linear at 45 degrees
        ((R2, -R2), (0.0, -1.0, 0.0)),  # linear at 135 degrees
        ((R2, -1j * R2), (0.0, 0.0, 1.0)),  # |R>
        ((R2, 1j * R2), (0.0, 0.0, -1.0)),  # |L>
    ],
)
def test_bloch_vector_sign_convention_on_literal_kets(ket, expected):
    # the convention of the module docstring, from kets written out by hand
    assert bloch_vector(ket_state(ket)) == pytest.approx(expected, abs=1e-15)


def test_stokes_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        vec = rng.normal(size=3)
        vec *= rng.uniform(0, 1) / np.linalg.norm(vec)
        assert bloch_vector(bloch_state(*vec)) == pytest.approx(tuple(vec), abs=1e-12)


def test_heralded_state_stokes_sign_convention():
    # V-heavy heralded state carries s1 = -eta1
    for eta in (0.3, 0.7, 1.0):
        assert bloch_vector(heralded_idler_state(eta))[0] == pytest.approx(-eta, abs=1e-14)
    assert np.allclose(heralded_idler_state(1.0).matrix, V.matrix, atol=1e-14)
    with pytest.raises(ValueError, match="outside"):
        heralded_idler_state(1.5)


def test_degree_of_polarization_examples():
    assert degree_of_polarization(dm(np.eye(2) / 2)) == 0.0
    assert degree_of_polarization(bloch_state(0.6, 0.8, 0.0)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_degree_of_polarization_equals_trigger_efficiency(eta):
    assert degree_of_polarization(heralded_idler_state(eta)) == pytest.approx(eta, abs=1e-14)


def _random_densities(rng):
    """Mixed, pure, near-pure and fully mixed states, none built from a Bloch vector."""
    yield dm(np.eye(2) / 2)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        yield dm(m / m.trace().real)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        pure = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        yield dm(pure)
        yield dm((1.0 - 1e-9) * pure + 1e-9 * np.eye(2) / 2)


def test_degree_of_polarization_matches_eigenvalue_spread():
    # oracle: the eigenvalues of a unit-trace 2x2 density are (1 +- P)/2
    for rho in _random_densities(np.random.default_rng(41)):
        lam = np.linalg.eigvalsh(rho.matrix)
        assert degree_of_polarization(rho) == pytest.approx(lam[-1] - lam[0], abs=1e-12)
        # bloch_vector inverts the test helper on the same state
        assert np.allclose(bloch_state(*bloch_vector(rho)).matrix, rho.matrix, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_of_state_rotated_by_a_tiny_angle():
    # an off-diagonal far below the float range of its square still reads as pure
    rho = apply_channel(PolarizationDensity(np.diag([1.0, 0.0])), rotator(1e-160))
    assert rho.matrix[0, 1] != 0.0
    assert bloch_vector(rho)[0] == 1.0
    assert degree_of_polarization(rho) == 1.0
    assert von_neumann_entropy(rho) == 0.0


def test_entropy_endpoints_exact():
    assert von_neumann_entropy(heralded_idler_state(1.0)) == 0.0
    assert von_neumann_entropy(heralded_idler_state(0.0)) == 1.0


def test_entropy_half_efficiency():
    # eigenvalues 0.75/0.25 through the direct formula
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    value = von_neumann_entropy(heralded_idler_state(0.5))
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.8113, abs=1e-4)


def test_entropy_strictly_decreasing_in_efficiency():
    grid = np.linspace(0.0, 1.0, 101)
    values = [von_neumann_entropy(heralded_idler_state(e)) for e in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_entropy_matches_eigensolver_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        vec = rng.normal(size=3)
        vec *= rng.uniform(0, 0.99) / np.linalg.norm(vec)
        rho = bloch_state(*vec)
        lam = np.linalg.eigvalsh(rho.matrix)
        expected = float(-(lam * np.log2(lam)).sum())
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# projector


def test_projector_validation_and_orthogonal():
    with pytest.raises(ValueError, match="transmittance"):
        Projector(0.0, transmittance=1.2)
    p = Projector(30.0, 0.9)
    assert p.orthogonal() == Projector(120.0, 0.9)
    k = linear_ket(30.0)
    assert np.allclose(p.matrix(), np.outer(k, k.conj()), atol=1e-15)
