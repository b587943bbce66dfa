import numpy as np
import pytest

from state_transport.errors import (
    BranchCutError,
    DimensionError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    StateTransportError,
)
from state_transport.linalg import (
    _expm_skew,
    _unitary_eig,
    check_hermitian,
    check_square,
    check_state,
    check_unitary,
    dagger,
    expm_skew,
    inner,
    logm_unitary,
    map_families_unitary,
    op_norm,
    orthonormal_extension,
    polar_unitary,
    psd_sqrt,
    unitary_eig,
)


def test_inner_is_linear_in_first_argument(rng, make_state):
    x = make_state(rng, 5)
    y = make_state(rng, 5)
    a = 2.0 + 1.5j
    assert inner(a * x, y) == pytest.approx(a * inner(x, y))
    assert inner(x, a * y) == pytest.approx(np.conj(a) * inner(x, y))


def test_check_hermitian_rejects_skew(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotHermitianError):
        check_hermitian(h - dagger(h))


def test_check_state_normalizes_shape(rng, make_state):
    xi = check_state(make_state(rng, 6).reshape(2, 3))
    assert xi.shape == (6,)


def test_psd_sqrt_squares_back(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    x = a @ dagger(a)
    r = psd_sqrt(x)
    assert op_norm(r @ r - x) < 1e-10


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_polar_unitary_of_unitary_is_itself(rng, make_unitary):
    u = make_unitary(rng, 4)
    assert op_norm(polar_unitary(u) - u) < 1e-12


def test_polar_unitary_rejects_empty():
    with pytest.raises(DimensionError):
        polar_unitary(np.zeros((0, 0), dtype=complex))


def test_expm_skew_matches_series(rng):
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = (h + dagger(h)) / 2
    u = expm_skew(h, 0.7)
    import scipy.linalg

    assert op_norm(u - scipy.linalg.expm(0.7j * h)) < 1e-12


def test_unitary_eig_reconstructs(rng, make_unitary):
    u = make_unitary(rng, 6)
    lam, q = unitary_eig(u)
    assert np.allclose(np.abs(lam), 1.0)
    assert op_norm((q * lam) @ dagger(q) - u) < 1e-10


def test_logm_unitary_roundtrip(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + dagger(h)) / 2
    h = h / op_norm(h) * 2.0  # spectrum well inside (-pi, pi)
    u = expm_skew(h)
    assert op_norm(logm_unitary(u) - h) < 1e-10


def test_logm_unitary_branch_cut():
    with pytest.raises(BranchCutError):
        logm_unitary(np.diag([-1.0 + 0j, 1.0]))


def test_orthonormal_extension_contains_columns(rng):
    cols = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q = orthonormal_extension(cols, 4)
    assert q.shape == (6, 4)
    assert op_norm(dagger(q) @ q - np.eye(4)) < 1e-12
    # columns lie in the span of q
    proj = q @ dagger(q)
    assert op_norm(proj @ cols - cols) < 1e-10


def test_map_families_unitary_exact(rng, make_unitary):
    dim, n = 6, 3
    src = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    u = make_unitary(rng, dim)
    dst = src @ u.T
    m = map_families_unitary(src, dst)
    assert op_norm(dagger(m) @ m - np.eye(dim)) < 1e-10
    assert np.max(np.linalg.norm(src @ m.T - dst, axis=1)) < 1e-9


def test_map_families_unitary_near_identity_for_equal_families(rng):
    # the kernel completion must not introduce spurious rotation
    src = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    m = map_families_unitary(src, src.copy())
    assert op_norm(m - np.eye(8)) < 1e-8


def test_public_primitives_reject_invalid_input_with_typed_errors(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(NotHermitianError):
        expm_skew(h - dagger(h) + np.eye(4), 0.5)
    with pytest.raises(NotUnitaryError):
        unitary_eig(h)
    with pytest.raises(NotUnitaryError):
        check_unitary(2.0 * np.eye(3))
    with pytest.raises(DimensionError):
        check_square(np.zeros((2, 3)))
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.nan
    with pytest.raises(NotFiniteError):
        check_square(bad)
    with pytest.raises(NotNormalizedError):
        check_state(np.array([1.0, 1.0]))
    # The typed errors stay ValueErrors for callers that catch those.
    assert issubclass(NotUnitaryError, StateTransportError)
    assert issubclass(NotNormalizedError, ValueError)


def test_private_primitives_match_public(rng, make_unitary):
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + dagger(h)) / 2
    assert np.array_equal(_expm_skew(h, 0.3), expm_skew(h, 0.3))
    u = make_unitary(rng, 5)
    for a, b in zip(_unitary_eig(u), unitary_eig(u)):
        assert np.array_equal(a, b)
