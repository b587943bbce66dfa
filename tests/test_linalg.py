import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from state_transport.errors import (
    DimensionError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    StateTransportError,
)
from state_transport.linalg import (
    _TILT,
    _expm_skew,
    _matmul_vecdot,
    _unitary_eig,
    check_hermitian,
    check_isometry,
    check_square,
    check_state,
    check_unitary,
    dagger,
    expm_skew,
    inner,
    norm_at_most,
    op_norm,
    psd_sqrt,
    unitary_eig,
)
from state_transport.suites import random_unitary


def test_inner_is_linear_in_first_argument(rng, make_state):
    x = make_state(rng, 5)
    y = make_state(rng, 5)
    a = 2.0 + 1.5j
    assert inner(a * x, y) == pytest.approx(a * inner(x, y))
    assert inner(x, a * y) == pytest.approx(np.conj(a) * inner(x, y))


def test_matmul_vecdot_sums_conjugate_products(rng):
    # The stand-in for np.vecdot on NumPy 1.x, broadcasting over leading axes.
    x = rng.standard_normal((3, 1, 7)) + 1j * rng.standard_normal((3, 1, 7))
    y = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    expected = np.sum(x.conj() * y, axis=-1)
    assert _matmul_vecdot(x, y).shape == (3, 4)
    assert np.max(np.abs(_matmul_vecdot(x, y) - expected)) <= 1e-14
    assert _matmul_vecdot(x[0, 0], y[0]) == pytest.approx(np.vdot(x[0, 0], y[0]), abs=1e-14)


def test_unitary_eigs_match_each_unitary_alone(rng):
    # A stack of a generic unitary, a diagonal one, one with a double
    # eigenvalue, and one whose pair mirrored about the tilt leaves the first
    # basis coupled, so that it takes the run rotation: the stacked solver
    # against each unitary alone.
    w = random_unitary(rng, 4)
    mirrored = np.conj(_TILT) * np.exp(1j * np.array([0.7, -0.7, 2.0, 2.9]))
    us = np.array([random_unitary(rng, 4),
                   np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 4))),
                   (w * np.exp(1j * np.array([0.3, 0.3, 1.0, -2.0]))) @ dagger(w),
                   (w * mirrored) @ dagger(w)])
    lam, q = _unitary_eig(us)
    for u, lam_u, q_u in zip(us, lam, q):
        alone, _ = _unitary_eig(u)
        assert np.max(np.abs(lam_u - alone)) <= 1e-12
        assert op_norm(dagger(q_u) @ q_u - np.eye(4)) <= 1e-12
        assert op_norm((q_u * lam_u) @ dagger(q_u) - u) <= 1e-12
    assert np.array_equal(q[1], np.eye(4)) and np.array_equal(lam[1], np.diag(us[1]))



@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.3, 2.8), seed=st.integers(0, 2**32 - 1))
def test_unitary_eig_reconstructs_a_pair_nearly_mirrored_about_the_tilt(a, seed):
    # rho lambda_1 and rho lambda_2 nearly mirrored about the real axis: the
    # Hermitian part of the tilted u tells them apart by a gap of about
    # 3e-4, so the first basis mixes them by about eps / 3e-4, below any
    # tolerance but rounding.  The run rotation still separates them, and
    # Q diag(lambda) Q^* is u to rounding.
    rng = np.random.default_rng(seed)
    p = 4
    w = random_unitary(rng, p)
    angles = np.array([a, -a - 3e-4, *rng.uniform(-np.pi, np.pi, p - 2)])
    u = (w * (np.conj(_TILT) * np.exp(1j * angles))) @ dagger(w)
    lam, q = _unitary_eig(u)
    assert np.linalg.norm((q * lam) @ dagger(q) - u) <= 8 * p * p * np.finfo(float).eps

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


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 12), log_tol=st.floats(-12.0, -4.0),
       log_size=st.floats(-2.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_check_unitary_matches_two_product_oracle(dim, log_tol, log_size, seed):
    # q (1 + e) with ||e|| = 10^log_size * tol puts the defect on both sides
    # of the tolerance; defects within 1% of it are left out
    rng = np.random.default_rng(seed)
    tol = 10.0**log_tol
    e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = random_unitary(rng, dim) @ (np.eye(dim) + 10.0**log_size * tol * e / op_norm(e))
    eye = np.eye(dim)
    defect = max(op_norm(dagger(u) @ u - eye), op_norm(u @ dagger(u) - eye))
    assume(abs(defect - tol) >= 0.01 * tol)
    if defect > tol:
        with pytest.raises(NotUnitaryError):
            check_unitary(u, tol)
    else:
        assert np.array_equal(check_unitary(u, tol), u)


def _with_singular_values(rng, rows, s):
    """A rows x len(s) matrix with singular values s, off the natural axes."""
    a = random_unitary(rng, rows)[:, :len(s)]
    return (a * s) @ dagger(random_unitary(rng, len(s)))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 12), data=st.data(), log_tol=st.floats(-10.0, -2.0),
       side=st.sampled_from([-1.0, 1.0]), skew=st.sampled_from([-1e-3, 1e-3]),
       spread=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_check_isometry_decides_as_the_svd_near_the_boundary(rows, data, log_tol, side,
                                                             skew, spread, seed):
    # One singular value with s^2 = 1 + side tol (1 + skew), the others with
    # |s^2 - 1| at most spread tol: ||v^* v - 1|| = max |s^2 - 1| sits within
    # 1e-3 of tol, and with spread 0 the Frobenius norm of v^* v - 1 does too.
    rng = np.random.default_rng(seed)
    cols = data.draw(st.integers(1, rows))
    tol = 10.0**log_tol
    offsets = spread * tol * rng.uniform(-1.0, 1.0, cols)
    offsets[0] = side * tol * (1.0 + skew)
    v = _with_singular_values(rng, rows, np.sqrt(1.0 + offsets))
    defect = float(np.max(np.abs(np.linalg.svd(v, compute_uv=False) ** 2 - 1.0)))
    cheap = np.linalg.norm(dagger(v) @ v - np.eye(cols)) <= tol
    try:
        check_isometry(v, tol)
        accepted = True
    except NotUnitaryError:
        accepted = False
    if cheap:
        assert accepted and defect <= tol
    if abs(defect - tol) > 1e-12 * tol:
        assert accepted == (defect <= tol)


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 12), diagonal=st.booleans(), log_tol=st.floats(-6.0, 3.0),
       side=st.sampled_from([-1e-10, 1e-10]), spread=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_norm_at_most_decides_as_the_svd_near_the_boundary(dim, diagonal, log_tol, side,
                                                           spread, seed):
    # ||x|| = tol (1 + side), a diagonal or a dense x; the other singular
    # values, or moduli, are at most spread times the largest, so the
    # Frobenius norm or the Schur test can accept, or neither can.
    rng = np.random.default_rng(seed)
    tol = 10.0**log_tol
    s = tol * (1.0 + side) * np.append(1.0, spread * rng.uniform(0.0, 1.0, dim - 1))
    if diagonal:
        x = np.diag(s * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, dim)))
    else:
        x = _with_singular_values(rng, dim, s)
    norm = op_norm(x)
    a = np.abs(x)
    cheap = (np.linalg.norm(x) <= tol
             or np.sqrt(np.max(a.sum(axis=0)) * np.max(a.sum(axis=1))) <= tol)
    accepted = norm_at_most(x, tol)
    if cheap:
        assert accepted and norm <= tol
    if abs(norm - tol) > 1e-12 * tol:
        assert accepted == (norm <= tol)
