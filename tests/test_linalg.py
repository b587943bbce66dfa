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
    _expm_skew,
    _unitary_eig,
    check_hermitian,
    check_square,
    check_state,
    check_unitary,
    dagger,
    expm_skew,
    inner,
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
