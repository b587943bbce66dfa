"""State-to-state transport along unitary paths.

Implements minimal geodesics with length certificates, the spectrum
perturbation certificate, projection-commuting transport, matrix-unit
commutant transport, excision, and simultaneous multi-state transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BlockAlgebra, MatrixUnits
from .errors import CertificateError, DisjointnessError, HypothesisError
from .gram import VectorFamily, align_unitary, alignment_bound
from .linalg import (
    _unitary_eig,
    check_state,
    check_unitary,
    dagger,
    inner,
    op_norm,
    project_unitary_angles,
)
from .path import PathSegment, UnitaryPath, concat_paths, merge_orthogonal_paths

COLINEAR_TOL = 1e-9


def geodesic_angle(xi: np.ndarray, eta: np.ndarray) -> float:
    """The angle arccos Re<xi, eta> between two unit vectors, evaluated as
    atan2(||eta - Re<eta, xi> xi||, Re<eta, xi>), which stays accurate near
    0 and pi, where arccos of the cosine loses about 1e-8."""
    c = inner(eta, xi).real
    return float(np.arctan2(np.linalg.norm(eta - c * xi), c))


def geodesic_pair(xi: np.ndarray, eta: np.ndarray) -> UnitaryPath:
    """Minimal geodesic path with u(0) = 1, u(1) xi = eta, length
    arccos Re<xi, eta>.

    Write eta = a xi + b w with a = <eta, xi>, b >= 0 and w a unit vector
    orthogonal to xi, and let Q = [xi, w].  With s = ||eta - Re(a) xi|| =
    hypot(Im a, b) and theta = atan2(s, Re a), the path is the single
    segment u(t) = exp(i t h), h = Q R Q^*, where

        R = (theta / s) [[Im a, i b], [-i b, -Im a]].

    R is traceless Hermitian with R^2 = theta^2, so exp(i R) =
    cos(theta) + i sin(theta) R / theta = [[a, -b], [b, conj(a)]], whose
    first column is (a, b): hence u(1) xi = eta exactly up to rounding,
    ||h|| = theta is the length, and h vanishes on span{xi, eta}^perp.
    When eta is a phase multiple of xi (b below ``COLINEAR_TOL``) the path
    is the scalar rotation h = arg(a) xi xi^*.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    dim = xi.size
    a = inner(eta, xi)
    rest = eta - a * xi
    # Orthogonalise twice: when eta is nearly colinear with xi, rest is
    # small and one pass leaves a relative overlap with xi of order eps / b.
    rest = rest - inner(rest, xi) * xi
    b = float(np.linalg.norm(rest))
    if b < COLINEAR_TOL:
        h = float(np.angle(a)) * np.outer(xi, xi.conj())
    else:
        s = float(np.hypot(a.imag, b))
        theta = geodesic_angle(xi, eta)
        r = (theta / s) * np.array([[a.imag, 1j * b], [-1j * b, -a.imag]])
        q = np.column_stack([xi, rest / b])
        h = q @ r @ dagger(q)
    return UnitaryPath([PathSegment(0.0, 1.0, h, np.eye(dim, dtype=complex))])


def geodesic_lower_bound(path: UnitaryPath, xi: np.ndarray, eta: np.ndarray,
                         samples: int = 64, tol: float = 1e-8) -> float:
    """Certified lower bound on the length of any path with these endpoints.

    Returns the spectral angle phi of u(1) with cos phi <= Re<xi, eta>,
    verified against the path length through a spectrum-tracking chain
    (consecutive eigenvalue moves are bounded by consecutive chords).
    """
    xi = check_state(xi)
    eta = check_state(eta)
    u1 = path.end()
    if np.linalg.norm(u1 @ xi - eta) > tol:
        raise HypothesisError(
            "path endpoint does not transport xi to eta",
            measured_gap=float(np.linalg.norm(u1 @ xi - eta)),
        )
    theta = geodesic_angle(xi, eta)
    lam, _ = _unitary_eig(u1)
    angles = np.abs(np.angle(lam))
    candidates = angles[np.cos(angles) <= np.cos(theta) + 1e-9]
    if candidates.size == 0:  # numerical safety; the mean-value bound forbids this
        candidates = np.array([theta])
    phi = float(np.min(candidates))

    # Spectrum-tracked chain certificate: walk the eigenvalue e^{i phi}
    # backwards to t=0 by nearest-eigenvalue matching.
    ts = path.sample_times(samples + 1)
    tracked = np.exp(1j * phi)
    prev_u = u1
    for t in ts[::-1][1:]:
        u = path.at(t)
        spec, _ = _unitary_eig(u)
        mu = spec[np.argmin(np.abs(spec - tracked))]
        step = abs(mu - tracked)
        if step > op_norm(prev_u - u) + 1e-8:
            raise CertificateError("spectrum chain step exceeded the chord bound")
        tracked = mu
        prev_u = u
    if phi > path.length + 1e-6:
        raise CertificateError(
            f"lower bound {phi:.6f} exceeds certified length {path.length:.6f}"
        )
    return phi


def spectrum_match(u: np.ndarray, v: np.ndarray, lam: complex) -> complex:
    """Eigenvalue of v nearest to lam in Spec(u); satisfies
    |lam - mu| <= ||u - v||."""
    u = check_unitary(u)
    v = check_unitary(v)
    spec_u, _ = _unitary_eig(u)
    if np.min(np.abs(spec_u - lam)) > 1e-8:
        raise HypothesisError(
            "lambda is not in the spectrum of u",
            measured_gap=float(np.min(np.abs(spec_u - lam))),
        )
    spec_v, _ = _unitary_eig(v)
    mu = complex(spec_v[np.argmin(np.abs(spec_v - lam))])
    gap = abs(lam - mu)
    if gap > op_norm(u - v) + 1e-8:
        raise CertificateError("spectrum perturbation bound violated")
    return mu


def projection_transport(e: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> UnitaryPath:
    """Path commuting with the projection e, moving xi to a phase multiple of
    eta, of length at most pi/2.

    Requires equal e-masses <e xi, xi> = <e eta, eta>.  The phase is the
    angular bisector of the two component overlaps, which puts both
    component rotations at angle <= pi/2.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    if op_norm(e @ e - e) > 1e-10 or op_norm(e - dagger(e)) > 1e-10:
        raise ValueError("e is not a projection within tolerance")
    mass_xi = inner(e @ xi, xi).real
    mass_eta = inner(e @ eta, eta).real
    if abs(mass_xi - mass_eta) > 1e-10:
        raise HypothesisError(
            "e-masses differ", measured_gap=abs(mass_xi - mass_eta)
        )
    dim = xi.size
    exi = e @ xi
    oxi = xi - exi
    eeta = e @ eta
    oeta = eta - eeta
    a = np.vdot(eeta, exi)  # <e xi, e eta>
    b = np.vdot(oeta, oxi)
    mu = _bisector_phase(a, b)

    paths = []
    for src, dst in ((exi, eeta), (oxi, oeta)):
        ns = np.linalg.norm(src)
        if ns < 1e-9:
            continue
        paths.append(geodesic_pair(src / ns, mu * dst / np.linalg.norm(dst)))
    if not paths:
        return UnitaryPath.constant(dim)
    return merge_orthogonal_paths(paths)


def _bisector_phase(a: complex, b: complex, tol: float = 1e-12) -> complex:
    """Phase mu with Re(conj(mu) a) >= 0 and Re(conj(mu) b) >= 0."""
    if abs(a) < tol and abs(b) < tol:
        return 1.0 + 0.0j
    if abs(a) < tol:
        return b / abs(b)
    if abs(b) < tol:
        return a / abs(a)
    half = 0.5 * np.angle(b * np.conj(a))
    return (a / abs(a)) * np.exp(1j * half)


def invert_alignment_bound(n: int, dim: int, target: float) -> float:
    """Largest delta <= 1 whose certified alignment bound stays below target.

    Full rank (dim >= n) the bound is sqrt(n delta), so delta = T^2 / n.
    Rank deficient (m = dim < n) it is m^{3/2} x + (m+1)^2 x^2 in
    x = sqrt(delta), whose positive root is taken in the cancellation-free
    form 2T / (m^{3/2} + sqrt(m^3 + 4 (m+1)^2 T)).  The closed form is then
    stepped down ulp by ulp until the bound holds at it.
    """
    if target <= 0.0:
        return 0.0
    if dim >= n:
        delta = target * target / n
    else:
        m = float(dim)
        x = 2.0 * target / (m**1.5 + np.sqrt(m**3 + 4.0 * (m + 1.0) ** 2 * target))
        delta = x * x
    delta = min(float(delta), 1.0)
    while delta > 0.0 and alignment_bound(n, dim, delta) > target:
        delta = float(np.nextafter(delta, 0.0))
    return delta


@dataclass
class TransportResult:
    """A transport path together with its measured certificates."""

    path: UnitaryPath
    terminal_error: float
    bound: float
    delta: float = 0.0
    measured_gap: float = 0.0
    extras: dict = field(default_factory=dict)


def commutant_transport(mu: MatrixUnits, xi: np.ndarray, eta: np.ndarray,
                        eps: float, exact: bool = False) -> TransportResult:
    """Path in the commutant of the matrix units moving xi close to eta.

    The generator is the lift sum_i e_i1 h e_1i of a corner generator h
    (``lift_corner``), has norm <= pi, and commutes with every e_ij
    exactly.  The admissibility threshold delta is derived from the
    alignment bound at tolerance eps / sqrt(n).  With ``exact`` a short
    geodesic repair segment is appended so that u(1) xi = eta exactly, at
    the cost of a commutator contribution of the order of the residual.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    n = mu.n
    r = mu.corner_basis().shape[1]

    delta = invert_alignment_bound(n, r, eps / np.sqrt(n))
    stats_gap = float(
        np.max(np.abs(mu.coefficients_of_state(xi) - mu.coefficients_of_state(eta)))
    )
    if stats_gap >= delta:
        raise HypothesisError(
            f"matrix-unit statistics gap {stats_gap:.3e} >= delta {delta:.3e}",
            measured_gap=stats_gap,
        )

    # Gram gaps of the corner families are exactly the e_ij statistics gaps.
    align = align_unitary(VectorFamily(r, mu.corner_families(xi)),
                          VectorFamily(r, mu.corner_families(eta)), delta)
    gen = mu.lift_corner(project_unitary_angles(align.unitary))
    path = UnitaryPath(
        [PathSegment(0.0, 1.0, gen, np.eye(mu.ambient_dim, dtype=complex))]
    )
    moved = path.end() @ xi
    terminal = float(np.linalg.norm(moved - eta))
    repair_length = 0.0
    if exact and terminal > 1e-13:
        repair = geodesic_pair(moved / np.linalg.norm(moved), eta)
        repair_length = repair.length
        path = concat_paths(path, repair)
        terminal = float(np.linalg.norm(path.end() @ xi - eta))
    return TransportResult(
        path=path,
        terminal_error=terminal,
        bound=eps,
        delta=delta,
        measured_gap=stats_gap,
        extras={
            "corner_rank": r,
            "alignment_residual": align.max_residual,
            "alignment_full_rank": align.full_rank,
            "repair_length": repair_length,
        },
    )


def excise(xi: np.ndarray, alg: BlockAlgebra) -> np.ndarray:
    """Positive norm-one element e of the block algebra with e xi = xi.

    Per block, e restricts to the support projection of the state's block
    density; in a full matrix block containing xi this is the rank-one
    projection onto xi and the excision error vanishes.
    """
    xi = check_state(xi)
    e = np.zeros((alg.ambient_dim, alg.ambient_dim), dtype=complex)
    for blk in alg.blocks:
        density = blk.coefficients_of_state(xi).conj()  # = Xi Xi^H per block
        mass = float(np.trace(density).real)
        if mass < 1e-14:
            continue
        w, v = np.linalg.eigh((density + dagger(density)) / 2)
        keep = w > 1e-12 * max(w[-1], 1e-30)
        support = (v[:, keep]) @ dagger(v[:, keep])
        e = e + blk.embed(support)
    return (e + dagger(e)) / 2


def excision_error(e: np.ndarray, xi: np.ndarray, family: list[np.ndarray]) -> float:
    """max over x of || e x e - <x xi, xi> e^2 ||."""
    worst = 0.0
    e2 = e @ e
    for x in family:
        worst = max(worst, op_norm(e @ x @ e - inner(x @ xi, xi) * e2))
    return worst


@dataclass
class MultiTransportResult:
    path: UnitaryPath
    terminal_errors: list[float]
    commutator_sup: float
    per_block: list[TransportResult]


def multi_transport(alg: BlockAlgebra, pairs: list[tuple[np.ndarray, np.ndarray]],
                    family: list[np.ndarray], eps: float,
                    t_samples: int = 16) -> MultiTransportResult:
    """One path transporting each pair inside its own block simultaneously.

    Each pair must be supported in a distinct block; the path is the
    block-diagonal merge of per-block commutant transports with exact
    terminal repair, so u(1) xi_i = eta_i for every i.
    """
    used: set[int] = set()
    per_block = []
    block_paths = []
    for xi, eta in pairs:
        xi = check_state(xi)
        eta = check_state(eta)
        b = _supporting_block(alg, xi)
        if b is None or _supporting_block(alg, eta) != b:
            raise DisjointnessError("pair is not supported in a single block")
        if b in used:
            raise DisjointnessError("two pairs share a block")
        used.add(b)
        res = commutant_transport(alg.blocks[b], xi, eta, eps, exact=True)
        per_block.append(res)
        block_paths.append(res.path.rescaled(0.0, 1.0))
    if not block_paths:
        raise ValueError("no pairs given")
    path = merge_orthogonal_paths(block_paths)
    u1 = path.end()
    terminal_errors = [
        float(np.linalg.norm(u1 @ xi - eta)) for xi, eta in
        [(check_state(x), check_state(y)) for x, y in pairs]
    ]
    sup = 0.0
    for t in path.sample_times(t_samples):
        ut = path.at(t)
        for x in family:
            sup = max(sup, op_norm(ut @ x - x @ ut))
    return MultiTransportResult(
        path=path,
        terminal_errors=terminal_errors,
        commutator_sup=sup,
        per_block=per_block,
    )


def _supporting_block(alg: BlockAlgebra, vec: np.ndarray,
                      tol: float = 1e-8) -> int | None:
    for idx, blk in enumerate(alg.blocks):
        p = blk.block_identity()
        if np.linalg.norm(p @ vec - vec) <= tol:
            return idx
    return None
