"""State-to-state transport along unitary paths.

Implements minimal geodesics with length certificates, the spectrum
perturbation certificate, projection-commuting transport, matrix-unit
commutant transport, excision, and simultaneous multi-state transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import BlockAlgebra, MatrixUnits
from .errors import (CertificateError, DimensionError, DisjointnessError, HypothesisError,
                     ParameterError)
from .gram import (AlignmentResult, VectorFamily, _turn, align_unitary, alignment_bound,
                   alignment_gate)
from .linalg import _check_tolerance, check_state, check_unitary, dagger, inner, op_norm
from .path import PathSegment, UnitaryPath, concat_paths, merge_orthogonal_paths

# Below this distance from colinear, ``projection_transport`` turns a
# component by a phase alone (``_geodesic``).
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
    The segment holds h as w = (-theta, theta), exactly, and v = Q E, where
    E holds the eigenvectors of R for -theta and theta: with alpha = Im a
    and c = s + |alpha|, they are (-i b, c) and (c, -i b) when alpha >= 0,
    (c, i b) and (i b, c) when alpha < 0, each over hypot(c, b).  This
    holds for every b > 0, however small: rest / b is a unit vector
    orthogonal to xi to rounding, so u(1) xi = eta to rounding.  Only at
    b = 0 exactly, where rest / b is undefined and eta is a phase multiple
    of xi, the path is the scalar rotation w = (arg a,), v = xi.
    """
    xi = check_state(xi)
    eta = check_state(eta, dim=xi.size)
    return _geodesic(xi, eta, 0.0)


def _geodesic(xi: np.ndarray, eta: np.ndarray, cut: float) -> UnitaryPath:
    """``geodesic_pair`` of validated states, with the scalar rotation for
    every b <= ``cut`` rather than for b = 0 alone."""
    dim = xi.size
    a = inner(eta, xi)
    # Project off xi as <., xi> xi / ||xi||^2, exact for an xi normalised
    # only to rounding: eta = xi then leaves rest = 0 and b = 0 exactly.
    # Orthogonalise twice: when eta is nearly colinear with xi, rest is
    # small and one pass leaves a relative overlap with xi of order eps / b.
    mass = inner(xi, xi).real
    rest = eta - (a / mass) * xi
    rest = rest - (inner(rest, xi) / mass) * xi
    b = float(np.linalg.norm(rest))
    if b <= cut:
        w, v = np.array([np.angle(a)]), xi[:, None]
    else:
        s = float(np.hypot(a.imag, b))
        theta = geodesic_angle(xi, eta)
        c = s + abs(a.imag)
        if a.imag >= 0:
            e = np.array([[-1j * b, c], [c, -1j * b]])
        else:
            e = np.array([[c, 1j * b], [1j * b, c]])
        w = np.array([-theta, theta])
        v = np.column_stack([xi, rest / b]) @ (e / np.hypot(c, b))
    return UnitaryPath([PathSegment(0.0, 1.0, w, v, np.eye(dim, dtype=complex))])


def geodesic_lower_bound(path: UnitaryPath, xi: np.ndarray, eta: np.ndarray,
                         samples: int | None = None, tol: float = 1e-8) -> float:
    """Certified lower bound on the length of any path with these endpoints.

    Returns the least spectral angle phi of u(1) with
    cos phi <= Re<xi, eta> + r + 1e-13, r = ||u(1) xi - eta||: one exists,
    since Re<u(1) xi, xi> is a mean of the spectrum's real parts and lies
    within r of Re<xi, eta>.  By Bhatia-Davis the spectra of two unitaries
    are within their operator-norm distance in the optimal matching
    distance, so along a path from 1 every eigenvalue of u(1) travels at
    least its angle, and phi <= ``path.length`` is checked.  One eigenvalue
    solve of u(1); ``samples`` is accepted for older callers and ignored.
    States of another length than the path's raise ``DimensionError``.
    """
    xi = check_state(xi, dim=path.dim)
    eta = check_state(eta, dim=path.dim)
    u1 = path.end()
    residual = float(np.linalg.norm(u1 @ xi - eta))
    if residual > tol:
        raise HypothesisError("path endpoint does not transport xi to eta",
                              measured_gap=residual)
    theta = geodesic_angle(xi, eta)
    angles = np.abs(np.angle(np.linalg.eigvals(u1)))
    candidates = angles[np.cos(angles) <= np.cos(theta) + residual + 1e-13]
    if candidates.size == 0:  # numerical safety; the mean-value bound forbids this
        candidates = np.array([theta])
    phi = float(np.min(candidates))
    if phi > path.length + 1e-6:
        raise CertificateError(
            f"lower bound {phi:.6f} exceeds certified length {path.length:.6f}"
        )
    return phi


# The last pair ``spectrum_match`` validated: each input's shape, dtype and
# bytes, both spectra and ||u - v||.
_spectrum_pair: tuple | None = None


def spectrum_match(u: np.ndarray, v: np.ndarray, lam: complex) -> complex:
    """Eigenvalue of v nearest to lam in Spec(u); satisfies
    |lam - mu| <= ||u - v||.  Unitaries of different sizes raise
    ``DimensionError``.

    The spectra and ||u - v|| are solved once per pair: a call with the
    same u and v as the last validated call, equal in shape, dtype and
    every byte, reads them again, so a loop over Spec(u) takes two
    eigenvalue solves, and a u or v edited in place is solved anew.  The
    membership of lam and the perturbation certificate are checked on
    every call."""
    global _spectrum_pair
    key = tuple((a.shape, a.dtype.str, a.tobytes()) for a in map(np.asarray, (u, v)))
    pair = _spectrum_pair
    if pair is None or pair[0] != key:
        u = check_unitary(u)
        v = check_unitary(v)
        if u.shape != v.shape:
            raise DimensionError(f"unitaries of shapes {u.shape} and {v.shape}")
        pair = _spectrum_pair = (key, np.linalg.eigvals(u), np.linalg.eigvals(v),
                                 op_norm(u - v))
    _, spec_u, spec_v, distance = pair
    if np.min(np.abs(spec_u - lam)) > 1e-8:
        raise HypothesisError(
            "lambda is not in the spectrum of u",
            measured_gap=float(np.min(np.abs(spec_u - lam))),
        )
    mu = complex(spec_v[np.argmin(np.abs(spec_v - lam))])
    gap = abs(lam - mu)
    if gap > distance + 1e-8:
        raise CertificateError("spectrum perturbation bound violated")
    return mu


def projection_transport(e: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> UnitaryPath:
    """Path commuting with the projection e, moving xi to a phase multiple of
    eta, of length at most pi/2.

    Requires equal e-masses <e xi, xi> = <e eta, eta>.  The phase is the
    angular bisector of the two component overlaps, which puts both
    component rotations at angle <= pi/2.  States of another length than
    e's raise ``DimensionError``.

    Each component turns along its geodesic, which must stay in the
    component's range.  A pair within b < ``COLINEAR_TOL`` of colinear
    turns by a phase alone: its rest direction (eta - a xi) / b carries
    rounding of relative size 2^-52 / b off that range, which the rank-2
    segment would turn by the whole angle arg a, so a colinear pair, such
    as the components of a rank-one e, would leave it.
    """
    xi = check_state(xi, dim=len(e))
    eta = check_state(eta, dim=len(e))
    if op_norm(e @ e - e) > 1e-10 or op_norm(e - dagger(e)) > 1e-10:
        raise ParameterError("e is not a projection within tolerance")
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
        paths.append(_geodesic(src / ns, mu * dst / np.linalg.norm(dst), COLINEAR_TOL))
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
    """A transport path together with its measured certificates:
    ``measured_gap`` is the Gram gap of the alignment that admitted it."""

    path: UnitaryPath
    terminal_error: float
    bound: float
    delta: float = 0.0
    measured_gap: float = 0.0
    extras: dict = field(default_factory=dict)


def commutant_transport(mu: MatrixUnits, xi: np.ndarray, eta: np.ndarray,
                        eps: float, exact: bool = False) -> TransportResult:
    """Path in the commutant of the matrix units moving xi close to eta.

    The generator is the lift sum_i e_i1 h e_1i of a corner generator
    h = q diag(angles) q^* that turns the corner families of xi toward those
    of eta, held as its eigenpairs: the segment holds w = tile(angles, n)
    and v = V (1_n (x) q) (``lift_columns``), so it has norm <= pi and
    commutes with every e_ij exactly.  The corner rotation is chosen by the
    block's shape (n units of multiplicity r):

    - n = 1: the commutant is the whole block, and the rotation is
      ``geodesic_pair`` of the normalised corner vectors, the shortest path
      between them; a zero corner on either side gives no rotation.
    - r = 1: the commutant is the scalars, and the rotation is the one
      phase theta = arg <x, y> = arg sum_j conj(x_j) y_j, which minimises
      ||e^{i theta} x - y|| over every phase, the alignment's included.
    - otherwise ``align_unitary``, with q at most min(r, 2 n) columns.

    The admissibility threshold delta is derived from the alignment bound
    at tolerance eps / sqrt(n), and the alignment's Gram gate
    (``alignment_gate``) is the only admissibility test in every shape:
    the Gram gaps of the corner families are the e_ij statistics gaps, so
    a gap at or above delta raises ``HypothesisError`` carrying it.  With
    ``exact`` a short geodesic repair segment is appended so that
    u(1) xi = eta exactly, at the cost of a commutator contribution of the
    order of the residual.  A tolerance that is not finite and > 0 raises
    ``ParameterError``.
    """
    _check_tolerance(eps)
    xi = check_state(xi, dim=mu.ambient_dim)
    eta = check_state(eta, dim=mu.ambient_dim)
    return _commutant_transport(mu, xi, eta, eps, exact)


def _commutant_transport(mu: MatrixUnits, xi: np.ndarray, eta: np.ndarray,
                         eps: float, exact: bool) -> TransportResult:
    """``commutant_transport`` without its checks, for states and a
    tolerance the caller has already validated."""
    n, r = mu.n, mu.multiplicity
    delta = invert_alignment_bound(n, r, eps / np.sqrt(n))
    src = VectorFamily(r, mu.corner_families(xi))
    dst = VectorFamily(r, mu.corner_families(eta))
    if n == 1 or r == 1:
        align = _closed_form_alignment(src, dst, delta)
    else:
        align = align_unitary(src, dst, delta)
    path = UnitaryPath([PathSegment(0.0, 1.0, np.tile(align.angles, n),
                                    mu.lift_columns(align.vectors),
                                    np.eye(mu.ambient_dim, dtype=complex))])
    # u(1) = 1 + V (1_n (x) (c - 1)) V^* moves the corner families X of xi
    # to X c^T and fixes the complement of V V^*, so u(1) xi needs no
    # ambient matrix.
    moved = xi + mu.isometry @ align.turn(src.vectors).reshape(-1)
    terminal = float(np.linalg.norm(moved - eta))
    repair_length = 0.0
    if exact and terminal > 1e-13:
        repair = _geodesic(moved / np.linalg.norm(moved), eta, 0.0)
        repair_length = repair.length
        path = concat_paths(path, repair)
        terminal = float(np.linalg.norm(path.apply(path.t_end, xi) - eta))
    return TransportResult(
        path=path,
        terminal_error=terminal,
        bound=eps,
        delta=delta,
        measured_gap=align.gap,
        extras={
            "corner_rank": r,
            "alignment_residual": align.max_residual,
            "alignment_full_rank": align.full_rank,
            "repair_length": repair_length,
        },
    )


def _closed_form_alignment(src: VectorFamily, dst: VectorFamily,
                           delta: float) -> AlignmentResult:
    """The corner rotation of ``commutant_transport`` for a family of one
    vector (n = 1) or families in C^1 (r = 1), behind the alignment's gate.

    For r = 1 it is the phase theta = arg sum_j conj(x_j) y_j on C^1.  For
    n = 1 it is the geodesic from x / ||x|| to y / ||y||, which maps the one
    vector onto y's direction exactly as the alignment does, along the
    shortest path; with x or y zero it is the identity, whose residual, the
    other corner's norm, is sqrt(gap) < sqrt(delta)."""
    gap = alignment_gate(src, dst, delta)
    n, r = src.size, src.dim
    x, y = src.vectors, dst.vectors
    if r == 1:
        angles, vectors = np.array([np.angle(np.vdot(x, y))]), np.ones((1, 1), dtype=complex)
    elif x.any() and y.any():
        seg = _geodesic(_direction(x[0]), _direction(y[0]), 0.0).segments[0]
        angles, vectors = seg.w, seg.v
    else:
        angles, vectors = np.zeros(0), np.zeros((r, 0), dtype=complex)
    return AlignmentResult(angles=angles, vectors=vectors,
                           residuals=np.linalg.norm(x + _turn(x, angles, vectors) - y, axis=1),
                           bound=alignment_bound(n, r, delta), full_rank=r >= n, gap=gap)


def _direction(x: np.ndarray) -> np.ndarray:
    """x / ||x|| for a nonzero x, scaled by its largest entry first so that
    no square underflows."""
    x = x / np.max(np.abs(x))
    return x / np.linalg.norm(x)


def excise(xi: np.ndarray, alg: BlockAlgebra) -> np.ndarray:
    """Positive norm-one element e of the block algebra with e xi = xi.

    Per block, e restricts to the support projection of the state's block
    density; in a full matrix block containing xi this is the rank-one
    projection onto xi and the excision error vanishes.  A state of another
    length than the algebra's raises ``DimensionError``.
    """
    xi = check_state(xi, dim=alg.ambient_dim)
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
                    family: list[np.ndarray], eps: float) -> MultiTransportResult:
    """One path transporting each pair inside its own block simultaneously.

    Each pair must be supported in a distinct block; the path is the
    block-diagonal merge of per-block commutant transports with exact
    terminal repair, so u(1) xi_i = eta_i for every i.
    """
    used: set[int] = set()
    per_block = []
    block_paths = []
    for xi, eta in pairs:
        xi = check_state(xi, dim=alg.ambient_dim)
        eta = check_state(eta, dim=alg.ambient_dim)
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
        raise ParameterError("no pairs given")
    path = merge_orthogonal_paths(block_paths)
    u1 = path.end()
    terminal_errors = [
        float(np.linalg.norm(u1 @ xi - eta)) for xi, eta in
        [(check_state(x), check_state(y)) for x, y in pairs]
    ]
    return MultiTransportResult(
        path=path,
        terminal_errors=terminal_errors,
        commutator_sup=path.commutator_bound(family),
        per_block=per_block,
    )


def _supporting_block(alg: BlockAlgebra, vec: np.ndarray,
                      tol: float = 1e-8) -> int | None:
    for idx, blk in enumerate(alg.blocks):
        p = blk.block_identity()
        if np.linalg.norm(p @ vec - vec) <= tol:
            return idx
    return None
