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
from .gram import _alignment_rotation, _check_gate, _gate_measures, _turn, alignment_bound
from .linalg import (_check_tolerance, _vecdot, check_state, check_unitary, dagger, inner,
                     norm_at_most, op_norm)
from .path import PathSegment, UnitaryPath, concat_paths, summed_path

_TINY = np.finfo(float).smallest_subnormal


def geodesic_angle(xi: np.ndarray, eta: np.ndarray) -> float:
    """The angle arccos Re<xi, eta> between two unit vectors, evaluated as
    atan2(s, Re a) with a = <eta, xi> and s = hypot(Im a, b) =
    ||eta - Re(a) xi||, b the norm of the rest of eta off xi
    (``_split``), which stays accurate near 0 and pi, where arccos of the
    cosine loses about 1e-8."""
    a, _, b = _split(xi, eta)
    return float(np.arctan2(np.hypot(a.imag, b), a.real))


def _split(xi: np.ndarray, eta: np.ndarray, project=None):
    """a = <eta, xi>, the rest of eta off xi and its norm b, over the last
    axis; ``project``, when given, maps the rest into the subspace a path
    must stay in before b is taken."""
    a = _vecdot(xi, eta)
    # Project off xi as <., xi> xi / ||xi||^2, exact for an xi normalised
    # only to rounding: eta = xi then leaves rest = 0 and b = 0 exactly.
    # Orthogonalise twice: when eta is nearly colinear with xi, rest is
    # small and one pass leaves a relative overlap with xi of order eps / b.
    mass = _vecdot(xi, xi).real
    rest = eta - (a / mass)[..., None] * xi
    rest = rest - (_vecdot(xi, rest) / mass)[..., None] * xi
    # A rest that still overlaps xi by more than 1e-12 of its norm is
    # rounding along xi itself, as for a phase multiple on one coordinate,
    # which no pass removes: eta is a phase multiple of xi, and b = 0.
    b = np.sqrt(_vecdot(rest, rest).real)
    keep = np.abs(_vecdot(xi, rest)) <= 1e-12 * b
    rest, b = rest * keep[..., None], b * keep
    if project is not None:
        rest = project(rest)
        b = np.sqrt(_vecdot(rest, rest).real)
    return a, rest, b


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
    The segment holds h as its eigenpairs (``_geodesic``), w = +-(-theta,
    theta) exactly, so the length is ``geodesic_angle`` bit for bit.  This
    holds for every b > 0, however small: rest / b is a unit vector
    orthogonal to xi to rounding, so u(1) xi = eta to rounding.  Only at b = 0 exactly, where rest / b is undefined and eta
    is a phase multiple of xi, the path is the scalar rotation
    w = (arg a,), v a phase multiple of xi.
    """
    xi = check_state(xi)
    eta = check_state(eta, dim=xi.size)
    return _geodesic_path(xi, eta)


def _geodesic_path(xi: np.ndarray, eta: np.ndarray, project=None) -> UnitaryPath:
    """``geodesic_pair`` of two validated states as a one-segment path: the
    eigenpairs of ``_geodesic``, the phase turn alone at b = 0."""
    w, v = _geodesic(xi, eta, project)
    if w[0] == 0.0:
        w, v = w[1:], v[:, 1:]
    return UnitaryPath([PathSegment(0.0, 1.0, w, v, np.eye(xi.size, dtype=complex))])


def _geodesic(xi: np.ndarray, eta: np.ndarray, project=None) -> tuple[np.ndarray, np.ndarray]:
    """The generator of ``geodesic_pair`` as eigenpairs, w of shape (..., 2)
    and v of shape (..., dim, 2), for stacks of validated states in the
    last axis, broadcasting over the leading axes.

    v = [xi, rest / b] E with E = [[p, q], [q, p]] / hypot(c, b) and
    c = s + |Im a|, the eigenvectors of R free of cancellation, and
    w = sigma (-theta, theta) for sigma the sign of Im a: sigma = 1 takes
    (p, q) = (-i b, c), and sigma = -1 takes (p, q) = (b, -i c), the same
    eigenvectors times -i.  At b = 0 exactly E swaps or turns the columns,
    so the second is xi up to a phase, with the angle
    sigma atan2(|Im a|, Re a) = arg a, and the first is 0, with the angle
    0, and adds nothing; a real a has c = 0 there and takes the least
    positive c instead.  ``project`` is ``_split``'s."""
    a, rest, b = _split(xi, eta, project)
    s = np.hypot(a.imag, b)
    sigma = np.copysign(1.0, a.imag)
    theta = sigma * np.arctan2(s, a.real)
    c = np.maximum(s + np.abs(a.imag), _TINY)
    h = np.hypot(c, b)
    p = ((0.5 - 0.5j) - sigma * (0.5 + 0.5j)) * (b / h)
    q = ((0.5 - 0.5j) + sigma * (0.5 + 0.5j)) * (c / h)
    unit = rest / (b + (b == 0.0))[..., None]
    v = np.empty(xi.shape + (2,), dtype=complex)
    v[..., 0] = p[..., None] * xi + q[..., None] * unit
    v[..., 1] = q[..., None] * xi + p[..., None] * unit
    w = np.empty(b.shape + (2,))
    w[..., 0] = -theta * np.sign(b)
    w[..., 1] = theta
    return w, v


def geodesic_lower_bound(path: UnitaryPath, xi: np.ndarray, eta: np.ndarray,
                         samples: int | None = None) -> float:
    """Certified lower bound on the length of any path with these endpoints.

    A path whose end misses eta by r = ||u(1) xi - eta|| > 1e-8 raises
    ``HypothesisError``.  Returns the least spectral angle phi of u(1) with
    cos phi <= Re<xi, eta> + r + 1e-13: one exists,
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
    if residual > 1e-8:
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

    Each component turns along its geodesic, whose rest direction is
    projected into the component's range (``_geodesic``'s ``project``):
    unprojected, (eta - a xi) / b carries rounding of relative size
    2^-52 / b off that range, which the rank-2 segment turns by the whole
    angle, so a nearly colinear pair would leave it.  A component of rank
    one holds no direction orthogonal to its vector, so its rest projects
    to 0 and the pair takes the phase turn at b = 0 exactly.  The two
    turns run at once, summed into one segment (``summed_path``).
    """
    xi = check_state(xi, dim=len(e))
    eta = check_state(eta, dim=len(e))
    if not (norm_at_most(e @ e - e, 1e-10) and norm_at_most(e - dagger(e), 1e-10)):
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
    k = round(float(np.trace(e).real))

    turns = []
    for src, dst, project, rank in ((exi, eeta, lambda r: e @ r, k),
                                    (oxi, oeta, lambda r: r - e @ r, dim - k)):
        ns = np.linalg.norm(src)
        if ns < 1e-9:
            continue
        turns.append(_geodesic(src / ns, mu * dst / np.linalg.norm(dst),
                               project if rank > 1 else np.zeros_like))
    return summed_path(dim, turns, [])


def _bisector_phase(a: complex, b: complex) -> complex:
    """Phase mu with Re(conj(mu) a) >= 0 and Re(conj(mu) b) >= 0; an
    overlap below 1e-12 in modulus has no phase and puts no constraint."""
    if abs(a) < 1e-12 and abs(b) < 1e-12:
        return 1.0 + 0.0j
    if abs(a) < 1e-12:
        return b / abs(b)
    if abs(b) < 1e-12:
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
    tolerance the caller has already validated: the gate of
    ``alignment_gate`` on the corner families, then the corner rotation of
    ``_corner_rotations`` on a stack of one, with its zero angles
    dropped."""
    n, r = mu.n, mu.multiplicity
    delta = invert_alignment_bound(n, r, eps / np.sqrt(n))
    x, y = mu.corner_families(xi), mu.corner_families(eta)
    weights, gap = _gate_measures(np.stack([x, y]))
    gap = _check_gate(*weights, gap, delta)
    angles, vectors = _corner_rotations(x[None], y[None], np.array([r]))
    keep = angles[0] != 0.0
    angles, vectors = angles[0, keep], vectors[0][:, keep]
    path = UnitaryPath([PathSegment(0.0, 1.0, np.tile(angles, n), mu.lift_columns(vectors),
                                    np.eye(mu.ambient_dim, dtype=complex))])
    # u(1) = 1 + V (1_n (x) (c - 1)) V^* moves the corner families X of xi
    # to X c^T and fixes the complement of V V^*, so u(1) xi needs no
    # ambient matrix.
    turned = _turn(x, angles, vectors)
    moved = xi + mu.isometry @ turned.reshape(-1)
    terminal = float(np.linalg.norm(moved - eta))
    repair_length = 0.0
    if exact and terminal > 1e-13:
        repair = _geodesic_path(moved / np.linalg.norm(moved), eta)
        repair_length = repair.length
        path = concat_paths(path, repair)
        terminal = float(np.linalg.norm(path.apply(path.t_end, xi) - eta))
    return TransportResult(
        path=path,
        terminal_error=terminal,
        bound=eps,
        delta=delta,
        measured_gap=gap,
        extras={
            "corner_rank": r,
            "alignment_residual": float(np.max(np.linalg.norm(x + turned - y, axis=1))),
            "alignment_full_rank": r >= n,
            "repair_length": repair_length,
        },
    )


def _direction(x: np.ndarray) -> np.ndarray:
    """x / ||x|| over the last axis for a nonzero x, scaled by its largest
    entry first so that no square underflows."""
    x = x / np.max(np.abs(x), axis=-1, keepdims=True)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _corner_rotations(fx: np.ndarray, fy: np.ndarray,
                      ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The corner rotations of ``commutant_transport`` for a stack of
    corner families X, Y of shape (stack, n, r), each item of multiplicity
    ``ranks`` <= r and zero in the columns beyond, whose gates have passed.
    Returns the angles (stack, p) and vectors (stack, r, p) of every item's
    rotation, zero-padded to the widest p; a zero angle adds nothing.  The
    rotation is chosen by the item's shape, as ``commutant_transport``
    describes, in three stacked pieces: r' = 1 is one phase, n = 1 one
    geodesic (a zero corner the identity), and every other item takes
    ``_alignment_rotation`` in one stack per distinct r', on its first r'
    columns, so no item is padded in the columns it rotates.  A stack that
    one piece fills is returned as that piece."""
    stack, n, r = fx.shape
    shapes = set(ranks.tolist())
    pieces = []
    if 1 in shapes:
        phase = ranks == 1
        angles = np.angle(_vecdot(fx[phase, :, 0], fy[phase, :, 0]))[:, None]
        pieces.append((phase, angles, np.ones(angles.shape + (1,), dtype=complex)))
    if n == 1:
        x, y = fx[:, 0], fy[:, 0]
        turned = (ranks > 1) & x.any(axis=1) & y.any(axis=1)
        if turned.any():
            pieces.append((turned, *_geodesic(_direction(x[turned]), _direction(y[turned]))))
    else:
        for rank in sorted(shapes - {0, 1}):
            items = ranks == rank
            pieces.append((items, *_alignment_rotation(fx[items, :, :rank],
                                                       fy[items, :, :rank])[:2]))
    if len(pieces) == 1 and pieces[0][0].all() and pieces[0][2].shape[1] == r:
        return pieces[0][1:]
    width = max((angles.shape[1] for _, angles, _ in pieces), default=0)
    angles, vectors = np.zeros((stack, width)), np.zeros((stack, r, width), dtype=complex)
    for items, a, v in pieces:
        angles[items, :a.shape[1]] = a
        vectors[items, :v.shape[1], :a.shape[1]] = v
    return angles, vectors


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

    Each pair must be supported in a distinct block.  Each takes the
    commutant transport with exact terminal repair of its block, and the
    blocks run at once (``summed_path``): their turns summed into one
    segment, then their repairs into a second, so u(1) xi_i = eta_i for
    every i.  A block's turn runs on [0, 1] or, before a repair, on
    [0, 1/2], so seg.w * seg.duration is its generator at unit time
    exactly.  The tolerance and each state are checked once, here, and
    each pair goes to the checked core ``_commutant_transport``.
    """
    _check_tolerance(eps)
    used: set[int] = set()
    per_block, states, turns, repairs = [], [], [], []
    for xi, eta in pairs:
        xi = check_state(xi, dim=alg.ambient_dim)
        eta = check_state(eta, dim=alg.ambient_dim)
        b = _supporting_block(alg, xi)
        if b is None or _supporting_block(alg, eta) != b:
            raise DisjointnessError("pair is not supported in a single block")
        if b in used:
            raise DisjointnessError("two pairs share a block")
        used.add(b)
        res = _commutant_transport(alg.blocks[b], xi, eta, eps, True)
        per_block.append(res)
        states.append((xi, eta))
        turn, *repair = [(seg.w * seg.duration, seg.v) for seg in res.path.segments]
        turns.append(turn)
        repairs += repair
    if not per_block:
        raise ParameterError("no pairs given")
    path = summed_path(alg.ambient_dim, turns, repairs)
    return MultiTransportResult(
        path=path,
        terminal_errors=[float(np.linalg.norm(path.apply(path.t_end, xi) - eta))
                         for xi, eta in states],
        commutator_sup=path.commutator_bound(family),
        per_block=per_block,
    )


def _supporting_block(alg: BlockAlgebra, vec: np.ndarray) -> int | None:
    """The first block whose identity V V^* fixes vec to 1e-8,
    ||vec - V (V^* vec)|| <= 1e-8, by two products with the isometry V;
    None when no block does."""
    for idx, blk in enumerate(alg.blocks):
        v = blk.isometry
        if np.linalg.norm(vec - v @ (dagger(v) @ vec)) <= 1e-8:
            return idx
    return None
