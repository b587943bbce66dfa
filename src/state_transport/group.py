"""Folner averaging and group-equivariant state transport.

Supports finite groups given by a multiplication table and Z^d given by
commuting generator unitaries.  The transport path is e^{i pi t hbar}
where hbar is the Folner average of a flip projection exchanging the
orbit of the source vector with an orthogonal matched family.  Both are
closed forms: the matched family is the image of the orbit under the
polar-factor isometry W into the target orbit's directions, and the flip
is the projection onto the graph of -W.  When the two orbits overlap
(Z^d only), the path detours through a vector built cluster by cluster
in the joint eigenbasis with the source's spectral mass, hence its
correlations, and an orbit orthogonal to both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DetourFailureError,
    DimensionError,
    FlipInconsistencyError,
    HypothesisError,
    NonCommutingGeneratorsError,
    UnsupportedGroupError,
)
from .gram import VectorFamily, gram_matrix
from .linalg import UNITARY_TOL, check_state, check_unitary, dagger, op_norm
from .path import PathSegment, UnitaryPath, concat_paths

FLIP_TOL = 1e-10
# Growth constant of the exponential-series estimate for the terminal error.
EXP_SERIES_CONSTANT = float(np.e**np.pi - 1 + np.pi * np.e**np.pi)


@dataclass
class GroupAction:
    """A unitary representation of a finite group or of Z^d.

    Finite: ``table[a][b]`` is the index of the product, ``reps[a]`` its
    unitary, element 0 the identity.  Z^d: ``generators`` is a list of d
    pairwise commuting unitaries and elements are integer tuples; they
    share one unitary eigenbasis Q, u_k = Q diag(exp(i angles[k])) Q^*,
    so rep(g) = Q diag(phases(g)) Q^* with phases exp(i sum_k g_k angles[k]).
    """

    kind: str  # "finite" or "Zd"
    dim: int
    table: np.ndarray | None = None
    reps: np.ndarray | None = None
    generators: list[np.ndarray] | None = None
    eigenbasis: np.ndarray | None = field(default=None, init=False, repr=False)
    angles: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind == "finite":
            if self.table is None or self.reps is None:
                raise UnsupportedGroupError("finite action needs table and reps")
            self.table = np.asarray(self.table, dtype=int)
            self.reps = np.asarray(self.reps, dtype=complex)
        elif self.kind == "Zd":
            if not self.generators:
                raise UnsupportedGroupError("Zd action needs generator unitaries")
            self.generators = [check_unitary(u) for u in self.generators]
            if any(u.shape[0] != self.dim for u in self.generators):
                raise DimensionError(f"Zd generators must all be {self.dim} x {self.dim}")
            self.eigenbasis, self.angles = _joint_eigenbasis(self.generators)
        else:
            raise UnsupportedGroupError(f"unknown group kind {self.kind!r}")

    @property
    def rank(self) -> int:
        return len(self.generators) if self.kind == "Zd" else 0

    def identity(self):
        return 0 if self.kind == "finite" else (0,) * self.rank

    def inverse(self, g):
        if self.kind == "Zd":
            return tuple(-k for k in g)
        row = self.table[g]
        return int(np.where(row == 0)[0][0])

    def multiply(self, g, h):
        if self.kind == "Zd":
            return tuple(a + b for a, b in zip(g, h))
        return int(self.table[g][h])

    def phases(self, elements) -> np.ndarray:
        """Z^d only: row j holds the eigenvalues of rep(elements[j]) in the
        eigenbasis, exp(i sum_k g_k angles[k])."""
        g = np.asarray(elements, dtype=float).reshape(-1, self.rank)
        return np.exp(1j * (g @ self.angles))

    def rep(self, g) -> np.ndarray:
        if self.kind == "finite":
            return self.reps[g]
        q = self.eigenbasis
        return (q * self.phases([g])[0]) @ dagger(q)


def finite_cyclic_action(n: int, u: np.ndarray) -> GroupAction:
    """Z/n acting through the powers of a unitary of order n."""
    u = check_unitary(u)
    table = np.array([[(a + b) % n for b in range(n)] for a in range(n)])
    reps = [np.eye(u.shape[0], dtype=complex)]
    for _ in range(n - 1):
        reps.append(reps[-1] @ u)
    return GroupAction(kind="finite", dim=u.shape[0], table=table, reps=np.array(reps))


def integer_action(generators: list[np.ndarray]) -> GroupAction:
    """Z^d acting through commuting generator unitaries."""
    return GroupAction(kind="Zd", dim=generators[0].shape[0], generators=list(generators))


def _joint_eigenbasis(generators: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unitary Q and angles (d, dim) with Q^* u_k Q = diag(exp(i angles[k])).

    Q is the complex Schur basis of sum_k c_k u_k.  For commuting u_k that
    sum is normal, and its eigenspaces are joint eigenspaces unless two
    joint eigenvalue tuples satisfy a linear relation with the weights c_k
    (transcendental, so no algebraic eigenvalues do); then every u_k is
    diagonal in Q.  Raises ``NonCommutingGeneratorsError`` when one is not.
    """
    d = len(generators)
    weights = np.exp(1j * np.sqrt(2.0) * np.arange(d)) / np.sqrt(1.0 + np.arange(d))
    _, q = scipy.linalg.schur(sum(c * u for c, u in zip(weights, generators)),
                              output="complex")
    angles = np.empty((d, q.shape[0]))
    for k, u in enumerate(generators):
        t = dagger(q) @ u @ q
        diag = np.diag(t)
        off = op_norm(t - np.diag(diag))
        if off > UNITARY_TOL:
            raise NonCommutingGeneratorsError(
                f"generator {k} is {off:.3e} off-diagonal in the joint eigenbasis; "
                "the generators do not commute"
            )
        angles[k] = np.angle(diag)
    return q, angles


@dataclass
class FolnerSet:
    elements: list
    defect: float


def folner_set(action: GroupAction, gens: list, eps: float) -> FolnerSet:
    """Near-invariant finite subset: the whole group when finite, a centered
    box for Z^d with exactly counted translation defect below eps."""
    if action.kind == "finite":
        return FolnerSet(elements=list(range(action.table.shape[0])), defect=0.0)
    d = action.rank
    radius = max(
        (max(abs(k) for k in g) for g in gens), default=1
    )
    half = int(np.ceil(d * radius / eps))
    side = 2 * half + 1
    box = [tuple(p) for p in itertools.product(range(-half, half + 1), repeat=d)]
    # |F ^ (F + g)| = 2 (|F| - |F n (F + g)|); the overlap is a box too.
    defect = max((2 * (len(box) - math.prod(max(side - abs(k), 0) for k in g)) / len(box)
                  for g in gens), default=0.0)
    if defect >= eps:
        raise UnsupportedGroupError(
            f"box of side {side} has defect {defect} >= {eps}"
        )
    return FolnerSet(elements=box, defect=defect)


def average_conjugates(h: np.ndarray, folner: FolnerSet,
                       action: GroupAction) -> np.ndarray:
    """Mean of rep(g)^* h rep(g) over the Folner set; contracts norms and
    nearly commutes with every generator, within 2 * defect * ||h||.

    For Z^d this is one Hadamard product in the joint eigenbasis, at cost
    O(|F| dim^2 + dim^3); a finite group sums its |F| conjugates."""
    norm_h = op_norm(h)
    if norm_h > 1.0 + 1e-10:
        raise HypothesisError("need ||h|| <= 1", measured_gap=norm_h - 1.0)
    if action.kind == "Zd":
        # In the eigenbasis rep(g)^* h rep(g) is conj(phi_g)_a H_ab (phi_g)_b,
        # so the mean is the Hadamard product of H with the kernel
        # K = mean_g conj(phi_g) phi_g^T.
        q = action.eigenbasis
        phi = action.phases(folner.elements)
        kernel = (dagger(phi) @ phi) / len(folner.elements)
        acc = q @ (kernel * (dagger(q) @ h @ q)) @ dagger(q)
    else:
        acc = np.zeros((action.dim, action.dim), dtype=complex)
        for g in folner.elements:
            u = action.rep(g)
            acc = acc + dagger(u) @ h @ u
        acc = acc / len(folner.elements)
    return (acc + dagger(acc)) / 2


def flip_projection(xis: VectorFamily, zetas: VectorFamily) -> np.ndarray:
    """Projection killing the sums x_g + z_g and fixing the differences.

    Requires equal Gram matrices and mutually orthogonal spans; then
    z_g = W x_g for the isometry W = V B^* of ``_graph_factors``, and the
    projection is the one onto the graph of -W.
    """
    if xis.size != zetas.size or xis.dim != zetas.dim:
        raise FlipInconsistencyError("families must match in size and dimension")
    b, v = _graph_factors(xis.vectors, zetas.vectors)
    return _graph_projection(xis.vectors, zetas.vectors, b, v)


def _graph_factors(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis B of the span of the rows x_g, and the polar factor
    V of sum_g y_g x_g^* B with span(B) first removed from every y_g.

    W = V B^* is an isometry from span(B) onto a subspace orthogonal to it,
    so the family W x_g has exactly the Gram matrix of the x_g; when the
    y_g already equal U x_g for such an isometry U, V B^* = U on span(B).
    """
    u, rank = _left_basis(xs.T, full=False)
    b = u[:, :rank]
    y = ys.T - b @ (dagger(b) @ ys.T)
    a, _, vh = np.linalg.svd(y @ xs.conj() @ b, full_matrices=False)
    return b, a @ vh


def _graph_projection(xs: np.ndarray, zs: np.ndarray, b: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """e = (B B^* + V V^* - W - W^*) / 2 with W = V B^*: the projection onto
    the graph {x - W x : x in span(B)} of -W (Halmos, "Two subspaces").
    It kills every x + W x and fixes every x - W x; the last check certifies
    that it kills the given sums x_g + z_g."""
    gram_gap = float(np.max(np.abs(gram_matrix(VectorFamily(xs.shape[1], xs))
                                   - gram_matrix(VectorFamily(zs.shape[1], zs)))))
    if gram_gap > FLIP_TOL:
        raise FlipInconsistencyError(f"Gram matrices differ by {gram_gap:.3e}")
    cross = float(np.max(np.abs(xs @ dagger(zs))))
    if cross > 1e-8:
        raise FlipInconsistencyError(f"spans overlap, cross product {cross:.3e}")
    w = v @ dagger(b)
    e = (b @ dagger(b) + v @ dagger(v) - w - dagger(w)) / 2
    sums = xs + zs
    worst = float(np.max(np.linalg.norm(sums @ e.T, axis=1))) if sums.size else 0.0
    if worst > 1e-8:
        raise FlipInconsistencyError(f"projection fails to kill sums: {worst:.3e}")
    return (e + dagger(e)) / 2


def _left_basis(columns: np.ndarray, full: bool = True) -> tuple[np.ndarray, int]:
    """Left singular basis of ``columns``, the full one or, unless ``full``,
    the thin one, and their numerical rank: singular values above 1e-10 of
    the largest count."""
    u, s, _ = np.linalg.svd(columns, full_matrices=full)
    return u, int(np.sum(s > 1e-10 * max(s[0] if s.size else 0.0, 1e-30)))


@dataclass
class GroupTransportResult:
    path: UnitaryPath
    terminal_error: float
    terminal_bound: float
    commutator_sup: float
    commutator_bound: float
    eps_prime: float
    folner: FolnerSet
    legs: int = 1
    extras: dict = field(default_factory=dict)


def group_state_transport(action: GroupAction, xi: np.ndarray, eta: np.ndarray,
                          gens: list, eps: float,
                          t_samples: int = 16) -> GroupTransportResult:
    """Path nearly commuting with the group action and moving xi to eta.

    Orthogonal-orbit case: one leg e^{i pi t hbar}.  Overlapping orbits
    (Z^d only) take a detour through an intermediate vector with the same
    correlation data and an orbit orthogonal to both, doubling the bounds.
    ``commutator_sup`` is certified; ``t_samples`` is accepted and ignored.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    folner = folner_set(action, gens, eps / 2)
    eps_prime = eps / (2 * EXP_SERIES_CONSTANT)
    delta = eps_prime**2 / len(folner.elements)
    orbit_xi = _orbit(action, folner.elements, xi)
    orbit_eta = _orbit(action, folner.elements, eta)
    cross = float(np.max(np.abs(orbit_xi @ orbit_eta.conj().T)))
    if cross <= 1e-8:
        path, extras = _orthogonal_leg(action, folner, xi, orbit_xi, orbit_eta, delta)
        extras["flip_bound"] = eps_prime * EXP_SERIES_CONSTANT
        legs = 1
    else:
        mid = _find_detour(action, folner, xi, eta, delta)
        orbit_mid = _orbit(action, folner.elements, mid)
        leg1, _ = _orthogonal_leg(action, folner, xi, orbit_xi, orbit_mid, delta)
        leg2, _ = _orthogonal_leg(action, folner, mid, orbit_mid, orbit_eta, delta)
        path = concat_paths(leg1, leg2)
        extras = {"leg_errors": [float(np.linalg.norm(leg1.end() @ xi - mid)),
                                 float(np.linalg.norm(leg2.end() @ mid - eta))]}
        legs = 2
    return GroupTransportResult(
        path=path,
        terminal_error=float(np.linalg.norm(path.end() @ xi - eta)),
        terminal_bound=legs * (eps_prime * EXP_SERIES_CONSTANT + 2 * eps_prime),
        commutator_sup=path.commutator_bound([action.rep(g) for g in gens]),
        commutator_bound=legs * np.pi * eps,
        eps_prime=eps_prime,
        folner=folner,
        legs=legs,
        extras=extras,
    )


def _orbit(action: GroupAction, elements: list, v: np.ndarray) -> np.ndarray:
    """Rows rep(g) v for g in elements; for Z^d, Q (phi_g o Q^* v)."""
    if action.kind == "finite":
        return np.array([action.rep(g) @ v for g in elements])
    q = action.eigenbasis
    return (action.phases(elements) * (dagger(q) @ v)) @ q.T


def _orthogonal_leg(action, folner, xi, orbit_xi, orbit_eta,
                    delta) -> tuple[UnitaryPath, dict]:
    """e^{i pi t hbar} with hbar the Folner average of the flip between the
    xi-orbit and its matched family zeta_g = W x_g (``_graph_factors``)."""
    corr_gap = float(np.max(np.abs(
        gram_matrix(VectorFamily(action.dim, orbit_xi))
        - gram_matrix(VectorFamily(action.dim, orbit_eta))
    )))
    if corr_gap >= delta:
        raise HypothesisError(
            f"orbit correlation gap {corr_gap:.3e} >= delta {delta:.3e}",
            measured_gap=corr_gap,
        )
    b, v = _graph_factors(orbit_xi, orbit_eta)
    zetas = orbit_xi @ (v @ dagger(b)).T
    hbar = average_conjugates(_graph_projection(orbit_xi, zetas, b, v), folner, action)
    w, q = np.linalg.eigh(np.pi * hbar)
    path = UnitaryPath([PathSegment(0.0, 1.0, w, q, np.eye(action.dim, dtype=complex))])
    zeta_id = zetas[folner.elements.index(action.identity())]
    return path, {
        "delta": delta,
        "correlation_gap": corr_gap,
        "flip_error": float(np.linalg.norm(path.end() @ xi - zeta_id)),
    }


def _difference_set(folner: FolnerSet) -> list:
    """F^{-1} F in sorted order for the centred box F of ``folner_set``
    (Z^d): the centred box of twice the half-width."""
    half = int(np.max(np.abs(folner.elements)))
    rank = len(folner.elements[0])
    return list(itertools.product(range(-2 * half, 2 * half + 1), repeat=rank))


def _find_detour(action: GroupAction, folner: FolnerSet, xi: np.ndarray,
                 eta: np.ndarray, delta: float) -> np.ndarray:
    """Vector with the correlation data of xi whose orbit is orthogonal to
    the orbits of xi and eta, built in the joint eigenbasis Q.

    The correlations <u^g v, v> = sum_j phi_gj |(Q^* v)_j|^2 are the Fourier
    coefficients of the spectral measure of v, so a vector with the mass of
    xi in every cluster of joint eigenangle tuples matches them.  In each
    cluster where xi has mass take a unit vector orthogonal to the
    components of xi and eta there, scaled to the norm of xi's; this needs
    the cluster's multiplicity to exceed the rank of those components.
    """
    if action.kind != "Zd":
        raise UnsupportedGroupError("overlapping orbits need a Z^d action for the detour")
    diff_elems = _difference_set(folner)
    # A cluster has radius tol / 2 about its first tuple, so phi_gj moves by
    # at most reach * tol / 2 inside it and clustering moves no correlation
    # by more than reach * tol = delta / 4; dropping the clusters below the
    # mass floor moves them by less than dim * floor = delta / 4.  reach is
    # the largest |g|_1 over the difference set, at its last corner.
    reach = max(sum(diff_elems[-1]), 1)
    tol = delta / (4 * reach)
    floor = delta / (4 * action.dim)
    q, angles = action.eigenbasis, action.angles
    a_all, b_all = dagger(q) @ xi, dagger(q) @ eta
    coords = np.zeros(action.dim, dtype=complex)
    free = np.ones(action.dim, dtype=bool)
    for j in range(action.dim):
        if not free[j]:
            continue
        dist = np.max(np.abs(np.angle(np.exp(1j * (angles - angles[:, [j]])))), axis=0)
        cluster = np.flatnonzero(free & (dist <= tol / 2))
        free[cluster] = False
        norm = float(np.linalg.norm(a_all[cluster]))
        if norm**2 < floor:
            continue
        u, rank = _left_basis(np.stack([a_all[cluster], b_all[cluster]], axis=1))
        if cluster.size <= rank:
            raise DetourFailureError(
                f"eigenvalue cluster at angles {np.round(angles[:, j], 12).tolist()} "
                f"has multiplicity {cluster.size}, not above the rank {rank} of "
                "the source and target components",
                best_residual=np.inf,
            )
        coords[cluster] = norm * u[:, rank]
    mid = q @ coords
    residual = float(np.max(np.abs(_orbit(action, diff_elems, mid) @ mid.conj()
                                   - _orbit(action, diff_elems, xi) @ xi.conj())))
    if residual >= delta:
        raise DetourFailureError(
            f"detour residual {residual:.3e} >= delta {delta:.3e}",
            best_residual=residual,
        )
    return mid
