"""Folner averaging and group-equivariant state transport.

Supports finite groups given by a multiplication table and Z^d given by
commuting generator unitaries.  The transport path is e^{i pi t hbar}
where hbar is the Folner average of a flip projection exchanging the
orbit of the source vector with an orthogonal matched family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    DetourFailureError,
    DimensionError,
    FlipInconsistencyError,
    HypothesisError,
    NonCommutingGeneratorsError,
    UnsupportedGroupError,
)
from .gram import GramTarget, VectorFamily, gram_complete, gram_matrix
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

    def multiplicativity_defect(self, samples) -> float:
        worst = 0.0
        for g, h in samples:
            worst = max(
                worst,
                op_norm(self.rep(self.multiply(g, h)) - self.rep(g) @ self.rep(h)),
            )
        return worst


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
    box_set = set(box)
    defect = 0.0
    for g in gens:
        shifted = {tuple(a + b for a, b in zip(p, g)) for p in box}
        defect = max(defect, len(box_set ^ shifted) / len(box))
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

    Requires equal Gram matrices and mutually orthogonal spans; then the
    difference span is orthogonal to the sum span and the orthogonal
    projection onto the differences does both jobs.
    """
    if xis.size != zetas.size or xis.dim != zetas.dim:
        raise FlipInconsistencyError("families must match in size and dimension")
    gram_gap = float(np.max(np.abs(gram_matrix(xis) - gram_matrix(zetas))))
    if gram_gap > FLIP_TOL:
        raise FlipInconsistencyError(f"Gram matrices differ by {gram_gap:.3e}")
    cross = float(np.max(np.abs(xis.vectors @ dagger(zetas.vectors))))
    if cross > 1e-8:
        raise FlipInconsistencyError(f"spans overlap, cross product {cross:.3e}")
    diffs = xis.vectors - zetas.vectors
    u, s, _ = np.linalg.svd(diffs.T, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(s[0], 1e-30)))
    basis = u[:, :rank]
    e = basis @ dagger(basis)
    sums = xis.vectors + zetas.vectors
    worst = float(np.max(np.linalg.norm(sums @ e.T, axis=1))) if sums.size else 0.0
    if worst > 1e-8:
        raise FlipInconsistencyError(f"projection fails to kill sums: {worst:.3e}")
    return (e + dagger(e)) / 2


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
                          detour_hint: np.ndarray | None = None,
                          t_samples: int = 16) -> GroupTransportResult:
    """Path nearly commuting with the group action and moving xi to eta.

    Orthogonal-orbit case: one leg e^{i pi t hbar}.  Overlapping orbits
    take a detour through an intermediate vector with matching correlation
    data found in the joint orbit complement (or supplied as a hint),
    doubling the bounds.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    folner = folner_set(action, gens, eps / 2)
    orbit_xi = _orbit(action, folner.elements, xi)
    orbit_eta = _orbit(action, folner.elements, eta)
    cross = float(np.max(np.abs(orbit_xi @ orbit_eta.conj().T)))
    if cross <= 1e-8:
        return _orthogonal_leg(action, folner, xi, eta, orbit_xi, orbit_eta,
                               gens, eps, t_samples)

    mid = _find_detour(action, folner, xi, eta, eps, detour_hint)
    orbit_mid = _orbit(action, folner.elements, mid)
    leg1 = _orthogonal_leg(action, folner, xi, mid, orbit_xi, orbit_mid,
                           gens, eps, t_samples)
    leg2 = _orthogonal_leg(action, folner, mid, eta, orbit_mid, orbit_eta,
                           gens, eps, t_samples)
    path = concat_paths(leg1.path, leg2.path)
    terminal = float(np.linalg.norm(path.end() @ xi - eta))
    sup = _commutator_sup(action, path, gens, t_samples)
    return GroupTransportResult(
        path=path,
        terminal_error=terminal,
        terminal_bound=leg1.terminal_bound + leg2.terminal_bound,
        commutator_sup=sup,
        commutator_bound=2 * np.pi * eps,
        eps_prime=leg1.eps_prime,
        folner=folner,
        legs=2,
        extras={"leg_errors": [leg1.terminal_error, leg2.terminal_error]},
    )


def _orbit(action: GroupAction, elements: list, v: np.ndarray) -> np.ndarray:
    """Rows rep(g) v for g in elements; for Z^d, Q (phi_g o Q^* v)."""
    if action.kind == "finite":
        return np.array([action.rep(g) @ v for g in elements])
    q = action.eigenbasis
    return (action.phases(elements) * (dagger(q) @ v)) @ q.T


def _commutator_sup(action: GroupAction, path: UnitaryPath, gens: list,
                    t_samples: int) -> float:
    """Largest ||[u(t), rep(g)]|| over the sampled times and the generators."""
    reps = [action.rep(g) for g in gens]
    sup = 0.0
    for t in path.sample_times(t_samples):
        ut = path.at(t)
        for r in reps:
            sup = max(sup, op_norm(ut @ r - r @ ut))
    return sup


def _orthogonal_leg(action, folner, xi, eta, orbit_xi, orbit_eta, gens, eps,
                    t_samples) -> GroupTransportResult:
    size = len(folner.elements)
    eps_prime = eps / (2 * EXP_SERIES_CONSTANT)
    delta = eps_prime**2 / size
    corr_gap = float(np.max(np.abs(
        gram_matrix(VectorFamily(action.dim, orbit_xi))
        - gram_matrix(VectorFamily(action.dim, orbit_eta))
    )))
    if corr_gap >= delta:
        raise HypothesisError(
            f"orbit correlation gap {corr_gap:.3e} >= delta {delta:.3e}",
            measured_gap=corr_gap,
        )
    # Matched family: complete the eta-orbit, inside the orthogonal
    # complement of the xi-orbit span, to the exact Gram of the xi-orbit.
    comp = _complement_basis(orbit_xi, action.dim)
    if comp.shape[1] < size:
        raise FlipInconsistencyError(
            "orbit complement too small to host the matched family"
        )
    coords = orbit_eta @ comp.conj()
    completed = gram_complete(
        VectorFamily(comp.shape[1], coords),
        GramTarget(size, gram_matrix(VectorFamily(action.dim, orbit_xi))),
        enforce_weight=False,
    )
    zetas = completed.vectors @ comp.T
    e = flip_projection(
        VectorFamily(action.dim, orbit_xi), VectorFamily(action.dim, zetas)
    )
    hbar = average_conjugates(e, folner, action)
    path = UnitaryPath(
        [PathSegment(0.0, 1.0, np.pi * hbar, np.eye(action.dim, dtype=complex))]
    )
    ident = folner.elements.index(action.identity())
    zeta_id = zetas[ident]
    flip_error = float(np.linalg.norm(path.end() @ xi - zeta_id))
    terminal = float(np.linalg.norm(path.end() @ xi - eta))
    sup = _commutator_sup(action, path, gens, t_samples)
    return GroupTransportResult(
        path=path,
        terminal_error=terminal,
        terminal_bound=eps_prime * EXP_SERIES_CONSTANT + 2 * eps_prime,
        commutator_sup=sup,
        commutator_bound=np.pi * eps,
        eps_prime=eps_prime,
        folner=folner,
        legs=1,
        extras={
            "delta": delta,
            "correlation_gap": corr_gap,
            "flip_error": flip_error,
            "flip_bound": eps_prime * EXP_SERIES_CONSTANT,
        },
    )


def _complement_basis(rows: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal column basis of the orthogonal complement of the row span."""
    u, s, _ = np.linalg.svd(rows.T, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * max(s[0] if s.size else 0.0, 1e-30)))
    return u[:, rank:]


def _find_detour(action: GroupAction, folner: FolnerSet, xi: np.ndarray,
                 eta: np.ndarray, eps: float,
                 hint: np.ndarray | None) -> np.ndarray:
    """Vector in the joint extended-orbit complement whose correlation data
    matches the source's; searched by seeded local minimization."""
    size = len(folner.elements)
    eps_prime = eps / (2 * EXP_SERIES_CONSTANT)
    delta = eps_prime**2 / size
    # Orthogonality of the detour orbit against both endpoints' orbits needs
    # the complement of the difference-set translates of both vectors.
    diff_elems = sorted(
        {action.multiply(action.inverse(g), h)
         for g in folner.elements for h in folner.elements}
    )
    orbit_xi = _orbit(action, diff_elems, xi)
    extended = np.stack([orbit_xi, _orbit(action, diff_elems, eta)], axis=1)
    comp = _complement_basis(extended.reshape(-1, action.dim), action.dim)
    if comp.shape[1] == 0:
        raise DetourFailureError("no room for a detour vector", best_residual=np.inf)
    targets = orbit_xi @ xi.conj()

    candidates = []
    if hint is not None:
        h = np.asarray(hint, dtype=complex).reshape(-1)
        c = dagger(comp) @ h
        n = np.linalg.norm(c)
        if n > 1e-8:
            # A hint whose correlations already match is the detour.
            mid = comp @ (c / n)
            if np.max(np.abs(_orbit(action, diff_elems, mid) @ mid.conj()
                             - targets)) < delta:
                return mid
            candidates.append(c / n)
    mats = [dagger(comp) @ action.rep(k) @ comp for k in diff_elems]

    def residual(c: np.ndarray) -> float:
        return float(max(abs(np.vdot(c, m @ c) - t) for m, t in zip(mats, targets)))

    rng = np.random.default_rng(0)
    w = comp.shape[1]

    def objective(x: np.ndarray) -> float:
        c = x[:w] + 1j * x[w:]
        n = np.linalg.norm(c)
        if n < 1e-12:
            return 1e6
        c = c / n
        return float(sum(abs(np.vdot(c, m @ c) - t) ** 2
                         for m, t in zip(mats, targets)))

    for _ in range(4):
        x0 = rng.standard_normal(2 * w)
        out = scipy.optimize.minimize(objective, x0, method="L-BFGS-B",
                                      options={"maxiter": 300})
        c = out.x[:w] + 1j * out.x[w:]
        n = np.linalg.norm(c)
        if n > 1e-12:
            candidates.append(c / n)

    best, best_res = None, np.inf
    for c in candidates:
        r = residual(c)
        if r < best_res:
            best, best_res = c, r
    if best is None or best_res >= delta:
        raise DetourFailureError(
            f"best detour residual {best_res:.3e} >= delta {delta:.3e}",
            best_residual=best_res,
        )
    return comp @ best
