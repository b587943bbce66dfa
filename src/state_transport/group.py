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

Every gate reads the orbit correlations as one function on the difference
set D = F^{-1} F: for a unitary representation <u_g x, u_h y> depends only
on h^{-1} g, so the max over an |F| x |F| Gram or cross matrix is a max
over the |D| values c_k = <u_k x, y>.  The flip is certified from r x r
quantities of its factors, plus a row residual for a given family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DetourFailureError,
    DimensionError,
    FlipInconsistencyError,
    HypothesisError,
    NonCommutingGeneratorsError,
    UnsupportedGroupError,
)
from .gram import VectorFamily
from .linalg import (UNITARY_TOL, _check_tolerance, _normal_eigenbasis, check_operators,
                     check_state, check_unitary, dagger, norm_at_most, op_norm)
from .path import PathSegment, UnitaryPath, concat_paths

FLIP_TOL = 1e-10
# Largest accepted cross product between two orbits or families, and
# largest accepted residue of a sum x_g + z_g under the flip.
OVERLAP_TOL = 1e-8
# Growth constant of the exponential-series estimate for the terminal error.
EXP_SERIES_CONSTANT = float(np.e**np.pi - 1 + np.pi * np.e**np.pi)


@dataclass
class GroupAction:
    """A unitary representation of a finite group or of Z^d.

    Finite: ``table[a][b]`` is the index of the product, ``reps[a]`` its
    unitary, element 0 the identity; the constructor checks all three and
    stores ``rep_defect``, the largest Frobenius norm of rep(a) rep(b) -
    rep(ab) (a bound on its operator norm), at most ``UNITARY_TOL`` (0.0
    for Z^d).  Z^d: ``generators`` is a list of d pairwise commuting
    unitaries and elements are integer tuples; they share one unitary
    eigenbasis Q, u_k = Q diag(exp(i angles[k])) Q^*, so
    rep(g) = Q diag(phases(g)) Q^* with phases exp(i sum_k g_k angles[k]).
    """

    kind: str  # "finite" or "Zd"
    dim: int
    table: np.ndarray | None = None
    reps: np.ndarray | None = None
    generators: list[np.ndarray] | None = None
    eigenbasis: np.ndarray | None = field(default=None, init=False, repr=False)
    angles: np.ndarray | None = field(default=None, init=False, repr=False)
    rep_defect: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.kind == "finite":
            if self.table is None or self.reps is None:
                raise UnsupportedGroupError("finite action needs table and reps")
            self.table, self.reps, self.rep_defect = _check_finite(
                self.table, self.reps, self.dim)
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


def _check_finite(table, reps, dim: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated table and reps of a finite action, and its multiplicativity
    defect d >= max ||rep(a) rep(b) - rep(ab)||, the largest Frobenius norm.

    The table must be square with entries in range(n), every row and column
    a permutation (so every element has an inverse) and element 0 the
    identity; the reps n unitaries of size dim with d <= ``UNITARY_TOL``.
    """
    table = np.asarray(table, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.size == 0:
        raise DimensionError(f"multiplication table of shape {table.shape} is not square")
    n = table.shape[0]
    order = np.arange(n)
    if table.min() < 0 or table.max() >= n:
        raise UnsupportedGroupError(f"multiplication table entries must lie in [0, {n})")
    if np.any(table[0] != order) or np.any(table[:, 0] != order):
        raise UnsupportedGroupError("element 0 is not the identity of the table")
    if (np.any(np.sort(table, axis=1) != order)
            or np.any(np.sort(table, axis=0) != order[:, None])):
        raise UnsupportedGroupError("multiplication table is not a Latin square")
    reps = np.asarray(reps, dtype=complex)
    if reps.shape != (n, dim, dim):
        raise DimensionError(f"reps of shape {reps.shape}, expected {(n, dim, dim)}")
    for r in reps:
        check_unitary(r)
    # Frobenius norms: upper bounds on the operator norms without an SVD.
    defect = max(float(np.max(np.linalg.norm(reps[a] @ reps - reps[table[a]],
                                             axis=(1, 2))))
                 for a in range(n))
    if defect > UNITARY_TOL:
        raise UnsupportedGroupError(
            f"reps are not multiplicative: max ||rep(a) rep(b) - rep(ab)|| = {defect:.3e}"
        )
    return table, reps, defect


def finite_cyclic_action(n: int, u: np.ndarray) -> GroupAction:
    """Z/n acting through the powers of a unitary of order n."""
    u = check_unitary(u)
    table = np.array([[(a + b) % n for b in range(n)] for a in range(n)])
    reps = [np.eye(u.shape[0], dtype=complex)]
    for _ in range(n - 1):
        reps.append(reps[-1] @ u)
    return GroupAction(kind="finite", dim=u.shape[0], table=table, reps=np.array(reps))


def integer_action(generators: list[np.ndarray]) -> GroupAction:
    """Z^d acting through commuting generator unitaries; no generator raises
    ``UnsupportedGroupError``, as the constructor does."""
    dim = len(generators[0]) if len(generators) else 0
    return GroupAction(kind="Zd", dim=dim, generators=list(generators))


def _joint_eigenbasis(generators: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unitary Q and angles (d, dim) with Q^* u_k Q = diag(exp(i angles[k])).

    Q is the ``_normal_eigenbasis`` of the generators, whose runs start at
    the rounding level 4 dim eps d of N = sum_k c_k u_k: rep(g) raises the
    T_k to powers, which carry an off-diagonal entry k-fold into the orbit
    correlations, so a pair 1e-9 apart that one ``eigh`` leaves mixed by
    some 1e-14 is rotated apart.  The one gate is that every Q^* u_k Q is
    off-diagonal by at most ``UNITARY_TOL``, and
    ``NonCommutingGeneratorsError`` is raised when one is not.
    """
    dim = len(generators[0])
    q, ts = _normal_eigenbasis(generators, 4 * dim * np.finfo(float).eps * len(generators))
    angles = np.empty((len(ts), q.shape[0]))
    for k, a in enumerate(ts):
        diag = np.diag(a)
        off = a - np.diag(diag)
        if not norm_at_most(off, UNITARY_TOL):
            raise NonCommutingGeneratorsError(
                f"generator {k} is {op_norm(off):.3e} off-diagonal in the joint "
                "eigenbasis; the generators do not commute"
            )
        angles[k] = np.angle(diag)
    return q, angles


@dataclass
class FolnerSet:
    elements: list
    defect: float


def folner_set(action: GroupAction, gens: list, eps: float) -> FolnerSet:
    """Near-invariant finite subset: the whole group when finite, a centered
    box for Z^d with exactly counted translation defect below eps.  A
    tolerance that is not finite and > 0 raises ``ParameterError``."""
    _check_tolerance(eps)
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

    h must be dim x dim (``DimensionError``) with ||h|| <= 1 + 1e-10, or
    ``HypothesisError`` carrying the excess.  The norm gate is
    ``norm_at_most``, so a diagonal h, or one whose Frobenius norm is small
    enough, passes without an SVD; ``op_norm`` measures only a failing
    excess.  For Z^d the mean is one Hadamard product in the joint
    eigenbasis, at cost O(|F| dim^2 + dim^3); a finite group sums its |F|
    conjugates."""
    check_operators([h], action.dim)
    if not norm_at_most(h, 1.0 + 1e-10):
        raise HypothesisError("need ||h|| <= 1", measured_gap=op_norm(h) - 1.0)
    return _average_conjugates(h, folner, action)


def _average_conjugates(h: np.ndarray, folner: FolnerSet,
                        action: GroupAction) -> np.ndarray:
    """``average_conjugates`` without its gate, for an h the caller has
    already certified."""
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
    projection is the one onto the graph of -W.  The families are checked
    through the row residuals r_g = z_g - W x_g alone: ``_graph_projection``
    accepts only when the Gram gap, cross products and killed sums they
    bound stay within ``FLIP_TOL``, ``OVERLAP_TOL`` and ``OVERLAP_TOL``.
    """
    if xis.size != zetas.size or xis.dim != zetas.dim:
        raise FlipInconsistencyError("families must match in size and dimension")
    xs, zs = xis.vectors, zetas.vectors
    b, v, cut = _graph_factors(xs, zs)
    residual = float(np.max(np.linalg.norm(zs - (xs @ b.conj()) @ v.T, axis=1)))
    return _graph_projection(b, v, cut, _max_row_norm(xs), residual)[0]


def _max_row_norm(xs: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(xs, axis=1)))


def _graph_factors(xs: np.ndarray,
                   ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal basis B of the span of the rows x_g, the polar factor V
    of sum_g y_g x_g^* B with span(B) first removed from every y_g, and the
    rank cut of B (``_left_basis``), which bounds every ||x_g - B B^* x_g||.

    W = V B^* is an isometry from span(B) onto a subspace orthogonal to it,
    so the family W x_g has exactly the Gram matrix of the x_g; when the
    y_g already equal U x_g for such an isometry U, V B^* = U on span(B).
    """
    u, rank, cut = _left_basis(xs.T, full=False)
    b = u[:, :rank]
    y = ys.T - b @ (dagger(b) @ ys.T)
    a, _, vh = np.linalg.svd(y @ xs.conj() @ b, full_matrices=False)
    return b, a @ vh, cut


def _graph_projection(b: np.ndarray, v: np.ndarray, cut: float, scale: float,
                      residual: float = 0.0) -> tuple[np.ndarray, float]:
    """e = (B B^* + V V^* - W - W^*) / 2 with W = V B^*: the projection onto
    the graph {x - W x : x in span(B)} of -W (Halmos, "Two subspaces").
    It kills every x + W x and fixes every x - W x.

    Certified for rows z_g = W x_g + r_g with ||x_g|| <= s = ``scale``,
    x_g within ``cut`` of span(B) and ||r_g|| <= r = ``residual`` from the
    numbers nu >= ||V^* V - 1|| and mu >= ||B^* V|| of the factors' small
    Gram blocks (B orthonormal).  Write
    x_g = B b_g + c_g, c_g orthogonal to span(B), so W x_g = V b_g and
    ||V|| <= sqrt(1 + nu).  Then
      |<x_g, x_h> - <z_g, z_h>| <= nu s^2 + cut^2 + 2 sqrt(1 + nu) s r + r^2,
      |<x_g, z_h>|              <= mu s^2 + sqrt(1 + nu) cut s + s r,
    and, as e = (B - V)(B - V)^* / 2 with ||B - V||^2 <= k = 2 + nu + 2 mu,
    (B - V)^* (B + V) = 1 - V^* V + B^* V - V^* B and (B - V)^* c_g = -V^* c_g,
      ||e (x_g + z_g)||         <= sqrt(k) ((nu + 2 mu) s + sqrt(1 + nu) cut) / 2
                                   + k r / 2.
    Each bound must meet the threshold of the relation it bounds: ``FLIP_TOL``
    for the Gram gap, ``OVERLAP_TOL`` for the other two.

    Returns e and a certified bound on ||e||: ||e|| = ||B - V||^2 / 2 <= k / 2,
    plus rounding.  Each of B B^*, V V^* and V B^* sums c terms per entry, c
    the number of columns of B, so it errs by about c 2^-52 times the
    Frobenius norms of its factors, each at most sqrt(c (1 + nu)); with the
    sums, the halving and the symmetrisation, e errs by less than
    2 (c + 2)^2 (1 + nu) 2^-52.  The c x c Grams behind nu and mu sum dim
    terms per entry, so k / 2 may read low by less than
    2 (c + 2) dim (1 + nu) 2^-52.
    """
    # Frobenius norms: upper bounds on nu and mu without an SVD.
    nu = float(np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])))
    mu = float(np.linalg.norm(dagger(b) @ v))
    lift = math.sqrt(1.0 + nu)
    k = 2.0 + nu + 2.0 * mu
    gram_gap = nu * scale**2 + cut**2 + 2 * lift * scale * residual + residual**2
    if gram_gap > FLIP_TOL:
        raise FlipInconsistencyError(f"Gram matrices may differ by {gram_gap:.3e}")
    cross = mu * scale**2 + lift * cut * scale + scale * residual
    if cross > OVERLAP_TOL:
        raise FlipInconsistencyError(f"spans may overlap, cross product {cross:.3e}")
    worst = math.sqrt(k) * ((nu + 2 * mu) * scale + lift * cut) / 2 + k * residual / 2
    if worst > OVERLAP_TOL:
        raise FlipInconsistencyError(f"projection may fail to kill sums: {worst:.3e}")
    w = v @ dagger(b)
    e = (b @ dagger(b) + v @ dagger(v) - w - dagger(w)) / 2
    dim, c = b.shape
    rounding = 2.0 * (c + 2) * (c + 2 + dim) * (1.0 + nu) * np.finfo(float).eps
    return (e + dagger(e)) / 2, k / 2 + rounding


def _left_basis(columns: np.ndarray, full: bool = True) -> tuple[np.ndarray, int, float]:
    """Left singular basis of ``columns``, the full one or, unless ``full``,
    the thin one, their numerical rank (singular values above 1e-10 of the
    largest count) and the rank cut, the largest singular value left out
    (0.0 at full rank): no column is farther from the span of the first
    ``rank`` basis vectors."""
    u, s, _ = np.linalg.svd(columns, full_matrices=full)
    rank = int(np.sum(s > 1e-10 * max(s[0] if s.size else 0.0, 1e-30)))
    return u, rank, float(s[rank]) if rank < s.size else 0.0


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
    A tolerance that is not finite and > 0 raises ``ParameterError``.
    """
    _check_tolerance(eps)
    xi = check_state(xi, dim=action.dim)
    eta = check_state(eta, dim=action.dim)
    folner = folner_set(action, gens, eps / 2)
    diffs = _difference_set(action, folner)
    eps_prime = eps / (2 * EXP_SERIES_CONSTANT)
    delta = eps_prime**2 / len(folner.elements)
    cross = (float(np.max(np.abs(_correlations(action, diffs, xi, eta))))
             + 3 * action.rep_defect)
    if cross <= OVERLAP_TOL:
        path, extras = _orthogonal_leg(action, folner, diffs, xi, eta, delta)
        extras["flip_bound"] = eps_prime * EXP_SERIES_CONSTANT
        legs = 1
    else:
        mid = _find_detour(action, diffs, xi, eta, delta)
        leg1, _ = _orthogonal_leg(action, folner, diffs, xi, mid, delta)
        leg2, _ = _orthogonal_leg(action, folner, diffs, mid, eta, delta)
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


def _correlations(action: GroupAction, diffs: DifferenceSet, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """c_k = <u_k x, y> for k in the difference set ``diffs`` = F^{-1} F.

    <u_g x, u_h y> = <u_h^* u_g x, y> is c_{h^{-1} g}, so the entries of the
    |F| x |F| matrix of orbit inner products are exactly the c_k.  For Z^d
    this holds to rounding: phi_g conj(phi_h) = phi_{g - h}, and c_k is the
    Fourier sum sum_j phi_kj (Q^* x)_j conj((Q^* y)_j), |D| dim work on the
    phase table of ``diffs``.  For a finite action with rep_defect d, u_h^*
    is within 2d of u_{h^{-1}} and u_{h^{-1}} u_g within d of u_{h^{-1} g},
    so each entry is within 3d of its c_k; the gates add that slack.
    """
    if diffs.phases is None:
        return _orbit(action, diffs.elements, x) @ y.conj()
    q = action.eigenbasis
    return diffs.phases @ ((dagger(q) @ x) * (dagger(q) @ y).conj())


def _orthogonal_leg(action, folner, diffs, xi, eta,
                    delta) -> tuple[UnitaryPath, dict]:
    """e^{i pi t hbar} with hbar the Folner average of the flip between the
    xi-orbit and its matched family zeta_g = W x_g (``_graph_factors``).
    ``_graph_projection`` certifies ||flip|| <= 1 + nu / 2 + mu plus
    rounding, so the flip is averaged without ``average_conjugates``' SVD
    gate when that bound is at most 1 + 1e-10, and through the gate
    otherwise."""
    corr_gap = float(np.max(np.abs(_correlations(action, diffs, xi, xi)
                                   - _correlations(action, diffs, eta, eta))))
    corr_gap += 6 * action.rep_defect
    if corr_gap >= delta:
        raise HypothesisError(
            f"orbit correlation gap {corr_gap:.3e} >= delta {delta:.3e}",
            measured_gap=corr_gap,
        )
    orbit_xi = _orbit(action, folner.elements, xi)
    b, v, cut = _graph_factors(orbit_xi, _orbit(action, folner.elements, eta))
    flip, flip_norm = _graph_projection(b, v, cut, _max_row_norm(orbit_xi))
    average = _average_conjugates if flip_norm <= 1.0 + 1e-10 else average_conjugates
    hbar = average(flip, folner, action)
    w, q = np.linalg.eigh(np.pi * hbar)
    path = UnitaryPath([PathSegment(0.0, 1.0, w, q, np.eye(action.dim, dtype=complex))])
    return path, {
        "delta": delta,
        "correlation_gap": corr_gap,
        "flip_error": float(np.linalg.norm(path.end() @ xi - v @ (dagger(b) @ xi))),
    }


@dataclass
class DifferenceSet:
    """F^{-1} F, and for Z^d the rows phi_k of its elements' eigenvalues."""

    elements: list
    phases: np.ndarray | None = None


def _difference_set(action: GroupAction, folner: FolnerSet) -> DifferenceSet:
    """F^{-1} F: the whole group for a finite action, where F is the group;
    for the centred box F of ``folner_set`` (Z^d) the centred box of twice
    the half-width, in sorted order, with its phase table."""
    if action.kind == "finite":
        return DifferenceSet(list(folner.elements))
    half = int(np.max(np.abs(folner.elements)))
    elements = list(itertools.product(range(-2 * half, 2 * half + 1), repeat=action.rank))
    return DifferenceSet(elements, action.phases(elements))


def _find_detour(action: GroupAction, diffs: DifferenceSet, xi: np.ndarray,
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
    # A cluster has radius tol / 2 about its first tuple, so phi_gj moves by
    # at most reach * tol / 2 inside it and clustering moves no correlation
    # by more than reach * tol = delta / 4; dropping the clusters below the
    # mass floor moves them by less than dim * floor = delta / 4.  reach is
    # the largest |g|_1 over the difference set, at its last corner.
    reach = max(sum(diffs.elements[-1]), 1)
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
        u, rank, _ = _left_basis(np.stack([a_all[cluster], b_all[cluster]], axis=1))
        if cluster.size <= rank:
            raise DetourFailureError(
                f"eigenvalue cluster at angles {np.round(angles[:, j], 12).tolist()} "
                f"has multiplicity {cluster.size}, not above the rank {rank} of "
                "the source and target components",
                best_residual=np.inf,
            )
        coords[cluster] = norm * u[:, rank]
    mid = q @ coords
    residual = float(np.max(np.abs(_correlations(action, diffs, mid, mid)
                                   - _correlations(action, diffs, xi, xi))))
    if residual >= delta:
        raise DetourFailureError(
            f"detour residual {residual:.3e} >= delta {delta:.3e}",
            best_residual=residual,
        )
    return mid
