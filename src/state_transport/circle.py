"""Circle partitions adapted to a finite-spectrum unitary, and arc-wise
state transport inside the spectral compressions.

Angles live on the unit-length circle [0, 1); arcs are half-open
intervals (a, b] taken cyclically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import MatrixUnits
from .errors import (
    DegenerateWindowError,
    DimensionError,
    HypothesisError,
    InfeasiblePartitionError,
)
from .linalg import _unitary_eig, check_state, check_unitary, dagger, op_norm
from .path import PathSegment, UnitaryPath, merge_orthogonal_paths
from .transport import commutant_transport

ANGLE_CLUSTER_TOL = 1e-9


@dataclass
class SpectralModel:
    """A unitary with finite spectrum, resolved into eigenangle clusters.

    ``eigenangles`` are in [0, 1); ``eigenprojections[k]`` is the spectral
    projection of angle k; z = sum exp(2 pi i angle) P within 1e-10.
    """

    z: np.ndarray
    eigenangles: np.ndarray
    eigenprojections: np.ndarray  # shape (m, dim, dim)

    @property
    def dim(self) -> int:
        return self.z.shape[0]

    @classmethod
    def from_unitary(cls, z: np.ndarray) -> "SpectralModel":
        z = check_unitary(z)
        lam, q = _unitary_eig(z)
        angles = np.mod(np.angle(lam) / (2 * np.pi), 1.0)
        order = np.argsort(angles, kind="stable")
        angles = angles[order]
        q = q[:, order]
        # Cluster nearly equal angles (cyclically) into joint projections.
        groups: list[list[int]] = []
        for idx in range(angles.size):
            if groups and angles[idx] - angles[groups[-1][-1]] < ANGLE_CLUSTER_TOL:
                groups[-1].append(idx)
            else:
                groups.append([idx])
        if len(groups) > 1 and (1.0 - angles[groups[-1][0]]) + angles[0] < ANGLE_CLUSTER_TOL:
            groups[0] = groups.pop() + groups[0]
        reps = []
        projs = []
        for g in groups:
            cols = q[:, g]
            projs.append(cols @ dagger(cols))
            reps.append(angles[g[-1]] if g[0] > g[-1] else angles[g[0]])
        return cls(
            z=z,
            eigenangles=np.array(reps),
            eigenprojections=np.array(projs),
        )

    def reconstruction_defect(self) -> float:
        rebuilt = np.einsum(
            "k,kab->ab", np.exp(2j * np.pi * self.eigenangles), self.eigenprojections
        )
        return op_norm(self.z - rebuilt)

    def point_masses(self, xi: np.ndarray) -> np.ndarray:
        """Spectral mass of xi at each eigenangle."""
        return np.array(
            [np.vdot(xi, p @ xi).real for p in self.eigenprojections]
        )

    def arc_projection(self, a: float, b: float) -> np.ndarray:
        mask = _in_arc(self.eigenangles, a, b)
        return np.einsum("kab->ab", self.eigenprojections[mask]) if mask.any() \
            else np.zeros((self.dim, self.dim), dtype=complex)

    def arc_mass(self, xi: np.ndarray, a: float, b: float) -> float:
        masses = self.point_masses(xi)
        return float(np.sum(masses[_in_arc(self.eigenangles, a, b)]))


def _in_arc(angles: np.ndarray, a: float, b: float) -> np.ndarray:
    """Membership in the cyclic half-open arc (a, b]."""
    span = (b - a) % 1.0
    if span == 0.0:
        span = 1.0
    d = (angles - a) % 1.0
    return (d > 0.0) & (d <= span)


@dataclass
class CirclePartition:
    """Cut points on the unit circle with certified gap and margin bounds."""

    points: np.ndarray  # increasing in [0, 1)
    gap_lo: float  # strict lower bound on consecutive distances
    gap_hi: float  # strict upper bound
    gamma: float  # margin half-window is gamma / 2
    delta: float = 0.0  # moment-tolerance bookkeeping for the requested bounds
    moments: int = 0  # number of moments the bookkeeping refers to

    @property
    def size(self) -> int:
        return self.points.size

    def gaps(self) -> np.ndarray:
        p = self.points
        return np.diff(np.append(p, p[0] + 1.0))

    def arcs(self) -> list[tuple[float, float]]:
        """Consecutive arcs (t_{i-1}, t_i], cyclically."""
        p = self.points
        return [((p[i - 1]) % 1.0, p[i]) for i in range(1, p.size)] + [
            (p[-1], p[0] + 1.0)
        ]

    def gap_defect(self) -> float:
        g = self.gaps()
        return float(max(np.max(self.gap_lo - g, initial=0.0),
                         np.max(g - self.gap_hi, initial=0.0)))


def circle_partition(model: SpectralModel, xi: np.ndarray, eta: np.ndarray,
                     eps: float, eps_prime: float) -> CirclePartition:
    """Cut points with gaps in (eps/2, 3 eps/2) whose gamma-margins carry
    spectral mass < eps_prime for both vectors, gamma = eps * eps_prime / 4.

    Cut search scans each admissible window on a grid of pitch gamma/4,
    taking the feasible point of least combined margin mass, ties to the
    smallest angle.  Spectral masses are exact, so feasibility of every
    window follows from the mass-pigeonhole count whenever the margin
    hypothesis holds.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    if not (0 < eps < 2.0) or not (0 < eps_prime < 1.0):
        raise ValueError("need 0 < eps < 2 and 0 < eps_prime < 1")
    gamma = eps * eps_prime / 4.0
    mx = model.point_masses(xi)
    me = model.point_masses(eta)
    angles = model.eigenangles

    def margin_mass(t: float) -> float:
        mask = _in_arc(angles, (t - gamma / 2) % 1.0, (t + gamma / 2) % 1.0)
        return float(np.sum(mx[mask]) + np.sum(me[mask]))

    def margin_ok(t: float) -> bool:
        mask = _in_arc(angles, (t - gamma / 2) % 1.0, (t + gamma / 2) % 1.0)
        return float(np.sum(mx[mask])) < eps_prime and float(np.sum(me[mask])) < eps_prime

    def best_cut(lo: float, hi: float) -> float:
        # Grid of pitch gamma/4, capped, plus midpoints of adjacent atom
        # gaps inside the window: with finite spectrum, any point farther
        # than gamma/2 from every atom has margin mass exactly zero.
        pitch = max(gamma / 4, (hi - lo) / 256)
        grid = np.arange(lo + pitch, hi + 1e-15, pitch)
        if grid.size == 0 or grid[-1] < hi - 1e-15:
            grid = np.append(grid, hi)
        lifted = np.sort(np.concatenate([angles - 1.0, angles, angles + 1.0]))
        mids = (lifted[:-1] + lifted[1:]) / 2
        mids = mids[(mids > lo) & (mids <= hi)]
        grid = np.sort(np.concatenate([grid, mids]), kind="stable")
        best_t, best_m = None, np.inf
        for t in grid:
            if not margin_ok(t):
                continue
            m = margin_mass(t)
            if m < best_m - 1e-15:
                best_t, best_m = t, m
        if best_t is None:
            raise InfeasiblePartitionError(
                f"no cut with margin mass < {eps_prime} in window "
                f"({lo:.6f}, {hi:.6f}]"
            )
        return float(best_t)

    first = best_cut(0.0, eps / 2)
    cuts = [first]
    # Keep cutting while the return gap to the first point is >= 3 eps / 2;
    # the window's upper end is clipped so the final gap stays > eps / 2.
    while (first + 1.0) - cuts[-1] >= 1.5 * eps:
        lo = cuts[-1] + eps / 2
        hi = min(cuts[-1] + eps, first + 1.0 - eps / 2 - gamma / 8)
        cuts.append(best_cut(lo, hi))
    points = np.mod(np.array(cuts), 1.0)
    points.sort(kind="stable")
    # Fourier-moment bookkeeping for the requested bounds: a smooth margin
    # window needs moments up to n with tolerance delta to resolve masses
    # at scale gamma.
    moments = int(np.ceil(8.0 / gamma))
    part = CirclePartition(
        points=points,
        gap_lo=eps / 2,
        gap_hi=1.5 * eps,
        gamma=gamma,
        delta=eps_prime / (2 * moments + 1),
        moments=moments,
    )
    if part.gap_defect() > 0:
        raise InfeasiblePartitionError("gap invariant violated by the cut search")
    return part


def window_function(arc: tuple[float, float], gamma: float):
    """Continuous [0, 1]-valued window on the circle: 1 on the gamma/2-shrunk
    arc, 0 outside the arc, linear ramps of width gamma/2 at both ends."""
    a, b = arc
    span = (b - a) % 1.0
    if span == 0.0:
        span = 1.0
        return lambda t: 1.0
    if span < gamma:
        raise DegenerateWindowError(
            f"arc of length {span:.6f} shorter than gamma {gamma:.6f}"
        )
    ramp = gamma / 2

    def window(t: float) -> float:
        d = (t - a) % 1.0
        if d <= 0.0 or d > span:
            return 0.0
        if d < ramp:
            return d / ramp
        if span - d < ramp:
            return (span - d) / ramp
        return 1.0

    return window


def evaluate_window(model: SpectralModel, window) -> np.ndarray:
    """Spectral calculus: sum of window(angle) times the angle projection."""
    vals = np.array([window(t) for t in model.eigenangles])
    return np.einsum("k,kab->ab", vals, model.eigenprojections)


@dataclass
class ArcRow:
    index: int
    mass_xi: float
    mass_eta: float
    skipped: bool
    terminal_contribution: float


@dataclass
class ArcTransportResult:
    path: UnitaryPath
    partition: CirclePartition
    rows: list[ArcRow]
    terminal_error: float
    z_commutator_sup: float
    family_commutator_sup: float
    terminal_bound: float
    z_commutator_bound: float
    extras: dict = field(default_factory=dict)


def arc_transport(block: MatrixUnits, model: SpectralModel, xi: np.ndarray,
                  eta: np.ndarray, family: list[np.ndarray], eps: float,
                  t_samples: int = 16) -> ArcTransportResult:
    """Transport xi toward eta arc by arc inside the spectral compressions
    of z, commuting with the matrix-unit block throughout.

    Low-mass arcs (min mass <= eps^{3/2}) are skipped.  The summed path
    obeys ||[u(t), z]|| < 3 pi eps, commutes with the block units, and has
    terminal error < 2 sqrt(3) eps on admissible instances.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    if block.ambient_dim != model.dim:
        raise DimensionError("block and spectral model dimensions differ")
    z_block_defect = max(
        op_norm(block.unit(i, j) @ model.z - model.z @ block.unit(i, j))
        for i in range(block.n) for j in range(block.n)
    )
    if z_block_defect > 1e-9:
        raise HypothesisError(
            "block does not commute with the distinguished unitary",
            measured_gap=z_block_defect,
        )
    k = block.n
    delta_prime = eps**2 / k**2
    eps_prime = eps**3 * delta_prime / 4.0
    partition = circle_partition(model, xi, eta, eps, eps_prime)
    skip_level = eps**1.5

    rows = []
    lifted = []
    worst_stats_gap = 0.0
    for idx, (a, b) in enumerate(partition.arcs()):
        q = model.arc_projection(a, b)
        qxi = q @ xi
        qeta = q @ eta
        m_xi = float(np.vdot(qxi, qxi).real)
        m_eta = float(np.vdot(qeta, qeta).real)
        if min(m_xi, m_eta) <= skip_level:
            rows.append(ArcRow(idx, m_xi, m_eta,
                               skipped=True,
                               terminal_contribution=float(np.sqrt(m_xi + m_eta))))
            continue
        basis = _projection_basis(q)
        sub_units = np.einsum(
            "ak,ijab,bl->ijkl", basis.conj(), block.units, basis
        )
        sub_block = MatrixUnits(n=k, units=sub_units)
        src = dagger(basis) @ (qxi / np.sqrt(m_xi))
        dst = dagger(basis) @ (qeta / np.sqrt(m_eta))
        res = commutant_transport(sub_block, src, dst, eps, exact=True)
        worst_stats_gap = max(worst_stats_gap, res.measured_gap)
        lifted.append(_lift_path(res.path, basis, model.dim))
        rows.append(ArcRow(idx, m_xi, m_eta, skipped=False,
                           terminal_contribution=abs(np.sqrt(m_xi) - np.sqrt(m_eta))))

    if lifted:
        path = merge_orthogonal_paths([p.rescaled(0.0, 1.0) for p in lifted])
    else:
        path = UnitaryPath.constant(model.dim)

    terminal = float(np.linalg.norm(path.end() @ xi - eta))
    z_sup = 0.0
    fam_sup = 0.0
    for t in path.sample_times(t_samples):
        ut = path.at(t)
        z_sup = max(z_sup, op_norm(ut @ model.z - model.z @ ut))
        for x in family:
            fam_sup = max(fam_sup, op_norm(ut @ x - x @ ut))
    return ArcTransportResult(
        path=path,
        partition=partition,
        rows=rows,
        terminal_error=terminal,
        z_commutator_sup=z_sup,
        family_commutator_sup=fam_sup,
        terminal_bound=2 * np.sqrt(3.0) * eps,
        z_commutator_bound=3 * np.pi * eps,
        extras={
            "eps_prime": eps_prime,
            "delta_prime": delta_prime,
            "skip_level": skip_level,
            "stats_gap": worst_stats_gap,
        },
    )


def _projection_basis(q: np.ndarray) -> np.ndarray:
    """Orthonormal column basis of the range of a projection."""
    w, v = np.linalg.eigh((q + dagger(q)) / 2)
    return v[:, w > 0.5]


def _lift_path(path: UnitaryPath, basis: np.ndarray, ambient: int) -> UnitaryPath:
    """Extend a path on a subspace (columns of ``basis``) by the identity."""
    comp = np.eye(ambient, dtype=complex) - basis @ dagger(basis)
    segs = [
        PathSegment(
            s.t0,
            s.t1,
            basis @ s.generator @ dagger(basis),
            basis @ s.base @ dagger(basis) + comp,
        )
        for s in path.segments
    ]
    return UnitaryPath(segs)
