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
    ArcOutsideBlockError,
    DegenerateWindowError,
    DimensionError,
    HypothesisError,
    InfeasiblePartitionError,
    ParameterError,
)
from .linalg import _unitary_eig, check_state, check_unitary, dagger, op_norm
from .path import UnitaryPath, concat_paths, joined_segment
from .transport import commutant_transport

ANGLE_CLUSTER_TOL = 1e-9


@dataclass
class SpectralModel:
    """A unitary with finite spectrum, resolved into eigenangle clusters.

    ``eigenbasis`` holds the eigenvectors of z (``_unitary_eig``) as
    columns, sorted by angle, and ``labels[j]`` is the cluster of column j;
    cluster k has the angle ``eigenangles[k]`` in [0, 1).  Its spectral
    projection is Q_k Q_k^* for the columns Q_k with label k, so
    z = Q diag(exp(2 pi i eigenangles[labels])) Q^* within 1e-10 and the
    spectral compression of an arc is spanned by a slice of the columns.
    """

    z: np.ndarray
    eigenangles: np.ndarray  # shape (m,)
    eigenbasis: np.ndarray  # shape (dim, dim), unitary
    labels: np.ndarray  # shape (dim,), values in range(m)

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
        # Neighbours closer than the tolerance chain into one cluster, whose
        # angle is that of its first member; a last cluster that wraps
        # through 0 joins the first, which then takes its own last angle.
        starts = np.diff(angles, prepend=-np.inf) >= ANGLE_CLUSTER_TOL
        labels = np.cumsum(starts) - 1
        first = np.flatnonzero(starts)
        reps = angles[first]
        if first.size > 1 and (1.0 - angles[first[-1]]) + angles[0] < ANGLE_CLUSTER_TOL:
            reps = np.append(angles[first[1] - 1], reps[1:-1])
            labels[labels == first.size - 1] = 0
        return cls(z=z, eigenangles=reps, eigenbasis=q[:, order], labels=labels)

    def _spectral_sum(self, values: np.ndarray) -> np.ndarray:
        """sum_k values[k] times the projection of cluster k."""
        q = self.eigenbasis
        return (q * values[self.labels]) @ dagger(q)

    def reconstruction_defect(self) -> float:
        return op_norm(self.z - self._spectral_sum(np.exp(2j * np.pi * self.eigenangles)))

    def point_masses(self, xi: np.ndarray) -> np.ndarray:
        """Spectral mass of xi at each eigenangle."""
        return np.bincount(self.labels, np.abs(dagger(self.eigenbasis) @ xi) ** 2,
                           minlength=self.eigenangles.size)

    def arc_basis(self, a: float, b: float) -> np.ndarray:
        """Orthonormal columns spanning the spectral compression of (a, b]."""
        return self.eigenbasis[:, _in_arc(self.eigenangles, a, b)[self.labels]]


def _in_arc(angles: np.ndarray, a, b) -> np.ndarray:
    """Membership in the cyclic half-open arc (a, b]; arrays of end points
    broadcast against ``angles``."""
    span = (b - a) % 1.0
    span = np.where(span == 0.0, 1.0, span)
    d = (angles - a) % 1.0
    return (d > 0.0) & (d <= span)


def _window_masses(angles: np.ndarray, masses: np.ndarray, centres: np.ndarray,
                   half: float) -> np.ndarray:
    """Mass in the arc (t - half, t + half] for every centre t, one row per
    row of ``masses``.  The last column of ``add.accumulate`` adds a window's
    atoms in index order, as ``np.sum`` of the masked masses does below
    eight terms, so the sums equal a per-centre ``np.sum`` bit for bit.
    With no atom every mass is 0.0."""
    if angles.size == 0:
        return np.zeros(masses.shape[:-1] + centres.shape)
    window = _in_arc(angles, ((centres - half) % 1.0)[:, None],
                     ((centres + half) % 1.0)[:, None])
    return np.add.accumulate(np.where(window, masses[..., None, :], 0.0), axis=-1)[..., -1]


@dataclass
class CirclePartition:
    """Cut points on the unit circle with certified gap and margin bounds."""

    points: np.ndarray  # increasing in [0, 1)
    gap_lo: float  # strict lower bound on consecutive distances
    gap_hi: float  # strict upper bound
    gamma: float  # margin half-window is gamma / 2

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
    hypothesis holds.  A window's margin masses are summed over the atoms
    within gamma + 1e-12 of it, every atom when that neighbourhood covers
    the circle: no other atom lies in any margin of its grid, each would
    add exactly 0.0 in index order, so the masses and cuts are those of a
    sum over every atom, bit for bit.
    """
    xi = check_state(xi)
    eta = check_state(eta)
    if not (0 < eps < 2.0) or not (0 < eps_prime < 1.0):
        raise ParameterError("need 0 < eps < 2 and 0 < eps_prime < 1")
    gamma = eps * eps_prime / 4.0
    masses = np.stack([model.point_masses(xi), model.point_masses(eta)])
    angles = model.eigenangles
    lifted = np.sort(np.concatenate([angles - 1.0, angles, angles + 1.0]))
    gap_mids = (lifted[:-1] + lifted[1:]) / 2
    reach = gamma + 1e-12

    def best_cut(lo: float, hi: float) -> float:
        # Grid of pitch gamma/4, capped, plus midpoints of adjacent atom
        # gaps inside the window: with finite spectrum, any point farther
        # than gamma/2 from every atom has margin mass exactly zero.
        pitch = max(gamma / 4, (hi - lo) / 256)
        grid = np.arange(lo + pitch, hi + 1e-15, pitch)
        if grid.size == 0 or grid[-1] < hi - 1e-15:
            grid = np.append(grid, hi)
        mids = gap_mids[(gap_mids > lo) & (gap_mids <= hi)]
        grid = np.sort(np.concatenate([grid, mids]), kind="stable")
        near = (slice(None) if hi - lo + 2 * reach >= 1.0
                else _in_arc(angles, (lo - reach) % 1.0, (hi + reach) % 1.0))
        sx, se = _window_masses(angles[near], masses[:, near], grid, gamma / 2)
        feasible = (sx < eps_prime) & (se < eps_prime)
        if not feasible.any():
            raise InfeasiblePartitionError(
                f"no cut with margin mass < {eps_prime} in window "
                f"({lo:.6f}, {hi:.6f}]"
            )
        ts, ms = grid[feasible], (sx + se)[feasible]
        # The least mass wins, ties (within 1e-15) to the smallest angle:
        # scanning in grid order, a point replaces the best only if it is
        # lower by more than 1e-15, so only strict running minima can, and
        # the scan visits those alone.
        record = ms < np.minimum.accumulate(np.append(np.inf, ms[:-1]))
        best_t, best_m = None, np.inf
        for t, m in zip(ts[record], ms[record]):
            if m < best_m - 1e-15:
                best_t, best_m = t, m
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
    part = CirclePartition(points=points, gap_lo=eps / 2, gap_hi=1.5 * eps, gamma=gamma)
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
    return model._spectral_sum(np.array([window(t) for t in model.eigenangles]))


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

    Low-mass arcs (min mass <= eps^{3/2}) are skipped.  Each other arc takes
    ``commutant_transport`` of its normalised components in the block
    compressed to it (``_compress_units``), with the exact repair.  The arcs
    act on mutually orthogonal column blocks of z's eigenbasis, so their
    generators, lifted by the arc bases, sum to one segment from the
    identity; arcs that took a repair add one second segment (``_arc_path``).
    The summed path obeys ||[u(t), z]|| < 3 pi eps, commutes with the block
    units, and has terminal error < 2 sqrt(3) eps on admissible instances.
    Both sups are certified bounds over every t; ``t_samples`` is accepted
    and ignored.
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
    # Per transported arc, its generators over unit time lifted by its basis:
    # the transport's, and the repair's when one was appended.
    generators = ([], [])
    repairs = ([], [])
    transported = []
    worst_stats_gap = 0.0
    for idx, (a, b) in enumerate(partition.arcs()):
        basis = model.arc_basis(a, b)
        src = dagger(basis) @ xi
        dst = dagger(basis) @ eta
        m_xi = float(np.vdot(src, src).real)
        m_eta = float(np.vdot(dst, dst).real)
        if min(m_xi, m_eta) <= skip_level:
            rows.append(ArcRow(idx, m_xi, m_eta,
                               skipped=True,
                               terminal_contribution=float(np.sqrt(m_xi + m_eta))))
            continue
        sub_block = _compress_units(block, basis)
        if sub_block.multiplicity == 0:
            raise ArcOutsideBlockError(
                f"arc {idx} ({a:.6f}, {b:.6f}] carries mass but its spectral "
                "subspace misses the matrix-unit block",
                arc_index=idx,
            )
        res = commutant_transport(sub_block, src / np.sqrt(m_xi), dst / np.sqrt(m_eta),
                                  eps, exact=True)
        worst_stats_gap = max(worst_stats_gap, res.measured_gap)
        for seg, (ws, vs) in zip(res.path.segments, (generators, repairs)):
            ws.append(seg.w * seg.duration)
            vs.append(basis @ seg.v)
        transported.append((a, b))
        rows.append(ArcRow(idx, m_xi, m_eta, skipped=False,
                           terminal_contribution=abs(np.sqrt(m_xi) - np.sqrt(m_eta))))

    path = _arc_path(model.dim, generators, repairs)

    return ArcTransportResult(
        path=path,
        partition=partition,
        rows=rows,
        terminal_error=float(np.linalg.norm(path.end() @ xi - eta)),
        z_commutator_sup=_z_commutator_bound(model, path, transported),
        family_commutator_sup=path.commutator_bound(family),
        terminal_bound=2 * np.sqrt(3.0) * eps,
        z_commutator_bound=3 * np.pi * eps,
        extras={
            "eps_prime": eps_prime,
            "delta_prime": delta_prime,
            "skip_level": skip_level,
            "stats_gap": worst_stats_gap,
        },
    )


def _z_commutator_bound(model: SpectralModel, path: UnitaryPath,
                        arcs: list[tuple[float, float]]) -> float:
    """Certified sup over t of ||[u(t), z]|| for the path merged over the
    transported ``arcs``, with no path evaluation.  u(t) preserves each
    arc's columns Q_k of Q and fixes the rest; with z = Q Λ Q^* + R, each
    block [u_k, Λ_k - λ] has norm <= 2 ||Λ_k - λ|| <= 2 sin(π s) for λ the
    midpoint of the chord between the arc's extreme eigenvalues, s turns
    apart (s <= 1/2; λ = 0 gives 2 beyond).  Hence the largest 2 sin(π s),
    plus 2 ||R|| and the rounding allowance of
    ``UnitaryPath.commutator_bound``; 0.0 with no arc."""
    if not arcs:
        return 0.0
    angles = model.eigenangles
    spread = max(np.ptp((angles[_in_arc(angles, a, b)] - a) % 1.0) for a, b in arcs)
    structural = 2 * np.sin(np.pi * min(spread, 0.5))
    turn = max(s.duration * np.linalg.norm(s.w) for s in path.segments)
    allowance = model.dim * np.finfo(float).eps * np.linalg.norm(model.z) * (1.0 + turn)
    return float(structural + 2 * model.reconstruction_defect() + allowance)


def _arc_path(dim: int, generators: tuple[list, list],
              repairs: tuple[list, list]) -> UnitaryPath:
    """The arc transports as one path: every arc basis is a column block of
    the one eigenbasis of z, so the arcs' generators act on mutually
    orthogonal subspaces and their sum is one segment from the identity
    (``joined_segment``: the angles concatenated, the lifted columns side
    by side, checked orthonormal).  The repairs, when an arc took one, sum
    to a second segment, run after the first (``concat_paths``).  With no
    arc transported, the constant path."""
    if not generators[0]:
        return UnitaryPath.constant(dim)
    eye = np.eye(dim, dtype=complex)
    path = UnitaryPath([joined_segment(0.0, 1.0, *generators, eye)])
    if repairs[0]:
        path = concat_paths(path, UnitaryPath([joined_segment(0.0, 1.0, *repairs, eye)]))
    return path


def _compress_units(block: MatrixUnits, basis: np.ndarray) -> MatrixUnits:
    """The units basis^* e_ij basis on a reducing subspace (the m columns of
    ``basis``).  W = basis^* V has W^* W = 1_n (x) p, where p = C^* C for
    the m x r corner C = basis^* V_0 is a projection of rank r' <= min(m, r).
    C C^* is m x m, the arc's size rather than the block's multiplicity, with
    the same eigenvalues 1: for its r' orthonormal eigenvectors U of
    eigenvalue lam > 1/2, P = C^* U lam^{-1/2} are orthonormal eigenvectors
    of p for 1, and W (1_n (x) P) is an isometry for the same units."""
    m = basis.shape[1]
    w = (dagger(basis) @ block.isometry).reshape(m, block.n, -1)
    corner = w[:, 0, :]
    vals, vecs = np.linalg.eigh(corner @ dagger(corner))
    keep = vals > 0.5
    p = dagger(corner) @ (vecs[:, keep] / np.sqrt(vals[keep]))
    return MatrixUnits(block.n, (w @ p).reshape(m, -1))
