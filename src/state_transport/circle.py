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
from .gram import NORMALIZED_FAMILY_TOL, _check_gate, _gate_measures
from .linalg import (_adjoint, _norm_upper, _transpose, _unitary_eig, check_state, check_unitary,
                     dagger, op_norm)
from .path import UnitaryPath, summed_path
from .transport import _corner_rotations, _geodesic, invert_alignment_bound

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

    def _reconstruction_residual(self) -> np.ndarray:
        """R = z - Q diag(exp(2 pi i eigenangles[labels])) Q^*."""
        return self.z - self._spectral_sum(np.exp(2j * np.pi * self.eigenangles))

    def reconstruction_defect(self) -> float:
        return op_norm(self._reconstruction_residual())

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
    sum over every atom, bit for bit.  States of another length than the
    model's raise ``DimensionError``.
    """
    xi = check_state(xi, dim=model.dim)
    eta = check_state(eta, dim=model.dim)
    return _circle_partition(model, xi, eta, eps, eps_prime)


def _circle_partition(model: SpectralModel, xi: np.ndarray, eta: np.ndarray,
                      eps: float, eps_prime: float) -> CirclePartition:
    """``circle_partition`` for states the caller has already validated;
    eps and eps_prime are checked here.  A grid point with no atom within
    gamma/2 + 1e-12 has the margin masses 0.0, the least there are, so a
    window whose first grid point is such a point cuts there without any
    mass computed, and a window's masses are summed only at the grid
    points within that reach of an atom; the cuts are those of the full
    scan, bit for bit."""
    if not (0 < eps < 2.0) or not (0 < eps_prime < 1.0):
        raise ParameterError("need 0 < eps < 2 and 0 < eps_prime < 1")
    gamma = eps * eps_prime / 4.0
    masses = np.stack([model.point_masses(xi), model.point_masses(eta)])
    angles = model.eigenangles
    lifted = np.sort(np.concatenate([angles - 1.0, angles, angles + 1.0]))
    gap_mids = (lifted[:-1] + lifted[1:]) / 2
    reach = gamma + 1e-12
    clear = gamma / 2 + 1e-12

    def best_cut(lo: float, hi: float) -> float:
        # Grid of pitch gamma/4, capped, plus midpoints of adjacent atom
        # gaps inside the window: with finite spectrum, any point farther
        # than gamma/2 from every atom has margin mass exactly zero.  Such a
        # point has the least masses there are, so when the first grid
        # point is one it wins, and only the points within gamma/2 + 1e-12
        # of an atom need their masses summed.
        pitch = max(gamma / 4, (hi - lo) / 256)
        mids = gap_mids[(gap_mids > lo) & (gap_mids <= hi)]
        first = min([lo + pitch if lo + pitch < hi + 1e-15 else hi, *mids[:1]])
        if not np.any(np.abs((first - angles + 0.5) % 1.0 - 0.5) <= clear):
            return float(first)
        grid = np.arange(lo + pitch, hi + 1e-15, pitch)
        if grid.size == 0 or grid[-1] < hi - 1e-15:
            grid = np.append(grid, hi)
        grid = np.sort(np.concatenate([grid, mids]), kind="stable")
        near = (slice(None) if hi - lo + 2 * reach >= 1.0
                else _in_arc(angles, (lo - reach) % 1.0, (hi + reach) % 1.0))
        hit = np.any(np.abs((grid[:, None] - angles[near] + 0.5) % 1.0 - 0.5) <= clear,
                     axis=1)
        sx, se = np.zeros((2, grid.size))
        sx[hit], se[hit] = _window_masses(angles[near], masses[:, near], grid[hit], gamma / 2)
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

    Low-mass arcs (min mass <= eps^{3/2}) are skipped.  Each other arc
    takes ``commutant_transport`` of its normalised components in the block
    compressed to it, with the exact repair.  The arcs are column blocks
    of z's one eigenbasis Q, so every arc is computed at once in the sorted
    coordinates Q^* xi, Q^* eta and Q^* V (``_transport_arcs``), and their
    generators, lifted by Q, sum to one segment from the identity; arcs
    that took a repair add one second segment (``summed_path``).  The summed
    path obeys ||[u(t), z]|| < 3 pi eps, commutes with the block units,
    and has terminal error < 2 sqrt(3) eps on admissible instances.  Both
    sups are certified bounds over every t; ``t_samples`` is accepted and
    ignored.  The states and eps are validated once, the states here and
    eps by the partition.  The first failing arc, in arc order, raises:
    ``ArcOutsideBlockError`` for an arc whose subspace misses the block,
    ``HypothesisError`` with its family weight or Gram gap otherwise.
    """
    if block.ambient_dim != model.dim:
        raise DimensionError("block and spectral model dimensions differ")
    xi = check_state(xi, dim=model.dim)
    eta = check_state(eta, dim=model.dim)
    z_block_defect = _z_block_defect(block, model.z)
    if z_block_defect > 1e-9:
        raise HypothesisError(
            "block does not commute with the distinguished unitary",
            measured_gap=z_block_defect,
        )
    k = block.n
    delta_prime = eps**2 / k**2
    eps_prime = eps**3 * delta_prime / 4.0
    partition = _circle_partition(model, xi, eta, eps, eps_prime)
    skip_level = eps**1.5

    qh = dagger(model.eigenbasis)
    coords = np.stack([qh @ xi, qh @ eta])
    arcs = partition.arcs()
    starts, ends = np.array(arcs).T
    inside = _in_arc(model.eigenangles, starts[:, None], ends[:, None])
    member = inside[:, model.labels]
    masses = member @ (np.abs(coords.T) ** 2)
    skipped = np.min(masses, axis=1) <= skip_level
    roots = np.sqrt(masses)
    rows = [ArcRow(idx, float(m_xi), float(m_eta), skipped=bool(skip),
                   terminal_contribution=float(np.sqrt(m_xi + m_eta) if skip
                                               else abs(r_xi - r_eta)))
            for idx, ((m_xi, m_eta), (r_xi, r_eta), skip)
            in enumerate(zip(masses, roots, skipped))]
    moving = np.flatnonzero(~skipped)
    turn, repair, stats_gap = _transport_arcs(
        (qh @ block.isometry).reshape(model.dim, block.n, -1), coords,
        member[moving], roots[moving], moving, arcs, eps)
    q = model.eigenbasis
    path = summed_path(model.dim, [(w, q @ v) for w, v in turn],
                       [(w, q @ v) for w, v in repair])

    return ArcTransportResult(
        path=path,
        partition=partition,
        rows=rows,
        terminal_error=float(np.linalg.norm(path.apply(path.t_end, xi) - eta)),
        z_commutator_sup=_z_commutator_bound(model, path, starts[moving],
                                             inside[moving]),
        family_commutator_sup=path.commutator_bound(family),
        terminal_bound=2 * np.sqrt(3.0) * eps,
        z_commutator_bound=3 * np.pi * eps,
        extras={
            "eps_prime": eps_prime,
            "delta_prime": delta_prime,
            "skip_level": skip_level,
            "stats_gap": stats_gap,
        },
    )


def _z_block_defect(block: MatrixUnits, z: np.ndarray) -> float:
    """max over i, j of ||[e_ij, z]||, each commutator formed from z V and
    V^* z as V_i (V^* z)_j - (z V)_i V_j^*: one product of inner dimension
    2 r per pair, with no dim x dim unit.  A block that commutes with z
    structurally, as in the benchmark, gives exact zeros, whose norm takes
    no SVD (``op_norm``)."""
    n, dim = block.n, block.ambient_dim
    v = block._blocks()
    zv = (z @ block.isometry).reshape(dim, n, -1)
    vz = (dagger(block.isometry) @ z).reshape(n, -1, dim)
    left = np.concatenate([v, -zv], axis=2).transpose(1, 0, 2)
    right = np.concatenate([vz, v.conj().transpose(1, 2, 0)], axis=1)
    return max(op_norm(a @ b) for a in left for b in right)


def _transport_arcs(w: np.ndarray, coords: np.ndarray, member: np.ndarray,
                    roots: np.ndarray, index: np.ndarray, arcs: list, eps: float):
    """The transports of the arcs that carry mass, all at once in the sorted
    eigen-coordinates: ``member`` marks each arc's columns of Q, ``w`` is
    Q^* V as (dim, n, r), ``coords`` the rows Q^* xi and Q^* eta, ``roots``
    the square roots of the arcs' masses and ``index`` their arc indices.

    Each arc's columns, in Q's order, are gathered into rows zero-padded to
    the widest arc, where the block compresses to units of multiplicity r'
    (``_compress``) and the normalised components give the corner families
    X and Y (``_gates`` checks them).  The corner rotations
    (``_corner_rotations``) lift to the arc's generator columns
    S (1_n (x) q), and u(1) moves x to x + S vec(X (U - 1)^T); an arc left
    more than 1e-13 from y takes the geodesic repair from there, a second
    stack.

    Returns the summed generator (w, v) in the sorted coordinates with its
    zero angles dropped and the repairs' likewise, each as a list of at
    most one pair, and the largest Gram gap; ([], [], 0.0) with no arc."""
    if not index.size:
        return [], [], 0.0
    arc, col = np.nonzero(member)
    sizes = member.sum(axis=1)
    pos = np.arange(col.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    shape = (index.size, int(sizes.max()))
    units = np.zeros(shape + w.shape[1:], dtype=complex)
    units[arc, pos] = w[col]
    x, y = np.zeros((2,) + shape, dtype=complex)
    x[arc, pos], y[arc, pos] = coords[:, col]
    x, y = x / roots[:, :1], y / roots[:, 1:]
    units, ranks = _compress(units)
    fx = np.einsum("am,amjs->ajs", x, units.conj())
    fy = np.einsum("am,amjs->ajs", y, units.conj())
    gap = _gates(fx, fy, ranks, index, arcs, eps)

    angles, vectors = _corner_rotations(fx, fy, ranks)
    turn = ((fx @ vectors.conj()) * (np.exp(1j * angles) - 1.0)[:, None]) @ _transpose(vectors)
    moved = x + np.einsum("amjs,ajs->am", units, turn)
    lifted = (units @ vectors[:, None]).reshape(shape + (-1,))
    repairs = np.linalg.norm(moved - y, axis=1) > 1e-13
    repair = []
    if repairs.any():
        rep_w, rep_v = np.zeros((index.size, 2)), np.zeros(shape + (2,), dtype=complex)
        ends = moved[repairs]
        rep_w[repairs], rep_v[repairs] = _geodesic(
            ends / np.linalg.norm(ends, axis=1)[:, None], y[repairs])
        repair = [_scatter(rep_w, rep_v, arc, pos, col, len(w))]
    return [_scatter(np.tile(angles, w.shape[1]), lifted, arc, pos, col, len(w))], repair, gap


def _compress(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The units Q_a^* e_ij Q_a on each arc's reducing subspace, for a stack
    of W_a = Q_a^* V as (arcs, m, n, r), rows zero-padded to the widest arc.

    W_a^* W_a = 1_n (x) p_a, where p_a = C_a^* C_a for the m x r corner
    C_a = W_a[:, 0] is a projection of rank r'_a <= min(m, r).  C_a C_a^* is
    m x m, the arc's size rather than the block's multiplicity, with the
    same eigenvalues 1, and one stacked ``eigh`` takes them all; a padded
    row is zero and gives the eigenvalue 0, never kept.  For the r'_a
    orthonormal eigenvectors U of eigenvalue lam > 1/2, P = C^* U lam^{-1/2}
    are orthonormal eigenvectors of p_a for 1, and W_a (1_n (x) P) is an
    isometry for the same units.  Returns those isometries as
    (arcs, m, n, r'), r' the largest r'_a, zero beyond each arc's r'_a
    columns, and the r'_a."""
    corner = w[:, :, 0]
    vals, vecs = np.linalg.eigh(corner @ _adjoint(corner))
    ranks = np.sum(vals > 0.5, axis=1)
    top = int(ranks.max())
    vals, vecs = vals[:, ::-1][:, :top], vecs[:, :, ::-1][:, :, :top]
    scale = np.where(np.arange(top) < ranks[:, None], 1.0 / np.sqrt(np.maximum(vals, 0.5)), 0.0)
    return w @ (_adjoint(corner) @ (vecs * scale[:, None]))[:, None], ranks


def _gates(fx: np.ndarray, fy: np.ndarray, ranks: np.ndarray, index: np.ndarray,
           arcs: list, eps: float) -> float:
    """The gates of ``commutant_transport`` over a stack of arcs' corner
    families (arcs, n, m), zero beyond each arc's r' <= m: the family
    weights and the Gram gaps of ``alignment_gate`` (``_gate_measures``),
    taken once per distinct r' on the unpadded columns of its arcs, against
    delta = ``invert_alignment_bound(n, r', eps / sqrt(n))``.  Each arc gets
    the bits it gets alone, so it passes or fails as it does alone.  The
    first failing arc, in arc order, raises: r' = 0
    ``ArcOutsideBlockError``, otherwise the ``HypothesisError`` of
    ``alignment_gate``.  Returns the largest gap."""
    n, f = fx.shape[1], np.stack([fx, fy])
    weights, (gaps, deltas) = np.zeros((2, len(ranks))), np.zeros((2, len(ranks)))
    for r in sorted(set(ranks.tolist())):
        items = ranks == r
        weights[:, items], gaps[items] = _gate_measures(f[:, items, :, :r])
        deltas[items] = invert_alignment_bound(n, r, eps / np.sqrt(n))
    heavy = weights.max(axis=0) > 1.0 + NORMALIZED_FAMILY_TOL
    for t in np.flatnonzero((ranks == 0) | heavy | (gaps >= deltas))[:1]:
        if ranks[t] == 0:
            a, b = arcs[index[t]]
            raise ArcOutsideBlockError(
                f"arc {index[t]} ({a:.6f}, {b:.6f}] carries mass but its spectral "
                "subspace misses the matrix-unit block",
                arc_index=int(index[t]),
            )
        _check_gate(*weights[:, t], gaps[t], deltas[t])
    return float(np.max(gaps))


def _scatter(angles: np.ndarray, vectors: np.ndarray, arc: np.ndarray, pos: np.ndarray,
             col: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-arc generators, angles (arcs, p) and vectors (arcs, m, p) in the
    padded arc rows, as one generator in the sorted coordinates: row
    ``pos`` of arc ``arc`` is row ``col``, and each arc keeps its own p
    columns.  Zero angles, padding included, are dropped."""
    out = np.zeros((dim,) + angles.shape, dtype=complex)
    out[col, arc] = vectors[arc, pos]
    keep = angles != 0.0
    return angles[keep], out[:, keep]


def _z_commutator_bound(model: SpectralModel, path: UnitaryPath, starts: np.ndarray,
                        inside: np.ndarray) -> float:
    """Certified sup over t of ||[u(t), z]|| for the path merged over the
    transported arcs, which start at ``starts`` and hold the eigenangles
    ``inside``, with no path evaluation.  u(t) preserves each arc's columns
    Q_k of Q and fixes the rest; with z = Q Λ Q^* + R, each block
    [u_k, Λ_k - λ] has norm <= 2 ||Λ_k - λ|| <= 2 sin(π s) for λ the
    midpoint of the chord between the arc's extreme eigenvalues, s turns
    apart (s <= 1/2; λ = 0 gives 2 beyond).  Hence the largest 2 sin(π s),
    plus 2 ||R|| and the rounding allowance of
    ``UnitaryPath.commutator_bound``; 0.0 with no arc.  Every arc's spread
    is taken in one broadcast, and ||R|| is bounded with no SVD
    (``_norm_upper``), exactly for a diagonal R."""
    if not starts.size:
        return 0.0
    turned = (model.eigenangles - starts[:, None]) % 1.0
    spread = np.max(np.where(inside, turned, -np.inf), axis=1) - np.min(
        np.where(inside, turned, np.inf), axis=1)
    structural = 2 * np.sin(np.pi * min(float(np.max(spread)), 0.5))
    turn = max(s.duration * np.linalg.norm(s.w) for s in path.segments)
    allowance = model.dim * np.finfo(float).eps * np.linalg.norm(model.z) * (1.0 + turn)
    return float(structural + 2 * _norm_upper(model._reconstruction_residual()) + allowance)

