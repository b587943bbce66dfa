"""Alternating back-and-forth intertwining over a tower of matrix algebras.

Two vector states that agree on a deep subalgebra are intertwined by an
alternating sequence of commutant unitaries, one tower level per round;
the odd and even products then conjugate one state close to the other
while nearly fixing the prescribed finite set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .algebra import _level_part, commutator_bound, level_distances
from .errors import AssemblyError, HypothesisError, ParameterError, RoundFailureError
from .gram import VectorFamily, align_unitary
from .linalg import _check_tolerance, check_operators, check_state, dagger, op_norm
from .path import PathSegment, UnitaryPath
from .transport import invert_alignment_bound


@dataclass
class AlgebraTower:
    """Increasing full matrix blocks M_{s_1} c M_{s_2} c ... inside one
    ambient algebra, each acting as M_s (x) 1_{ambient/s}: the tower is its
    level sizes s_1 | s_2 | ... | ambient, so the levels nest by construction."""

    ambient_dim: int
    sizes: list[int]

    def __post_init__(self):
        for below, size in zip([1] + self.sizes, self.sizes):
            if size % below:
                raise ParameterError(f"level size {size} is not a multiple of {below}")
            if size // below < 2:
                raise ParameterError("branchings must be >= 2")
            if self.ambient_dim % size:
                raise ParameterError(f"level size {size} does not divide ambient dimension "
                                 f"{self.ambient_dim}")

    @property
    def depth(self) -> int:
        return len(self.sizes)

    def level_generators(self, n: int) -> list[np.ndarray]:
        """Clock and shift generators of level n, embedded in the ambient as
        g (x) 1_q: each entry of g written onto the diagonal of its q x q
        block of a zero matrix.  A level outside 1 <= n <= ``depth`` raises
        ``ParameterError``."""
        if not 1 <= n <= self.depth:
            raise ParameterError(f"level {n} outside 1 .. {self.depth}, the tower's levels")
        m = self.sizes[n - 1]
        q = self.ambient_dim // m
        diagonal = np.arange(q)
        generators = []
        for g in _shift_and_clock(m):
            placed = np.zeros((m, q, m, q), dtype=complex)
            placed[:, diagonal, :, diagonal] = g
            generators.append(placed.reshape(self.ambient_dim, self.ambient_dim))
        return generators


def _shift_and_clock(m: int) -> list[np.ndarray]:
    """The m x m cyclic shift and clock."""
    shift = np.zeros((m, m), dtype=complex)
    shift[np.arange(m), (np.arange(m) + 1) % m] = 1.0
    return [shift, np.diag(np.exp(2j * np.pi * np.arange(m) / m))]


def build_tower(branchings: list[int], ambient_dim: int) -> AlgebraTower:
    """Tower of tensor-power embeddings with the given branching sequence."""
    return AlgebraTower(ambient_dim, np.cumprod(branchings).tolist())


def drift_bound(drift: float, defect: float, dim: int) -> float:
    """Certified upper bound on ||[p u p^*, x]|| for every D x D x with
    ||x|| <= 1, a u at distance ``drift`` = ||u - 1||_F from the identity
    and a p with ``defect`` d >= ||p^* p - 1||.

    [p u p^*, x] = [p (u - 1) p^*, x] + [p p^* - 1, x], with
    ||p||^2 = ||p^* p|| <= 1 + d and ||p p^* - 1|| = ||p^* p - 1|| for
    square p: 2 ((1 + d) ||u - 1||_F + d).  The allowance covers the
    rounding of the dense products a caller would take instead, and of the
    norms: D 2^-52 (1 + d)(1 + drift) for each of the two products that
    form [v, x], and twice that for each of the two that form v = p u p^*
    and for the product p^* p that measures d."""
    rounding = 8.0 * dim * np.finfo(float).eps * (1.0 + defect) * (1.0 + drift)
    return 2.0 * ((1.0 + defect) * drift + defect) + rounding


@dataclass
class Schedule:
    """Per-round inner tolerances and admissibility thresholds.

    Round n has commutation budget 2^{-n+1} * eps; its inner (terminal)
    tolerance is a quarter of that, and delta_n is the certified
    admissibility threshold of the round's corner alignment at that
    tolerance, clamped to at most half of delta_{n-1}.
    """

    eps: float
    rounds: int
    inner_tols: list[float]
    deltas: list[float]

    def budget(self, n: int) -> float:
        return 2.0 ** (-n + 1) * self.eps


def _check_rounds(rounds: int, depth: int) -> None:
    """Raise ``ParameterError`` unless 1 <= rounds <= depth: the intertwiner
    is built from at least one round, and each round takes a tower level."""
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    if rounds > depth:
        raise ParameterError(f"{rounds} rounds on a tower of {depth} levels: "
                             "more rounds than tower levels")


def make_schedule(tower: AlgebraTower, eps: float, rounds: int) -> Schedule:
    """The schedule of ``rounds`` rounds at tolerance eps; a tolerance that
    is not finite and > 0, or rounds outside 1 <= rounds <= ``tower.depth``,
    raises ``ParameterError``."""
    _check_tolerance(eps)
    _check_rounds(rounds, tower.depth)
    inner_tols, deltas = [], []
    for n in range(1, rounds + 1):
        s_n = tower.sizes[n - 1]
        inner = 2.0 ** (-n + 1) * eps / 4.0
        delta = invert_alignment_bound(s_n, tower.ambient_dim // s_n, inner / np.sqrt(s_n))
        if deltas:
            # Tightening delta only strengthens admissibility; clamp so the
            # thresholds are strictly decreasing.
            delta = min(delta, 0.5 * deltas[-1])
        inner_tols.append(inner)
        deltas.append(delta)
    return Schedule(eps=eps, rounds=rounds, inner_tols=inner_tols, deltas=deltas)


@dataclass
class IntertwineResult:
    """The products of the odd and even rounds, the round logs and final
    measurements, ``path``, a based path on [0, 1] to the odd product, and
    ``end_gap``, a certified bound on ||path.factor.end() - odd_factor||.

    The rounds run on factors at the tower's first level s = ``level``:
    each product is 1_s (x) its factor, ``odd_factor`` or ``even_factor``,
    and round n's unitary is u_n = 1_{s_n} (x) ``corners[n - 1]``, the
    adjoint c_n^* of the unitary c_n of the round's corner alignment."""

    odd_factor: np.ndarray
    even_factor: np.ndarray
    level: int
    corners: list[np.ndarray]
    logs: list[dict]
    final: dict
    schedule: Schedule
    path: TowerPath
    end_gap: float


def _lift(factor: np.ndarray, s: int) -> np.ndarray:
    """1_s (x) factor: the ambient matrix of a commutant factor at level s
    (or of an r x k block of columns), the factor written into the s
    diagonal blocks of a zero matrix."""
    r, k = factor.shape
    lifted = np.zeros((s, r, s, k), dtype=np.result_type(factor, float))
    blocks = np.arange(s)
    lifted[blocks, :, blocks, :] = factor
    return lifted.reshape(s * r, s * k)


def _times_blocks(p: np.ndarray, b: np.ndarray) -> np.ndarray:
    """p (1_m (x) b) for an R x m r matrix p and an r x k block b, as one
    product of p's rows cut into pieces of length r: each entry is a sum
    of r products, not m r, and no m r x m k matrix is formed."""
    return (p.reshape(-1, len(b)) @ b).reshape(len(p), -1)


def _defect(m: np.ndarray) -> float:
    """||m^* m - 1||_F, which bounds the defect ||m^* m - 1|| of m from an
    isometry."""
    return float(np.linalg.norm(dagger(m) @ m - np.eye(m.shape[1])))


def _gram_defect(q: np.ndarray) -> float:
    """Certified e >= ||q^* q - 1||_F for an n x k q: ``_defect(q)`` plus the
    rounding of the product q^* q that measures it, n 2^-52 ||q||^2 <=
    n 2^-52 (1 + e) in norm and so sqrt(k) times that in Frobenius norm,
    solved for e."""
    a = np.sqrt(q.shape[1]) * len(q) * np.finfo(float).eps
    return (_defect(q) + a) / (1.0 - a)


def _rounded(defect: float, rho: float, cols: int) -> float:
    """Certified ||G^* G - 1||_F for a computed G = M + E with ||E|| <= rho,
    given defect >= ||M^* M - 1||_F for M with ``cols`` columns:
    G^* G - 1 = (M^* M - 1) + M^* E + E^* M + E^* E, where the last three
    have rank at most ``cols`` and norm at most rho (2 ||M|| + rho), and
    ||M||^2 = ||M^* M|| <= 1 + defect."""
    return defect + np.sqrt(cols) * rho * (2.0 * np.sqrt(1.0 + defect) + rho)


def _corner_defect(e: float, shape: tuple[int, int]) -> float:
    """Certified ||C^* C - 1||_F for the computed C = 1 + (q D) q^* of an
    r x k q with e >= ||q^* q - 1||_F, for every diagonal D with
    |D_ii + 1| = 1.  Exactly, M = 1 + q D q^* has
    M^* M - 1 = q D^* (q^* q - 1) D q^*, of Frobenius norm at most
    ||q||^2 ||D||^2 e <= 4 e (1 + e).  C errs from M by rho =
    2 (2 k + 1) 2^-52 (1 + e), ``_rounded``: k 2^-52 ||q D|| ||q|| <=
    2 k 2^-52 (1 + e) for the product, at most that again for the scaling
    q D, whose entries each err by 2^-52 of their size, and
    2^-52 ||C|| / 2 <= 2 2^-52 (1 + e) for the sum, which rounds only the
    diagonal."""
    r, k = shape
    rho = 2.0 * (2 * k + 1) * np.finfo(float).eps * (1.0 + e)
    return _rounded(4.0 * e * (1.0 + e), rho, r)


def _product_defect(d_p: float, d_b: float, m: int, inner: int, cols: int) -> float:
    """Certified ||G^* G - 1||_F for the computed G = P (1_m (x) b) of
    ``_times_blocks``, from d_p >= ||P^* P - 1||_F and d_b >= ||b^* b - 1||_F
    for the block b of ``inner`` rows, G having ``cols`` columns.
    Exactly, with B = 1_m (x) b, (P B)^* (P B) - 1 = B^* (P^* P - 1) B +
    (B^* B - 1), where ||B||^2 = ||b||^2 <= 1 + d_b and
    ||B^* B - 1||_F = sqrt(m) ||b^* b - 1||_F: (1 + d_b) d_p + sqrt(m) d_b.
    Each entry of G is a sum of ``inner`` products, so G errs by
    rho = inner 2^-52 ||P|| ||b|| <= inner 2^-52 sqrt((1 + d_p)(1 + d_b)),
    ``_rounded``."""
    rho = inner * np.finfo(float).eps * np.sqrt((1.0 + d_p) * (1.0 + d_b))
    return _rounded((1.0 + d_b) * d_p + np.sqrt(m) * d_b, rho, cols)


def _end_gap(d_p: float, e: float, size: int) -> float:
    """Certified ||f(1) - P (1_m (x) c)|| for the segment f of an odd round,
    evaluated at its end as ``PathSegment.at`` does, and the product
    ``_times_blocks(P, corner)`` the round takes, from d_p >= ||P^* P - 1||_F
    for the size x size factor P before the round and e >= ||q^* q - 1||_F
    for the corner's eigenvectors q, c = 1 + q T q^* with
    T = diag(e^{-i angles} - 1).
    Exactly, f(1) = P + v T v^* P with v = P (1_m (x) q), so
    f(1) - P (1_m (x) c) = P (1 (x) q) T (1 (x) q)^* (P^* P - 1), at most
    2 ||P|| (1 + e) d_p, with ||P|| from ``_norm_bound``.  The allowance
    64 (size + 1) 2^-52 ||P||^3 (1 + e) covers rounding: the products that
    form v, v^* P and the term v T v^* P err by at most size 2^-52 times the
    norms of their factors, ||v||^2 <= 2 ||P||^2 (1 + e); the turn
    e^{i dt w} - 1 of the rescaled segment errs by a few times
    (2 + log2 size) 2^-52, through its time steps; and the corner errs by
    ``_corner_defect``'s rho, and its block product by size 2^-52 ||P||
    ||c||."""
    norm = _norm_bound(d_p, size)
    rounding = 64.0 * (size + 1) * np.finfo(float).eps * norm**3 * (1.0 + e)
    return 2.0 * norm * (1.0 + e) * d_p + rounding


def _norm_bound(defect: float, dim: int) -> float:
    """Certified ||M|| <= sqrt((1 + d) / (1 - g)) for a dim x dim M that is
    unitary up to d >= ||M^* M - 1||, so that no unitary the tower builds is
    decomposed to learn that ||M|| ~ 1: ||M||^2 = ||M^* M|| <= 1 + d +
    g ||M||^2.  The allowance g = 16 dim 2^-52 covers rounding, each product
    erring by about dim 2^-52 times the norms of its factors: up to
    8 dim 2^-52 in ||M||^2 for the two products that form M from eigenpairs
    (norms up to 2), 4 dim 2^-52 for the one that measures d (through e for
    eigenpairs) and 2 dim 2^-52 for the SVD the rule replaces."""
    return float(np.sqrt((1.0 + defect) / (1.0 - 16.0 * dim * np.finfo(float).eps)))


class TowerPath(UnitaryPath):
    """The path 1_s (x) f(t) in the commutant of the level M_s (x) 1, for a
    path ``factor`` f of size D / s, held as f alone until ``segments``, the
    lifts of f's segments, is first read: by evaluation, the length, the
    transforms, the encoding or the dense fallback, which all see the
    ambient path.  ``norm`` >= sup_t ||f(t)|| is certified by the caller;
    ``back_and_forth`` chains it from its rounds' defects.  ``measured``
    pairs elements with their distances ||x - E_s x||_F from the level, as
    ``back_and_forth`` measured them for its fixed set; the path holds
    those arrays, so their ids name them alone, and reads a distance only
    for the same array object."""

    def __init__(self, factor: UnitaryPath, level: int, limit: float, norm: float,
                 measured: list[tuple[np.ndarray, float]]):
        self.factor, self.level, self.limit, self.norm = factor, level, limit, norm
        self.dim = factor.dim * level
        self.measured = {id(x): (x, d) for x, d in measured}

    def _distance(self, x: np.ndarray) -> float:
        """x's distance from the level: the measured one for an array of
        ``measured``, and one ``_level_part`` pass for any other."""
        known = self.measured.get(id(x))
        return known[1] if known else _level_part(x, self.level)[1]

    @cached_property
    def segments(self) -> list[PathSegment]:
        return [PathSegment(f.t0, f.t1, np.tile(f.w, self.level), _lift(f.v, self.level),
                            _lift(f.base, self.level)) for f in self.factor.segments]

    def commutator_bound(self, elements: list[np.ndarray]) -> float:
        """Certified sup over every t of ||[1_s (x) f(t), x]|| for the
        elements x, each split as x = A (x) 1 + b at level s.

        [1_s (x) f(t), A (x) 1] = 0 exactly, so ||[u(t), x]|| <= 2 ||f(t)||
        ||b|| <= 2 ``norm`` ||x - E_s x||_F, plus the path's rounding
        allowance ||x||_F max_k dim 2^-52 (1 + dt ||tile(w, s)||), bit for
        bit the largest lifted segment ``allowance``.  An element whose
        bound reaches ``limit`` takes the dense Duhamel bound of
        ``UnitaryPath`` over the lifted segments, so every pass or fail
        against that limit is the dense bound's; a call with every element
        below it forms no generator and lifts nothing.  An element of
        ``measured`` takes its recorded distance, which ``level_distances``
        chains within the rounding this allowance covers, and no pass.
        An element that is not D x D raises ``DimensionError``."""
        check_operators(elements, self.dim)
        allowance = max(1.0 + f.duration * np.linalg.norm(np.tile(f.w, self.level))
                        for f in self.factor.segments) * self.dim * np.finfo(float).eps
        pairs = [2.0 * self.norm * self._distance(x) + allowance * np.linalg.norm(x)
                 for x in elements]
        dense = [x for x, pair in zip(elements, pairs) if pair >= self.limit]
        below = max((pair for pair in pairs if pair < self.limit), default=0.0)
        return float(max(below, UnitaryPath(self.segments).commutator_bound(dense)
                         if dense else 0.0))


def back_and_forth(tower: AlgebraTower, omega1: np.ndarray, omega2: np.ndarray,
                   fixed_set: list[np.ndarray],
                   schedule: Schedule) -> IntertwineResult:
    """Alternate corner alignments between the two vector states.

    Round n aligns the lagging side's tracked vector with the other inside
    the commutant of level n, alternating sides; conjugating a vector state
    omega by Ad(w) is evaluating on w^* vector.  The level-n corner families
    of a vector are its reshape to (s_n, D / s_n), and ``align_unitary`` of
    the two at the schedule's delta_n moves the lagging families X to
    X c_n^T, so u_n = 1_{s_n} (x) c_n^*.  Its Gram gate, the statistics gap
    on the units of M_{s_n}, is the round's only admissibility test: round
    1's is the start check and raises ``HypothesisError``, a later round's
    ``RoundFailureError``.  Mis-sized states or fixed elements raise
    ``DimensionError``; a schedule with no rounds or more rounds than
    levels, or without one delta and inner tolerance per round,
    ``ParameterError``.
    Logs record the gap, the terminal error ||X c_n^T - Y||_F (the 2-norm
    of the alignment's residuals), the commutation error of u_n over the
    fixed set and the open companions, and ``defect``, the chained defect
    below of the round's product factor.
    Each fixed element's ``level_distances`` table is measured once, before
    the rounds, and read by every round and every final Ad sup.  A fixed
    element's commutation is ``commutator_bound`` of its distance from
    level n and its table's norm, with ||c_n^*|| from ``_norm_bound`` of the
    corner's defect (no SVD of the corner), when that is below the round
    budget, and the dense norm otherwise; the logs also record the largest
    distance ||x - E_n x||_F of the fixed set from level n and how many
    fixed elements took the dense norm.  The open companions' commutation
    is ``drift_bound`` of the drift ||u_n - 1||_F and of the chained defect
    of the string p = w^*, when that is below the round budget, and their
    dense norms otherwise; the logs record the drift and how many
    companions took the dense norm.  A level's generators are built on
    first use, and the final intertwining gap applies the last level's as
    s x s factors.

    u_n lies in the commutant 1_s (x) M_{D/s} of the first level s, and so
    do the products; u_n = 1_s (x) U_n with U_n = 1_m (x) c_n^*, m = s_n / s.
    Each side's product is held as the factor P of its first round's level,
    1_{s_n} (x) P: it starts as that round's corner itself, and each later
    round multiplies it by blocks, P (1 (x) c_n^*) by ``_times_blocks``, a
    product whose inner dimension is the corner's D / s_n, so no round forms
    U_n or a product of size D / s.  Each side's vector, moved by its
    product, is formed once per product, on the factor's rows, and reshaped
    to each level's corner families.  Ambient matrices are formed only as 1_s (x) factor, in
    the dense norms a bound falls back to.

    No product is measured.  Each defect d(G) >= ||G^* G - 1||_F of a
    computed G, at size D / s, is chained from its factors' defects: a
    round's corner has ``_corner_defect`` of its eigenvector matrix q's
    ``_gram_defect`` e, the one product the round takes to learn a defect
    (q has at most min(D / s_n, 2 s_n) columns), and a block product
    ``_product_defect``, d(P U) <= ||U||^2 d(P) + d(U) plus its rounding.
    The rounds read the string's defect from that chain, the final Ad sups
    the defects of the products and of the combined product
    P_odd P_even^*, which is formed only where an Ad sup falls back to the
    dense norm, and the path its segments' defects.

    Odd round n = 2k + 1 adds to the factor path the segment
    P e^{-i (t - k) h} = e^{-i (t - k) P h P^*} P on [k, k + 1], eigenpairs
    (-tile(angles, m), P (1_m (x) q)) and base P, for the eigenpairs
    (angles, q) the alignment holds c_n as and the odd product's factor P
    before the round: the identity in round 1, where m = 1 and the
    eigenvectors are q itself.  ``path`` is the ``TowerPath`` 1_s (x) that
    factor path, with the limit ``ad_odd_bound`` = 4 eps / 3 and the norm
    max_k ||P_k|| sqrt(1 + 4 e_k (1 + e_k)) >= sup_t ||f(t)||: on segment
    k, f(t) = (1 + v D v^*) P_k with |D_ii + 1| = 1, e_k is the chained
    defect of v = P_k (1_m (x) q) and ||P_k|| is ``_norm_bound`` of P_k's.
    The path keeps the fixed set's level-1 distances from the tables, and
    ``end_gap`` is the last odd round's ``_end_gap``, a certified bound on
    ||f(1) - P_odd|| from that round's P_k defect and e, so no segment is
    evaluated to learn where the path ends.
    """
    dim = tower.ambient_dim
    xi = check_state(omega1, dim=dim)
    eta = check_state(omega2, dim=dim)
    check_operators(fixed_set, dim)
    _check_rounds(schedule.rounds, tower.depth)
    if not len(schedule.deltas) == len(schedule.inner_tols) == schedule.rounds:
        raise ParameterError("a schedule needs one delta and one inner tolerance per round")
    # The factor level: every round unitary lies in the commutant of level 1.
    s = tower.sizes[0]
    size = dim // s
    tables = [level_distances(x, tower.sizes[:schedule.rounds]) for x in fixed_set]
    generators = cache(tower.level_generators)
    # Per side, 1 odd and 0 even: the vector it moves, that vector moved by
    # the side's product, the product's factor (None for the identity) and
    # the chained defect of that product at size D / s, where 1_r (x) P has
    # sqrt(r) times the defect of P.
    tracked = {1: eta, 0: xi}
    moved = dict(tracked)
    products: dict[int, np.ndarray | None] = {1: None, 0: None}
    defects = {1: 0.0, 0: 0.0}
    corners: list[np.ndarray] = []
    segments: list[PathSegment] = []
    logs: list[dict] = []
    # A bound on sup_t ||f(t)|| of the factor path, raised by each odd round,
    # and on ||f(1) - P_odd|| at its end, set by the last.
    path_norm = end_gap = 0.0

    for n in range(1, schedule.rounds + 1):
        s_n = tower.sizes[n - 1]
        m = s_n // s
        side = n % 2
        # The level-n corner families of the moved vectors; y is the side
        # that moves.
        y, t = (moved[k].reshape(s_n, -1) for k in (side, 1 - side))
        delta = schedule.deltas[n - 1]
        try:
            align = align_unitary(VectorFamily(dim // s_n, y), VectorFamily(dim // s_n, t),
                                  delta)
        except HypothesisError as exc:
            gap = exc.measured_gap
            if n == 1:
                raise HypothesisError(f"starting statistics gap {gap:.3e} >= {delta:.3e}",
                                      measured_gap=gap) from exc
            raise RoundFailureError(f"round {n} admissibility failed with gap {gap:.3e} "
                                    f">= delta {delta:.3e}", round_index=n,
                                    measured_gap=gap) from exc
        angles, q = align.angles, align.vectors
        terminal = float(np.linalg.norm(align.residuals))
        # u_n = 1_{s_n} (x) c_n^*, with c_n^* formed from the eigenpairs as
        # c_n's own residuals are.
        corner = np.eye(len(q)) + (q * (np.exp(-1j * angles) - 1.0)) @ dagger(q)
        corners.append(corner)
        e = _gram_defect(q)
        corner_defect = _corner_defect(e, q.shape)
        p, p_defect = products[side], defects[side]
        v_defect = None
        if side:
            k = float(len(segments))
            if p is None:  # round 1, where m = 1
                v, v_defect, base = q, e, np.eye(size, dtype=complex)
            else:
                v = _times_blocks(p, q)
                v_defect = _product_defect(p_defect, e, m, len(q), v.shape[1])
                base = p
            segments.append(PathSegment(k, k + 1.0, -np.tile(angles, m), v, base))
            path_norm = max(path_norm, _norm_bound(p_defect, size)
                            * np.sqrt(1.0 + 4.0 * v_defect * (1.0 + v_defect)))
            end_gap = _end_gap(p_defect, e, size)
        if p is None:
            products[side], defects[side] = corner, np.sqrt(m) * corner_defect
        else:
            products[side] = _times_blocks(p, corner)
            defects[side] = _product_defect(p_defect, corner_defect, m, len(corner), size)
        moved[side] = _moved(tracked[side], products[side])

        # u_n commutes with levels <= n, and w = u_{n-1}^* u_{n-3}^* ... fixes
        # levels <= 1 + n % 2, so only the fixed set and the companions w x w^*
        # of levels above can fail: ||[u_n, w x w^*]|| = ||[w^* u_n w, x]||.
        budget = schedule.budget(n)
        drift = float(np.sqrt(s_n) * np.linalg.norm(corner - np.eye(len(corner))))
        comms, measured = [], 0
        c = _norm_bound(corner_defect, len(q))
        for x, (distances, norm) in zip(fixed_set, tables):
            comm = commutator_bound(c, distances[n - 1], norm, dim)
            if comm >= budget:
                u_n = _lift(corner, s_n)
                comm = op_norm(u_n @ x - x @ u_n)
                measured += 1
            comms.append(comm)
        open_levels = range(2 + n % 2, n + 1)
        companion_measured = 0
        if open_levels:
            # w^*, the other side's product, which the rounds so far have
            # started.
            bound = drift_bound(drift, np.sqrt(s) * defects[1 - side], dim)
            if bound < budget:
                comms.append(bound)
            else:
                p = _full_factor(products[1 - side], size)
                companions = [x for lev in open_levels for x in generators(lev)]
                v = _lift(_times_blocks(p, corner) @ dagger(p), s)
                comms.extend(op_norm(v @ x - x @ v) for x in companions)
                companion_measured = len(companions)
        comm = max(comms, default=0.0)
        logs.append({
            "round": n,
            "side": "odd" if side else "even",
            "gap": align.gap,
            "delta": delta,
            "inner_tol": schedule.inner_tols[n - 1],
            "terminal": terminal,
            "commutation": comm,
            "fixed_distance": max((d[n - 1] for d, _ in tables), default=0.0),
            "fixed_measured": measured,
            "drift": drift,
            "companion_measured": companion_measured,
            "eigenvector_defect": e,
            "segment_defect": v_defect,
            "defect": defects[side],
            "budget": budget,
            "within_budget": bool(comm < budget),
        })

    final = _final_measurements(tower, moved, products, defects, s, fixed_set, tables,
                                schedule)
    factor = UnitaryPath(segments).rescaled(0.0, 1.0)
    return IntertwineResult(
        odd_factor=_full_factor(products[1], size),
        even_factor=_full_factor(products[0], size),
        level=s,
        corners=corners,
        logs=logs,
        final=final,
        schedule=schedule,
        path=TowerPath(factor, s, final["ad_odd_bound"], path_norm,
                       [(x, distances[0]) for x, (distances, _) in zip(fixed_set, tables)]),
        end_gap=end_gap,
    )


def _moved(vector: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """(1 (x) P)^* vector for a product factor P, flat: 1 (x) P^* acts on the
    vector's rows of length len(P) as rows @ conj(P) = conj(conj(rows) @ P),
    the product that conjugates the short rows rather than the factor."""
    return (vector.reshape(-1, len(factor)).conj() @ factor).conj().reshape(-1)


def _full_factor(factor: np.ndarray | None, size: int) -> np.ndarray:
    """1_r (x) P at size ``size`` for a product factor P of size size / r,
    and the identity for None."""
    if factor is None:
        return np.eye(size, dtype=complex)
    return factor if len(factor) == size else _lift(factor, size // len(factor))


def _final_measurements(tower, moved, products, defects, s, fixed_set, tables,
                        schedule) -> dict:
    """The Ad sups and the intertwining gap of the products 1_s (x) P, given
    per side as their factors P and chained defects at size D / s, and the
    states moved by them, (1 (x) P_even)^* xi and (1 (x) P_odd)^* eta."""
    eps = schedule.eps
    limits = {"odd": 4 * eps / 3, "even": 2 * eps / 3, "combined": 2 * eps}
    size = tower.ambient_dim // s
    odd, even = products[1], products[0]
    factors = {"odd": (defects[1], lambda: _full_factor(odd, size)),
               "even": (defects[0], lambda: _full_factor(even, size))}
    # P_odd P_even^*, a product by blocks formed only on a fallback; after
    # one round, P_odd itself.
    factors["combined"] = factors["odd"] if even is None else (
        _product_defect(defects[1], defects[0], 1, len(even), size),
        lambda: _times_blocks(odd, dagger(even)))
    sups = {key: _ad_sup(defect, s, fixed_set, tables, limits[key], dense)
            for key, (defect, dense) in factors.items()}
    # The last level's generators g (x) 1_q act on a vector as g on its
    # reshape to (s_m, q), so the gap needs no D x D matrix.
    s_m = tower.sizes[schedule.rounds - 1]
    even_xi, odd_eta = moved[0].reshape(s_m, -1), moved[1].reshape(s_m, -1)
    intertwine_gap = max(
        abs(np.vdot(even_xi, g @ even_xi) - np.vdot(odd_eta, g @ odd_eta))
        for g in _shift_and_clock(s_m)
    )
    final = {f"ad_{key}_{name}": value for key, (defect, _) in factors.items()
             for name, value in (("sup", sups[key]), ("bound", limits[key]),
                                 ("defect", defect))}
    return final | {"intertwine_gap": float(intertwine_gap),
                    "intertwine_bound": schedule.deltas[-1]}


def _ad_sup(defect, s, fixed_set, tables, limit, dense) -> float:
    """max ||W x W^* - x|| over the fixed set, for a product W = 1_s (x) w
    of round unitaries with ``defect`` >= ||w w^* - 1||_F, the chained
    defect of its factor w (for square w the same as ||w^* w - 1||_F):
    W x W^* - x = [W, x] W^* + x (W W^* - 1) for the computed w, unitary
    only to rounding, is at most ||w|| ||[W, x]|| + ||x|| defect, with
    ||[W, x]|| from x's distance from level s and ||x|| <= norm, both read
    from x's ``level_distances`` table, and ||w|| from ``_norm_bound`` of
    the defect, so w is neither measured nor decomposed.  Only where that
    bound reaches the limit is w formed, as ``dense()``, and the dense norm
    taken."""
    if not fixed_set:
        return 0.0
    c = _norm_bound(defect, len(fixed_set[0]) // s)
    worst, lifted = 0.0, None
    for x, (distances, norm) in zip(fixed_set, tables):
        ad = c * commutator_bound(c, distances[0], norm, len(x)) + norm * defect
        if ad >= limit:
            if lifted is None:
                lifted = _lift(dense(), s)
            ad = op_norm(lifted @ x @ dagger(lifted) - x)
        worst = max(worst, ad)
    return worst


def assemble_path(result: IntertwineResult) -> UnitaryPath:
    """The based path through the odd-round unitaries that ``back_and_forth``
    built, checked to end within 1e-8 of the odd product by its certified
    ``end_gap``, since ||1_s (x) A|| = ||A||: no segment is evaluated.  A gap
    above 1e-8 raises ``AssemblyError``."""
    if not result.end_gap <= 1e-8:
        raise AssemblyError(f"assembled path ends {result.end_gap:.3e} from the odd product")
    return result.path


def assembled_commutation_sup(path: UnitaryPath, fixed_set: list[np.ndarray],
                              samples: int | None = None) -> float:
    """Certified sup over every t of || Ad v(t)(x) - x || for x in the fixed
    set, which is ||[v(t), x]|| for unitary v(t): ``path.commutator_bound``.
    On the ``TowerPath`` of ``back_and_forth``, that is 2 ``norm``
    ||x - E_1 x||_F plus the path's rounding allowance, from each element's
    distance from level 1 and the factor path's norm from the rounds, and
    the dense Duhamel bound only for an element whose bound reaches
    4 eps / 3.
    ``samples`` is accepted for older callers and ignored."""
    return path.commutator_bound(fixed_set)
