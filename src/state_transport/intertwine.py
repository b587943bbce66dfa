"""Alternating back-and-forth intertwining over a tower of matrix algebras.

Two vector states that agree on a deep subalgebra are intertwined by an
alternating sequence of commutant unitaries, one tower level per round;
the odd and even products then conjugate one state close to the other
while nearly fixing the prescribed finite set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import MatrixUnits
from .errors import AssemblyError, HypothesisError, RoundFailureError
from .linalg import check_state, dagger, op_norm
from .path import UnitaryPath
from .transport import commutant_transport, invert_alignment_bound


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
                raise ValueError(f"level size {size} is not a multiple of {below}")
            if size // below < 2:
                raise ValueError("branchings must be >= 2")
            if self.ambient_dim % size:
                raise ValueError(f"level size {size} does not divide ambient dimension "
                                 f"{self.ambient_dim}")

    @property
    def depth(self) -> int:
        return len(self.sizes)

    @cached_property
    def _identity(self) -> np.ndarray:
        # Every level acts on the whole ambient space, so all share one isometry.
        return np.eye(self.ambient_dim, dtype=complex)

    def level_block(self, n: int) -> MatrixUnits:
        """The single block M_{s_n} (x) 1 of level n (1-based)."""
        return MatrixUnits(self.sizes[n - 1], self._identity)

    def level_generators(self, n: int) -> list[np.ndarray]:
        """Clock and shift generators of level n, embedded in the ambient."""
        blk = self.level_block(n)
        m = blk.n
        shift = np.zeros((m, m), dtype=complex)
        shift[np.arange(m), (np.arange(m) + 1) % m] = 1.0
        clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
        return [blk.embed(shift), blk.embed(clock)]


def build_tower(branchings: list[int], ambient_dim: int) -> AlgebraTower:
    """Tower of tensor-power embeddings with the given branching sequence."""
    return AlgebraTower(ambient_dim, np.cumprod(branchings).tolist())


@dataclass
class Schedule:
    """Per-round inner tolerances and admissibility thresholds.

    Round n has commutation budget 2^{-n+1} * eps; the transport tolerance
    is a quarter of that, and delta_n is the certified admissibility
    threshold of the round's alignment at that tolerance.
    """

    eps: float
    rounds: int
    inner_tols: list[float]
    deltas: list[float]

    def budget(self, n: int) -> float:
        return 2.0 ** (-n + 1) * self.eps


def make_schedule(tower: AlgebraTower, eps: float, rounds: int) -> Schedule:
    if rounds > tower.depth:
        raise ValueError("more rounds than tower levels")
    inner_tols = []
    deltas = []
    for n in range(1, rounds + 1):
        blk = tower.level_block(n)
        inner = 2.0 ** (-n + 1) * eps / 4.0
        delta = invert_alignment_bound(
            blk.n, blk.multiplicity, inner / np.sqrt(blk.n)
        )
        if deltas:
            # Tightening delta only strengthens admissibility; clamp so the
            # thresholds are strictly decreasing.
            delta = min(delta, 0.5 * deltas[-1])
        inner_tols.append(inner)
        deltas.append(delta)
    return Schedule(eps=eps, rounds=rounds, inner_tols=inner_tols, deltas=deltas)


@dataclass
class IntertwineResult:
    odd_product: np.ndarray
    even_product: np.ndarray
    logs: list[dict]
    round_paths: list[UnitaryPath]
    final: dict
    schedule: Schedule


def back_and_forth(tower: AlgebraTower, omega1: np.ndarray, omega2: np.ndarray,
                   fixed_set: list[np.ndarray],
                   schedule: Schedule) -> IntertwineResult:
    """Alternate commutant transports between the two vector states.

    Round n transports the lagging side's tracked vector toward the other
    inside the commutant of level n, alternating sides.  Tracked vectors:
    conjugating a vector state omega by Ad(w) is evaluating on w^* vector.
    Logs record the measured admissibility gap, terminal error, and the
    commutation error of u_n over the fixed set and the open companions.
    """
    xi = check_state(omega1)
    eta = check_state(omega2)
    dim = tower.ambient_dim
    if schedule.rounds:
        start_gap = _stats_gap(tower.level_block(1), xi, eta)
        if start_gap >= schedule.deltas[0]:
            raise HypothesisError(
                f"starting statistics gap {start_gap:.3e} >= {schedule.deltas[0]:.3e}",
                measured_gap=start_gap,
            )
    generators = [tower.level_generators(lev) for lev in range(1, schedule.rounds + 1)]
    p_odd = np.eye(dim, dtype=complex)
    p_even = np.eye(dim, dtype=complex)
    round_paths: list[UnitaryPath] = []
    logs: list[dict] = []

    for n in range(1, schedule.rounds + 1):
        blk = tower.level_block(n)
        odd_side = n % 2 == 1
        if odd_side:
            y = dagger(p_odd) @ eta
            s = dagger(p_even) @ xi
        else:
            y = dagger(p_even) @ xi
            s = dagger(p_odd) @ eta
        # The round is admissible below the schedule's delta, which the
        # clamp in make_schedule can set under commutant_transport's own.
        delta = schedule.deltas[n - 1]
        try:
            res = commutant_transport(blk, y, s, schedule.inner_tols[n - 1])
        except HypothesisError as exc:
            raise _round_failure(n, exc.measured_gap, delta) from exc
        if res.measured_gap >= delta:
            raise _round_failure(n, res.measured_gap, delta)
        u_n = dagger(res.path.end())
        round_paths.append(res.path.adjoint())
        if odd_side:
            p_odd = p_odd @ u_n
        else:
            p_even = p_even @ u_n

        # u_n commutes with levels <= n, and w = u_{n-1}^* u_{n-3}^* ... fixes
        # levels <= 1 + n % 2, so only the fixed set and the companions w x w^*
        # of levels above can fail: ||[u_n, w x w^*]|| = ||[w^* u_n w, x]||.
        comms = [op_norm(u_n @ x - x @ u_n) for x in fixed_set]
        companions = [x for gens in generators[1 + n % 2:n] for x in gens]
        if companions:
            p = p_even if odd_side else p_odd  # w^*
            v = p @ u_n @ dagger(p)
            comms.extend(op_norm(v @ x - x @ v) for x in companions)
        comm = max(comms, default=0.0)
        budget = schedule.budget(n)
        logs.append({
            "round": n,
            "side": "odd" if odd_side else "even",
            "gap": res.measured_gap,
            "delta": delta,
            "inner_tol": schedule.inner_tols[n - 1],
            "terminal": res.terminal_error,
            "commutation": comm,
            "budget": budget,
            "within_budget": bool(comm < budget),
        })

    final = _final_measurements(generators, xi, eta, p_odd, p_even, fixed_set,
                                schedule)
    return IntertwineResult(
        odd_product=p_odd,
        even_product=p_even,
        logs=logs,
        round_paths=round_paths,
        final=final,
        schedule=schedule,
    )


def _round_failure(n: int, gap: float, delta: float) -> RoundFailureError:
    return RoundFailureError(
        f"round {n} admissibility failed with gap {gap:.3e} >= delta {delta:.3e}",
        round_index=n,
        measured_gap=gap,
    )


def _stats_gap(blk, xi: np.ndarray, eta: np.ndarray) -> float:
    return float(np.max(np.abs(
        blk.coefficients_of_state(xi) - blk.coefficients_of_state(eta)
    )))


def _final_measurements(generators, xi, eta, p_odd, p_even, fixed_set,
                        schedule) -> dict:
    def ad_sup(w: np.ndarray) -> float:
        return max(
            (op_norm(w @ x @ dagger(w) - x) for x in fixed_set), default=0.0
        )

    combined = p_odd @ dagger(p_even)
    m = schedule.rounds
    if m:
        gens = generators[m - 1]
        even_xi = dagger(p_even) @ xi
        odd_eta = dagger(p_odd) @ eta
        intertwine_gap = max(
            abs(np.vdot(even_xi, x @ even_xi) - np.vdot(odd_eta, x @ odd_eta))
            for x in gens
        )
        final_delta = schedule.deltas[-1]
    else:
        intertwine_gap = 0.0
        final_delta = 0.0
    return {
        "ad_odd_sup": ad_sup(p_odd),
        "ad_odd_bound": 4 * schedule.eps / 3,
        "ad_even_sup": ad_sup(p_even),
        "ad_even_bound": 2 * schedule.eps / 3,
        "ad_combined_sup": ad_sup(combined),
        "ad_combined_bound": 2 * schedule.eps,
        "intertwine_gap": float(intertwine_gap),
        "intertwine_bound": final_delta,
    }


def assemble_path(result: IntertwineResult,
                  per_round_paths: list[UnitaryPath] | None = None) -> UnitaryPath:
    """One continuous based path through the odd-round unitaries, ending at
    the odd product; parameterized on [0, 1]."""
    if per_round_paths is None:
        per_round_paths = result.round_paths
    odd_paths = per_round_paths[0::2]
    dim = result.odd_product.shape[0]
    if not odd_paths:
        return UnitaryPath.constant(dim)
    for p in odd_paths:
        if p is None:
            raise AssemblyError("missing a round path")
        if not p.is_based(1e-8):
            raise AssemblyError("round paths must start at the identity")
    prefix = np.eye(dim, dtype=complex)
    segments = []
    for k, p in enumerate(odd_paths):
        # v(t) = u_1 u_3 ... u_{2k-1} @ (round path at t - k) on [k, k+1].
        piece = p.rescaled(0.0, 1.0).left_multiplied(prefix).shifted(float(k))
        segments.extend(piece.segments)
        prefix = prefix @ p.end()
    path = UnitaryPath(segments).rescaled(0.0, 1.0)
    if op_norm(path.end() - result.odd_product) > 1e-8:
        raise AssemblyError("assembled path does not end at the odd product")
    return path


def assembled_commutation_sup(path: UnitaryPath, fixed_set: list[np.ndarray],
                              samples: int = 33) -> float:
    """Sampled sup over t of || Ad v(t)(x) - x || for x in the fixed set,
    which is ||[v(t), x]|| for unitary v(t)."""
    return path.commutator_sup(fixed_set, samples)
