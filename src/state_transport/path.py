"""Piecewise-geodesic unitary paths with length certificates."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, DimensionError, PathError
from .linalg import check_operators, dagger, norm_at_most, op_norm

JOINT_TOL = 1e-10


@dataclass
class PathSegment:
    """u(t) = exp(i (t - t0) h) @ base for t in [t0, t1], held as the
    eigenpairs of its generator h = v diag(w) v^*.

    v has orthonormal columns, possibly fewer than the dimension, and the
    segment is evaluated as base + v (e^{i (t - t0) w} - 1) v^* base, one
    formula for every rank.  Every constructor and transform in the library
    supplies (w, v) in closed form, so no generator is ever decomposed;
    ``serialize.decode_path`` checks w, v and the unitary base when a path
    is read back.
    """

    t0: float
    t1: float
    w: np.ndarray  # shape (r,), real
    v: np.ndarray  # shape (dim, r), orthonormal columns
    base: np.ndarray

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def speed(self) -> float:
        """||h|| = max |w|, or 0.0 when there are no columns."""
        return float(np.max(np.abs(self.w), initial=0.0))

    @property
    def generator(self) -> np.ndarray:
        """The dense generator h = v diag(w) v^*."""
        return (self.v * self.w) @ dagger(self.v)

    @property
    def allowance(self) -> float:
        """dim 2^-52 (1 + dt ||w||): the rounding allowance of
        ``UnitaryPath.commutator_bound`` per unit of ||x||_F."""
        rounding = len(self.base) * np.finfo(float).eps
        return rounding * (1.0 + self.duration * np.linalg.norm(self.w))

    def at(self, t: float) -> np.ndarray:
        """u(t); at t0 a copy of the base."""
        if t == self.t0:
            return np.array(self.base, dtype=complex)
        v = self.v
        turn = np.exp(1j * (t - self.t0) * self.w) - 1.0
        return self.base + (v * turn) @ (dagger(v) @ self.base)

    def end(self) -> np.ndarray:
        return self.at(self.t1)


class UnitaryPath:
    """A rectifiable path in the unitary group, as constant-speed segments.

    The certified length is the sum of duration * generator-norm over the
    segments; for constant-speed geodesic pieces this equals the rectifiable
    length and dominates every sampled chord sum.
    """

    def __init__(self, segments: list[PathSegment]):
        if not segments:
            raise PathError("a path needs at least one segment")
        self.segments = segments
        self.dim = segments[0].base.shape[0]

    @classmethod
    def constant(cls, dim: int, base: np.ndarray | None = None) -> "UnitaryPath":
        if base is None:
            base = np.eye(dim, dtype=complex)
        return cls([PathSegment(0.0, 1.0, np.zeros(0), np.zeros((dim, 0), dtype=complex),
                                np.array(base, dtype=complex))])

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    @property
    def length(self) -> float:
        return float(sum(s.duration * s.speed for s in self.segments))

    def _locate(self, t: float) -> tuple[int, float]:
        """The index of the segment that evaluates t, and the time it is
        evaluated at: t clamped to [t_start, t_end], on the first segment
        whose end is not before it."""
        if t <= self.t_start:
            return 0, self.t_start
        for k, seg in enumerate(self.segments):
            if t <= seg.t1:
                return k, t
        return len(self.segments) - 1, self.t_end

    def at(self, t: float) -> np.ndarray:
        k, t = self._locate(t)
        return self.segments[k].at(t)

    def at_times(self, ts: Iterable[float]) -> Iterator[np.ndarray]:
        """``at(t)`` for each t in ts, in order, one sample alive at a time."""
        return map(self.at, ts)

    def commutator_bound(self, elements: list[np.ndarray]) -> float:
        """Certified sup over every t of ||[u(t), x]|| for the elements x;
        0.0 when there are none.  No evaluation of the path.

        On a segment u(t) = exp(i tau h) B with tau = t - t0 <= dt,
        [u(t), x] = [exp(i tau h), x] B + exp(i tau h) [B, x], and by Duhamel
        ||[exp(i tau h), x]|| <= tau ||[h, x]||.  So the bound is the max over
        segments and elements of ||[B, x]|| + dt ||[h, x]||, with h the
        segment's ``generator``, plus an allowance dim 2^-52 ||x||_F
        (1 + dt ||w||) for rounding: ``at`` adds to B the term
        v (e^{i tau w} - 1) v^* B of norm at most tau ||w||, by two products
        of sums over at most dim terms, and each of those and of the products
        that form either side errs by about dim 2^-52 times the norms of its
        factors, where ||w|| = ||h||_F bounds ||h|| and the added term.
        An element that is not dim x dim raises ``DimensionError``."""
        check_operators(elements, self.dim)
        if len(elements) == 0:
            return 0.0
        sizes = [np.linalg.norm(x) for x in elements]
        worst = 0.0
        for seg in self.segments:
            h = seg.generator
            b, dt, allowance = seg.base, seg.duration, seg.allowance
            for x, size in zip(elements, sizes):
                pair = (op_norm(b @ x - x @ b) + dt * op_norm(h @ x - x @ h)
                        + allowance * size)
                worst = max(worst, pair)
        return float(worst)

    def start(self) -> np.ndarray:
        return self.segments[0].at(self.t_start)

    def end(self) -> np.ndarray:
        return self.segments[-1].end()

    def is_based(self, tol: float = JOINT_TOL) -> bool:
        return norm_at_most(self.start() - np.eye(self.dim), tol)

    def sample_times(self, samples: int = 64) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, samples)

    def right_multiplied(self, c: np.ndarray) -> "UnitaryPath":
        """The path t -> u(t) @ c for a fixed unitary c."""
        return UnitaryPath([PathSegment(s.t0, s.t1, s.w, s.v, s.base @ c)
                            for s in self.segments])

    def shifted(self, offset: float) -> "UnitaryPath":
        return UnitaryPath([PathSegment(s.t0 + offset, s.t1 + offset, s.w, s.v, s.base)
                            for s in self.segments])

    def rescaled(self, t0: float = 0.0, t1: float = 1.0) -> "UnitaryPath":
        """Reparameterize onto [t0, t1]; the certified length is unchanged.
        An interval that is not finite with t0 < t1 raises ``PathError``."""
        lo, hi = self.t_start, self.t_end
        span = hi - lo
        if span <= 0:
            raise PathError("degenerate parameter interval")
        if not -np.inf < t0 < t1 < np.inf:
            raise PathError(f"cannot rescale onto [{t0}, {t1}]")
        scale = (t1 - t0) / span
        return UnitaryPath([PathSegment(t0 + (s.t0 - lo) * scale, t0 + (s.t1 - lo) * scale,
                                        s.w / scale, s.v, s.base) for s in self.segments])


def concat_paths(first: UnitaryPath, second: UnitaryPath) -> UnitaryPath:
    """Run ``first`` on its interval, then ``second`` (rebased to start at
    first's endpoint) immediately after; result parameterized on [0, 1]."""
    a = first.rescaled(0.0, 0.5)
    b = second.rescaled(0.0, 0.5)
    if not b.is_based(1e-8):
        raise PathError("second path must be based at the identity")
    b = b.right_multiplied(a.end()).shifted(0.5)
    return UnitaryPath(a.segments + b.segments)


def merge_orthogonal_paths(paths: list[UnitaryPath]) -> UnitaryPath:
    """Combine paths whose actions live on mutually orthogonal subspaces.

    Each path must deviate from the identity only inside its own invariant
    subspace, so generators and bases of distinct paths commute; the merged
    generator is the sum, held as the covering segments' w concatenated and
    their v side by side (``joined_segment``), and the base is the product.
    Columns with w = 0 add nothing to u(t) and are dropped, so full-rank
    factors of generators on disjoint subspaces merge too.  The kept columns
    of each merged segment must be orthonormal: ||V^* V - 1||_F <=
    ``JOINT_TOL``, or ``CertificateError``.  All paths must be
    parameterized on the same interval.
    """
    if not paths:
        raise PathError("nothing to merge")
    if len(paths) == 1:
        return paths[0]
    dim = paths[0].dim
    if any(p.dim != dim for p in paths):
        raise DimensionError("paths act on different ambient dimensions")
    lo = paths[0].t_start
    hi = paths[0].t_end
    cuts = sorted({round(t, 15) for p in paths for s in p.segments for t in (s.t0, s.t1)})
    segs = []
    for a, b in zip(cuts, cuts[1:]):
        covering = [_segment_covering(p, a, b) for p in paths]
        base = np.eye(dim, dtype=complex)
        for seg in covering:
            base = base @ seg.at(a)
        segs.append(joined_segment(a, b, [s.w for s in covering],
                                   [s.v for s in covering], base))
    merged = UnitaryPath(segs)
    if abs(merged.t_start - lo) >= 1e-12 or abs(merged.t_end - hi) >= 1e-12:
        raise CertificateError("merged path does not cover the common interval")
    return merged


def joined_segment(t0: float, t1: float, ws: list[np.ndarray], vs: list[np.ndarray],
                   base: np.ndarray) -> PathSegment:
    """One segment on [t0, t1] from ``base`` whose generator is the sum of
    the generators v_k diag(w_k) v_k^* on mutually orthogonal subspaces:
    the w_k concatenated and the v_k side by side.  Columns with w = 0 add
    nothing to u(t) and are dropped; the kept columns must be orthonormal,
    ||V^* V - 1||_F <= ``JOINT_TOL``, or ``CertificateError``."""
    w = np.concatenate(ws)
    keep = w != 0.0
    v = np.hstack(vs)[:, keep]
    if np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])) > JOINT_TOL:
        raise CertificateError("merged paths have overlapping generator columns")
    return PathSegment(t0, t1, w[keep], v, base)


def _segment_covering(path: UnitaryPath, a: float, b: float) -> PathSegment:
    for seg in path.segments:
        if seg.t0 <= a + 1e-14 and b <= seg.t1 + 1e-14:
            return seg
    raise PathError("paths must share the parameter interval to merge")

