"""Piecewise-geodesic unitary paths with length certificates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CertificateError, DimensionError
from .linalg import _expm_skew, dagger, op_norm

JOINT_TOL = 1e-10


@dataclass
class PathSegment:
    """u(t) = exp(i (t - t0) h) @ base for t in [t0, t1].

    The generator h is trusted to be Hermitian and the base unitary: the
    library builds them, and ``serialize.decode_path`` checks both when a
    path is read back.  Segments are not mutated after construction, so the
    speed is computed once.
    """

    t0: float
    t1: float
    generator: np.ndarray
    base: np.ndarray

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @cached_property
    def speed(self) -> float:
        """||h||, as the largest |eigenvalue| of the symmetrised generator
        that ``at`` exponentiates."""
        h = self.generator
        return float(np.max(np.abs(np.linalg.eigvalsh((h + dagger(h)) / 2))))

    def at(self, t: float) -> np.ndarray:
        if t == self.t0:
            return np.array(self.base, dtype=complex)
        return _expm_skew(self.generator, t - self.t0) @ self.base

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
            raise ValueError("a path needs at least one segment")
        self.segments = segments
        self.dim = segments[0].base.shape[0]

    @classmethod
    def constant(cls, dim: int, base: np.ndarray | None = None) -> "UnitaryPath":
        if base is None:
            base = np.eye(dim, dtype=complex)
        zero = np.zeros((dim, dim), dtype=complex)
        return cls([PathSegment(0.0, 1.0, zero, np.array(base, dtype=complex))])

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    @property
    def length(self) -> float:
        return float(sum(s.duration * s.speed for s in self.segments))

    def at(self, t: float) -> np.ndarray:
        if t <= self.t_start:
            return self.segments[0].at(self.t_start)
        for seg in self.segments:
            if t <= seg.t1:
                return seg.at(t)
        return self.segments[-1].end()

    def start(self) -> np.ndarray:
        return self.segments[0].at(self.t_start)

    def end(self) -> np.ndarray:
        return self.segments[-1].end()

    def is_based(self, tol: float = JOINT_TOL) -> bool:
        return op_norm(self.start() - np.eye(self.dim)) <= tol

    def joint_defect(self) -> float:
        """Largest discontinuity across segment joints."""
        worst = 0.0
        for prev, nxt in zip(self.segments, self.segments[1:]):
            worst = max(worst, op_norm(prev.end() - nxt.at(nxt.t0)))
        return worst

    def chord_sum(self, samples: int = 64) -> float:
        ts = np.linspace(self.t_start, self.t_end, samples + 1)
        us = [self.at(t) for t in ts]
        return float(sum(op_norm(b - a) for a, b in zip(us, us[1:])))

    def sample_times(self, samples: int = 64) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, samples)

    def adjoint(self) -> "UnitaryPath":
        """The path t -> u(t)^*, again in segment form."""
        segs = []
        for s in self.segments:
            b = dagger(s.base)
            segs.append(PathSegment(s.t0, s.t1, -b @ s.generator @ dagger(b), b))
        return UnitaryPath(segs)

    def left_multiplied(self, c: np.ndarray) -> "UnitaryPath":
        """The path t -> c @ u(t) for a fixed unitary c."""
        segs = [
            PathSegment(s.t0, s.t1, c @ s.generator @ dagger(c), c @ s.base)
            for s in self.segments
        ]
        return UnitaryPath(segs)

    def right_multiplied(self, c: np.ndarray) -> "UnitaryPath":
        """The path t -> u(t) @ c for a fixed unitary c."""
        segs = [
            PathSegment(s.t0, s.t1, s.generator, s.base @ c) for s in self.segments
        ]
        return UnitaryPath(segs)

    def shifted(self, offset: float) -> "UnitaryPath":
        segs = [
            PathSegment(s.t0 + offset, s.t1 + offset, s.generator, s.base)
            for s in self.segments
        ]
        return UnitaryPath(segs)

    def rescaled(self, t0: float = 0.0, t1: float = 1.0) -> "UnitaryPath":
        """Reparameterize onto [t0, t1]; the certified length is unchanged."""
        lo, hi = self.t_start, self.t_end
        span = hi - lo
        if span <= 0:
            raise ValueError("degenerate parameter interval")
        scale = (t1 - t0) / span
        segs = [
            PathSegment(
                t0 + (s.t0 - lo) * scale,
                t0 + (s.t1 - lo) * scale,
                s.generator / scale,
                s.base,
            )
            for s in self.segments
        ]
        return UnitaryPath(segs)


def concat_paths(first: UnitaryPath, second: UnitaryPath) -> UnitaryPath:
    """Run ``first`` on its interval, then ``second`` (rebased to start at
    first's endpoint) immediately after; result parameterized on [0, 1]."""
    a = first.rescaled(0.0, 0.5)
    b = second.rescaled(0.0, 0.5)
    if not b.is_based(1e-8):
        raise ValueError("second path must be based at the identity")
    b = b.right_multiplied(a.end()).shifted(0.5)
    return UnitaryPath(a.segments + b.segments)


def merge_orthogonal_paths(paths: list[UnitaryPath]) -> UnitaryPath:
    """Combine paths whose actions live on mutually orthogonal subspaces.

    Each path must deviate from the identity only inside its own invariant
    subspace, so generators and bases of distinct paths commute; the merged
    segment generator is the sum and the base the product.  All paths must be
    parameterized on the same interval.
    """
    if not paths:
        raise ValueError("nothing to merge")
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
        h = np.zeros((dim, dim), dtype=complex)
        base = np.eye(dim, dtype=complex)
        for p in paths:
            seg = _segment_covering(p, a, b)
            h = h + seg.generator
            base = base @ seg.at(a)
        segs.append(PathSegment(a, b, h, base))
    merged = UnitaryPath(segs)
    if abs(merged.t_start - lo) >= 1e-12 or abs(merged.t_end - hi) >= 1e-12:
        raise CertificateError("merged path does not cover the common interval")
    return merged


def _segment_covering(path: UnitaryPath, a: float, b: float) -> PathSegment:
    for seg in path.segments:
        if seg.t0 <= a + 1e-14 and b <= seg.t1 + 1e-14:
            return seg
    raise ValueError("paths must share the parameter interval to merge")

