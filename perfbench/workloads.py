"""Seeded inputs, operations and certificate checks of the benchmark workloads.

Inputs are generated with numpy alone from the workload seed; the library
only ever receives the resulting arrays.  Every operation ("op") calls the
public library API, checks each certificate against the bound the library
advertises (the constants are copied here on purpose, so that editing a
verification suite cannot change what the benchmark accepts), and ends with
``serialize.dumps_report`` of its measured/bound dict.

An op never stops at its first failure: every step runs, each in isolation,
so a failing step does not change how much work the remaining steps do.
Only the lower bound, which needs the geodesic, is skipped when
``geodesic_pair`` raises.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# Advertised bounds and tolerances, copied from the library's docstrings and
# its own verification code.
GRAM_ERROR_BOUND = 1e-10
DISPLACEMENT_BOUND = 1e-8
ALIGN_SLACK = 1e-8
GEODESIC_LENGTH_BOUND = 1e-8
GEODESIC_TERMINAL_BOUND = 1e-8
LOWER_BOUND_SLACK = 1e-6
COMPETITOR_SLACK = 1e-6
PROJECTION_COMMUTATOR_BOUND = 1e-9
PROJECTION_PHASE_BOUND = 1e-8
SPECTRUM_SLACK = 1e-8
UNIT_COMMUTATOR_BOUND = 1e-9
FOLNER_SLACK = 1e-10
INTERTWINE_PATH_SLACK = 1e-6

# Sample counts of the sampled commutator sups; fixed so counts repeat.
LOWER_BOUND_SAMPLES = 16
PROJECTION_SAMPLES = 8
COMMUTANT_SAMPLES = 8
CIRCLE_SAMPLES = 8
GROUP_SAMPLES = 5
TOWER_PATH_SAMPLES = 9

# A run times every input at least this often, so that no single op decides
# a run's median or tail latency.
MIN_PASSES = 3


@dataclass
class OpRecord:
    """Certificates and failures of one op."""

    measured: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    layer_of: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def cert(self, name: str, layer: str, measured: float, bound: float) -> None:
        self.measured[name] = float(measured)
        self.bounds[name] = float(bound)
        self.layer_of[name] = layer

    def step(self, name: str, fn) -> bool:
        """Run one step; any exception is recorded as a failure of this op."""
        try:
            fn()
        except Exception as exc:  # the op must count every failure and go on
            self.errors.append(f"{type(exc).__name__}@{name}")
            return False
        return True

    def misses(self) -> list[str]:
        """Certificates whose measured value is not within the bound (NaN misses)."""
        return [k for k, m in self.measured.items() if not m <= self.bounds[k]]

    def failure_types(self) -> list[str]:
        return [e.split("@")[0] for e in self.errors] + [
            f"certificate:{k}" for k in self.misses()
        ]

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.misses())

    def slack_by_layer(self) -> dict:
        """Largest measured / bound per layer."""
        out: dict = {}
        for k, m in self.measured.items():
            b = self.bounds[k]
            if b > 0:
                lay = self.layer_of[k]
                out[lay] = max(out.get(lay, 0.0), m / b)
        return out


# ---------------------------------------------------------------- inputs

def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (h + h.conj().T) / 2


def expm_i(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T


def subnormalized(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n row vectors in C^dim with total squared norm in [0.3, 0.999]."""
    vecs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return vecs * (rng.uniform(0.3, 0.999) / np.sqrt(np.sum(np.abs(vecs) ** 2)))


def gram(x: np.ndarray) -> np.ndarray:
    g = x @ x.conj().T
    return (g + g.conj().T) / 2


def psd_sqrt_ref(c: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(c)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def block_order(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws in which every block of len(values) consecutive draws
    is a permutation of ``values``: each run sees the same mix of sizes."""
    out: list = []
    while len(out) < count:
        out.extend(int(v) for v in rng.permutation(values))
    return out[:count]


def digest(instances: list[dict]) -> str:
    """SHA-256 over every instance's keys, scalars and array bytes."""
    h = hashlib.sha256()
    for inst in instances:
        for key in sorted(inst):
            val = inst[key]
            h.update(key.encode())
            if isinstance(val, np.ndarray):
                h.update(f"{val.dtype.str}{val.shape}".encode())
                h.update(np.ascontiguousarray(val).tobytes())
            else:
                h.update(repr(val).encode())
    return h.hexdigest()


# ------------------------------------------------------------ small-certs

def small_certs_inputs(seed: int, tiny: bool) -> list[dict]:
    dims = [2, 3, 4, 5] if tiny else [2, 4, 6, 8, 10, 12, 14, 16]
    # Three blocks of eight ops, one near-degenerate op in each: every pass
    # over the pool sees each dimension three times and each phase once.
    pool = 8 * 3
    order = block_order(np.random.default_rng([seed, 0]), dims, pool)
    competitors = 1 if tiny else 4
    return [_small_certs_instance(np.random.default_rng([seed, 1, j]), j, d,
                                  competitors)
            for j, d in enumerate(order)]


def _small_certs_instance(rng, j: int, d: int, competitors: int) -> dict:
    x: dict = {"dim": d}
    # Gram completion.
    n = int(rng.integers(1, d + 1))
    x["gram_fam"] = subnormalized(rng, n, d)
    x["gram_target"] = gram(subnormalized(rng, n, d))
    # Minimal displacement ||eta_i - xi_i||^2 = ((c^1/2 - d^1/2)^2)_ii.
    half = psd_sqrt_ref(x["gram_target"]) - psd_sqrt_ref(gram(x["gram_fam"]))
    x["gram_displacement"] = np.real(np.diag(half @ half))
    # Alignment, full rank (dim >= n) and rank deficient (dim < n).
    for tag, n in (("full", int(rng.integers(1, d + 1))),
                   ("deficient", d + int(rng.integers(1, 5)))):
        src = subnormalized(rng, n, d)
        pert = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        pert = pert / max(np.linalg.norm(pert), 1.0)
        dst = src @ random_unitary(rng, d).T + 10.0 ** rng.uniform(-8, -4) * pert
        gap = float(np.max(np.abs(gram(src) - gram(dst))))
        x[f"align_{tag}_src"] = src
        x[f"align_{tag}_dst"] = dst
        x[f"align_{tag}_delta"] = max(2 * gap, 1e-12)
    # Geodesic pair; one op in eight is nearly colinear or nearly antipodal.
    xi = random_state(rng, d)
    if j % 8 == 7:
        w = random_state(rng, d)
        w = w - np.vdot(xi, w) * xi
        w = w / np.linalg.norm(w)
        s = 10.0 ** rng.uniform(-8, -4)
        phase = (1e-3 * rng.uniform(-1, 1), 0.7, np.pi - 1e-3)[(j // 8) % 3]
        eta = np.exp(1j * phase) * np.sqrt(1 - s * s) * xi + s * w
        eta = eta / np.linalg.norm(eta)
    else:
        eta = random_state(rng, d)
    x["geo_xi"] = xi
    x["geo_eta"] = eta
    x["geo_mids"] = np.array([random_state(rng, d) for _ in range(competitors)])
    # Projection transport: equal e-masses via a unitary commuting with e.
    k = int(rng.integers(1, d))
    q = random_unitary(rng, d)
    x["proj_e"] = q[:, :k] @ q[:, :k].conj().T
    xi_p = random_state(rng, d)
    blocks = np.zeros((d, d), dtype=complex)
    blocks[:k, :k] = random_unitary(rng, k)
    blocks[k:, k:] = random_unitary(rng, d - k)
    x["proj_xi"] = xi_p
    x["proj_eta"] = q @ blocks @ q.conj().T @ xi_p
    # Spectrum match: u with known spectrum, v a perturbation or unrelated.
    lam = np.exp(2j * np.pi * rng.uniform(0, 1, d))
    q = random_unitary(rng, d)
    u = (q * lam) @ q.conj().T
    if j % 2:
        v = expm_i(random_hermitian(rng, d), rng.uniform(0.0, 0.5)) @ u
    else:
        v = random_unitary(rng, d)
    x["spec_u"] = u
    x["spec_v"] = v
    x["spec_lams"] = lam
    x["spec_gap"] = float(np.linalg.norm(u - v, 2))
    # Commutant transports on M_2 (x) 1_2 and M_3 (x) 1_3.
    x["comm_eps"] = (0.1, 0.01)[(j // 2) % 2]
    for n in (2, 3):
        xi_c = random_state(rng, n * n)
        x[f"comm{n}_xi"] = xi_c
        x[f"comm{n}_eta"] = np.kron(np.eye(n), random_unitary(rng, n)) @ xi_c
    return x


def matrix_units(n: int, r: int) -> list[np.ndarray]:
    """e_ij = E_ij (x) 1_r, the units the library's M_n (x) 1_r block holds."""
    out = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            out.append(np.kron(e, np.eye(r)).astype(complex))
    return out


def small_certs_op(st, x: dict, rec: OpRecord) -> None:
    d = x["dim"]
    op_norm = st.linalg.op_norm

    def gram_step():
        fam = st.VectorFamily(d, x["gram_fam"])
        target = st.GramTarget(len(x["gram_target"]), x["gram_target"])
        out = st.gram_complete(fam, target)
        rec.cert("gram.error", "gram",
                 np.max(np.abs(st.gram_matrix(out) - target.c)), GRAM_ERROR_BOUND)
        moved = np.linalg.norm(out.vectors - fam.vectors, axis=1) ** 2
        rec.cert("gram.displacement", "gram",
                 np.max(np.abs(moved - x["gram_displacement"])), DISPLACEMENT_BOUND)

    def align_step(tag):
        src = st.VectorFamily(d, x[f"align_{tag}_src"])
        dst = st.VectorFamily(d, x[f"align_{tag}_dst"])
        res = st.align_unitary(src, dst, x[f"align_{tag}_delta"])
        rec.cert(f"align.{tag}.residual", "gram", res.max_residual,
                 res.bound + ALIGN_SLACK)

    rec.step("gram_complete", gram_step)
    rec.step("align_full", lambda: align_step("full"))
    rec.step("align_deficient", lambda: align_step("deficient"))

    xi, eta = x["geo_xi"], x["geo_eta"]
    # Real angle arccos Re<xi, eta>, in a form accurate near 0 and pi.
    c = float(np.vdot(xi, eta).real)
    theta = math.atan2(float(np.linalg.norm(eta - c * xi)), c)
    paths = []

    def geodesic_step():
        path = st.geodesic_pair(xi, eta)
        paths.append(path)
        rec.cert("geodesic.length", "transport", abs(path.length - theta),
                 GEODESIC_LENGTH_BOUND)
        rec.cert("geodesic.terminal", "transport",
                 np.linalg.norm(path.end() @ xi - eta), GEODESIC_TERMINAL_BOUND)

    def lower_bound_step():
        path = paths[0]
        phi = st.geodesic_lower_bound(path, xi, eta, samples=LOWER_BOUND_SAMPLES)
        rec.cert("geodesic.lower_bound", "transport", phi,
                 path.length + LOWER_BOUND_SLACK)

    def competitors_step():
        shortest = min(
            st.concat_paths(st.geodesic_pair(xi, mid), st.geodesic_pair(mid, eta)).length
            for mid in x["geo_mids"]
        )
        rec.cert("geodesic.minimality", "transport", theta,
                 shortest + COMPETITOR_SLACK)

    if rec.step("geodesic_pair", geodesic_step):
        rec.step("geodesic_lower_bound", lower_bound_step)
    rec.step("competitors", competitors_step)

    def projection_step():
        e, pxi, peta = x["proj_e"], x["proj_xi"], x["proj_eta"]
        path = st.projection_transport(e, pxi, peta)
        rec.cert("projection.length", "transport", path.length,
                 np.pi / 2 + GEODESIC_LENGTH_BOUND)
        comm = 0.0
        for t in path.sample_times(PROJECTION_SAMPLES):
            ut = path.at(t)
            comm = max(comm, op_norm(ut @ e - e @ ut))
        rec.cert("projection.commutator", "transport", comm,
                 PROJECTION_COMMUTATOR_BOUND)
        rec.cert("projection.phase", "transport",
                 1.0 - abs(np.vdot(peta, path.end() @ pxi)), PROJECTION_PHASE_BOUND)

    def spectrum_step():
        u, v = x["spec_u"], x["spec_v"]
        worst = 0.0
        for lam in x["spec_lams"]:
            worst = max(worst, abs(lam - st.spectrum_match(u, v, lam)))
        rec.cert("spectrum.perturbation", "transport", worst,
                 x["spec_gap"] + SPECTRUM_SLACK)

    def commutant_step(n):
        eps = x["comm_eps"]
        cxi, ceta = x[f"comm{n}_xi"], x[f"comm{n}_eta"]
        res = st.commutant_transport(st.full_matrix_units(n, n), cxi, ceta, eps,
                                     exact=True)
        rec.cert(f"commutant{n}.terminal", "transport", res.terminal_error, eps)
        units = matrix_units(n, n)
        comm = 0.0
        for t in res.path.sample_times(COMMUTANT_SAMPLES):
            ut = res.path.at(t)
            for e in units:
                comm = max(comm, op_norm(ut @ e - e @ ut))
        # The exact-repair leg is a geodesic of length L, so it moves every
        # unit by at most 2 L.
        rec.cert(f"commutant{n}.unit_commutator", "transport", comm,
                 UNIT_COMMUTATOR_BOUND + 2 * res.extras["repair_length"])

    rec.step("projection_transport", projection_step)
    rec.step("spectrum_match", spectrum_step)
    rec.step("commutant2", lambda: commutant_step(2))
    rec.step("commutant3", lambda: commutant_step(3))


# ----------------------------------------------------------- spectral-mid

def spectral_mid_inputs(seed: int, tiny: bool) -> list[dict]:
    atoms = [56, 57] if tiny else [56, 60, 64]
    copy_dims = [48] if tiny else [48, 52, 56]
    pool = 2 * len(atoms) * len(copy_dims) // math.gcd(2 * len(atoms), len(copy_dims))
    atom_order = block_order(np.random.default_rng([seed, 0]), atoms, pool // 2)
    copy_order = block_order(np.random.default_rng([seed, 2]), copy_dims, pool)
    out = []
    for j in range(pool):
        rng = np.random.default_rng([seed, 1, j])
        # Alternate the two circle shapes: k=1 with 56-64 atoms at eps 0.1,
        # k=2 with 32 atoms at eps 0.09.
        k, n_atoms, eps = (1, atom_order[j // 2], 0.1) if j % 2 == 0 else (2, 32, 0.09)
        x = _circle_instance(rng, k, n_atoms)
        x["circle_eps"] = eps
        x.update(_group_instance(rng, copy_order[j]))
        out.append(x)
    return out


def _circle_instance(rng, k: int, atoms: int) -> dict:
    """Block M_k (x) 1_atoms with a finite-spectrum circle factor; the target
    differs from the source by a unitary commuting with both.  Atoms are
    near-equispaced with equal mass, so every partition arc keeps mass."""
    dim = k * atoms
    angles = np.sort(np.mod((np.arange(atoms) + rng.uniform(-0.02, 0.02, atoms))
                            / atoms, 1.0))
    fibers = rng.standard_normal((atoms, k)) + 1j * rng.standard_normal((atoms, k))
    fibers = fibers / np.linalg.norm(fibers, axis=1, keepdims=True)
    xi = np.zeros(dim, dtype=complex)
    for a in range(atoms):
        xi[a::atoms] = fibers[a] / np.sqrt(atoms)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, atoms))
    return {
        "circle_k": k,
        "circle_z": np.kron(np.eye(k), np.diag(np.exp(2j * np.pi * angles))),
        "circle_xi": xi,
        "circle_eta": np.kron(np.eye(k), np.diag(phases)) @ xi,
    }


def _group_instance(rng, copy_dim: int) -> dict:
    """Z acting identically on two orthogonal copies; the target lives in the
    second copy with exactly matching correlation data, so one leg suffices."""
    u0 = random_unitary(rng, copy_dim)
    zero = np.zeros((copy_dim, copy_dim))
    x = random_state(rng, copy_dim)
    w, v = np.linalg.eig(u0)
    y = (v * np.exp(1j * rng.uniform(0, 2 * np.pi, copy_dim))) @ np.linalg.inv(v) @ x
    y = y / np.linalg.norm(y)
    return {
        "group_gen": np.block([[u0, zero], [zero, u0]]),
        "group_xi": np.concatenate([x, np.zeros(copy_dim)]),
        "group_eta": np.concatenate([np.zeros(copy_dim), y]),
        "group_h": np.diag(rng.uniform(-1, 1, 2 * copy_dim)).astype(complex),
    }


def spectral_mid_op(st, x: dict, rec: OpRecord) -> None:
    op_norm = st.linalg.op_norm

    def circle_step():
        k, z, eps = x["circle_k"], x["circle_z"], x["circle_eps"]
        model = st.SpectralModel.from_unitary(z)
        block = st.full_matrix_units(k, len(z) // k, len(z))
        res = st.arc_transport(block, model, x["circle_xi"], x["circle_eta"], [],
                               eps, t_samples=CIRCLE_SAMPLES)
        rec.cert("circle.terminal", "circle", res.terminal_error, res.terminal_bound)
        rec.cert("circle.z_commutator", "circle", res.z_commutator_sup,
                 res.z_commutator_bound)
        gaps = np.diff(np.append(res.partition.points, res.partition.points[0] + 1.0))
        rec.cert("circle.gap_max", "circle", np.max(gaps), 1.5 * eps)
        rec.cert("circle.gap_min", "circle", eps / 2, np.min(gaps))

    def group_step():
        action = st.integer_action([x["group_gen"]])
        gens = [(1,), (-1,)]
        res = st.group_state_transport(action, x["group_xi"], x["group_eta"], gens,
                                       0.1, t_samples=GROUP_SAMPLES)
        rec.cert("group.terminal", "group", res.terminal_error, res.terminal_bound)
        rec.cert("group.commutator", "group", res.commutator_sup, res.commutator_bound)
        # Folner average of a diagonal h nearly commutes with each generator.
        h = x["group_h"]
        hbar = st.average_conjugates(h, res.folner, action)
        comm = 0.0
        for g in gens:
            r = action.rep(g)
            comm = max(comm, op_norm(r @ hbar - hbar @ r))
        rec.cert("group.folner_average", "group", comm,
                 2 * res.folner.defect * np.max(np.abs(np.diag(h))) + FOLNER_SLACK)

    rec.step("arc_transport", circle_step)
    rec.step("group_state_transport", group_step)


# --------------------------------------------------------------- tower-256

def tower_inputs(seed: int, tiny: bool) -> list[dict]:
    levels, ambient, level = (4, 16, 3) if tiny else (8, 256, 6)
    out = []
    for j in range(2):
        rng = np.random.default_rng([seed, 1, j])
        xi = random_state(rng, ambient)
        # eta = v^* xi with v in the commutant of the given level, twisted by
        # exp(1e-11 i h), so deep statistics agree to the twist.
        size = 2**level
        v = np.kron(np.eye(size), random_unitary(rng, ambient // size))
        h = random_hermitian(rng, ambient)
        v = v @ expm_i(h / np.linalg.norm(h, 2), 1e-11)
        out.append({"levels": levels, "ambient": ambient, "rounds": level,
                    "xi": xi, "eta": v.conj().T @ xi})
    return out


def tower_op(st, x: dict, rec: OpRecord) -> None:
    eps = 0.1

    def tower_step():
        tower = st.build_tower([2] * x["levels"], x["ambient"])
        schedule = st.make_schedule(tower, eps, x["rounds"])
        fixed = tower.level_generators(1)
        res = st.back_and_forth(tower, x["xi"], x["eta"], fixed, schedule)
        for log in res.logs:
            rec.cert(f"intertwine.round{log['round']}", "intertwine",
                     log["commutation"], log["budget"])
        for key in ("ad_odd", "ad_even", "ad_combined"):
            rec.cert(f"intertwine.{key}", "intertwine", res.final[f"{key}_sup"],
                     res.final[f"{key}_bound"])
        path = st.assemble_path(res)
        sup = st.assembled_commutation_sup(path, fixed, samples=TOWER_PATH_SAMPLES)
        rec.cert("intertwine.path", "intertwine", sup,
                 4 * eps / 3 + INTERTWINE_PATH_SLACK)

    rec.step("back_and_forth", tower_step)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, bool], list]  # (seed, tiny) -> instances
    op: Callable[[object, dict, OpRecord], None]  # (library, instance, record)
    traced_ops: int  # ops in the fixed traced set
    pass_s: float  # seconds per pass over the pool on the reference host

    def passes(self, seconds: float) -> int:
        """Whole passes over the pool in a run of about ``seconds`` on the
        reference host (a 2-vCPU Xeon).  The op count depends on ``seconds``
        alone, never on a clock, so a seed always gives the same ops, the
        same mix of sizes and the same failures."""
        return max(MIN_PASSES, round(seconds / self.pass_s))


WORKLOADS = {
    w.name: w for w in (
        Workload("small-certs", small_certs_inputs, small_certs_op, 16, 5.5),
        Workload("spectral-mid", spectral_mid_inputs, spectral_mid_op, 6, 3.3),
        Workload("tower-256", tower_inputs, tower_op, 2, 9.5),
    )
}


def run_op(st, workload: Workload, x: dict) -> OpRecord:
    """One op: the workload's steps, then the canonical report."""
    rec = OpRecord()
    workload.op(st, x, rec)
    rec.step("dumps_report", lambda: st.serialize.dumps_report(
        {"measured": rec.measured, "bounds": rec.bounds}))
    return rec
