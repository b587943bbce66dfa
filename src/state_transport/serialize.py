"""JSON wire formats and CSV export.

Complex scalars are encoded as [re, im]; matrices row-major as nested
lists of encoded scalars.  Floats rely on Python's shortest round-trip
repr, so equal inputs serialize to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .gram import GramTarget, VectorFamily
from .group import GroupAction
from .linalg import check_hermitian, check_unitary
from .path import PathSegment, UnitaryPath


def encode_complex(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def encode_vector(x: np.ndarray) -> list:
    return [encode_complex(z) for z in np.asarray(x, dtype=complex).reshape(-1)]


def decode_vector(data) -> np.ndarray:
    return np.array([decode_complex(v) for v in data], dtype=complex)


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "entries": [[encode_complex(z) for z in row] for row in m],
    }


def decode_matrix(data) -> np.ndarray:
    return np.array(
        [[decode_complex(v) for v in row] for row in data["entries"]], dtype=complex
    )


def encode_family(fam: VectorFamily) -> dict:
    return {"dim": fam.dim, "vectors": [encode_vector(v) for v in fam.vectors]}


def decode_family(data) -> VectorFamily:
    return VectorFamily(
        dim=data["dim"], vectors=np.array([decode_vector(v) for v in data["vectors"]])
    )


def encode_gram_target(t: GramTarget) -> dict:
    return {"n": t.n, "c": encode_matrix(t.c)}


def decode_gram_target(data) -> GramTarget:
    return GramTarget(n=data["n"], c=decode_matrix(data["c"]))


def encode_path(p: UnitaryPath) -> dict:
    return {
        "segments": [
            {
                "t0": s.t0,
                "t1": s.t1,
                "h": encode_matrix(s.generator),
                "base": encode_matrix(s.base),
            }
            for s in p.segments
        ],
        "length": p.length,
    }


def decode_path(data) -> UnitaryPath:
    """Rebuild a path, checking that every generator is Hermitian and every
    base unitary: path segments trust both."""
    segs = [
        PathSegment(
            t0=s["t0"],
            t1=s["t1"],
            generator=check_hermitian(decode_matrix(s["h"])),
            base=check_unitary(decode_matrix(s["base"])),
        )
        for s in data["segments"]
    ]
    return UnitaryPath(segs)


def encode_group_action(a: GroupAction) -> dict:
    if a.kind == "finite":
        return {
            "kind": "finite",
            "table": a.table.tolist(),
            "rep": [encode_matrix(r) for r in a.reps],
        }
    return {
        "kind": "Zd",
        "generators": [encode_matrix(g) for g in a.generators],
    }


def decode_group_action(data) -> GroupAction:
    if data["kind"] == "finite":
        reps = np.array([decode_matrix(r) for r in data["rep"]])
        return GroupAction(
            kind="finite",
            dim=reps.shape[1],
            table=np.array(data["table"], dtype=int),
            reps=reps,
        )
    gens = [decode_matrix(g) for g in data["generators"]]
    return GroupAction(kind="Zd", dim=gens[0].shape[0], generators=gens)


def dumps_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, newline-terminated."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Fixed-schema CSV with shortest round-trip float formatting."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)
