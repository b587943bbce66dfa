import json

import numpy as np
import pytest

from state_transport.errors import NotHermitianError, NotUnitaryError
from state_transport.gram import GramTarget, VectorFamily
from state_transport.group import finite_cyclic_action, integer_action
from state_transport.linalg import op_norm
from state_transport.path import concat_paths
from state_transport.serialize import (
    decode_complex,
    decode_family,
    decode_gram_target,
    decode_group_action,
    decode_matrix,
    decode_path,
    decode_vector,
    dumps_report,
    encode_complex,
    encode_family,
    encode_gram_target,
    encode_group_action,
    encode_matrix,
    encode_path,
    encode_vector,
    write_csv,
)
from state_transport.suites import random_state, random_unitary
from state_transport.transport import geodesic_pair


def test_complex_roundtrip():
    z = 1.25 - 0.5j
    assert decode_complex(encode_complex(z)) == z
    assert decode_complex(3) == 3.0 + 0j


def test_vector_and_matrix_roundtrip(rng):
    x = random_state(rng, 5)
    assert np.array_equal(decode_vector(encode_vector(x)), x)
    m = random_unitary(rng, 4)
    enc = encode_matrix(m)
    assert enc["dim"] == 4
    assert np.array_equal(decode_matrix(enc), m)


def test_family_and_target_roundtrip(rng):
    vecs = np.array([random_state(rng, 3) for _ in range(2)])
    fam = VectorFamily(3, vecs)
    back = decode_family(encode_family(fam))
    assert back.dim == 3
    assert np.array_equal(back.vectors, fam.vectors)
    t = GramTarget(2, np.eye(2, dtype=complex))
    back_t = decode_gram_target(encode_gram_target(t))
    assert back_t.n == 2
    assert np.array_equal(back_t.c, t.c)


def test_path_roundtrip(rng):
    xi = random_state(rng, 3)
    mid = random_state(rng, 3)
    eta = random_state(rng, 3)
    p = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
    q = decode_path(encode_path(p))
    assert q.length == p.length
    for t in (0.0, 0.4, 1.0):
        assert op_norm(q.at(t) - p.at(t)) == 0.0


def test_group_action_roundtrip(rng):
    u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fin = finite_cyclic_action(3, u)
    back = decode_group_action(encode_group_action(fin))
    assert back.kind == "finite"
    assert op_norm(back.rep(1) - fin.rep(1)) == 0.0
    act = integer_action([random_unitary(rng, 3)])
    back2 = decode_group_action(encode_group_action(act))
    assert back2.kind == "Zd"
    assert op_norm(back2.rep((2,)) - act.rep((2,))) < 1e-12


def test_dumps_report_canonical():
    a = dumps_report({"b": 1.5, "a": [1, 2]})
    b = dumps_report({"a": [1, 2], "b": 1.5})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1.5}


def test_write_csv_formats(tmp_path):
    out = tmp_path / "rows.csv"
    write_csv(str(out), ["i", "x", "ok"], [[1, 0.1, True], [2, 2.0, False]])
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "i,x,ok"
    assert lines[1] == "1,0.1,true"
    assert lines[2] == "2,2.0,false"


def test_decode_path_rejects_forged_segments(rng):
    data = encode_path(geodesic_pair(random_state(rng, 3), random_state(rng, 3)))
    forged = json.loads(json.dumps(data))
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    forged["segments"][0]["h"] = encode_matrix(h)
    with pytest.raises(NotHermitianError):
        decode_path(forged)
    forged = json.loads(json.dumps(data))
    forged["segments"][0]["base"] = encode_matrix(2.0 * np.eye(3))
    with pytest.raises(NotUnitaryError):
        decode_path(forged)
