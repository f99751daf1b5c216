"""Tests for the JSON system, vector, and frame-family files."""

import json

import numpy as np
import pytest

from kgframes import (
    DimMismatchError,
    KGSystem,
    GSystem,
    ParseError,
    load_frame_family,
    load_system,
    load_vector,
    random_frame_family,
    save_frame_family,
    save_system,
    save_vector,
)
from kgframes.serialization import (
    SYSTEM_FILE_SCHEMA,
    SYSTEM_SCHEMA_VERSION,
    file_digest,
    matrix_from_json,
    matrix_to_json,
)

from oracles import complex_gaussian, random_instance

jsonschema = pytest.importorskip("jsonschema")


def test_matrix_codec_round_trips_exactly():
    rng = np.random.default_rng(90)
    m = complex_gaussian(rng, (3, 5))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))), "m")
    assert np.array_equal(back, m)


def test_matrix_codec_rejects_malformed_entries():
    with pytest.raises(ParseError, match="entry 1"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 0], [True, 0]]}, "m")
    with pytest.raises(ParseError, match="non-finite"):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[1e999, 0]]}, "m")
    with pytest.raises(ParseError, match="expected 2 entries"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 0]]}, "m")
    with pytest.raises(ParseError):
        matrix_from_json([], "m")


@pytest.mark.parametrize("bad", [["1.0", 0], [None, 0], [1, 0, 0], [1.0], (1, 0), 1.0])
def test_matrix_codec_names_the_bad_entry(bad):
    entries = [[1, 0], [0.5, -2], bad, [3, 4]]
    with pytest.raises(ParseError, match="entry 2 is not a"):
        matrix_from_json({"rows": 2, "cols": 2, "entries": entries}, "m")


def test_matrix_codec_rejects_overflowing_integers():
    with pytest.raises(ParseError, match="non-finite"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 0], [10**400, 0]]}, "m")


def test_matrix_codec_accepts_numpy_floats_and_empty_matrices():
    back = matrix_from_json({"rows": 1, "cols": 2, "entries": [[np.float64(1.5), 0], [2, -1]]}, "m")
    assert np.array_equal(back, np.array([[1.5, 2 - 1j]]))
    assert matrix_from_json({"rows": 0, "cols": 3, "entries": []}, "m").shape == (0, 3)


def test_matrix_writer_matches_per_entry_floats():
    rng = np.random.default_rng(97)
    m = complex_gaussian(rng, (4, 3))
    m[0, 0] = complex(-0.0, 0.0)
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    assert json.dumps(matrix_to_json(m)["entries"]) == json.dumps(entries)


def test_system_round_trip_is_bit_exact(tmp_path):
    ksys = random_instance(91)
    path = tmp_path / "sys.json"
    save_system(ksys, path)
    back = load_system(path)
    assert back.ambient_dim == ksys.ambient_dim
    assert all(np.array_equal(a, b) for a, b in zip(back.system.blocks, ksys.system.blocks))
    assert np.array_equal(back.k, ksys.k)


def test_saved_system_validates_against_schema(tmp_path):
    ksys = random_instance(92)
    path = tmp_path / "sys.json"
    save_system(ksys, path)
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, SYSTEM_FILE_SCHEMA)
    assert doc["version"] == SYSTEM_SCHEMA_VERSION


def test_missing_k_defaults_to_identity(tmp_path):
    ksys = random_instance(93)
    path = tmp_path / "sys.json"
    save_system(ksys, path)
    doc = json.loads(path.read_text())
    del doc["k"]
    path.write_text(json.dumps(doc))
    back = load_system(path)
    assert np.array_equal(back.k, np.eye(ksys.ambient_dim))


def test_load_rejects_mismatched_block_width(tmp_path):
    path = tmp_path / "sys.json"
    doc = {
        "version": SYSTEM_SCHEMA_VERSION,
        "ambient_dim": 3,
        "field": "complex",
        "blocks": [matrix_to_json(np.zeros((1, 3))), matrix_to_json(np.zeros((1, 4)))],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(DimMismatchError, match="block 1"):
        load_system(path)


def test_load_rejects_wrong_version_and_bad_json(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        load_system(path)
    path.write_text(json.dumps({"version": "other/9", "ambient_dim": 1, "field": "complex", "blocks": []}))
    with pytest.raises(ParseError, match="version"):
        load_system(path)
    with pytest.raises(ParseError):
        load_system(tmp_path / "absent.json")


def test_vector_round_trip(tmp_path):
    rng = np.random.default_rng(94)
    v = complex_gaussian(rng, 7)
    path = tmp_path / "vec.json"
    save_vector(v, path)
    assert np.array_equal(load_vector(path), v)


def test_frame_family_round_trip(tmp_path):
    fams = random_frame_family((2, 3), seed=9)
    path = tmp_path / "fams.json"
    save_frame_family(fams, path)
    back = load_frame_family(path)
    assert len(back.families) == 2
    assert all(np.array_equal(a, b) for a, b in zip(back.families, fams.families))
    assert back.lower == pytest.approx(fams.lower, rel=1e-12)
    assert back.upper == pytest.approx(fams.upper, rel=1e-12)


def test_file_digest_tracks_content(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    ksys = random_instance(95)
    save_system(ksys, p1)
    save_system(ksys, p2)
    assert file_digest(p1) == file_digest(p2)
    other = KGSystem(GSystem(2, (np.eye(2),)), np.eye(2))
    save_system(other, p2)
    assert file_digest(p1) != file_digest(p2)


def test_save_system_output_is_deterministic(tmp_path):
    ksys = random_instance(96)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_system(ksys, p1)
    save_system(ksys, p2)
    assert p1.read_bytes() == p2.read_bytes()
