"""Tests for the JSON system, vector, and frame-family files."""

import hashlib
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgframes import (
    DimMismatchError,
    InputError,
    SubspaceFrameFamily,
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
    VECTOR_SCHEMA_VERSION,
    _dump_json,
    _write_json,
    complex_pairs,
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


NAN = float("nan")


@pytest.mark.parametrize("entries, message", [
    ([[10**308, 0], [1, 2]], None),  # integers up to 1e308 read as doubles
    ([[10**309, 0], [1, 2]], "non-finite entry"),
    ([[1, NAN], [1, 2]], "non-finite entry"),
    ([[np.float64(NAN), 0], [1, 2]], "non-finite entry"),
    # a NaN before a malformed entry gives way to it; an integer too large
    # for a double does not
    ([[NAN, 0], [1, 2], ["x", 0]], "entry 2 is not a"),
    ([[10**400, 0], [1, 2], ["x", 0]], "non-finite entry"),
    ([["x", 0], [1, 2], [10**400, 0]], "entry 0 is not a"),
], ids=["int-1e308", "int-1e309", "nan", "numpy-nan", "nan-then-string", "overflow-then-string",
        "string-then-overflow"])
def test_matrix_codec_names_the_first_bad_entry(entries, message):
    obj = {"rows": 1, "cols": len(entries), "entries": entries}
    if message is None:
        assert matrix_from_json(obj, "m")[0, 0] == 1e308
    else:
        with pytest.raises(ParseError, match=f"^m: {message}"):
            matrix_from_json(obj, "m")


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


@pytest.mark.parametrize("n", [-1, 0])
def test_load_rejects_ambient_dims_below_one_as_the_schema_does(tmp_path, n):
    path = tmp_path / "sys.json"
    doc = {"version": SYSTEM_SCHEMA_VERSION, "ambient_dim": n, "field": "complex", "blocks": []}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SYSTEM_FILE_SCHEMA)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"{path}: missing or malformed ambient_dim")):
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


@pytest.mark.parametrize("v", [np.ones((2, 3)), np.array([1.0, np.nan]), np.array(1.0)],
                         ids=["2-d", "nan", "0-d"])
def test_save_vector_rejects_what_load_vector_would_and_writes_nothing(tmp_path, v):
    path = tmp_path / "vec.json"
    with pytest.raises(ValueError):
        save_vector(v, path)
    assert not path.exists()


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


def test_system_and_vector_round_trips_keep_sign_bits_and_subnormals(tmp_path):
    # np.array_equal counts -0.0 equal to 0.0; the uint64 views do not
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                        -1e308, 1.7976931348623157e308, -0.1, 1 / 3, 1e-300, -2.5e-320])
    m = special.view(np.complex128).reshape(2, 3)
    k = np.resize(-special, 18).view(np.complex128).reshape(3, 3)
    ksys = KGSystem(GSystem(3, (m, -m, np.zeros((0, 3)))), k)
    path = tmp_path / "sys.json"
    save_system(ksys, path)
    back = load_system(path)
    for a, b in zip((*back.system.blocks, back.k), (*ksys.system.blocks, ksys.k)):
        assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))
    vec = special.view(np.complex128)
    save_vector(vec, path)
    assert np.array_equal(load_vector(path).view(np.uint64), vec.view(np.uint64))


# The writer against the stdlib encoder: seeded, bounded examples.
WRITER = settings(max_examples=60, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5, 0.1, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), ANY_FLOAT,
    ANY_FLOAT.map(np.float64),
    st.text(max_size=6), st.sampled_from(['say "hi"', "naïve ∑  ", "back\\\\slash", "tab\\t"]),
)
PAIR_LISTS = st.lists(st.lists(st.one_of(ANY_FLOAT, ANY_FLOAT.map(np.float64), st.integers()),
                               min_size=2, max_size=2), max_size=4)
# arrays stand for their complex_pairs: real or complex, 1-D or 2-D, some non-finite
ARRAYS = st.one_of(st.lists(FINITE, max_size=12), st.lists(ANY_FLOAT, max_size=4)).flatmap(
    lambda xs: st.sampled_from([
        np.array(xs, dtype=np.float64),
        np.array(xs[: len(xs) // 2 * 2], dtype=np.float64).view(np.complex128),
        np.array(xs[: len(xs) // 2 * 2], dtype=np.float64).view(np.complex128).reshape(-1, 1),
    ]))
JSONISH = st.recursive(
    st.one_of(SCALARS, PAIR_LISTS, ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


def _stdlib(doc) -> str:
    return json.dumps(doc, indent=1, default=complex_pairs) + "\n"


@st.composite
def _matrices(draw, cols=None):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 3)) if cols is None else cols
    if draw(st.booleans()):
        return np.zeros((rows, cols), dtype=np.complex128)
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def _pairs_doc(m) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1],
            "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


@WRITER
@given(data=st.data())
def test_saved_files_are_the_stdlib_encoders_bytes(tmp_path, data):
    n = data.draw(st.integers(1, 3))
    blocks = data.draw(st.lists(_matrices(cols=n), max_size=3))
    k = data.draw(st.one_of(_matrices(cols=n).filter(lambda m: m.shape[0] == n),
                            st.just(np.eye(n, dtype=np.complex128))))
    path = tmp_path / "out.json"
    # each save_* returns the digest of the bytes it wrote
    digest = save_system(KGSystem(GSystem(n, tuple(blocks)), k), path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text() == _stdlib({
        "version": SYSTEM_SCHEMA_VERSION, "ambient_dim": n, "field": "complex",
        "blocks": [_pairs_doc(b) for b in blocks], "k": _pairs_doc(k)})
    vec = data.draw(_matrices(cols=1)).reshape(-1)
    assert save_vector(vec, path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text() == _stdlib({
        "version": VECTOR_SCHEMA_VERSION, "dim": vec.size,
        "entries": _pairs_doc(vec.reshape(-1, 1))["entries"]})
    fams = data.draw(st.lists(_matrices(), max_size=3))
    digest = save_frame_family(SubspaceFrameFamily(tuple(fams), 1.0, 1.0), path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.read_text() == _stdlib({
        "version": "kgframes.frames/1", "families": [_pairs_doc(f) for f in fams]})


@WRITER
@given(doc=st.dictionaries(st.text(max_size=8), JSONISH, max_size=6))
def test_written_reports_are_the_stdlib_encoders_bytes(doc):
    for value in (doc, {}, {"payload": doc, "empty": [], "nested": {"e": {}}}):
        buf = io.StringIO()
        _dump_json(value, buf.write)
        assert buf.getvalue() == _stdlib(value)


def test_writer_rejects_unknown_types_and_non_string_keys():
    for bad in ({"k": object()}, {"k": [np.int64(1)]}, {1: 0}):
        with pytest.raises(TypeError):
            _dump_json(bad, io.StringIO().write)


def test_failed_write_leaves_the_old_file_and_no_other(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        _write_json({"k": object()}, path)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_keeps_the_permissions_that_open_gives(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w"):
        pass
    _write_json({"a": 1}, tmp_path / "new.json")
    assert (tmp_path / "new.json").stat().st_mode == plain.stat().st_mode
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    kept.chmod(0o640)
    _write_json({"a": 1}, kept)
    assert kept.stat().st_mode & 0o777 == 0o640
    assert kept.read_text() == '{\n "a": 1\n}\n'


def test_write_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    _write_json({"a": 1}, link)
    assert link.is_symlink()
    assert target.read_text() == '{\n "a": 1\n}\n'


def test_write_through_a_hard_link_keeps_the_link(tmp_path):
    target = tmp_path / "a.json"
    target.write_text("old\n")
    link = tmp_path / "b.json"
    os.link(target, link)
    _write_json({"a": 1}, target)
    assert link.read_text() == '{\n "a": 1\n}\n'
    assert target.stat().st_nlink == 2


def test_write_to_stdout_or_a_device_goes_through_it(capfd):
    _write_json({"a": 1}, "/dev/stdout")
    assert capfd.readouterr().out == '{\n "a": 1\n}\n'
    _write_json({"a": 1}, "/dev/null")
    assert os.path.exists("/dev/null") and not os.path.isfile("/dev/null")


def test_unwritable_targets_name_the_path_as_open_does(tmp_path):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        with pytest.raises(InputError) as exc:
            _write_json({"a": 1}, path)
        with pytest.raises(OSError) as opened:
            open(path, "w")
        assert str(exc.value) == f"cannot write {path}: {opened.value}"
    assert not any(tmp_path.iterdir())


def test_reader_rejects_text_that_is_not_utf8_or_too_deep(tmp_path):
    path = tmp_path / "sys.json"
    path.write_bytes(b'{"version": "kgframes.system/1", "field": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8"):
        load_system(path)
    path.write_text("[" * 100000)
    with pytest.raises(ParseError, match="nested too deeply"):
        load_system(path)


@pytest.mark.parametrize("value", [2.7, "2", True, 1e999, None, [2]])
def test_reader_rejects_dimensions_that_are_not_integers(tmp_path, value):
    path = tmp_path / "sys.json"
    doc = {"version": SYSTEM_SCHEMA_VERSION, "ambient_dim": value, "field": "complex",
           "blocks": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="malformed ambient_dim"):
        load_system(path)
    path.write_text(json.dumps({"version": VECTOR_SCHEMA_VERSION, "dim": value, "entries": []}))
    with pytest.raises(ParseError, match="malformed dim"):
        load_vector(path)
    with pytest.raises(ParseError, match="malformed rows/cols"):
        matrix_from_json({"rows": value, "cols": 1, "entries": [[1, 0], [2, 0]]}, "m")
    with pytest.raises(ParseError, match="malformed rows/cols"):
        matrix_from_json({"rows": 1.9, "cols": "2", "entries": [[1, 0], [2, 0]]}, "m")


def test_reader_takes_integral_floats_as_the_schema_does(tmp_path):
    # JSON Schema's "integer" includes 2.0
    jsonschema.validate({"version": SYSTEM_SCHEMA_VERSION, "ambient_dim": 2.0,
                         "field": "complex", "blocks": []}, SYSTEM_FILE_SCHEMA)
    back = matrix_from_json({"rows": 1.0, "cols": 2.0, "entries": [[1, 0], [2, 0]]}, "m")
    assert np.array_equal(back, np.array([[1, 2]]))
