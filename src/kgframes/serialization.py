"""JSON interchange for systems, vectors, and frame families.

Complex matrices are stored as row-major lists of ``[re, im]`` pairs so
files stay language neutral and diff friendly. Floats round-trip exactly
through the standard JSON encoder, which makes save/load bit-exact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .constructions import SubspaceFrameFamily
from .errors import DimMismatchError, ParseError
from .gsystem import GSystem, KGSystem

SYSTEM_SCHEMA_VERSION = "kgframes.system/1"
VECTOR_SCHEMA_VERSION = "kgframes.vector/1"
FRAMES_SCHEMA_VERSION = "kgframes.frames/1"
REPORT_SCHEMA_VERSION = "kgframes.report/1"

_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["rows", "cols", "entries"],
    "properties": {
        "rows": {"type": "integer", "minimum": 0},
        "cols": {"type": "integer", "minimum": 0},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}

SYSTEM_FILE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "ambient_dim", "field", "blocks"],
    "properties": {
        "version": {"const": SYSTEM_SCHEMA_VERSION},
        "ambient_dim": {"type": "integer", "minimum": 1},
        "field": {"const": "complex"},
        "blocks": {"type": "array", "items": _MATRIX_SCHEMA},
        "k": _MATRIX_SCHEMA,
    },
}

REPORT_FILE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "command", "inputs", "tolerances", "payload", "wall_time_s"],
    "properties": {
        "version": {"const": REPORT_SCHEMA_VERSION},
        "command": {"type": "array", "items": {"type": "string"}},
        "inputs": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["path", "sha256"],
                "properties": {
                    "path": {"type": "string"},
                    "sha256": {"type": "string"},
                },
            },
        },
        "tolerances": {"type": "object", "additionalProperties": {"type": "number"}},
        "payload": {"type": "object"},
        "wall_time_s": {"type": "number"},
    },
}


def complex_pairs(a) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs of a complex array, as Python floats."""
    flat = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return flat.reshape(-1, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": complex_pairs(a)}


def _pairs_array(entries: list, count: int) -> np.ndarray | None:
    """All entries at once, or None when some entry is not a finite [re, im] pair.

    The type scan comes first: numpy would convert "1.0" and True silently.
    """
    if not all(type(pair) is list for pair in entries) or not all(
            type(x) in (int, float) for pair in entries for x in pair):
        return None
    try:
        flat = np.asarray(entries, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    ok = flat.shape == (count, 2) and np.all(np.isfinite(flat))
    return flat.view(np.complex128).reshape(-1) if ok else None


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: missing or malformed rows/cols/entries") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"{where}: negative dimensions")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(f"{where}: expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    flat = _pairs_array(entries, rows * cols)
    if flat is None:
        # names the first bad entry
        flat = np.empty(rows * cols, dtype=np.complex128)
        for i, pair in enumerate(entries):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
                raise ParseError(f"{where}: entry {i} is not a [re, im] pair")
            try:
                flat[i] = complex(pair[0], pair[1])
            except OverflowError:
                raise ParseError(f"{where}: non-finite entry") from None
        if rows * cols and not np.all(np.isfinite(flat)):
            raise ParseError(f"{where}: non-finite entry")
    return flat.reshape(rows, cols)


def _write_json(doc: dict, path) -> None:
    # streamed: the same bytes as json.dumps(doc, indent=1), without the
    # whole text (many times the file size as chunks) in memory at once
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def save_system(ksys: KGSystem, path) -> None:
    doc = {
        "version": SYSTEM_SCHEMA_VERSION,
        "ambient_dim": ksys.ambient_dim,
        "field": "complex",
        "blocks": [matrix_to_json(b) for b in ksys.system.blocks],
        "k": matrix_to_json(ksys.k),
    }
    _write_json(doc, path)


def load_system(path) -> KGSystem:
    """Read a SystemFile; an absent K field means K is the identity."""
    doc = _read_json(path)
    version = doc.get("version")
    if version != SYSTEM_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported version {version!r}")
    if doc.get("field") != "complex":
        raise ParseError(f"{path}: field must be 'complex'")
    try:
        n = int(doc["ambient_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed ambient_dim") from exc
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list):
        raise ParseError(f"{path}: blocks must be a list")
    blocks = []
    for j, raw in enumerate(raw_blocks):
        block = matrix_from_json(raw, f"{path}: block {j}")
        if block.shape[1] != n:
            raise DimMismatchError(
                f"{path}: block {j} has {block.shape[1]} columns, expected {n}"
            )
        blocks.append(block)
    if "k" in doc:
        k = matrix_from_json(doc["k"], f"{path}: k")
        if k.shape != (n, n):
            raise DimMismatchError(f"{path}: k has shape {k.shape}, expected ({n}, {n})")
    else:
        k = np.eye(n, dtype=np.complex128)
    return KGSystem(GSystem(n, tuple(blocks)), k)


def save_vector(v: np.ndarray, path) -> None:
    a = np.asarray(v, dtype=np.complex128)
    doc = {
        "version": VECTOR_SCHEMA_VERSION,
        "dim": int(a.shape[0]),
        "entries": complex_pairs(a),
    }
    _write_json(doc, path)


def load_vector(path) -> np.ndarray:
    doc = _read_json(path)
    if doc.get("version") != VECTOR_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported version {doc.get('version')!r}")
    try:
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed dim") from exc
    mat = matrix_from_json({"rows": dim, "cols": 1, "entries": doc.get("entries", [])}, f"{path}: entries")
    return mat.reshape(-1)


def save_frame_family(fams: SubspaceFrameFamily, path) -> None:
    doc = {
        "version": FRAMES_SCHEMA_VERSION,
        "families": [matrix_to_json(f) for f in fams.families],
    }
    _write_json(doc, path)


def load_frame_family(path) -> SubspaceFrameFamily:
    """Read a frame-family file; vectors are rows of each family matrix."""
    doc = _read_json(path)
    if doc.get("version") != FRAMES_SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported version {doc.get('version')!r}")
    raw = doc.get("families")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: families must be a list")
    mats = [matrix_from_json(f, f"{path}: family {j}") for j, f in enumerate(raw)]
    return SubspaceFrameFamily.from_vectors(mats)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
