"""JSON interchange for systems, vectors, and frame families.

Complex matrices are stored as row-major lists of ``[re, im]`` pairs so
files stay language neutral and diff friendly. Every file, report and error
report is written by one private writer whose bytes are those of
``json.dumps(doc, indent=1)`` plus a newline. It writes the ``[re, im]``
pairs of each finite matrix straight from the array, with one join over
``float.__repr__``: the shortest text that parses back to the same double,
so save/load is bit-exact. Every other value is written by ``json`` itself.
A new file, or a file with one link, is written beside its target and renamed onto it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import linops
from .constructions import SubspaceFrameFamily
from .errors import DimMismatchError, InputError, ParseError
from .gsystem import GSystem, KGSystem

__all__ = ["load_frame_family", "load_system", "load_vector", "save_frame_family", "save_system",
           "save_vector"]

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
        "thresholds": {"type": "object", "additionalProperties": {"type": "number"}},
        "payload": {"type": "object"},
        "wall_time_s": {"type": "number"},
    },
}


def complex_pairs(a) -> list[list[float]]:
    """Row-major ``[re, im]`` pairs of a complex array, as Python floats."""
    flat = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return flat.reshape(-1, 2).tolist()


def _matrix_doc(m) -> dict:
    """A matrix document holding the array itself as ``entries``; the writer
    writes it as ``complex_pairs`` of the array."""
    a = np.asarray(m, dtype=np.complex128)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": a}


def _is_number_type(t: type) -> bool:  # np.float64 is a float; bool is not a number
    return issubclass(t, (int, float)) and t is not bool


def _integer(value) -> int:
    """A JSON integer as the file schemas read it: an int, or a float with
    no fractional part; a bool, a string or any other number is rejected."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        rows = _integer(obj["rows"])
        cols = _integer(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: missing or malformed rows/cols/entries") from exc
    if rows < 0 or cols < 0:
        raise ParseError(f"{where}: negative dimensions")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(f"{where}: expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    # All entries at once when each is a finite [re, im] pair. The type scan
    # comes first: numpy would convert "1.0" and True silently.
    if (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
            and all(map(_is_number_type, set(map(type, chain.from_iterable(entries)))))):
        with contextlib.suppress(OverflowError):
            flat = np.fromiter(chain.from_iterable(entries), np.float64, 2 * len(entries))
            if np.all(np.isfinite(flat)):
                return flat.view(np.complex128).reshape(rows, cols)
    # name the first malformed entry, unless an integer too large for a double comes first
    for i, pair in enumerate(entries):
        if (type(pair) is not list or len(pair) != 2
                or not all(map(_is_number_type, map(type, pair)))):
            raise ParseError(f"{where}: entry {i} is not a [re, im] pair")
        try:
            complex(*pair)
        except OverflowError:
            break
    raise ParseError(f"{where}: non-finite entry")


def _pairs_chunks(a: np.ndarray, depth: int):
    """A complex array as ``json.dumps(complex_pairs(a), indent=1)`` writes it
    at nesting ``depth``: its floats in one join over ``float.__repr__``,
    with no list per pair."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64).reshape(-1)
    if not parts.size or not np.all(np.isfinite(parts)):
        # [] and json's NaN / Infinity
        yield from _json_chunks(complex_pairs(a), depth)
        return
    outer, pair, inner = ("\n" + " " * (depth + d) for d in (0, 1, 2))
    reprs = map(float.__repr__, parts.tolist())
    yield f"[{pair}[{inner}"
    yield f"{pair}],{pair}[{inner}".join(map(f",{inner}".join, zip(reprs, reprs)))
    yield f"{pair}]{outer}]"


def _json_chunks(value, depth: int = 0):
    """The text of ``json.dumps(value, indent=1)`` in pieces, where a numpy
    array stands for ``complex_pairs`` of it. Dict keys must be strings."""
    if isinstance(value, np.ndarray):
        yield from _pairs_chunks(value, depth)
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        inner = "\n" + " " * (depth + 1)
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield sep + json.dumps(key) + ": "
            yield from _json_chunks(item, depth + 1)
            sep = "," + inner
        yield "\n" + " " * depth + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        inner = "\n" + " " * (depth + 1)
        sep = "[" + inner
        for item in value:
            yield sep
            yield from _json_chunks(item, depth + 1)
            sep = "," + inner
        yield "\n" + " " * depth + "]"
    else:
        yield json.dumps(value)


def _dump_json(doc, write) -> None:
    """Pass ``json.dumps(doc, indent=1)`` and a newline to ``write``, one
    matrix or smaller piece at a time (arrays as in ``_json_chunks``)."""
    for chunk in _json_chunks(doc):
        write(chunk)
    write("\n")


def _write_json(doc: dict, target) -> str:
    """Write ``doc`` to ``sys.stdout``, ``sys.stderr`` or a path. A stream, a
    path naming the file one of them has open, or ``/dev/fd/N`` naming an
    open descriptor N, is written through that stream or descriptor after
    what it holds. Any other path is replaced by a new file written beside
    it, so that on any exception it keeps its bytes, unless it is not a
    regular file with one link (a symlink, a hard link, a pipe): that is
    written through as ``open(path, "w")`` opens it. Permissions and error
    text are ``open``'s. A closed stream (None) or an ``OSError`` is an
    InputError naming the stream or path; what a failed stream holds goes to
    ``os.devnull``, so the flush at exit cannot fail again. Returns the
    sha256 hex digest of the bytes as they are written."""
    digest = hashlib.sha256()

    def write(chunk: str) -> None:
        digest.update(chunk.encode())  # ASCII: json.dumps escapes everything else
        fh.write(chunk)

    stream, fh = _stream(target)  # a new open would write at offset 0, a replace orphan the stream
    if stream and fh is None:
        raise InputError(f"cannot write {stream}: it is closed")
    tmp = None
    try:
        st = os.lstat(target) if not stream and os.path.lexists(target) else None
        if stream:
            _dump_json(doc, write)
            fh.flush()
        elif st is not None and (not stat.S_ISREG(st.st_mode) or st.st_nlink > 1):
            with open(target, "w", encoding="utf-8") as fh:
                _dump_json(doc, write)
        else:
            if st is not None:
                os.close(os.open(target, os.O_WRONLY))  # fail where open(path, "w") fails
            name = f"{target}.{os.urandom(6).hex()}.tmp"
            with open(name, "x", encoding="utf-8") as fh:  # mode 0o666 less the umask, as open(path, "w")
                tmp = name
                if st is not None:
                    os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))  # the mode open() keeps
                _dump_json(doc, write)
            os.replace(tmp, target)
            tmp = None
    except OSError as exc:
        if stream:
            with contextlib.suppress(OSError, ValueError):  # no descriptor
                fd, devnull = fh.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        reason = OSError(exc.errno, exc.strerror, os.fspath(target)) if exc.filename else exc
        raise InputError(f"cannot write {stream or target}: {reason}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    return digest.hexdigest()


def _stream(target) -> tuple:
    """``(name, stream)`` if ``target`` is sys.stdout or sys.stderr or names its file,
    ``(target, stream)`` with a stream over descriptor N if it is ``/dev/fd/N``
    and N is open, else Nones."""
    for name in ("stdout", "stderr"):
        fh = getattr(sys, name)
        with contextlib.suppress(OSError, TypeError, ValueError):  # not a path; no such file or descriptor
            if target is fh or fh is not None and os.path.samestat(os.stat(target), os.fstat(fh.fileno())):
                return name, fh
    if isinstance(target, (str, os.PathLike)):
        where, fd = os.path.split(os.fspath(target))
        if where == "/dev/fd" and fd.isascii() and fd.isdigit():
            with contextlib.suppress(OSError, OverflowError):  # not open, or past a C int: a path like any other
                os.fstat(int(fd))
                return os.fspath(target), open(int(fd), "w", encoding="utf-8", closefd=False)
    return None, None


def _read_json(path, version: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("version") != version:
        raise ParseError(f"{path}: unsupported version {doc.get('version')!r}")
    return doc


def save_system(ksys: KGSystem, path) -> str:
    """Write a SystemFile; returns the sha256 hex digest of the bytes written."""
    doc = {
        "version": SYSTEM_SCHEMA_VERSION,
        "ambient_dim": ksys.ambient_dim,
        "field": "complex",
        "blocks": [_matrix_doc(b) for b in ksys.system.blocks],
        "k": _matrix_doc(ksys.k),
    }
    return _write_json(doc, path)


def load_system(path) -> KGSystem:
    """Read a SystemFile; an absent K field means K is the identity."""
    doc = _read_json(path, SYSTEM_SCHEMA_VERSION)
    if doc.get("field") != "complex":
        raise ParseError(f"{path}: field must be 'complex'")
    try:
        n = _integer(doc["ambient_dim"])
        if n < 1:  # the schema's minimum, checked before any array is built
            raise ValueError(n)
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
        try:  # numpy refuses a size past its address range, and a failed allocation raises
            k = np.eye(n, dtype=np.complex128)
        except (ValueError, MemoryError) as exc:
            raise ParseError(f"{path}: ambient_dim {n} is too large for the implied identity K") from exc
    return KGSystem(GSystem(n, tuple(blocks)), k)


def save_vector(v: np.ndarray, path) -> str:
    """Write a vector file; returns the sha256 hex digest of the bytes written."""
    a = linops.as_vector(v)
    doc = {
        "version": VECTOR_SCHEMA_VERSION,
        "dim": int(a.shape[0]),
        "entries": a,
    }
    return _write_json(doc, path)


def load_vector(path) -> np.ndarray:
    doc = _read_json(path, VECTOR_SCHEMA_VERSION)
    try:
        dim = _integer(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: missing or malformed dim") from exc
    mat = matrix_from_json({"rows": dim, "cols": 1, "entries": doc.get("entries", [])}, f"{path}: entries")
    return mat.reshape(-1)


def save_frame_family(fams: SubspaceFrameFamily, path) -> str:
    """Write a frame-family file; returns the sha256 hex digest of the bytes written."""
    doc = {
        "version": FRAMES_SCHEMA_VERSION,
        "families": [_matrix_doc(f) for f in fams.families],
    }
    return _write_json(doc, path)


def load_frame_family(path) -> SubspaceFrameFamily:
    """Read a frame-family file; vectors are rows of each family matrix.

    Spanning is checked at machine precision, the loosest cut any tolerance
    gives; ``lift_to_vector_frames`` judges it again at its own tolerance.
    """
    doc = _read_json(path, FRAMES_SCHEMA_VERSION)
    raw = doc.get("families")
    if not isinstance(raw, list):
        raise ParseError(f"{path}: families must be a list")
    mats = [matrix_from_json(f, f"{path}: family {j}") for j, f in enumerate(raw)]
    return SubspaceFrameFamily.from_vectors(mats, rank_tol=0.0)


def file_digest(path) -> str:
    # hashed in chunks, so that no copy of the whole file is held beside the
    # inputs the CLI has already loaded
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 18), b""):
            digest.update(chunk)
    return digest.hexdigest()
