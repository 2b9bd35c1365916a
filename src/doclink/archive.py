"""The zip container of doclink's binary files, corpus and checkpoint alike:
a ``header.json`` member plus flat ``.npy`` arrays, written so that the same
content always gives the same bytes (:func:`save_zip`) and read, checked
and rejected in one place (:func:`load_zip`)."""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

ZIP_MAGIC = b"PK\x03\x04"


def is_zip(path) -> bool:
    """Whether the file at ``path`` starts with the zip magic, whatever its name."""
    with open(path, "rb") as fh:
        return fh.read(len(ZIP_MAGIC)) == ZIP_MAGIC


def _entry(name: str) -> zipfile.ZipInfo:
    # A fixed entry time (ZipInfo's default, 1980-01-01), where np.savez
    # stamps the wall clock.
    return zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))


def save_zip(path, header: dict, arrays) -> None:
    """Write ``header`` as ``header.json``, then each (name, array) pair of
    the iterable ``arrays`` as ``<name>.npy``, one at a time.  The file is
    written beside ``path`` and moved into place, so a crash never leaves
    half a file; the parent folder is made if needed."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with zipfile.ZipFile(tmp, "w") as zf:
        zf.writestr(_entry("header.json"), json.dumps(header))
        for name, array in arrays:
            with zf.open(_entry(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)
    os.replace(tmp, path)


def load_zip(path, tag: str, members: dict, error: type, label: str):
    """The ``(header, arrays)`` of a :func:`save_zip` file: first the
    ``header.json`` object, whose ``format`` must be ``tag``, then each of
    ``members`` (name -> (dtype, ndim)), never unpickled.  A file that is
    not a zip or is damaged, a header that is not JSON or lacks the tag,
    and a member that is missing, malformed (truncated, pickled, too big
    for memory) or of another dtype or ndim (a non-``.npy`` one is bytes)
    raise ``error`` naming ``label``, ``path`` and the member."""
    if not is_zip(path):
        raise error(f"{label} {path} is not a {tag} zip")

    def fail(member, problem):
        return error(f"{label} {path} member {member!r} {problem}")

    def read(npz, name):
        try:
            return npz[name]
        except KeyError:
            raise fail(name, "is missing") from None
        except (ValueError, EOFError, MemoryError, zipfile.BadZipFile) as exc:
            raise fail(name, f"is malformed: {exc}") from exc

    try:
        with np.load(path, allow_pickle=False) as npz:
            try:
                header = json.loads(read(npz, "header.json"))
            except (TypeError, ValueError) as exc:
                raise fail("header.json", f"is not JSON: {exc}") from exc
            if not isinstance(header, dict) or header.get("format") != tag:
                raise fail("header.json", f"lacks the {tag!r} format tag")
            arrays = {}
            for name, (dtype, ndim) in members.items():
                array = np.asarray(read(npz, name))
                if array.dtype != dtype or array.ndim != ndim:
                    raise fail(name, f"has dtype {array.dtype.str} and {array.ndim} dimensions, "
                                     f"expected {dtype} and {ndim}")
                arrays[name] = array
    except zipfile.BadZipFile as exc:
        raise error(f"{label} {path} is malformed: {exc}") from exc
    return header, arrays
