"""The zip container of doclink's binary files, corpus and checkpoint alike:
a ``header.json`` member plus flat ``.npy`` arrays, written so that the same
content always gives the same bytes."""

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
