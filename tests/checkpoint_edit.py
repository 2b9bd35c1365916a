"""Rewrite a doclink-checkpoint-v2 file, for tests of the checkpoint reader."""

import io
import json
import zipfile

import numpy as np


def rewrite_checkpoint(src, dst, edit=None, **members) -> None:
    """Copy the checkpoint ``src`` (a path or a binary file) to ``dst``.

    ``edit`` changes the JSON header dict in place.  Each keyword replaces
    one member: ``header``, ``params``, ``m`` or ``v``.  An array is written
    as ``.npy`` (object arrays too), bytes are written verbatim, and None
    leaves the member out.
    """
    with zipfile.ZipFile(src) as zf:
        contents = {info.filename: zf.read(info) for info in zf.infolist()}
    header = json.loads(contents["header.json"])
    if edit is not None:
        edit(header)
    contents["header.json"] = json.dumps(header).encode()
    for key, value in members.items():
        if isinstance(value, np.ndarray):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, value, allow_pickle=True)
            value = buffer.getvalue()
        contents["header.json" if key == "header" else f"{key}.npy"] = value
    with zipfile.ZipFile(dst, "w") as zf:
        for name, data in contents.items():
            if data is not None:
                zf.writestr(name, data)
