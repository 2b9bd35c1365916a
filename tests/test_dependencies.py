"""The package needs numpy alone: test-only packages never reach src/."""

import os
import subprocess
import sys

import doclink

TEST_ONLY = ("scipy", "hypothesis", "pytest")

IMPORT_ALL = f"""
import importlib, pkgutil, sys
for name in {TEST_ONLY!r}:
    sys.modules[name] = None  # any import of it raises ImportError
import doclink
for info in pkgutil.iter_modules(doclink.__path__):
    importlib.import_module("doclink." + info.name)
    print(info.name)
"""


def test_every_module_imports_without_test_only_packages():
    src = os.path.dirname(os.path.dirname(doclink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {"cli", "tensor", "trainer"} <= set(done.stdout.split())


# Fails on any new process, and hides mallopt as a C library without it would.
IMPORT_WITHOUT_MALLOPT = """
import ctypes, sys

def no_process(event, args):
    if event in ("subprocess.Popen", "os.fork", "os.forkpty", "os.posix_spawn",
                 "os.spawn", "os.system", "os.exec"):
        raise RuntimeError("import started a process: " + event)

sys.addaudithook(no_process)
ctypes.CDLL = lambda *args, **kwargs: object()
import doclink
print(doclink.tensor.MAX_WORD_TABLE_BYTES)
"""


def test_import_starts_no_process_and_needs_no_mallopt():
    """The allocator setting finds the C library without
    ``ctypes.util.find_library``, which starts a subprocess, and a library
    without ``mallopt`` leaves the import as it was."""
    src = os.path.dirname(os.path.dirname(doclink.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_WITHOUT_MALLOPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{2**30}\n"
