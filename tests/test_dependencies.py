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
