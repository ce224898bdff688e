"""The package's runtime dependencies: numpy and the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import hokdv

SNAPSHOT = """
import pkgutil, sys
before = set(sys.modules)
import hokdv
for info in pkgutil.iter_modules(hokdv.__path__):
    __import__("hokdv." + info.name)
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names))))
"""


def test_package_imports_only_numpy_and_the_standard_library():
    # A fresh interpreter, and only the modules it gains: its site may already
    # have loaded third-party modules of its own.
    src = str(Path(hokdv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SNAPSHOT], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert set(out.stdout.split()) == {"hokdv", "numpy"}
