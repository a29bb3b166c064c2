"""What importing the package costs: extraction from a loaded network
never builds a k-d tree, so ``import repro`` must not load
``scipy.spatial``; each of its users imports it where it builds one."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_loads_no_spatial_module():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, repro; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] == ['scipy', 'spatial']))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
