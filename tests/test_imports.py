"""What importing the package pulls in."""

import os
import subprocess
import sys
from pathlib import Path

import forestseg


def test_import_does_not_load_scipy():
    package_root = str(Path(forestseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = "import sys, forestseg; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False", (
        "importing forestseg loaded scipy: `import scipy.sparse` alone adds about 21 MiB of "
        "resident memory, more than the 15% peak-RSS bound allows on the 30-tree benchmark "
        "scenes (67-75 MiB peak); keep the merge kernels numpy-only"
    )
