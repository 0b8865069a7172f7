import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is a test dependency
    code = (
        "import sys, trajconstrain, trajconstrain.cli\n"
        "print(trajconstrain.__file__)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    where, loaded = out.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(SRC)
    assert loaded == "[]"
