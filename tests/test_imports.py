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


def test_benchmark_tracer_restores_every_hook(monkeypatch):
    # perfbench/tracing.py wraps library functions by name; a renamed or
    # deleted hook breaks the traced benchmark run
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import tracing
    from trajconstrain import cli, core, engine, gaussian, oracle

    owners = (cli, core, engine, gaussian, oracle, gaussian.GaussianSequence)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert engine.satisfies_batch is not before[2]["satisfies_batch"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
