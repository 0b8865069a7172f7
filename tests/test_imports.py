import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_library_scipy_import_refused_in_process():
    # conftest refuses scipy to trajconstrain modules even once tests have
    # imported it, so a lazy import on a library path fails its tests
    import scipy  # noqa: F401

    with pytest.raises(ImportError, match="numpy only"):
        exec("import scipy.special", {"__name__": "trajconstrain.gaussian"})
    with pytest.raises(ImportError, match="numpy only"):
        exec("from scipy import stats", {"__name__": "trajconstrain"})
    exec("import scipy.special", {"__name__": "tests.test_gaussian"})


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


def test_benchmark_tracer_records_a_constrained_density(monkeypatch):
    # a hook that the library stops calling raises nothing; it only records
    # nothing, so a traced call must leave its span and counters
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import numpy as np
    import tracing
    from trajconstrain import (
        BernoulliTrajectory,
        BirthDeathPmf,
        Constraint,
        ConstraintSet,
        GaussianSequence,
        StateRegion,
        TrajectoryDensity,
        constrain_bernoulli,
    )

    gs = GaussianSequence(np.zeros(2), np.array([[1.0, 0.8], [0.8, 1.0]]), 1)
    b = BernoulliTrajectory(0.8, TrajectoryDensity(BirthDeathPmf(((0, 1),), np.ones(1)), (gs,)))
    gate = StateRegion.box([(-0.5, 0.5)])
    cs = ConstraintSet([Constraint(0, gate), Constraint(1, gate)], "disjunct")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        constrain_bernoulli(b, cs, 2_000, 1)
    finally:
        tracer.uninstall()
    assert "engine.constrain_density" in [span[0] for span in tracer.spans]
    assert tracer.counters["engine.pairs"] > 0
