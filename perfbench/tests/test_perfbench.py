"""Tests of the benchmark itself: deterministic inputs, metric names, a smoke
run of every workload in both modes with non-negative self times, and the
refusal to run without the library's sources.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3"]
    out = subprocess.run(argv + ["--seconds", "0.01", "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_track_config_is_deterministic():
    for wl in (workloads.CliTrack, workloads.OracleVerify):
        a = workloads.track_config(5, wl.name, 2, 40, wl.mode, wl.slack)
        assert a == workloads.track_config(5, wl.name, 2, 40, wl.mode, wl.slack)
        assert a != workloads.track_config(6, wl.name, 2, 40, wl.mode, wl.slack)
        assert a != workloads.track_config(5, wl.name, 3, 40, wl.mode, wl.slack)


def test_pmbm_inputs_are_deterministic():
    def shape(seed):
        wl = workloads.PmbmScan(seed, None)
        pmbm, cs = wl.make_input(1)
        tracks = [[t.r, t.density.pmf.probs.tolist()] for h in pmbm.hypotheses for t in h.tracks]
        return [h.weight for h in pmbm.hypotheses], tracks, cs.times

    assert shape(4) == shape(4)
    assert shape(4) != shape(5)


def test_pmbm_queries_meet_every_support():
    """No pmbm-scan op can raise ZeroSupportError: each scan offset meets every library density."""
    from trajconstrain.engine import active_indices

    wl = workloads.PmbmScan(1, None)
    for index in range(10):
        _, cs = wl.make_input(index)
        for d in [t.density for t in wl.tracks] + [p.density for p in wl.ppps]:
            assert any(active_indices(cs, b, e) for b, e in d.pmf.pairs)


def test_op_seeds_are_distinct_streams():
    seeds = {workloads.derived_seed(1, "cli-track", i, s) for i in range(50) for s in (1, 2)}
    assert len(seeds) == 100


def test_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]] + list(run.REPORTED_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("lower", "higher")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for v in result["metrics"].values():
            assert isinstance(v["value"], (int, float))
    # The traced run's self times are never negative.
    self_ns = tracing.self_ns(tracing.read_spans(ROOT / ".perfbench_out" / f"spans-{workload}.jsonl"))
    assert self_ns and min(self_ns) >= 0


def test_self_time_subtracts_children():
    class Calls:
        @staticmethod
        def outer():
            Calls.inner()
            Calls.inner()

        @staticmethod
        def inner():
            sum(range(10_000))

    t = tracing.Tracer()
    t.wrap(Calls, "inner", "inner")
    t.wrap(Calls, "outer", "outer")
    try:
        Calls.outer()
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    assert names == ["outer", "inner", "inner"]
    (_, o0, o1, parent, _), *inner = t.spans
    assert parent == -1 and all(s[3] == 0 for s in inner)
    selfs = t.self_times()
    assert selfs["outer"] == pytest.approx((o1 - o0 - sum(s[2] - s[1] for s in inner)) * 1e-9)
    assert selfs["outer"] >= 0 and selfs["inner"] > 0


def test_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "cli-track", "--seed", "1"]
    out = subprocess.run(argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode != 0
    assert out.stdout == ""
