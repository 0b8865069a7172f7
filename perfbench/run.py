#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of trajconstrain.

Run from the repository root:

    python3 perfbench/run.py --workload cli-track --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads: cli-track, pmbm-scan, oracle-verify (see workloads.py for why each
exists). ``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` gives the per-layer metrics: it runs the workload untraced for
half the time, then replays the same ops with spans recorded around the
library's public functions (tracing.py), and reports the difference of the two
median op times as the tracing overhead. ``--workload all`` runs both modes of
every workload, each in its own process, and prints one row per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The library is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-track", "pmbm-scan", "oracle-verify")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9  # fresh-interpreter imports spread over a run; setup_s is their median
IMPORTTIME_REPEATS = 3
# Successful traced ops compared with a reference: 12 caps the reference work of a
# pmbm-scan run (~6 s an op) and leaves the CLI workloads, which replay fewer
# ops, all of theirs.
REFERENCE_OPS = 12
WARMUP_INDEX = 10**9  # op index of the untimed warm-up input, outside any run's range
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import trajconstrain; print(time.perf_counter() - t)"

# Printed with the end-to-end metrics but left out of the result line and of
# BENCHMARK.json: with 12-18 ops a run, op_tail_s falls at or below the
# median and repeats op_p50_s; error_rate and oracle_fail_frac are 0 on some
# workloads; ops_per_s follows the seed-to-seed share of failed ops on
# pmbm-scan; joint_err_rms needs reference work that only a traced run does.
REPORTED_UNITS = {
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "error_rate": "ratio",
    "joint_err_rms": "prob",
    "oracle_fail_frac": "ratio",
}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cached bytecode, as an installed package has
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env


def import_time(env: dict) -> float:
    """Wall time of ``import trajconstrain`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    )
    return float(out.stdout.strip())


class SetupProbe:
    """Fresh-interpreter imports spread over a run, so that setup_s and the op
    times see the same drift of the host's speed: one before the first op, one
    between ops each time another 1/(n - 1) of the loop time has passed, and
    the rest after the last op. One untimed import first compiles the bytecode.
    """

    def __init__(self, env: dict, n: int, seconds: float):
        self.env = env
        self.n = n
        self.seconds = seconds
        self.samples = []
        import_time(env)

    def between_ops(self, loop_s: float) -> None:
        due = min(1 + int((self.n - 1) * loop_s / self.seconds), self.n - 1)
        while len(self.samples) < due:
            self.samples.append(import_time(self.env))

    def finish(self) -> list:
        while len(self.samples) < self.n:
            self.samples.append(import_time(self.env))
        return self.samples


def import_breakdown(env: dict) -> dict:
    """Median of ``-X importtime`` figures: numpy, scipy.stats and the package's own modules."""
    runs = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trajconstrain"],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        own = 0
        cumulative = {}
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "self [us]" in parts[0]:
                continue
            self_us = int(parts[0].split(":")[1])
            module = parts[2].strip()
            cumulative[module] = int(parts[1])
            if module == "trajconstrain" or module.startswith("trajconstrain."):
                own += self_us
        runs["import.numpy_s"].append(cumulative.get("numpy", 0) * 1e-6)
        runs["import.scipy_stats_s"].append(cumulative.get("scipy.stats", 0) * 1e-6)
        runs["import.trajconstrain_self_s"].append(own * 1e-6)
    return {k: statistics.median(v) for k, v in runs.items()}


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    from trajconstrain import kernels

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "machine": platform.machine(),
    }


class LoopResult:
    def __init__(self):
        self.loop_s = 0.0  # wall time of the loop: ops, input generation and checks
        self.durations = []  # seconds per op, failed ops included
        self.outcomes = []  # "ok" or the failure kind
        self.incorrect = 0
        self.joints = {}  # op index -> {component: joint}

    @property
    def ok_durations(self):
        return [d for d, o in zip(self.durations, self.outcomes) if o == "ok"]


def closed_loop(wl, seed: int, counters, seconds=None, n_ops=None, tracer=None, probe=None) -> LoopResult:
    """Run ops back to back until ``seconds`` of loop time have passed (or ``n_ops`` ops).

    Loop time counts input generation and output checks; an op's duration
    does not. The ``probe``'s imports between ops count in neither.
    """
    from trajconstrain.errors import TrajConstrainError

    from workloads import CheckError, OpFailed, derived_seed

    res = LoopResult()
    seen = set()
    i = 0
    start = time.perf_counter()
    probed = 0.0
    while (n_ops is None and (res.loop_s < seconds or i == 0)) or (n_ops is not None and i < n_ops):
        if probe is not None:
            t = time.perf_counter()
            probe.between_ops(res.loop_s)
            probed += time.perf_counter() - t
        inp = wl.make_input(i)
        wl.prepare_op(inp)
        if tracer is not None:
            tracer.begin_op(i)
        failure = None
        t0 = time.perf_counter()
        try:
            out = wl.run_op(inp, derived_seed(seed, wl.name, i, 1))
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            failure = type(exc).__name__
            if not isinstance(exc, TrajConstrainError) and failure not in seen:
                traceback.print_exc(file=sys.stderr)
        dt = time.perf_counter() - t0
        if failure is None:
            try:
                res.joints[i] = wl.check(inp, out, counters)
            except OpFailed as exc:
                failure = f"OpFailed({exc})"
            except (CheckError, KeyError, ValueError, OSError) as exc:
                failure = f"CheckError({exc})"
                res.incorrect += 1
        if failure is not None and failure not in seen:
            seen.add(failure)
            print(f"op {i} failed: {failure}", file=sys.stderr)
        res.durations.append(dt)
        res.outcomes.append(failure or "ok")
        res.loop_s = time.perf_counter() - start - probed
        i += 1
    return res


def warm_up(wl, seed: int) -> None:
    """One untimed op on an input of its own, so lazy initialisation is not timed."""
    from workloads import derived_seed

    inp = wl.make_input(WARMUP_INDEX)
    wl.prepare_op(inp)
    try:
        wl.run_op(inp, derived_seed(seed, wl.name, WARMUP_INDEX, 1))
    except Exception:  # the warm-up's outcome is not measured
        pass


def tail(values):
    """(value, percentile, samples beyond): the highest order statistic with >= 10 samples above it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    k = n - 10
    return s[k - 1], 100.0 * k / n, 10


def end_to_end(loop: LoopResult, counters) -> dict:
    latencies = loop.ok_durations or loop.durations
    value, pct, beyond = tail(latencies)
    attempted = len(loop.durations)
    failed = sum(o != "ok" for o in loop.outcomes)
    entries = counters["oracle.entries"]
    return {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "ops_per_s": len(loop.ok_durations) / loop.loop_s,
        "error_rate": failed / attempted,
        "oracle_fail_frac": counters["oracle.failed_entries"] / entries if entries else None,
        "_tail": {"percentile": round(pct, 1), "samples": len(latencies), "beyond": beyond},
    }


def reference_errors(wl, seed: int, loop: LoopResult) -> list:
    """Joint errors of the first REFERENCE_OPS successful ops against their references.

    References are cached per workload, seed and op under a hash of
    workloads.py (the inputs and the reference call), not of the library: the
    first library code to run a seed in a checkout writes its reference, and
    later code is compared with that reference instead of one of its own.
    """
    from workloads import derived_seed

    digest = hashlib.sha256(Path(__file__).with_name("workloads.py").read_bytes()).hexdigest()[:16]
    cache_dir = ROOT / ".perfbench_cache" / digest
    cache_dir.mkdir(parents=True, exist_ok=True)
    errors = []
    for i in sorted(loop.joints)[:REFERENCE_OPS]:
        path = cache_dir / f"ref-{wl.name}-{seed}-{i}.json"
        if path.exists():
            ref = json.loads(path.read_text())
        else:
            ref = wl.reference(wl.make_input(i), derived_seed(seed, wl.name, i, 2))
            path.write_text(json.dumps(ref))
        errors.extend(joint - ref[key] for key, joint in loop.joints[i].items())
    return errors


def zero_support_probes(wl, seed: int, n: int) -> int:
    """Ops among the first ``n`` whose input makes the workload's probe raise
    ZeroSupportError; workloads without a probe count none."""
    from workloads import derived_seed

    probe = getattr(wl, "zero_support_probe", None)
    if probe is None:
        return 0
    return sum(probe(wl.make_input(i), derived_seed(seed, wl.name, i, 1)) for i in range(n))


def per_layer(tracer, loop: LoopResult, untraced: LoopResult, counters, imports: dict, errors: list, probed: int) -> dict:
    n = len(loop.durations)
    c = tracer.counters
    self_t = tracer.self_times()
    total_t = tracer.total_times()
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    p50_traced = statistics.median(loop.ok_durations or loop.durations)
    p50_untraced = statistics.median(untraced.ok_durations or untraced.durations)
    m = dict(imports)
    m.update(
        {
            "scenario.fit_s": self_t["scenario.fit"] / n,
            "scenario.fit_calls": c["scenario.fit_calls"] / n,
            "scenario.fit_pairs": c["scenario.fit_pairs"] / n,
            "cli.main_self_s": self_t["cli.main"] / n,
            "engine.constrain_density_self_s": self_t["engine.constrain_density"] / n,
            "engine.pairs": c["engine.pairs"] / n,
            "engine.pairs_per_s": ratio(c["engine.pairs"], total_t["engine.constrain_density"]),
            "engine.mc_pair_share": ratio(c["engine.mc_pairs"], c["engine.pairs"]),
            "engine.trivial_pair_share": ratio(c["engine.trivial_pairs"], c["engine.pairs"]),
            "engine.components": c["engine.components"] / n,
            "engine.unique_components": c["engine.unique_components"] / n,
            "engine.duplicate_share": 1.0 - ratio(c["engine.unique_components"], c["engine.components"]),
            "engine.marginals_self_s": self_t["engine.marginals"] / n,
            "engine.proposed": c["engine.proposed"] / n,
            "engine.accepted": c["engine.accepted"] / n,
            "engine.acceptance_rate": ratio(c["engine.accepted"], c["engine.proposed"]),
            "engine.zero_support_errors": (c["engine.constrain_density:ZeroSupportError"] + probed) / n,
            "engine.prob_out_of_range": counters["engine.prob_out_of_range"] / n,
            "engine.joint_err_rms": math.sqrt(statistics.fmean(e * e for e in errors)) if errors else 0.0,
            "engine.joint_err_count": len(errors),
            "gaussian.draw_self_s": self_t["gaussian.draw"] / n,
            "gaussian.draw_calls": calls["gaussian.draw"] / n,
            "gaussian.draw_rows": c["gaussian.draw_rows"] / n,
            "gaussian.draw_dim_mean": ratio(c["gaussian.draw_dims"], calls["gaussian.draw"]),
            "gaussian.draw_flops_computed": c["gaussian.draw_flops_computed"] / n,
            "gaussian.region_probability_calls": calls["gaussian.region_probability"] / n,
            "gaussian.marginal_calls": calls["gaussian.marginal"] / n,
            "gaussian.step_moments_self_s": self_t["gaussian.step_moments"] / n,
            "core.satisfies_batch_self_s": self_t["core.satisfies_batch"] / n,
            "core.satisfies_batch_rows": c["core.satisfies_batch_rows"] / n,
            "kernels.points_in_boxes_s": self_t["kernels.points_in_boxes"] / n,
            "kernels.points_in_boxes_rows": c["kernels.points_in_boxes_rows"] / n,
            "kernels.points_in_boxes_bytes_computed": c["kernels.points_in_boxes_bytes_computed"] / n,
            "kernels.pattern_codes_s": self_t["kernels.pattern_codes"] / n,
            "kernels.pattern_codes_rows": c["kernels.pattern_codes_rows"] / n,
            "oracle.bernoulli_self_s": self_t["oracle.bernoulli"] / n,
            "oracle.ppp_self_s": self_t["oracle.ppp"] / n,
            "oracle.entries": counters["oracle.entries"] / n,
            "oracle.failed_entries": counters["oracle.failed_entries"] / n,
            "trace.spans": len(tracer.spans) / n,
            "trace.op_p50_untraced_s": p50_untraced,
            "trace.op_p50_traced_s": p50_traced,
            "trace.overhead_s": p50_traced - p50_untraced,
        }
    )
    return m


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args, nproc: int) -> int:
    import workloads
    from tracing import Tracer

    env = child_env(nproc)
    imports = import_breakdown(env) if args.trace else {}
    units = load_units()
    info = environment(nproc)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_up(wl, args.seed)
        counters = defaultdict(float)
        if not args.trace:
            probe = SetupProbe(env, SETUP_REPEATS, args.seconds)
            loop = closed_loop(wl, args.seed, counters, seconds=args.seconds, probe=probe)
            setup = probe.finish()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            e2e = end_to_end(loop, counters)
            metrics = {
                "setup_s": statistics.median(setup),
                "op_p50_s": e2e["op_p50_s"],
                "op_tail_s": e2e["op_tail_s"],
                "ops_per_s": e2e["ops_per_s"],
                "peak_rss_mb": peak_rss_mb,
            }
            shown = dict(metrics, error_rate=e2e["error_rate"], oracle_fail_frac=e2e["oracle_fail_frac"])
            extra = {"tail": e2e["_tail"], "setup_samples_s": setup, "op_s": loop.durations, "outcomes": loop.outcomes}
        else:
            untraced = closed_loop(wl, args.seed, defaultdict(float), seconds=args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                loop = closed_loop(wl, args.seed, counters, n_ops=len(untraced.durations), tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl")
            errors = reference_errors(wl, args.seed, loop)
            probed = zero_support_probes(wl, args.seed, len(loop.durations))
            metrics = per_layer(tracer, loop, untraced, counters, imports, errors, probed)
            shown = metrics
            extra = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.durations)
    failed = sum(o != "ok" for o in loop.outcomes)
    kinds = defaultdict(int)
    for o in loop.outcomes:
        if o != "ok":
            kinds[o.split("(")[0]] += 1
    all_units = dict(REPORTED_UNITS, **units)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(info, sort_keys=True))
    print(f"ops attempted {attempted}  failed {failed}  " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    if "tail" in extra:
        t = extra["tail"]
        print(f"op_tail_s is p{t['percentile']} of {t['samples']} successful ops ({t['beyond']} beyond it)")
    for name, value in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {text:>14} {all_units.get(name, '')}")
    report = {"workload": args.workload, "seed": args.seed, "env": info, "shown": shown, "failures": dict(kinds)}
    report.update(extra)
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": loop.incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": all_units[k]} for k, v in metrics.items() if k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Both modes of every workload, each in its own process; one row per workload."""
    rows = {}
    results = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name} trace {trace} exited with {out.returncode}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            report = json.loads(lines[-2][len("report ") :])
            results.append(json.loads(lines[-1]))
            rows.setdefault(name, {})[trace] = report
    env = rows[WORKLOAD_NAMES[0]][0]["env"]
    units = dict(REPORTED_UNITS, **load_units())
    print("env " + json.dumps(env, sort_keys=True))
    cols = ["setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "error_rate", "joint_err_rms", "oracle_fail_frac", "peak_rss_mb"]
    print(f"{'workload':<14}" + "".join(f"{c + ' [' + units[c] + ']':>26}" for c in cols))
    merged = {}
    for name in WORKLOAD_NAMES:
        shown = dict(rows[name][0]["shown"])
        shown["joint_err_rms"] = rows[name][1]["shown"]["engine.joint_err_rms"]
        cells = ["n/a" if shown[c] is None else f"{shown[c]:.5g}" for c in cols]
        print(f"{name:<14}" + "".join(f"{x:>26}" for x in cells))
        tail_info = rows[name][0]["tail"]
        print(f"{'':<14}op_tail_s = p{tail_info['percentile']} of {tail_info['samples']} ops")
        merged.update({f"{name}.{k}": v for k, v in shown.items() if v is not None})
        merged.update({f"{name}.{k}": v for k, v in rows[name][1]["shown"].items()})
    print("per-layer (traced run, per op unless a rate or share):")
    layer_names = list(rows[WORKLOAD_NAMES[0]][1]["shown"])
    print(f"{'metric':<42}" + "".join(f"{n:>16}" for n in WORKLOAD_NAMES))
    for metric in layer_names:
        print(f"{metric:<42}" + "".join(f"{rows[n][1]['shown'][metric]:>16.5g}" for n in WORKLOAD_NAMES))
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {k: {"value": v, "unit": units.get(k.split(".", 1)[1], "")} for k, v in merged.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="loop time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trajconstrain" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no trajconstrain sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Cap BLAS threads before numpy is first imported.
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import trajconstrain

    if Path(trajconstrain.__file__).resolve().parent != SRC / "trajconstrain":
        print(f"imported trajconstrain from {trajconstrain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
