"""SHA-256 digests of the seeded outputs of trajconstrain on a fixed set of inputs.

Usage:
    python tools/hash_outputs.py TREE > TREE.digests
    python tools/hash_outputs.py --diff A.digests B.digests
    python tools/hash_outputs.py --values A B

TREE is a checkout holding ``src/`` and ``perfbench/`` (the inputs are built by
``perfbench/workloads.py`` of that tree). The first form prints one line per
record, ``name digest path``: each fitted track (every conditional's mean and
dense covariance, and the pmf), each constrained component (r or mu, report and
pmf), each of its pairs (``PairConstraintInfo``, whose path is the line's
path), each pair's moment-matched conditional (with its view path) and
sample-cloud points and weights, each component's constrained marginals,
partitions and oracle report, and the PMBM samples and stratified draws
whole. A record that depends on several pairs carries all their paths. The
inputs:
``cli-track`` and ``oracle-verify`` configs of seeds 2026 and 7 under their own
gates, conjunct, disjunct, a two-box first gate and a fourth gate; capped
synthetic cases; 30 ``pmbm-scan`` inputs of seed 515 and the fitted tracks of
its library; stratified draws. The oracle records are ``oracle_bernoulli``
with moments on the first two ``oracle-verify`` inputs of each seed (one
pair) and on the first ``cli-track`` input of each seed (16 pairs, under
its own gates), and ``oracle_ppp`` on every ``oracle-verify`` input, as the
CLI's ``oracle`` command runs it.

The second form compares two digest files record by record: it counts the
records that are equal, those whose digest changed while their path did not,
and those whose path moved (by old -> new path), and lists the changed
records that kept their path.

The third form does the same for two trees, and compares the numbers of
every record whose digest changed: each array whole and each scalar alone
(a leaf, named by its place in the record). It gives each changed record's
largest normwise relative change over its leaves, ||new - old|| / ||old||
(inf where old is 0 and new is not, or where a leaf's shape changed), with
that leaf's name, and then the largest change of each kind of leaf (its
name with every index dropped, such as ``.entries[].z``) over all records. Each tree runs in a
child process that sends a record's leaves only when asked, since all the
numbers of one tree (sample-cloud points above all) take several GB.
"""

import dataclasses
import hashlib
import importlib
import math
import pickle
import pkgutil
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np


def feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(repr((x.dtype.str, x.shape)).encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (float, int, str, bool, type(None), np.floating, np.integer)):
        h.update(repr(x).encode())
    elif isinstance(x, dict):
        h.update(b"{")
        for k, v in x.items():
            feed(h, k)
            feed(h, v)
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for v in x:
            feed(h, v)
        h.update(b"]")
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        feed(h, {f.name: getattr(x, f.name) for f in dataclasses.fields(x)})
    else:
        raise TypeError(type(x))


def digest(x) -> str:
    h = hashlib.sha256()
    feed(h, x)
    return h.hexdigest()


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # an error is an output too
        return ("error", type(exc).__name__, str(exc))


def leaves(x, where=""):
    """(name, float64 vector) of each number in x, in ``feed``'s order: each
    numeric array whole and each scalar alone. Strings and None carry no
    number; ``feed`` still hashes them."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biuf":
            yield where, x.astype(np.float64).ravel()
    elif isinstance(x, (float, int, bool, np.floating, np.integer, np.bool_)):
        yield where, np.array([float(x)])
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{where}[{k}]")
    elif isinstance(x, (list, tuple)):
        for i, v in enumerate(x):
            yield from leaves(v, f"{where}[{i}]")
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from leaves(getattr(x, f.name), f"{where}.{f.name}")


def leaf_changes(old, new):
    """{leaf: normwise relative change} of the leaves that differ between
    the leaves ``old`` and ``new`` of one record."""
    if [where for where, _ in old] != [where for where, _ in new]:
        return {"(leaves differ)": math.inf}
    out = {}
    for (where, a), (_, b) in zip(old, new):
        if a.shape != b.shape:
            out[where] = math.inf
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        if same.all():
            continue
        scale = np.linalg.norm(a[np.isfinite(a)])
        delta = np.linalg.norm(np.where(same, 0.0, b - a))
        out[where] = delta / scale if scale > 0 and np.isfinite(delta) else math.inf
    return out


class Records:
    """The records' lines; each record also goes to ``sink``, if given."""

    def __init__(self, sink=None):
        self.lines = []
        self.sink = sink

    def add(self, name, value, path="-"):
        self.lines.append(f"{name} {digest(value)} {path}")
        if self.sink is not None:
            self.sink(self.lines[-1], value)


def joined(paths):
    return "+".join(sorted(set(paths))) or "-"


def component(rec, name, c, engine, budget, seed, views=True):
    """Records of one constrained Bernoulli or PPP and, with ``views``, its
    views. A record that the constrained pmf enters carries the paths of all
    the component's pairs; the marginals also those of its views."""
    d = c.density
    pmf_paths = joined(info.path for info in d.pair_info.values())
    rec.add(f"{name}/component", (c.r if hasattr(c, "r") else c.mu, c.report, d.pmf), pmf_paths)
    for pair, info in d.pair_info.items():
        rec.add(f"{name}/pair{pair}", info, info.path)
    if not views:
        return
    if d.degenerate:
        rec.add(f"{name}/views", "degenerate")
        return
    mm = outcome(lambda: engine.constrained_marginals(d, budget, seed + 1))
    paths = {} if isinstance(mm, tuple) else mm.view_paths
    rec.add(f"{name}/marginals", mm, f"{pmf_paths}/{joined(paths.values())}")
    matched = outcome(lambda: d.moment_matched(budget, seed + 2))
    if isinstance(matched, tuple):
        rec.add(f"{name}/moment_matched", matched)
    else:
        for pair, g in zip(matched.pmf.pairs, matched.conditionals):
            rec.add(f"{name}/moment_matched{pair}", (g.mean, g.cov), paths.get(pair, "-"))
        rec.add(f"{name}/moment_matched_pmf", matched.pmf, pmf_paths)
    cloud = outcome(lambda: d.sample_cloud(budget, seed + 3))
    if isinstance(cloud, tuple):
        rec.add(f"{name}/cloud", cloud)
    else:
        # a stratum's points, and its weights, whose sum is the pair's constrained mass
        for pair, s in cloud.strata.items():
            rec.add(f"{name}/cloud{pair}", s.states)
            rec.add(f"{name}/cloud_weights{pair}", s.weights, pmf_paths)


def fit(rec, name, track):
    """The record of one fitted track (a Bernoulli or a PPP): each
    conditional's mean and dense covariance, and the pmf."""
    rec.add(name, ([(g.mean, g.cov) for g in track.density.conditionals], track.density.pmf))


def tracks(rec, modules):
    cli, engine, oracle, rfs, workloads = (modules[m] for m in ("cli", "engine", "oracle", "rfs", "workloads"))
    Constraint, ConstraintSet, StateRegion = (modules[m] for m in ("Constraint", "ConstraintSet", "StateRegion"))

    def two_box_first(cs):
        first = cs.constraints[0]
        lo, hi = float(first.region.lows[0, 0]), float(first.region.highs[0, 0])
        mid = 0.5 * (lo + hi)
        region = StateRegion.boxes([[(lo - 0.3, mid), None], [(mid + 0.1, hi + 0.3), None]])
        return ConstraintSet([Constraint(first.time, region)] + list(cs.constraints[1:]), cs.mode)

    def fourth_gate(cs):
        # a gate one step after the last, as wide as it: four coordinates
        last = cs.constraints[-1]
        return ConstraintSet(list(cs.constraints) + [Constraint(last.time + 1, last.region)], cs.mode)

    for name, wl_cls in (("cli-track", workloads.CliTrack), ("oracle-verify", workloads.OracleVerify)):
        for seed in (2026, 7):
            wl = wl_cls(seed, Path(tempfile.gettempdir()))
            for i in range(8):
                cfg = wl.make_input(i)
                b = workloads._fit_from_config(cfg)
                fit(rec, f"{name}/{seed}/{i}/fit", b)
                cs = cli.parse_constraints(cfg, cli.parse_window(cfg), 2)
                budget = int(cfg["mc_budget"])
                op_seed = workloads.derived_seed(seed, name, i, 1)
                variants = [
                    cs,
                    ConstraintSet(cs.constraints, "conjunct"),
                    ConstraintSet(cs.constraints, "disjunct"),
                    two_box_first(cs),
                    fourth_gate(cs),
                ]
                for v, vcs in enumerate(variants):
                    key = f"{name}/{seed}/{i}/v{v}"
                    c = outcome(lambda: engine.constrain_bernoulli(b, vcs, budget, op_seed + v))
                    if isinstance(c, tuple):
                        rec.add(key, c)
                        continue
                    component(rec, key, c, engine, budget, op_seed + v)
                    if vcs.mode == "disjunct" and v == 2 and c.density.pair_info:
                        pair = next(iter(c.density.pair_info))
                        parts = outcome(lambda: engine.disjunct_partitions(c.density, pair, budget, op_seed + 9))
                        if isinstance(parts, tuple) and parts and parts[0] == "error":
                            rec.add(f"{key}/partitions{pair}", parts)
                        else:
                            # the weights, and the raw weights that the pair's spatial_prob scales
                            rec.add(f"{key}/partitions{pair}", [(e.inside, e.outside, e.weight) for e in parts])
                            raw = [e.raw_weight for e in parts]
                            rec.add(f"{key}/partitions_raw{pair}", raw, c.density.pair_info[pair].path)
                # with moments: one pair on oracle-verify, 16 pairs on cli-track
                with_moments = i < {"cli-track": 1, "oracle-verify": 2}[name]
                if not with_moments and name != "oracle-verify":
                    continue
                c = engine.constrain_bernoulli(b, cs, budget, op_seed)
                pmf_paths = joined(info.path for info in c.density.pair_info.values())
                if with_moments:
                    mm = engine.constrained_marginals(c.density, 100_000, op_seed + 1)
                    paths = f"{pmf_paths}/{joined(mm.view_paths.values())}"
                    rec.add(f"{name}/{seed}/{i}/oracle", oracle.oracle_bernoulli(b, c, cs, 200_000, 5.0, op_seed), paths)
                if name == "oracle-verify":
                    # as the CLI's oracle command checks a PPP on the track's density
                    mu = float(cfg["oracle"]["mu"])
                    cp = engine.ConstrainedPpp(mu * c.report.joint, c.density, c.report)
                    ppp = rfs.PppTrajectory(mu, b.density)
                    report = oracle.oracle_ppp(ppp, cp, cs, int(cfg["oracle"]["n_runs"]), 5.0, op_seed)
                    rec.add(f"{name}/{seed}/{i}/oracle_ppp", report, pmf_paths)


def defined(name):
    """The function ``name`` from the module of the tree under test that
    defines it, so that one tool runs trees whose modules are split
    differently."""
    import trajconstrain

    for info in pkgutil.iter_modules(trajconstrain.__path__):
        module = importlib.import_module(f"trajconstrain.{info.name}")
        found = vars(module).get(name)
        if getattr(found, "__module__", None) == module.__name__:
            return found
    raise AttributeError(name)


def synthetic(rec, modules):
    engine = modules["engine"]
    Constraint, ConstraintSet, StateRegion = (modules[m] for m in ("Constraint", "ConstraintSet", "StateRegion"))
    BirthDeathPmf, GaussianSequence, TrajectoryDensity = (
        modules[m] for m in ("BirthDeathPmf", "GaussianSequence", "TrajectoryDensity")
    )
    # over the 64-cell cap for probabilities and for views
    d = 5
    m = np.random.default_rng(0).standard_normal((4 * d, 4 * d))
    wide = GaussianSequence(np.zeros(4 * d), m @ m.T / d + np.eye(4 * d), d)
    box = StateRegion.box([(-1.0, 1.0)] * d)
    td = TrajectoryDensity(BirthDeathPmf(((0, 3),), np.ones(1)), (wide,))
    for mode in ("conjunct", "disjunct"):
        for k in (2, 3, 4):
            cs = ConstraintSet([Constraint(t, box) for t in range(k)], mode)
            ctd, report = engine.constrain_density(td, cs, 4_000, k)
            c = engine.ConstrainedBernoulli(1.0, ctd, report)
            component(rec, f"synthetic/{mode}/{k}", c, engine, 4_000, 11 * k - 1)
    settled = defined("_pattern_probabilities")(
        GaussianSequence(np.zeros(3 * d), (m @ m.T / d + np.eye(4 * d))[: 3 * d, : 3 * d], d),
        (0, 2), [(t, box) for t in range(3)], 4_000, 2, [False] * 3,
    )
    rec.add("synthetic/over_cap_pair", tuple(settled), settled.path)


def pmbms(rec, modules):
    engine, rfs, workloads = modules["engine"], modules["rfs"], modules["workloads"]
    wl = workloads.PmbmScan(515, Path(tempfile.gettempdir()))
    for j, t in enumerate(wl.tracks):
        fit(rec, f"pmbm/library/track{j}", t)
    for j, p in enumerate(wl.ppps):
        fit(rec, f"pmbm/library/ppp{j}", p)
    for i in range(30):
        pmbm, cs = wl.make_input(i)
        out = engine.constrain_pmbm(pmbm, cs, wl.mc_budget, workloads.derived_seed(515, wl.name, i, 1))
        component(rec, f"pmbm/{i}/ppp", out.ppp, engine, wl.mc_budget, 0, views=False)
        for h, hc in enumerate(out.hypotheses):
            rec.add(f"pmbm/{i}/hyp{h}/weight", hc.weight)
            for t, tc in enumerate(hc.tracks):
                component(rec, f"pmbm/{i}/hyp{h}/track{t}", tc, engine, wl.mc_budget, 0, views=False)
        rec.add(f"pmbm/{i}/sample", rfs.sample_pmbm(pmbm, i))


def draws(rec, modules):
    gaussian = modules["gaussian"]
    BirthDeathPmf, GaussianSequence, TrajectoryDensity = (
        modules[m] for m in ("BirthDeathPmf", "GaussianSequence", "TrajectoryDensity")
    )
    rng = np.random.default_rng(3)
    conds = []
    pairs = ((0, 2), (1, 4), (2, 2), (0, 5))
    for b, e in pairs:
        k = 2 * (e - b + 1)
        a = rng.standard_normal((k, k))
        conds.append(GaussianSequence(rng.standard_normal(k), a @ a.T + 0.1 * np.eye(k), 2))
    td = TrajectoryDensity(BirthDeathPmf(pairs, np.array([0.4, 0.3, 0.2, 0.1])), tuple(conds))
    g = np.random.default_rng(9)
    first = gaussian.stratified_draws(td, 300_000, g)
    rec.add("draws/stratified", (first, g.bit_generator.state))
    rec.add("draws/stratified_none", (gaussian.stratified_draws(td, 0, g), g.bit_generator.state))
    cloud = gaussian.sample(td, 300_000, 17)
    rec.add("draws/sample", {pair: (s.states, s.weights) for pair, s in cloud.strata.items()})


def run(tree: Path, sink=None) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from trajconstrain import cli, engine, gaussian, oracle, rfs
    from trajconstrain.core import Constraint, ConstraintSet, StateRegion
    from trajconstrain.gaussian import BirthDeathPmf, GaussianSequence, TrajectoryDensity
    import workloads

    assert Path(engine.__file__).resolve().is_relative_to(tree), engine.__file__
    modules = {k: v for k, v in locals().items() if k not in ("tree", "sink")}
    rec = Records(sink)
    for section in (tracks, synthetic, pmbms, draws):
        section(rec, modules)
    if sink is None:
        print("\n".join(rec.lines))


def serve(tree: Path) -> None:
    """The child of ``--values``: each record's line on stdout, then its
    leaves if stdin answers 1; None after the last record."""
    out = sys.stdout.buffer

    def send(line, value):
        pickle.dump(line, out)
        out.flush()
        if sys.stdin.readline().strip() == "1":
            pickle.dump(list(leaves(value)), out)
            out.flush()

    run(tree, send)
    pickle.dump(None, out)
    out.flush()


def parse(line):
    name, value, path_tag = line.rsplit(" ", 2)
    return name, (value, path_tag)


def report(old, new, changes=None) -> None:
    """Print the comparison of two trees' records, {name: (digest, path)};
    ``changes`` gives the ``leaf_changes`` of each record whose digest
    changed."""
    counts, moved, kept_changed = Counter(), Counter(), []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            counts["only in " + ("new" if name in new else "old")] += 1
        elif old[name] == new[name]:
            counts["equal"] += 1
        elif old[name][1] != new[name][1]:
            moved[f"{old[name][1]} -> {new[name][1]}"] += 1
        else:
            counts["changed on the same path"] += 1
            kept_changed.append(name)
    for what, n in sorted(counts.items()):
        print(f"{what}: {n}")
    for what, n in sorted(moved.items()):
        print(f"path moved {what}: {n}")
    for name in kept_changed:
        if changes is None:
            print(f"  changed: {name} ({new[name][1]})")
        else:
            where = max(changes[name], key=changes[name].get, default="-")
            print(f"  changed: {name} ({new[name][1]}) by {changes[name].get(where, 0.0):.3g} at {where}")
    if changes:
        # per kind of leaf, its place with every index dropped
        kinds = {}
        for name, leaves_changed in changes.items():
            for where, change in leaves_changed.items():
                kind = re.sub(r"\[[^\]]*\]", "[]", where)
                kinds[kind] = max(kinds.get(kind, (0.0, "")), (change, name))
        print("largest normwise relative change by leaf:")
        for kind, (change, name) in sorted(kinds.items()):
            print(f"  {kind} {change:.3g} ({name})")


def diff(old_file: Path, new_file: Path) -> None:
    old, new = (dict(parse(line) for line in f.read_text().splitlines()) for f in (old_file, new_file))
    report(old, new)


def compare(old_tree: Path, new_tree: Path) -> None:
    """Run both trees record by record and compare their changed records' numbers."""
    children = [
        subprocess.Popen([sys.executable, __file__, "--serve", str(tree)], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for tree in (old_tree, new_tree)
    ]
    old, new, changes = {}, {}, {}
    while True:
        lines = [pickle.load(child.stdout) for child in children]
        if lines[0] is None or lines[1] is None:
            if lines != [None, None]:
                sys.exit(f"one tree ran out of records first: {lines}")
            break
        (name, old_tag), (other, new_tag) = (parse(line) for line in lines)
        if name != other:
            sys.exit(f"records out of step: {name} and {other}; compare digest files with --diff")
        old[name], new[name] = old_tag, new_tag
        ask = old_tag[0] != new_tag[0]
        for child in children:
            child.stdin.write(b"1\n" if ask else b"0\n")
            child.stdin.flush()
        if ask:
            changes[name] = leaf_changes(*(pickle.load(child.stdout) for child in children))
    for child in children:
        child.stdin.close()
        if child.wait():
            sys.exit(f"a child failed with exit code {child.returncode}")
    report(old, new, changes)


if __name__ == "__main__":
    mode, *trees = sys.argv[1:]
    if mode == "--diff":
        diff(*(Path(t) for t in trees))
    elif mode == "--values":
        compare(*(Path(t).resolve() for t in trees))
    elif mode == "--serve":
        serve(Path(trees[0]).resolve())
    else:
        run(Path(mode).resolve())
