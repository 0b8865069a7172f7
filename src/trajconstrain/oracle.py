"""Brute-force verification of constrained densities.

Every constrained quantity is re-estimated by sampling unconstrained
realizations and filtering them through the trajectory-level satisfaction
test (vectorized ``satisfies_batch``), then compared to the analytic engine
value with a z-score at a stated threshold. No probability math is shared
with the engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import ConstraintSet, satisfies_batch
from .engine import (
    ConstrainedBernoulli,
    ConstrainedPmbm,
    ConstrainedPpp,
    constrained_marginals,
)
from .errors import LowAcceptanceError
from .gaussian import Pair, child_rng, stratified_draws
from .rfs import BernoulliTrajectory, PmbmDensity, PppTrajectory


@dataclass
class OracleEntry:
    name: str
    analytic: float
    empirical: float
    se: float
    z: float
    passed: bool


@dataclass
class OracleReport:
    entries: List[OracleEntry]
    n: int
    seed: int
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def n_failed(self) -> int:
        return sum(not e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "z_threshold": self.z_threshold,
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "analytic": e.analytic,
                    "empirical": e.empirical,
                    "se": e.se,
                    "z": e.z,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{'quantity':<44} {'analytic':>12} {'empirical':>12} {'z':>8}  result"]
        for e in self.entries:
            lines.append(
                f"{e.name:<44} {e.analytic:>12.6f} {e.empirical:>12.6f} "
                f"{e.z:>8.2f}  {'pass' if e.passed else 'FAIL'}"
            )
        lines.append(f"-- {self.n_failed} failed of {len(self.entries)} at |z| <= {self.z_threshold}")
        return "\n".join(lines)


def _entry(name: str, analytic: float, empirical: float, se: float, z_threshold: float, n: int) -> OracleEntry:
    if se == 0.0:
        if empirical == 0.0 and analytic < z_threshold / n:
            # zero observed events and an analytic value consistent with zero
            return OracleEntry(name, analytic, empirical, se, 0.0, True)
        z = 0.0 if analytic == empirical else math.inf
    else:
        z = (empirical - analytic) / se
    return OracleEntry(name, analytic, empirical, se, z, abs(z) <= z_threshold)


def _acceptance_masks(strata: Dict[Pair, np.ndarray], cs: ConstraintSet) -> Dict[Pair, np.ndarray]:
    """Per pair, which of its draws satisfy ``cs``."""
    return {(b, e): satisfies_batch(b, e, states, cs) for (b, e), states in strata.items()}


def oracle_bernoulli(
    b: BernoulliTrajectory,
    constrained: ConstrainedBernoulli,
    cs: ConstraintSet,
    n: int = 200_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
    check_moments: bool = True,
    moment_budget: int = 100_000,
) -> OracleReport:
    """Check constrained existence, pair pmf and per-step moments by rejection."""
    rng = child_rng(rng_seed, 11)
    entries: List[OracleEntry] = []

    n_exist = int(rng.binomial(n, b.r)) if b.r > 0 else 0
    strata = stratified_draws(b.density, n_exist, rng)
    masks = _acceptance_masks(strata, cs)
    per_pair = {pair: int(acc.sum()) for pair, acc in masks.items()}
    accepted = sum(per_pair.values())
    r_hat = accepted / n
    r_c = constrained.r
    se = math.sqrt(max(r_c * (1.0 - r_c), 0.0) / n)
    se = math.sqrt(se**2 + (b.r * constrained.report.joint_se) ** 2)
    entries.append(_entry("r_constrained", r_c, r_hat, se, z_threshold, n))

    if constrained.density.pmf is not None and accepted > 0:
        for pair, p_c in constrained.density.pmf.items():
            count = per_pair.get(pair, 0)
            if p_c * accepted < 25:
                continue  # too few expected acceptances for a meaningful z
            se_pair = math.sqrt(p_c * (1.0 - p_c) / accepted)
            entries.append(
                _entry(f"pmf[{pair}]", float(p_c), count / accepted, se_pair, z_threshold, accepted)
            )

    if check_moments and constrained.density.pmf is not None and accepted > 50:
        try:
            mm = constrained_marginals(constrained.density, moment_budget, rng_seed + 1)
        except LowAcceptanceError:
            mm = None
        if mm is not None:
            emp = _empirical_step_moments(strata, masks)
            for k, t in enumerate(mm.times):
                if t not in emp:
                    continue
                e_mean, e_se, n_t = emp[t]
                if n_t < 100:
                    continue
                for j in range(constrained.density.dim):
                    eng_se = math.sqrt(mm.covs[k, j, j] / max(mm.ess[k], 1.0))
                    se_m = math.sqrt(e_se[j] ** 2 + eng_se**2)
                    entries.append(
                        _entry(
                            f"mean[t={t},dim={j}]",
                            float(mm.means[k, j]),
                            float(e_mean[j]),
                            se_m,
                            z_threshold,
                            n_t,
                        )
                    )
    return OracleReport(entries, n, rng_seed, z_threshold)


def _empirical_step_moments(
    strata: Dict[Pair, np.ndarray], masks: Dict[Pair, np.ndarray]
) -> Dict[int, Tuple[np.ndarray, np.ndarray, int]]:
    """Accepted-sample mean and its standard error per time step."""
    collected: Dict[int, List[np.ndarray]] = {}
    for (b, e), states in strata.items():
        acc = masks[(b, e)]
        if not acc.any():
            continue
        kept = states[acc]
        for t in range(b, e + 1):
            collected.setdefault(t, []).append(kept[:, t - b, :])
    out = {}
    for t, chunks in collected.items():
        x = np.vstack(chunks)
        n_t = x.shape[0]
        if n_t < 2:
            continue
        out[t] = (x.mean(axis=0), x.std(axis=0, ddof=1) / math.sqrt(n_t), n_t)
    return out


def oracle_ppp(
    p: PppTrajectory,
    constrained: ConstrainedPpp,
    cs: ConstraintSet,
    n_runs: int = 10_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
) -> OracleReport:
    """Check constrained intensity scale by thinning, plus Poisson dispersion
    and independence of surviving vs removed counts."""
    rng = child_rng(rng_seed, 13)
    counts = rng.poisson(p.mu, size=n_runs)
    total = int(counts.sum())
    strata = stratified_draws(p.density, total, rng)

    # Flatten acceptance flags back into per-run counts.
    flags = np.empty(total, dtype=bool)
    offset = 0
    order = rng.permutation(total)
    for (b, e), states in strata.items():
        acc = satisfies_batch(b, e, states, cs)
        flags[offset : offset + acc.size] = acc
        offset += acc.size
    flags = flags[order]  # random assignment of points to runs
    run_id = np.repeat(np.arange(n_runs), counts)
    surviving = np.bincount(run_id, weights=flags.astype(np.float64), minlength=n_runs)
    removed = counts - surviving

    entries: List[OracleEntry] = []
    mu_c = constrained.mu
    se = math.sqrt(mu_c / n_runs) if mu_c > 0 else 0.0
    se = math.sqrt(se**2 + (p.mu * constrained.report.joint_se) ** 2)
    entries.append(_entry("mu_constrained", mu_c, float(surviving.mean()), se, z_threshold, n_runs))

    if mu_c > 0.5:
        disp = float(surviving.var(ddof=1) / surviving.mean()) if surviving.mean() > 0 else 0.0
        entries.append(
            _entry("dispersion(var/mean)", 1.0, disp, math.sqrt(2.0 / n_runs), z_threshold, n_runs)
        )
        if removed.std() > 0 and surviving.std() > 0:
            corr = float(np.corrcoef(surviving, removed)[0, 1])
            entries.append(
                _entry("corr(surviving, removed)", 0.0, corr, 1.0 / math.sqrt(n_runs), z_threshold, n_runs)
            )
    return OracleReport(entries, n_runs, rng_seed, z_threshold)


def oracle_pmbm(
    m: PmbmDensity,
    constrained: ConstrainedPmbm,
    cs: ConstraintSet,
    n: int = 200_000,
    z_threshold: float = 4.0,
    rng_seed: int = 0,
) -> OracleReport:
    """Componentwise Bernoulli/PPP checks plus the whole-set expected cardinality."""
    entries: List[OracleEntry] = []
    rep = oracle_ppp(m.ppp, constrained.ppp, cs, min(n, 20_000), z_threshold, rng_seed)
    entries.extend(OracleEntry("ppp." + e.name, e.analytic, e.empirical, e.se, e.z, e.passed) for e in rep.entries)
    for a, (h, hc) in enumerate(zip(m.hypotheses, constrained.hypotheses)):
        for i, (t, tc) in enumerate(zip(h.tracks, hc.tracks)):
            rep = oracle_bernoulli(
                t, tc, cs, n, z_threshold, rng_seed + 1000 * a + i, check_moments=False
            )
            entries.extend(
                OracleEntry(f"hyp[{a}].track[{i}].{e.name}", e.analytic, e.empirical, e.se, e.z, e.passed)
                for e in rep.entries
            )

    # Whole-set expected surviving cardinality.
    rng = child_rng(rng_seed, 17)
    n_card = min(n, 50_000)
    expected = constrained.ppp.mu + sum(
        hc.weight * sum(t.r for t in hc.tracks) for hc in constrained.hypotheses
    )
    weights = np.array([h.weight for h in m.hypotheses])
    hyp_pick = rng.choice(len(weights), size=n_card, p=weights / weights.sum())
    total_surv = 0.0
    ppp_counts = rng.poisson(m.ppp.mu, size=n_card)
    strata = stratified_draws(m.ppp.density, int(ppp_counts.sum()), rng)
    total_surv += sum(int(acc.sum()) for acc in _acceptance_masks(strata, cs).values())
    for a, h in enumerate(m.hypotheses):
        n_a = int((hyp_pick == a).sum())
        if n_a == 0:
            continue
        for t in h.tracks:
            n_exist = int(rng.binomial(n_a, t.r)) if t.r > 0 else 0
            if n_exist == 0:
                continue
            s = stratified_draws(t.density, n_exist, rng)
            total_surv += sum(int(acc.sum()) for acc in _acceptance_masks(s, cs).values())
    emp = total_surv / n_card
    # Analytic variance of one realization's surviving count: Poisson part,
    # within-hypothesis Bernoulli part, between-hypothesis spread.
    sums = np.array([sum(t.r for t in hc.tracks) for hc in constrained.hypotheses])
    w = np.array([hc.weight for hc in constrained.hypotheses])
    bern = sum(
        hc.weight * sum(t.r * (1.0 - t.r) for t in hc.tracks) for hc in constrained.hypotheses
    )
    between = float(np.sum(w * (sums - np.sum(w * sums)) ** 2))
    var_one = constrained.ppp.mu + bern + between
    # The engine's own MC error. Every component is constrained with the same
    # rng_seed, so their errors may be correlated; a linear sum bounds any case.
    engine_se = m.ppp.mu * constrained.ppp.report.joint_se + sum(
        h.weight * sum(t.r * tc.report.joint_se for t, tc in zip(h.tracks, hc.tracks))
        for h, hc in zip(m.hypotheses, constrained.hypotheses)
    )
    se = math.sqrt(max(var_one, 1e-12) / n_card + engine_se**2)
    entries.append(_entry("expected_cardinality", expected, emp, se, z_threshold, n_card))
    return OracleReport(entries, n, rng_seed, z_threshold)
