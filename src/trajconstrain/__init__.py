"""Spatiotemporal constraints for Bernoulli, PPP and PMBM densities over
sets of trajectories, with a Monte Carlo verification oracle."""

from .core import (
    CONJUNCT,
    DISJUNCT,
    Constraint,
    ConstraintSet,
    StateRegion,
    TimeWindow,
    Trajectory,
    active_constraints,
    existence_pairs,
    satisfies,
    satisfies_batch,
    tau,
    tau_set,
    time_window_constraints,
)
from .engine import (
    ConstrainedBernoulli,
    ConstrainedPmbm,
    ConstrainedPpp,
    ConstrainedTrajectoryDensity,
    ConstraintReport,
    constrain_bernoulli,
    constrain_density,
    constrain_pmbm,
    constrain_ppp,
    constrained_marginals,
    disjunct_partitions,
)
from .gaussian import (
    BirthDeathPmf,
    GaussianSequence,
    SampleCloud,
    TrajectoryDensity,
    alive_probability,
    marginal,
    moment_match,
    region_probability,
    sample,
)
from .rfs import (
    BernoulliTrajectory,
    GlobalHypothesis,
    PmbmDensity,
    PppTrajectory,
    sample_bernoulli,
    sample_pmbm,
    sample_ppp,
    validate,
)

__version__ = "0.1.0"
