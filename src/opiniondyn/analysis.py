"""Post-hoc trajectory analytics.

Cluster extraction from a final state, outcome classification (consensus,
two opposite camps, several clusters, or not settled), and the Monte Carlo
harness comparing bounded-confidence cluster counts with the 1/(2d) rule of
thumb.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bounded_confidence import ConfidenceSpec, _finite_means, hk_step, simulate_bc, sorted_split
from .gossip import make_rng
from .net_graph import _component_labels, _tarjan_scc
from .state import OpinionState, Trajectory, _count, _distances, _instance, _iterable, _real

__all__ = [
    "ClusterProfile",
    "OutcomeLabel",
    "clusters",
    "classify",
    "two_r_experiment",
    "TwoRRow",
]


@dataclass(frozen=True)
class ClusterProfile:
    """Partition of agents into opinion clusters.

    Each cluster is (representative value, member tuple) with the
    representative the mean of the members, finite for finite opinions;
    ``min_separation`` is the smallest Euclidean distance between opinions
    in different clusters (inf for a single cluster), read off the
    distances that grouped them (the ``state._distance_blocks`` kernel for
    vector opinions, the sorted gaps for scalar ones), so it exceeds the
    clustering scale.
    """

    clusters: tuple
    min_separation: float

    @property
    def count(self) -> int:
        return len(self.clusters)

    @property
    def members(self) -> tuple:
        return tuple(m for _, m in self.clusters)


def clusters(x: OpinionState, gap_tol: float) -> ClusterProfile:
    """Single-linkage grouping at the given scale: scalar opinions are
    sorted and split at gaps exceeding gap_tol; vector opinions are grouped
    into the connected components of the mask of pairs within gap_tol
    (Euclidean), found by the package's one component kernel. Raises
    ValueError unless x is an OpinionState and gap_tol is a positive real number."""
    _instance("x", x, OpinionState)
    gap_tol = _real("gap_tol", gap_tol, "(0, inf]")
    min_sep = math.inf
    if x.m == 1:
        order, gaps, splits = sorted_split(x.flat, gap_tol)
        groups = [g.tolist() for g in np.split(order, splits + 1)]
        if splits.size:
            # the closest opinions of different clusters meet at a split
            min_sep = float(gaps[splits].min())
    else:
        dist = _distances(x.values)
        groups = [list(c) for c in _tarjan_scc(dist <= gap_tol)]
        label = _component_labels(groups, x.n)
        if len(groups) > 1:
            min_sep = float(dist[label[:, None] != label[None, :]].min())

    with np.errstate(over="ignore", invalid="ignore"):  # _finite_means retakes such a mean
        means = np.array([x.values[g].mean(axis=0) for g in groups])
    means = _finite_means(means, np.isfinite(means), x.values,
                          lambda rows, scaled: [scaled[groups[r]].mean(axis=0) for r in rows])
    return ClusterProfile(tuple(zip(means, (tuple(sorted(g)) for g in groups))), min_sep)


@dataclass(frozen=True)
class OutcomeLabel:
    """Classified outcome of a run.

    kind: "consensus", "polarization" (exactly two clusters at opposite
    values; ``camps`` holds the member sets), "clusters" (``count`` many),
    or "not_converged" (final increments still above tolerance).
    """

    kind: str
    count: int | None = None
    camps: tuple | None = None


def classify(trajectory: Trajectory, tol: float, gap_tol: float | None = None) -> OutcomeLabel:
    """Label the outcome of a run.

    Not settled when the last recorded increment exceeds tol; consensus
    when the final diameter is below tol; two clusters at values summing to
    (nearly) zero are polarization; anything else reports the cluster
    count. The clustering scale defaults to 1e-4 times the initial
    diameter (bounded-confidence callers should pass their own bound).
    The polarization test's norms ||v1 + v2|| and ||v1|| are the
    ``state._distances`` from v1 to -v2 and to the origin, and an
    overflowing difference is an infinity, without a warning. Raises
    ValueError unless trajectory is a Trajectory and tol is nonnegative.
    """
    tol = _real("tol", tol, "[0, inf]")
    if len(_instance("trajectory", trajectory, Trajectory)) >= 2:
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.abs(trajectory.array[-1] - trajectory.array[-2]).max()
        if step > tol and trajectory.terminated_at is None:
            return OutcomeLabel(kind="not_converged")
    final = trajectory.final
    if final.diameter() < tol:
        return OutcomeLabel(kind="consensus", count=1)
    if gap_tol is None:
        init_diam = trajectory.initial.diameter()
        gap_tol = 1e-4 * init_diam if init_diam > 0 else tol
    profile = clusters(final, gap_tol)
    if profile.count == 2:
        (v1, m1), (v2, m2) = profile.clusters
        _, sum_norm, v1_norm = _distances(np.array([v1, -v2, np.zeros_like(v1)]))[0].tolist()
        if sum_norm < tol * (1.0 + v1_norm):
            return OutcomeLabel(kind="polarization", count=2, camps=(m1, m2))
    return OutcomeLabel(kind="clusters", count=profile.count)


@dataclass(frozen=True)
class TwoRRow:
    """One row of the cluster-count experiment: the confidence bound, the
    per-trial final cluster counts, their mean and standard deviation, and
    the half-up rounded 1/(2d) predicted by the rule of thumb."""

    d: float
    trials: int
    counts: tuple
    mean_clusters: float
    std_clusters: float
    conjecture: int


def _hk_step_bound(n: int) -> int:
    """Step budget 2 n^3 - 2 (n - 1)^2 within which the plain
    bounded-confidence model on n agents reaches its fixed point."""
    return 2 * n**3 - 2 * (n - 1) ** 2


def two_r_experiment(n: int, d_list: Iterable[float], trials: int, seed: int) -> list:
    """Monte Carlo comparison of final cluster counts against 1/(2d).

    For each confidence bound d: sample initial opinions uniformly on
    [0, 1] (independent sub-stream per (d, trial)), run the plain
    bounded-confidence model to exact termination, and count clusters at
    scale d. Deterministic given the seed. Raises ValueError unless every
    d lies in (0, inf), and MaxStepsError if a run misses the
    termination bound 2 n^3 - 2 (n - 1)^2.
    """
    n, trials = _count("n", n, 1), _count("trials", trials, 1)
    d_list = list(_iterable("d_list", d_list))
    for d in d_list:
        _real("confidence bound d", d, "(0, inf)")
    bound = _hk_step_bound(n)
    rows = []
    for d_idx, d in enumerate(d_list):
        spec = ConfidenceSpec.symmetric(d)
        counts = []
        for trial in range(trials):
            rng = make_rng(seed, d_idx, trial)
            x0 = OpinionState(rng.uniform(0.0, 1.0, size=n))
            traj = simulate_bc(lambda s: hk_step(s, spec), x0, max_steps=bound)
            counts.append(clusters(traj.final, gap_tol=d).count)
        counts_arr = np.array(counts, dtype=float)
        rows.append(
            TwoRRow(
                d=float(d),
                trials=trials,
                counts=tuple(counts),
                mean_clusters=float(counts_arr.mean()),
                std_clusters=float(counts_arr.std()),
                conjecture=int(math.floor(1.0 / (2.0 * d) + 0.5)),
            )
        )
    return rows
