"""Post-hoc trajectory analytics.

Interaction energies accumulated along a run, cluster extraction from a
final state, outcome classification (consensus, two opposite camps, several
clusters, or not settled), agreement of opinion magnitudes, and the Monte
Carlo harness comparing bounded-confidence cluster counts with the 1/(2d)
rule of thumb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounded_confidence import ConfidenceSpec, hk_step, simulate_bc, sorted_split, trust_matrix
from .state import MaxStepsError, OpinionState, Trajectory

__all__ = [
    "SEnergy",
    "ClusterProfile",
    "OutcomeLabel",
    "s_energy",
    "trust_pairs_per_step",
    "event_pairs_per_step",
    "support_pairs_per_step",
    "clusters",
    "classify",
    "modulus_consensus",
    "two_r_experiment",
    "TwoRRow",
]


@dataclass(frozen=True)
class SEnergy:
    """Accumulated interaction energies of a run: ``total`` sums active
    pairwise gaps to the power s, ``kinetic`` sums per-step opinion
    increments to the power s."""

    total: float
    kinetic: float


def s_energy(trajectory: Trajectory, pairs_per_step, s: float) -> SEnergy:
    """Truncated interaction energies over the recorded horizon.

    ``pairs_per_step`` lists, for every transition k -> k+1, the ordered
    agent pairs that were actively coupled at step k (trust pairs for
    bounded confidence, the sampled pair for gossip, the support of the
    step matrix otherwise); the generating model supplies them. Gaps use
    the Euclidean norm per pair.
    """
    if s <= 0:
        raise ValueError("the exponent must be positive")
    pairs_per_step = list(pairs_per_step)
    if len(pairs_per_step) != len(trajectory) - 1:
        raise ValueError(
            f"need pair records for each of the {len(trajectory) - 1} transitions, "
            f"got {len(pairs_per_step)}"
        )
    arr = trajectory.array
    total = 0.0
    for k, pairs in enumerate(pairs_per_step):
        state = arr[k]
        for i, j in pairs:
            gap = np.linalg.norm(state[i] - state[j])
            total += gap**s
    increments = np.linalg.norm(np.diff(arr, axis=0), axis=2)
    kinetic = float((increments**s).sum())
    return SEnergy(total=total, kinetic=kinetic)


def trust_pairs_per_step(trajectory: Trajectory, spec: ConfidenceSpec):
    """Ordered active pairs at each recorded state (last state excluded):
    (i, j) for j != i in agent i's trust set."""
    for k in range(len(trajectory) - 1):
        mask = trust_matrix(trajectory.state(k), spec)
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        yield list(zip(rows.tolist(), cols.tolist()))


def event_pairs_per_step(trajectory: Trajectory):
    """Realized interaction pairs of a gossip run: the sampled pair when it
    interacted, nothing otherwise."""
    if trajectory.events is None:
        raise ValueError("trajectory carries no event records")
    for i, j, interacted in trajectory.events:
        yield [(i, j)] if interacted else []


def support_pairs_per_step(spec, trajectory: Trajectory):
    """Off-diagonal support of the step matrices of a discrete linear run."""
    for k in range(len(trajectory) - 1):
        w = spec.matrix_at(trajectory.stamps[k], trajectory.array[k])
        mask = w != 0
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        yield list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class ClusterProfile:
    """Partition of agents into opinion clusters.

    Each cluster is (representative value, member tuple) with the
    representative the mean of the members; ``min_separation`` is the
    smallest distance between opinions in different clusters (inf for a
    single cluster).
    """

    clusters: tuple
    min_separation: float
    gap_tol: float

    @property
    def count(self) -> int:
        return len(self.clusters)

    @property
    def members(self) -> tuple:
        return tuple(m for _, m in self.clusters)


def clusters(x: OpinionState, gap_tol: float) -> ClusterProfile:
    """Single-linkage grouping at the given scale: scalar opinions are
    sorted and split at gaps exceeding gap_tol; vector opinions are grouped
    by union-find over pairs within gap_tol (Euclidean). Raises ValueError
    unless gap_tol > 0 (so also for NaN)."""
    if not gap_tol > 0:
        raise ValueError(f"gap_tol must be positive, got {gap_tol}")
    n = x.n
    min_sep = math.inf
    if x.m == 1:
        order, gaps, splits = sorted_split(x.flat, gap_tol)
        groups = [g.tolist() for g in np.split(order, splits + 1)]
        if splits.size:
            # the closest opinions of different clusters meet at a split;
            # the gap goes through the same norm as the vector path
            min_sep = float(np.linalg.norm(gaps[splits].min(keepdims=True)))
    else:
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        diff = x.values[:, None, :] - x.values[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] <= gap_tol:
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        parent[rb] = ra
        byroot = {}
        for i in range(n):
            byroot.setdefault(find(i), []).append(i)
        groups = sorted(byroot.values(), key=lambda g: g[0])
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for i in groups[a]:
                    for j in groups[b]:
                        min_sep = min(min_sep, float(np.linalg.norm(x.values[i] - x.values[j])))

    reps = []
    for g in groups:
        reps.append((x.values[g].mean(axis=0), tuple(sorted(g))))
    return ClusterProfile(tuple(reps), min_sep, gap_tol)


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
    value: np.ndarray | None = None


def classify(trajectory: Trajectory, tol: float, gap_tol: float | None = None) -> OutcomeLabel:
    """Label the outcome of a run.

    Not settled when the last recorded increment exceeds tol; consensus
    when the final diameter is below tol; two clusters at values summing to
    (nearly) zero are polarization; anything else reports the cluster
    count. The clustering scale defaults to 1e-4 times the initial
    diameter (bounded-confidence callers should pass their own bound).
    Raises ValueError for a NaN or negative tol.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if len(trajectory) >= 2:
        step = np.abs(trajectory.array[-1] - trajectory.array[-2]).max()
        if step > tol and trajectory.terminated_at is None:
            return OutcomeLabel(kind="not_converged")
    final = trajectory.final
    if final.diameter() < tol:
        return OutcomeLabel(kind="consensus", count=1, value=final.values.mean(axis=0))
    if gap_tol is None:
        init_diam = trajectory.initial.diameter()
        gap_tol = 1e-4 * init_diam if init_diam > 0 else tol
    profile = clusters(final, gap_tol)
    if profile.count == 2:
        (v1, m1), (v2, m2) = profile.clusters
        if np.linalg.norm(v1 + v2) < tol * (1.0 + np.linalg.norm(v1)):
            return OutcomeLabel(kind="polarization", count=2, camps=(m1, m2))
    return OutcomeLabel(kind="clusters", count=profile.count)


def modulus_consensus(x: OpinionState, tol: float) -> bool:
    """True when all opinion magnitudes agree: every | |x_i| - median |x| |
    is below tol. Scalar opinions only."""
    mags = np.abs(x.flat)
    return bool(np.max(np.abs(mags - np.median(mags))) < tol)


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


def two_r_experiment(n: int, d_list, trials: int, seed: int) -> list:
    """Monte Carlo comparison of final cluster counts against 1/(2d).

    For each confidence bound d: sample initial opinions uniformly on
    [0, 1] (independent sub-stream per (d, trial)), run the plain
    bounded-confidence model to exact termination, and count clusters at
    scale d. Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for d_idx, d in enumerate(d_list):
        spec = ConfidenceSpec.symmetric(d)
        bound = 2 * n**3 - 2 * (n - 1) ** 2
        counts = []
        for trial in range(trials):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed, spawn_key=(d_idx, trial)))
            )
            x0 = OpinionState(rng.uniform(0.0, 1.0, size=n))
            try:
                traj = simulate_bc(lambda s: hk_step(s, spec), x0, max_steps=bound)
            except MaxStepsError as exc:  # pragma: no cover - bound is generous
                traj = exc.trajectory
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
