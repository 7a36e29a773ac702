"""The (lo, hi) trust-window test against the per-variant reference.

``reference_trust_matrix`` is the trust test as it was written before every
interval geometry became one (lo, hi) window: one branch per variant, each
rebuilding its bounds. Hypothesis draws symmetric, asymmetric, per-agent,
shifted and norm-ball geometries with open and closed boundaries, on a
dyadic grid so that opinion gaps land exactly on the bounds, and checks
that ``trust_matrix`` and the trust-set sizes of both geometries equal the
reference mask and its row sums, and that the steps equal the ones built
on it.
"""

from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opiniondyn import bounded_confidence as bc
from opiniondyn import ConfidenceSpec, OpinionState, hk_step, inertial_step, truth_step
from test_bounded_confidence import NORM_ORDS, dense_steps


@dataclass(frozen=True)
class ReferenceSpec:
    variant: str
    closed: bool = True
    d: float | None = None
    d_left: float | None = None
    d_right: float | None = None
    d_per_agent: tuple | None = None
    eta: tuple | None = None
    norm: str = "euclidean"


def reference_trust_matrix(x: OpinionState, spec: ReferenceSpec) -> np.ndarray:
    n = x.n
    if spec.variant == "norm_ball":
        diff = x.values[:, None, :] - x.values[None, :, :]
        dist = np.linalg.norm(diff, ord=NORM_ORDS[spec.norm], axis=2)
        radius = (
            np.full(n, spec.d) if spec.d_per_agent is None else np.asarray(spec.d_per_agent)
        )
        if radius.shape[0] != n:
            raise ValueError("per-agent radii must match the agent count")
        mask = dist <= radius[:, None] if spec.closed else dist < radius[:, None]
    else:
        if x.m != 1:
            raise ValueError("interval confidence variants require scalar opinions")
        v = x.flat
        gap = v[None, :] - v[:, None]
        if spec.variant == "symmetric":
            lo = np.full(n, -spec.d)
            hi = np.full(n, spec.d)
        elif spec.variant == "asymmetric":
            lo = np.full(n, -spec.d_left)
            hi = np.full(n, spec.d_right)
        elif spec.variant == "per_agent":
            bounds = np.asarray(spec.d_per_agent)
            if bounds.shape[0] != n:
                raise ValueError("per-agent bounds must match the agent count")
            lo, hi = -bounds, bounds
        elif spec.variant == "shifted":
            eta = np.asarray(spec.eta)
            if eta.shape[0] != n:
                raise ValueError("shift list must match the agent count")
            lo = -spec.d + eta
            hi = np.full(n, spec.d)
        else:
            raise ValueError(f"unknown confidence variant {spec.variant!r}")
        if spec.closed:
            mask = (gap >= lo[:, None]) & (gap <= hi[:, None])
        else:
            mask = (gap > lo[:, None]) & (gap < hi[:, None])
    np.fill_diagonal(mask, True)
    return mask


GRID = 16
dyadic = st.integers(0, 2 * GRID).map(lambda k: k / GRID)
bound = st.integers(1, GRID).map(lambda k: k / GRID)


@st.composite
def geometries(draw):
    """(opinions, new spec, reference spec) for one drawn geometry."""
    variant = draw(st.sampled_from(
        ["symmetric", "asymmetric", "per_agent", "shifted", "norm_ball", "norm_ball_per_agent"]
    ))
    closed = draw(st.booleans())
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 3)) if variant.startswith("norm_ball") else 1
    x = OpinionState(np.array(draw(st.lists(dyadic, min_size=n * m, max_size=n * m)))
                     .reshape(n, m))
    per_agent = st.lists(bound, min_size=n, max_size=n)
    if variant == "symmetric":
        d = draw(bound)
        pair = ConfidenceSpec.symmetric(d, closed), ReferenceSpec(variant, closed, d=d)
    elif variant == "asymmetric":
        left, right = draw(bound), draw(bound)
        pair = (ConfidenceSpec.asymmetric(left, right, closed),
                ReferenceSpec(variant, closed, d_left=left, d_right=right))
    elif variant == "per_agent":
        bounds = tuple(draw(per_agent))
        pair = (ConfidenceSpec.per_agent(bounds, closed),
                ReferenceSpec(variant, closed, d_per_agent=bounds))
    elif variant == "shifted":
        d = draw(bound)
        eta = tuple(draw(st.lists(st.integers(0, int(d * GRID) - 1).map(lambda k: k / GRID),
                                  min_size=n, max_size=n)))
        pair = (ConfidenceSpec.shifted(d, eta, closed),
                ReferenceSpec(variant, closed, d=d, eta=eta))
    else:
        norm = draw(st.sampled_from(["euclidean", "max", "sum"]))
        if variant == "norm_ball":
            d = draw(bound)
            pair = (ConfidenceSpec.norm_ball(d, norm, closed),
                    ReferenceSpec("norm_ball", closed, d=d, norm=norm))
        else:
            radii = tuple(draw(per_agent))
            pair = (ConfidenceSpec.norm_ball(radii, norm, closed),
                    ReferenceSpec("norm_ball", closed, d_per_agent=radii, norm=norm))
    return (x, *pair)


@settings(max_examples=400, deadline=None)
@given(geometries())
def test_trust_mask_matches_reference(case):
    x, spec, ref = case
    reference = reference_trust_matrix(x, ref)
    assert np.array_equal(bc.trust_matrix(x, spec), reference)
    assert np.array_equal(bc._trust(x, spec)[1], reference.sum(axis=1))


@settings(max_examples=200, deadline=None)
@given(geometries(), st.data())
def test_steps_bit_equal_to_reference(case, data):
    x, spec, ref = case
    lam = np.array(data.draw(st.lists(dyadic.map(lambda v: v / 2), min_size=x.n,
                                      max_size=x.n)))
    target = np.array(data.draw(st.lists(dyadic, min_size=x.m, max_size=x.m)))
    new = [hk_step(x, spec), truth_step(x, lam, target, spec), inertial_step(x, lam, spec)]
    assert [state.values.tobytes() for state in new] == dense_steps(
        reference_trust_matrix(x, ref), x, lam, target)


@pytest.mark.parametrize(
    "spec",
    [
        ConfidenceSpec.per_agent([0.5]),
        ConfidenceSpec.per_agent([0.5, 0.5, 0.5, 0.5]),
        ConfidenceSpec.shifted(0.5, [0.0]),
        ConfidenceSpec.shifted(0.5, [0.0, 0.1, 0.2, 0.3]),
        ConfidenceSpec(lo=(-0.5,), hi=0.5),
        ConfidenceSpec(lo=-0.5, hi=(0.5, 0.25)),
        ConfidenceSpec.norm_ball([0.5]),
        ConfidenceSpec.norm_ball([0.5, 0.5, 0.5, 0.5]),
    ],
)
def test_per_agent_length_mismatch_raises(spec):
    x = OpinionState([0.0, 0.25, 1.0])
    message = f"^spec is for {spec.n} agents, not 3$"
    with pytest.raises(ValueError, match=message):
        bc.trust_matrix(x, spec)
    lam = np.full(x.n, 0.5)
    for step in (lambda: hk_step(x, spec), lambda: truth_step(x, lam, [0.5], spec),
                 lambda: inertial_step(x, lam, spec)):
        with pytest.raises(ValueError, match=message):
            step()


class TestSpecForm:
    @pytest.mark.parametrize("spec, n", [
        (ConfidenceSpec.symmetric(0.25), None),
        (ConfidenceSpec.norm_ball(0.25), None),
        (ConfidenceSpec.per_agent([0.1, 0.2, 0.3]), 3),
        (ConfidenceSpec.shifted(0.5, [0.0, 0.1]), 2),
        (ConfidenceSpec(lo=-0.5, hi=(0.5, 0.25)), 2),
        (ConfidenceSpec.norm_ball([0.5] * 4), 4),
    ], ids=repr)
    def test_n_is_the_agent_count_of_per_agent_bounds(self, spec, n):
        assert spec.n == n

    def test_fields_are_the_trust_window(self):
        assert [f.name for f in fields(ConfidenceSpec)] == ["lo", "hi", "closed", "norm"]
        assert ConfidenceSpec.symmetric(0.25) == ConfidenceSpec(lo=-0.25, hi=0.25)
        assert ConfidenceSpec.asymmetric(0.1, 0.3, closed=False) == ConfidenceSpec(
            lo=-0.1, hi=0.3, closed=False
        )
        assert ConfidenceSpec.per_agent([0.1, 0.2]) == ConfidenceSpec(
            lo=(-0.1, -0.2), hi=(0.1, 0.2)
        )
        assert ConfidenceSpec.shifted(0.5, [0.0, 0.25]) == ConfidenceSpec(
            lo=(-0.5, -0.25), hi=0.5
        )
        assert ConfidenceSpec.norm_ball(2, norm="max") == ConfidenceSpec(
            lo=None, hi=2.0, norm="max"
        )

    def test_variant_names_the_family(self):
        assert ConfidenceSpec.shifted(0.5, [0.0, 0.25]).variant == "interval"
        assert ConfidenceSpec.norm_ball([1.0, 2.0]).variant == "norm_ball"

    def test_lists_become_tuples(self):
        spec = ConfidenceSpec(lo=[-0.1, -0.2], hi=[0.3, 0.4])
        assert spec.lo == (-0.1, -0.2) and spec.hi == (0.3, 0.4)
        hash(spec)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConfidenceSpec.symmetric(0.0),
            lambda: ConfidenceSpec.symmetric(-1.0),
            lambda: ConfidenceSpec.asymmetric(0.0, 0.5),
            lambda: ConfidenceSpec.asymmetric(0.5, -0.5),
            lambda: ConfidenceSpec.per_agent([0.5, 0.0]),
            lambda: ConfidenceSpec.shifted(0.0, [0.0]),
            lambda: ConfidenceSpec.shifted(0.2, [0.0, 0.2]),
            lambda: ConfidenceSpec.shifted(0.2, [-0.1, 0.1]),
            lambda: ConfidenceSpec.shifted(0.2, []),
            lambda: ConfidenceSpec.norm_ball(0.0),
            lambda: ConfidenceSpec.norm_ball([1.0, -1.0]),
            lambda: ConfidenceSpec.norm_ball(1.0, norm="cosine"),
            lambda: ConfidenceSpec(lo=0.0, hi=1.0),
            lambda: ConfidenceSpec(lo=(-0.1, -0.2), hi=(0.1, 0.2, 0.3)),
            lambda: ConfidenceSpec.symmetric(float("nan")),
            lambda: ConfidenceSpec.asymmetric(0.5, float("nan")),
            lambda: ConfidenceSpec.per_agent([0.5, float("nan")]),
            lambda: ConfidenceSpec.shifted(float("nan"), [0.0]),
            lambda: ConfidenceSpec.norm_ball([1.0, float("nan")]),
            lambda: ConfidenceSpec(lo=float("nan"), hi=1.0),
        ],
    )
    def test_invalid_geometries_raise(self, build):
        with pytest.raises(ValueError):
            build()
