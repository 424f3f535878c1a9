"""Uncertainty propagation, inverse-uncertainty fusion, and the loss."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from keyedge.dataio import SIGMA_KEYS, record_ratio_sigmas
from keyedge.geometry import (
    RATIO_KEYS,
    BoxPose3D,
    CameraIntrinsics,
    normalize_angle,
    project_keyedges,
)
from keyedge.indexing import (
    RatioTuple,
    camera_centric_view,
    object_centric_tuples,
    to_object_centric_tuples,
)
from keyedge.recovery import (
    PoseEstimate,
    UnobservableDistortion,
    pose_estimate,
    solve_all,
    solve_tuple,
)
from keyedge.uncertainty import (
    EmptyInput,
    FusedEstimate,
    NonPositiveSigma,
    check_row,
    depth_partials,
    fuse,
    propagate_sigma,
    solve_batch,
    uncertainty_loss,
)
from oracles import central_difference, gate_records

INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))

D_A = 10.0 + math.sqrt(3)
TUPLE_B = RatioTuple("b", D_A / 10.0, 1.2)


def d_obj_of(reference, r1, r2, length, width):
    return pose_estimate(RatioTuple(reference, r1, r2), length, width).d_obj


def fd_partials(t, length, width, step=1e-6):
    p1 = central_difference(lambda r: d_obj_of(t.reference, r, t.r2, length, width), t.r1, step)
    p2 = central_difference(lambda r: d_obj_of(t.reference, t.r1, r, length, width), t.r2, step)
    return p1, p2


@st.composite
def random_tuples(draw):
    reference = draw(st.sampled_from("abcd"))
    r1 = draw(st.floats(0.7, 1.4))
    r2 = draw(st.floats(0.7, 1.4))
    assume(max(abs(r1 - 1.0), abs(r2 - 1.0)) > 1e-3)
    length = draw(st.floats(2.5, 6.0))
    width = draw(st.floats(1.2, 2.5))
    return RatioTuple(reference, r1, r2), length, width


class TestDepthPartials:
    def test_worked_scene_matches_finite_differences(self):
        p1, p2 = depth_partials(TUPLE_B, length=4.0, width=2.0)
        f1, f2 = fd_partials(TUPLE_B, 4.0, 2.0)
        assert p1 == pytest.approx(f1, rel=1e-6)
        assert p2 == pytest.approx(f2, rel=1e-6)

    def test_symmetric_case(self):
        # square footprint with equal distortions: the two partials agree
        t = RatioTuple("b", 1.15, 1.15)
        p1, p2 = depth_partials(t, length=2.0, width=2.0)
        assert p1 == pytest.approx(p2, rel=1e-12)

    def test_degenerate_propagates(self):
        with pytest.raises(UnobservableDistortion):
            depth_partials(RatioTuple("b", 1.0, 1.0), length=4.0, width=2.0)

    @given(random_tuples())
    @settings(max_examples=200)
    def test_matches_finite_differences(self, case):
        t, length, width = case
        # keep the difference quotient well conditioned
        try:
            d = d_obj_of(t.reference, t.r1, t.r2, length, width)
        except Exception:
            assume(False)
        assume(d < 1e4)
        p1, p2 = depth_partials(t, length, width)
        f1, f2 = fd_partials(t, length, width, step=1e-6 * max(1.0, abs(t.r1)))
        scale = max(abs(p1), abs(p2), 1e-9)
        assert abs(p1 - f1) / scale < 1e-5
        assert abs(p2 - f2) / scale < 1e-5

    @given(random_tuples(), st.floats(0.3, 3.0))
    def test_distortion_scaling_identity(self, case, lam):
        # scaling both (r - 1) by lam scales d_ref by 1/lam; the partial
        # formula tracks it exactly
        t, length, width = case
        scaled = RatioTuple(t.reference, 1.0 + lam * (t.r1 - 1.0), 1.0 + lam * (t.r2 - 1.0))
        _, d_ref = solve_tuple(t, length, width)
        _, d_ref_scaled = solve_tuple(scaled, length, width)
        assert d_ref_scaled == pytest.approx(d_ref / lam, rel=1e-9)


class TestPropagateSigma:
    def test_zero_sigmas(self):
        assert propagate_sigma((-46.0, -9.8), 0.0, 0.0) == 0.0

    def test_linearity_in_common_sigma(self):
        p = (-3.0, 4.0)
        assert propagate_sigma(p, 0.5, 0.5) == pytest.approx((3.0 + 4.0) * 0.5)

    def test_worked_scene_hand_sum(self):
        p1, p2 = depth_partials(TUPLE_B, length=4.0, width=2.0)
        got = propagate_sigma((p1, p2), 0.01, 0.01)
        assert got == pytest.approx((abs(p1) + abs(p2)) * 0.01, rel=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(NonPositiveSigma):
            propagate_sigma((1.0, 1.0), -0.1, 0.1)


class TestFuse:
    def estimates(self, depths, thetas=None):
        thetas = thetas or [0.1] * len(depths)
        return [
            PoseEstimate(theta=t, d_ref=d, d_obj=d, reference="abcd"[i % 4])
            for i, (d, t) in enumerate(zip(depths, thetas))
        ]

    def test_fixture(self):
        members = list(zip(self.estimates([10.0, 12.0]), [1.0, 2.0]))
        fused = fuse(members)
        assert fused.d_fusion == pytest.approx((10.0 / 1.0 + 12.0 / 2.0) / 1.5, abs=1e-12)
        assert fused.d_fusion == pytest.approx(10.6667, abs=1e-4)

    def test_equal_sigma_is_mean(self):
        members = list(zip(self.estimates([9.0, 10.0, 14.0]), [0.7, 0.7, 0.7]))
        assert fuse(members).d_fusion == pytest.approx(11.0, abs=1e-12)

    def test_dominant_member_limit(self):
        members = list(zip(self.estimates([10.0, 12.0]), [1e-9, 1.0]))
        assert fuse(members).d_fusion == pytest.approx(10.0, abs=1e-6)

    def test_weights_normalized_and_recorded(self):
        members = list(zip(self.estimates([10.0, 12.0]), [1.0, 2.0]))
        fused = fuse(members)
        weights = [w for _, _, w in fused.per_tuple]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert weights[0] == pytest.approx(2.0 / 3.0)
        assert isinstance(fused, FusedEstimate)

    def test_circular_mean_yaw(self):
        # two yaws straddling the wrap line average to the wrap line
        members = list(
            zip(self.estimates([10.0, 10.0], thetas=[math.pi - 0.1, -math.pi + 0.1]), [1.0, 1.0])
        )
        fused = fuse(members)
        assert abs(normalize_angle(fused.theta_fusion - (-math.pi))) < 1e-9

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fuse([])

    def test_non_positive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            fuse(list(zip(self.estimates([10.0]), [0.0])))

    @given(
        st.lists(st.floats(5.0, 50.0), min_size=1, max_size=6),
        st.data(),
    )
    def test_hull_permutation_rescale(self, depths, data):
        sigmas = [data.draw(st.floats(0.1, 5.0)) for _ in depths]
        members = list(zip(self.estimates(depths), sigmas))
        fused = fuse(members)
        assert min(depths) - 1e-9 <= fused.d_fusion <= max(depths) + 1e-9
        rng = np.random.default_rng(0)
        perm = list(rng.permutation(len(members)))
        fused_perm = fuse([members[i] for i in perm])
        assert fused_perm.d_fusion == pytest.approx(fused.d_fusion, rel=1e-12)
        rescaled = fuse([(e, s * 7.5) for e, s in members])
        assert rescaled.d_fusion == pytest.approx(fused.d_fusion, rel=1e-12)


class TestUncertaintyLoss:
    def test_zero_residual_unit_sigma(self):
        assert uncertainty_loss(1.0, 1.0, 1.0) == 0.0

    def test_fixture(self):
        assert uncertainty_loss(1.2, 0.1, 1.0) == pytest.approx(-0.302585, abs=1e-6)

    def test_minimizer_at_residual(self):
        residual = 0.37
        grid = np.linspace(0.01, 2.0, 4000)
        values = [uncertainty_loss(1.0 + residual, s, 1.0) for s in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(residual, abs=grid[1] - grid[0])

    def test_non_positive_sigma(self):
        with pytest.raises(NonPositiveSigma):
            uncertainty_loss(1.2, 0.0, 1.0)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
    def test_convex_beyond_minimum(self, e, offset):
        # along sigma > |r - r*| the loss increases
        s1 = e + offset
        s2 = e + offset * 2.0
        l1 = uncertainty_loss(1.0 + e, s1, 1.0)
        l2 = uncertainty_loss(1.0 + e, s2, 1.0)
        assert l2 >= l1 - 1e-12


@st.composite
def poses(draw):
    z = draw(st.floats(4.0, 80.0))
    gamma = draw(st.floats(-0.7, 0.7))
    yaw = draw(st.floats(-math.pi, math.pi, exclude_max=True))
    length = draw(st.floats(2.5, 6.0))
    width = draw(st.floats(1.2, 2.5))
    height = draw(st.floats(1.0, 2.5))
    center = (z * math.tan(gamma), 1.65 - height / 2, z)
    return BoxPose3D(center=center, dims=(length, width, height), yaw=yaw)


def composed_fusion(tuples, sigmas, length, width):
    """The solve_all -> depth_partials -> propagate_sigma -> fuse composition."""
    by_ref = {t.reference: t for t in tuples}
    estimates, skipped = solve_all(tuples, length, width)
    members = []
    for est in estimates:
        s1, s2 = sigmas[est.reference] if sigmas else (1.0, 1.0)
        partials = depth_partials(by_ref[est.reference], length, width)
        members.append((est, propagate_sigma(partials, s1, s2)))
    return fuse(members), skipped


def assert_row_matches(batch, n, fused, skipped, tuples):
    """Kernel row n fused as fused and skipped say, to 1e-12.

    Depths and sigmas match relatively, yaw in radians.
    """
    observable = batch.pose.observable[n]
    assert not batch.failed[n]
    assert skipped == [(t.reference, "unobservable distortion")
                       for t, ok in zip(tuples, observable) if not ok]
    assert fused.d_fusion == pytest.approx(batch.d_fusion[n], rel=1e-12)
    assert abs(normalize_angle(fused.theta_fusion - batch.theta_fusion[n])) <= 1e-12
    assert len(fused.per_tuple) == observable.sum()
    for (est, sigma_d, weight), j in zip(fused.per_tuple, np.flatnonzero(observable)):
        assert est.reference == "abcd"[j]
        assert est.d_obj == pytest.approx(batch.pose.d_obj[n, j], rel=1e-12)
        assert sigma_d == pytest.approx(batch.sigma_d[n, j], rel=1e-12)
        assert weight == pytest.approx(batch.weight[n, j], rel=1e-12)


def record_of(ratios, sigmas):
    """A solve record of stored ratios in RATIO_KEYS order and, unless None, their sigmas."""
    record = dict(zip(RATIO_KEYS, ratios))
    if sigmas is not None:
        record.update(zip(SIGMA_KEYS, sigmas))
    return record


sigma_rows = st.none() | st.lists(st.floats(1e-4, 0.1), min_size=4, max_size=4)


class TestFuseTuples:
    # One solve_batch row fuses a projected pose's record as composed_fusion
    # does on its tuples and per-reference sigmas.
    def check_row_of(self, ratios, sigmas, pose):
        record = record_of(ratios, sigmas)
        tuples = object_centric_tuples(record)
        fused, skipped = composed_fusion(tuples, record_ratio_sigmas(record), pose.length, pose.width)
        batch = solve_batch([ratios], None if sigmas is None else [sigmas], [pose.length], [pose.width])
        assert_row_matches(batch, 0, fused, skipped, tuples)
        return skipped

    @given(poses(), sigma_rows)
    @settings(max_examples=200)
    def test_equals_composition(self, pose, sigmas):
        tuples = to_object_centric_tuples(camera_centric_view(project_keyedges(pose, INTR)))
        self.check_row_of([t.r2 for t in tuples], sigmas, pose)  # r2 is the stored ratio r_ab .. r_da

    @given(poses(), sigma_rows, st.integers(0, 3))
    def test_equals_composition_with_degenerate_tuple(self, pose, sigmas, drop):
        ratios = [t.r2 for t in to_object_centric_tuples(camera_centric_view(project_keyedges(pose, INTR)))]
        ratios[drop - 1] = ratios[drop] = 1.0  # the two stored ratios tuple drop reads
        assert ("abcd"[drop], "unobservable distortion") in self.check_row_of(ratios, sigmas, pose)


class TestEndToEnd:
    def test_noise_free_pipeline_recovers_truth(self):
        pose = BoxPose3D(center=(3.0, 0.9, 22.0), dims=(4.4, 1.8, 1.5), yaw=0.8)
        obs = project_keyedges(pose, INTR)
        tuples = to_object_centric_tuples(camera_centric_view(obs))
        estimates, skipped = solve_all(tuples, length=pose.length, width=pose.width)
        assert not skipped
        members = []
        for est, t in zip(estimates, tuples):
            partials = depth_partials(t, pose.length, pose.width)
            sigma_d = propagate_sigma(partials, 0.01, 0.01)
            members.append((est, sigma_d))
        fused = fuse(members)
        assert fused.d_fusion == pytest.approx(pose.z, rel=1e-9)
        assert abs(normalize_angle(fused.theta_fusion - pose.yaw)) < 1e-9


def raised(call):
    """The exception call() raises, as (type, message), or None."""
    try:
        call()
    except ValueError as err:
        return type(err), str(err)
    return None


class TestSolveBatch:
    def test_rows_match_fuse_tuples(self):
        # 10k seeded rows, noisy and degenerate ones included: each kernel
        # row fuses as composed_fusion does on the record's tuples and
        # sigmas, and a row fails exactly where composed_fusion raises, with
        # its exception.
        R, S, L, W = gate_records(10_000, seed=11)
        batch = solve_batch(R, S, L, W)
        reasons = set()
        for n in range(len(R)):
            record = record_of(R[n].tolist(), None if np.isnan(S[n]).all() else S[n].tolist())
            tuples = object_centric_tuples(record)
            error = raised(lambda: check_row(batch, n))
            try:
                fused, skipped = composed_fusion(tuples, record_ratio_sigmas(record), L[n], W[n])
            except ValueError as err:
                assert error == (type(err), str(err))
                assert batch.failed[n]
                reasons.add(type(err).__name__)
                continue
            assert error is None
            assert_row_matches(batch, n, fused, skipped, tuples)
        assert reasons == {"AllDegenerate", "NonPositiveSigma"}

    def test_absent_sigmas_are_unit_sigmas(self):
        R, _, L, W = gate_records(64, seed=3)
        unit = solve_batch(R, None, L, W)
        nan_rows = solve_batch(R, np.full(R.shape, np.nan), L, W)
        pose = unit.pose
        assert np.array_equal(unit.sigma_d, abs(pose.p1) + abs(pose.p2), equal_nan=True)
        for name in ("sigma_d", "weight", "d_fusion", "theta_fusion", "failed"):
            assert np.array_equal(getattr(unit, name), getattr(nan_rows, name), equal_nan=True)
