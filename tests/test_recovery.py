"""Closed-form inversion: the array kernel, its one-row views, round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedge.geometry import (
    RATIO_KEYS,
    BoxPose3D,
    CameraIntrinsics,
    keyedge_ratios,
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
    AllDegenerate,
    DEGENERACY_TOL,
    InvalidDims,
    PoseEstimate,
    UnobservableDistortion,
    invert,
    pose_estimate,
    solve_all,
    solve_tuple,
)
from keyedge.uncertainty import solve_batch
from oracles import gate_records, invert_reference

EPS = np.finfo(float).eps
INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))

# Reference scene: l=4, w=2, yaw=30deg, d_b=10.
D_A = 10.0 + math.sqrt(3)
D_C = 12.0
D_D = 12.0 + math.sqrt(3)
D_OBJ = 10.0 + (4.0 * 0.5 + 2.0 * math.sqrt(3) / 2.0) / 2.0
TUPLE_B = RatioTuple("b", D_A / 10.0, D_C / 10.0)
TUPLE_A = RatioTuple("a", D_D / D_A, 10.0 / D_A)


@st.composite
def poses(draw):
    z = draw(st.floats(4.0, 80.0))
    gamma = draw(st.floats(-0.7, 0.7))
    x = z * math.tan(gamma)
    yaw = draw(st.floats(-math.pi, math.pi, exclude_max=True))
    length = draw(st.floats(2.5, 6.0))
    width = draw(st.floats(1.2, 2.5))
    height = draw(st.floats(1.0, 2.5))
    return BoxPose3D(center=(x, 1.65 - height / 2, z), dims=(length, width, height), yaw=yaw)


def ground_truth_tuples(pose):
    obs = project_keyedges(pose, INTR)
    return to_object_centric_tuples(camera_centric_view(obs))


class TestSolveTuple:
    def test_reference_b_fixture(self):
        theta, d_ref = solve_tuple(TUPLE_B, length=4.0, width=2.0)
        assert theta == pytest.approx(math.radians(30.0), abs=1e-9)
        assert d_ref == pytest.approx(10.0, abs=1e-9)

    def test_reference_a_fixture(self):
        theta, d_ref = solve_tuple(TUPLE_A, length=4.0, width=2.0)
        assert theta == pytest.approx(math.radians(30.0), abs=1e-9)
        assert d_ref == pytest.approx(D_A, abs=1e-9)

    def test_reference_b_matches_direct_form(self):
        # the generic row solver must reduce to the plain two-ratio formulas
        r1, r2 = TUPLE_B.r1, TUPLE_B.r2
        l, w = 4.0, 2.0
        direct_theta = math.atan2(w * (r2 - 1.0), l * (r1 - 1.0))
        direct_d = 1.0 / math.sqrt(((r1 - 1.0) / w) ** 2 + ((r2 - 1.0) / l) ** 2)
        theta, d_ref = solve_tuple(TUPLE_B, length=l, width=w)
        assert theta == direct_theta
        assert d_ref == direct_d

    def test_degenerate_tuple_raises(self):
        with pytest.raises(UnobservableDistortion):
            solve_tuple(RatioTuple("b", 1.0, 1.0), length=4.0, width=2.0)
        almost = 1.0 + DEGENERACY_TOL / 3.0
        with pytest.raises(UnobservableDistortion):
            solve_tuple(RatioTuple("b", almost, almost), length=4.0, width=2.0)

    def test_invalid_dims(self):
        with pytest.raises(InvalidDims):
            solve_tuple(TUPLE_B, length=0.0, width=2.0)
        with pytest.raises(InvalidDims):
            solve_tuple(TUPLE_B, length=4.0, width=-1.0)

    @given(poses())
    def test_round_trip_each_reference(self, pose):
        for t in ground_truth_tuples(pose):
            theta, d_ref = solve_tuple(t, length=pose.length, width=pose.width)
            assert abs(normalize_angle(theta - pose.yaw)) < 1e-9
            obs = project_keyedges(pose, INTR)
            assert d_ref == pytest.approx(obs.depths[t.reference], rel=1e-9)

    @given(poses(), st.floats(0.1, 10.0))
    def test_scale_covariance(self, pose, scale):
        # scaling dims and depth together leaves ratios, hence theta, fixed
        # and scales the recovered depths
        for t in ground_truth_tuples(pose):
            theta, d_ref = solve_tuple(t, length=pose.length, width=pose.width)
            theta_s, d_ref_s = solve_tuple(
                t, length=pose.length * scale, width=pose.width * scale
            )
            assert theta_s == pytest.approx(theta, abs=1e-12)
            assert d_ref_s == pytest.approx(d_ref * scale, rel=1e-12)


class TestCenterDepth:
    def test_fixture_both_references(self):
        assert pose_estimate(TUPLE_B, 4.0, 2.0).d_obj == pytest.approx(D_OBJ, abs=1e-7)
        assert pose_estimate(TUPLE_A, 4.0, 2.0).d_obj == pytest.approx(D_OBJ, abs=1e-7)

    def test_axis_aligned_reduces_to_half_width(self):
        # yaw 0, d_b = 9: d_a = 9 + w, d_c = 9, so d_obj = 9 + w / 2
        assert pose_estimate(RatioTuple("b", 11.0 / 9.0, 1.0), 4.0, 2.0).d_obj == pytest.approx(10.0)

    @given(poses())
    def test_all_references_agree(self, pose):
        for t in ground_truth_tuples(pose):
            got = pose_estimate(t, pose.length, pose.width).d_obj
            assert got == pytest.approx(pose.z, rel=1e-12)


class TestAxisScales:
    @given(poses())
    def test_unified_depth_form(self, pose):
        # d_ref = (e1^2/k1^2 + e2^2/k2^2)^(-1/2) for every reference, with
        # (k1, k2) = (l, w) for a and c and (w, l) for b and d
        for t in ground_truth_tuples(pose):
            k1, k2 = (pose.width, pose.length) if t.reference in "bd" else (pose.length, pose.width)
            e1, e2 = t.r1 - 1.0, t.r2 - 1.0
            s = (e1 / k1) ** 2 + (e2 / k2) ** 2
            _, d_ref = solve_tuple(t, length=pose.length, width=pose.width)
            assert d_ref == pytest.approx(1.0 / math.sqrt(s), rel=1e-12)


class TestSolveAll:
    @given(poses())
    @settings(max_examples=60)
    def test_four_consistent_estimates(self, pose):
        estimates, skipped = solve_all(
            ground_truth_tuples(pose), length=pose.length, width=pose.width
        )
        assert not skipped
        assert len(estimates) == 4
        assert {e.reference for e in estimates} == set("abcd")
        for e in estimates:
            assert abs(normalize_angle(e.theta - pose.yaw)) < 1e-9
            assert e.d_obj == pytest.approx(pose.z, rel=1e-9)
        depths = [e.d_obj for e in estimates]
        yaws = [e.theta for e in estimates]
        for d in depths[1:]:
            assert d == pytest.approx(depths[0], rel=1e-9)
        for t in yaws[1:]:
            assert abs(normalize_angle(t - yaws[0])) < 1e-9

    def test_partial_degeneracy(self):
        good = TUPLE_B
        flat = RatioTuple("a", 1.0, 1.0)
        estimates, skipped = solve_all([flat, good], length=4.0, width=2.0)
        assert len(estimates) == 1
        assert estimates[0].reference == "b"
        assert skipped == [("a", "unobservable distortion")]

    def test_all_degenerate(self):
        flat = [RatioTuple(ref, 1.0, 1.0) for ref in "abcd"]
        with pytest.raises(AllDegenerate):
            solve_all(flat, length=4.0, width=2.0)

    def test_estimate_fields(self):
        est = pose_estimate(TUPLE_B, length=4.0, width=2.0)
        assert isinstance(est, PoseEstimate)
        assert est.reference == "b"
        assert est.d_ref == pytest.approx(10.0, abs=1e-9)
        assert est.d_obj == pytest.approx(D_OBJ, abs=1e-9)
        assert -math.pi <= est.theta < math.pi


class TestSolveBatch:
    def test_sign_rows(self):
        # Per reference, the signed rearrangement (Rtheta_w, Rtheta_l, Rd_w,
        # Rd_l) of (e1, e2) that gives theta = atan2(w Rtheta_w, l Rtheta_l)
        # and d_ref = ((Rd_w / w)^2 + (Rd_l / l)^2)^(-1/2); the unified form
        # must reproduce all four.
        e1, e2 = 0.25, -0.125
        length, width = 4.0, 2.0
        rows = {
            "a": (e1, -e2, e2, e1),
            "b": (e2, e1, e1, e2),
            "c": (-e1, e2, e2, e1),
            "d": (-e2, -e1, e1, e2),
        }
        inv = invert(np.full(4, 1.0 + e1), np.full(4, 1.0 + e2), np.arange(4), length, width)
        for i, (ref, (rtheta_w, rtheta_l, rd_w, rd_l)) in enumerate(rows.items()):
            theta = math.atan2(width * rtheta_w, length * rtheta_l)
            assert abs(normalize_angle(inv.theta[i] - theta)) <= 1e-15
            assert inv.d_ref[i] == 1.0 / math.sqrt((rd_w / width) ** 2 + (rd_l / length) ** 2)
            view = solve_tuple(RatioTuple(ref, 1.0 + e1, 1.0 + e2), length, width)
            assert view == pytest.approx((inv.theta[i], inv.d_ref[i]), rel=1e-15, abs=1e-15)

    def test_rows_match_views_and_oracle(self):
        # 10k seeded rows, noisy and degenerate ones included: the kernel's
        # pose stage, solve_all and solve_tuple, and the 2x2 oracle agree to
        # 1e-12 (relative for depths, in radians for yaw), and the kernel's
        # mask marks exactly the tuples the views skip or reject.
        #
        # The oracle gets e = (1 - r) / r for a reversed ratio exactly, while
        # the kernel's 1 / r - 1 carries a rounding of up to eps, which moves
        # d_ref by up to eps * d_ref / min(l, w) relative and theta by as many
        # radians.  That term stays below 1e-13 up to d_ref = 100 m; it
        # matters only for a near-flat tuple of a forced-degenerate row.
        R, S, L, W = gate_records(10_000, seed=7)
        pose = solve_batch(R, S, L, W).pose
        for n in range(len(R)):
            stored = dict(zip(RATIO_KEYS, R[n].tolist()))
            tuples = object_centric_tuples(stored)
            observable = pose.observable[n].tolist()
            flat = [t.reference for t, ok in zip(tuples, observable) if not ok]
            if not any(observable):
                with pytest.raises(AllDegenerate):
                    solve_all(tuples, L[n], W[n])
                continue
            estimates, skipped = solve_all(tuples, L[n], W[n])
            assert skipped == [(ref, "unobservable distortion") for ref in flat]
            for t in tuples:
                if t.reference in flat:
                    with pytest.raises(UnobservableDistortion):
                        solve_tuple(t, L[n], W[n])
            for est in estimates:
                j = "abcd".index(est.reference)
                row = (pose.theta[n, j], pose.d_ref[n, j], pose.d_obj[n, j])
                assert abs(normalize_angle(est.theta - row[0])) <= 1e-12
                assert (est.d_ref, est.d_obj) == pytest.approx(row[1:], rel=1e-12)
                theta, d_ref, d_obj = invert_reference(est.reference, stored, L[n], W[n])
                tol = 1e-12 + 4.0 * EPS * d_ref / min(L[n], W[n])
                assert abs(normalize_angle(row[0] - theta)) <= tol
                assert row[1:] == pytest.approx((d_ref, d_obj), rel=tol)
