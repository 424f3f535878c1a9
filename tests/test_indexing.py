"""Camera-centric indexing, allocentric groups, and tuple conversion."""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, strategies as st

from keyedge.geometry import (
    BoxPose3D,
    CameraIntrinsics,
    KEYEDGES,
    keyedge_ratios,
    normalize_angle,
    project_keyedges,
    viewing_angle,
)
from keyedge.indexing import (
    DegenerateObservation,
    NEAREST_BY_GROUP,
    RatioTuple,
    allocentric_group,
    camera_centric_view,
    nearest_keyedge,
    object_centric_tuples,
    to_object_centric_tuples,
)
from oracles import nearest_corner_by_distance, quarter_of

INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))

WORKED_POSE = BoxPose3D(
    center=(0.0, 0.9, 10.0 + (4.0 * 0.5 + 2.0 * math.sqrt(3) / 2) / 2),
    dims=(4.0, 2.0, 1.5),
    yaw=math.radians(30.0),
)


@st.composite
def poses(draw):
    z = draw(st.floats(5.0, 60.0))
    gamma = draw(st.floats(-0.69, 0.69))
    x = z * math.tan(gamma)
    yaw = draw(st.floats(-math.pi, math.pi, exclude_max=True))
    length = draw(st.floats(2.5, 6.0))
    width = draw(st.floats(1.2, 2.5))
    height = draw(st.floats(1.0, 2.5))
    return BoxPose3D(center=(x, 1.65 - height / 2, z), dims=(length, width, height), yaw=yaw)


def group_pose(alpha, x=4.0, z=15.0):
    """A car-sized box off the optical axis whose allocentric angle is alpha."""
    return BoxPose3D(center=(x, 0.9, z), dims=(4.4, 1.8, 1.5),
                     yaw=normalize_angle(alpha + math.atan2(x, z)))


# One pose inside each allocentric group, then the tie pose on the optical
# axis at each quarter boundary, with the letter the tie breaks to.
RELABEL_CASES = [
    *((group_pose(alpha), letter) for alpha, letter in zip(
        (-3 * math.pi / 4, -math.pi / 4, math.pi / 4, 3 * math.pi / 4), NEAREST_BY_GROUP)),
    *((group_pose(edge, x=0.0), letter) for edge, letter in zip(
        (-math.pi, -math.pi / 2, 0.0, math.pi / 2), "acba")),
]


def alpha_of(pose):
    return normalize_angle(pose.yaw - viewing_angle(pose.center))


def boundary_gap(alpha):
    """Distance of alpha from the nearest quarter boundary."""
    return min(
        abs(normalize_angle(alpha - b)) for b in (-math.pi, -math.pi / 2, 0.0, math.pi / 2)
    )


class TestAllocentricGroup:
    def test_boundaries_are_half_open(self):
        assert allocentric_group(0.0) == 2
        assert allocentric_group(math.pi / 4) == 2
        assert allocentric_group(-math.pi) == 0
        assert allocentric_group(math.pi / 2) == 3
        assert allocentric_group(-math.pi / 2) == 1
        # pi wraps to -pi under the half-open convention
        assert allocentric_group(math.pi) == 0

    @given(st.floats(-20.0, 20.0))
    def test_matches_explicit_quarters(self, alpha):
        assert allocentric_group(alpha) == quarter_of(alpha)

    @given(
        st.floats(-math.pi, math.pi, exclude_max=True),
        st.floats(6.0, 30.0),
        st.floats(31.0, 80.0),
    )
    def test_depth_independent(self, alpha, z_near, z_far):
        assume(boundary_gap(alpha) > 1e-6)
        # on the optical axis gamma = 0, so yaw = alpha at any depth
        groups = []
        for z in (z_near, z_far):
            pose = BoxPose3D(center=(0.0, 0.9, z), dims=(4.0, 2.0, 1.5), yaw=alpha)
            groups.append(camera_centric_view(project_keyedges(pose, INTR)).group)
        assert groups[0] == groups[1] == allocentric_group(alpha)


class TestNearestKeyedge:
    @given(poses())
    def test_matches_distance_oracle(self, pose):
        alpha = alpha_of(pose)
        assume(boundary_gap(alpha) > 1e-6)
        obs = project_keyedges(pose, INTR)
        got = nearest_keyedge(obs.distances)
        want = nearest_corner_by_distance(
            pose.x, pose.y, pose.z, pose.length, pose.width, pose.height, pose.yaw
        )
        assert got == want

    @given(poses())
    def test_is_function_of_alpha_quarter(self, pose):
        alpha = alpha_of(pose)
        assume(boundary_gap(alpha) > 1e-6)
        obs = project_keyedges(pose, INTR)
        assert nearest_keyedge(obs.distances) == NEAREST_BY_GROUP[allocentric_group(alpha)]

    def test_tie_breaks_to_lowest_letter(self):
        # equidistant square, axis aligned: all four corners tie pairwise
        pose = BoxPose3D(center=(0.0, 0.0, 10.0), dims=(2.0, 2.0, 1.5), yaw=0.0)
        obs = project_keyedges(pose, INTR)
        # b and c tie exactly; a and d are farther
        assert nearest_keyedge(obs.distances) == "b"

    def test_non_finite_distance_is_degenerate(self):
        with pytest.raises(DegenerateObservation):
            nearest_keyedge({"a": 1.0, "b": float("nan"), "c": 1.0, "d": 1.0})


class TestCameraCentricView:
    def test_worked_scene(self):
        # gamma ~ 0, yaw 30deg: b is nearest, indices (2,3,4) = (c,d,a)
        obs = project_keyedges(WORKED_POSE, INTR)
        cc = camera_centric_view(obs)
        assert NEAREST_BY_GROUP[cc.group] == "b"
        assert cc.group == 2
        assert cc.r21 == pytest.approx(1.0 / 1.2, abs=1e-7)
        assert cc.r41 == pytest.approx(10.0 / (10.0 + math.sqrt(3)), abs=1e-9)

    def test_focal_change_is_invisible(self):
        obs = project_keyedges(WORKED_POSE, INTR)
        doubled = project_keyedges(
            WORKED_POSE,
            CameraIntrinsics(focal_length=2 * INTR.focal_length, principal_point=(0.0, 0.0)),
        )
        cc1, cc2 = camera_centric_view(obs), camera_centric_view(doubled)
        assert (cc1.r21, cc1.r41, cc1.r32, cc1.r34) == pytest.approx(
            (cc2.r21, cc2.r41, cc2.r32, cc2.r34), rel=1e-12
        )
        assert cc1.group == cc2.group

    @given(poses())
    def test_ratio_bound_when_nearest_is_min_depth(self, pose):
        obs = project_keyedges(pose, INTR)
        cc = camera_centric_view(obs)
        nearest = nearest_keyedge(obs.distances)
        min_depth = min(KEYEDGES, key=lambda k: obs.depths[k])
        if obs.depths[nearest] == obs.depths[min_depth]:
            for r in (cc.r21, cc.r41, cc.r32, cc.r34):
                assert r <= 1.0 + 1e-12

    @given(poses())
    def test_group_matches_alpha_quarter(self, pose):
        alpha = alpha_of(pose)
        assume(boundary_gap(alpha) > 1e-6)
        cc = camera_centric_view(project_keyedges(pose, INTR))
        assert cc.group == allocentric_group(alpha)


class TestTupleConversion:
    def test_worked_scene_tuples(self):
        obs = project_keyedges(WORKED_POSE, INTR)
        tuples = to_object_centric_tuples(camera_centric_view(obs))
        by_ref = {t.reference: t for t in tuples}
        assert set(by_ref) == set(KEYEDGES)
        assert by_ref["b"].r1 == pytest.approx(1.1732050807568877, abs=1e-7)
        assert by_ref["b"].r2 == pytest.approx(1.2, abs=1e-7)
        d_a = 10.0 + math.sqrt(3)
        d_d = 12.0 + math.sqrt(3)
        assert by_ref["a"].r1 == pytest.approx(d_d / d_a, abs=1e-9)
        assert by_ref["a"].r2 == pytest.approx(10.0 / d_a, abs=1e-9)

    def test_reciprocal_identity(self):
        obs = project_keyedges(WORKED_POSE, INTR)
        ratios = keyedge_ratios(obs)
        cc = camera_centric_view(obs)
        by_ref = {t.reference: t for t in to_object_centric_tuples(cc)}
        assert by_ref["b"].r1 == pytest.approx(1.0 / ratios["r_ab"], rel=1e-12)

    @given(poses())
    def test_round_trip_equals_direct(self, pose):
        # conversion through the camera-centric view must reproduce the
        # tuples computed straight from object-centric ratios
        obs = project_keyedges(pose, INTR)
        direct = object_centric_tuples(keyedge_ratios(obs))
        converted = to_object_centric_tuples(camera_centric_view(obs))
        for d, c in zip(direct, converted):
            assert d.reference == c.reference
            assert c.r1 == pytest.approx(d.r1, rel=1e-12)
            assert c.r2 == pytest.approx(d.r2, rel=1e-12)

    @pytest.mark.parametrize("pose, nearest", RELABEL_CASES,
                             ids=[f"group{g}" for g in range(4)] + ["tie-pi", "tie-pi/2", "tie0", "tie+pi/2"])
    def test_relabel_is_one_rotation(self, pose, nearest):
        # camera indices 1..4 read the oracle's nearest letter, then the rest
        # clockwise; undoing the relabel gives the object-centric tuples
        obs = project_keyedges(pose, INTR)
        assert nearest_corner_by_distance(
            pose.x, pose.y, pose.z, pose.length, pose.width, pose.height, pose.yaw) == nearest
        i = KEYEDGES.index(nearest)
        h1, h2, h3, h4 = (obs.heights[k] for k in KEYEDGES[i:] + KEYEDGES[:i])
        cc = camera_centric_view(obs)
        assert cc.nearest == nearest
        assert (cc.r21, cc.r41, cc.r32, cc.r34) == (h2 / h1, h4 / h1, h3 / h2, h3 / h4)
        direct = object_centric_tuples(keyedge_ratios(obs))
        for got, want in zip(to_object_centric_tuples(cc), direct, strict=True):
            assert got.reference == want.reference
            assert (got.r1, got.r2) == pytest.approx((want.r1, want.r2), rel=1e-12, abs=0)

    def test_tuple_validation(self):
        with pytest.raises(ValueError):
            RatioTuple(reference="e", r1=1.0, r2=1.0)
        with pytest.raises(ValueError):
            RatioTuple(reference="a", r1=-1.0, r2=1.0)
