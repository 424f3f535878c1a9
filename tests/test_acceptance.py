"""Acceptance gate: ten pinned criteria, one pass/fail line each under -v.

Every test carries its tolerances and runtime budgets inline; nothing here
is tunable from outside.  Criteria that sweep random inputs use fixed seeds
so a failure is always reproducible.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from keyedge.cli import main
from keyedge.dataio import SceneConfig, generate_scene, labels_to_ground_truth, parse_calib, parse_label_file
from keyedge.geometry import (
    KEYEDGES,
    BoxPose3D,
    CameraIntrinsics,
    keyedge_positions,
    keyedge_ratios,
    normalize_angle,
    project_keyedges,
    viewing_angle,
)
from keyedge.indexing import NEAREST_BY_GROUP, RatioTuple, camera_centric_view, object_centric_tuples
from keyedge.metrics import DetectionRecord, GroundTruthRecord, arde
from keyedge.recovery import PoseEstimate, pose_estimate, solve_all
from keyedge.uncertainty import depth_partials, fuse, uncertainty_loss
from oracles import brute_force_arde, central_difference

INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))
DATA = Path(__file__).parent / "data" / "kitti"


def random_pose(rng):
    z = float(rng.uniform(5.0, 60.0))
    gamma = float(rng.uniform(math.radians(-40.0), math.radians(40.0)))
    dims = (
        float(rng.uniform(3.2, 4.8)),
        float(rng.uniform(1.4, 1.9)),
        float(rng.uniform(1.3, 1.8)),
    )
    return BoxPose3D(
        center=(z * math.tan(gamma), 0.9, z),
        dims=dims,
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def pose_tuples(pose, intr=INTR):
    return object_centric_tuples(keyedge_ratios(project_keyedges(pose, intr)))


def test_criterion_01_round_trip_exactness():
    # 10,000 non-degenerate poses; all four tuples invert to the true pose.
    start = time.perf_counter()
    cfg = SceneConfig(count=10_000, seed=20260816, min_distortion=1e-6)
    for pose in generate_scene(cfg):
        estimates, skipped = solve_all(pose_tuples(pose), pose.length, pose.width)
        assert not skipped and len(estimates) == 4
        for est in estimates:
            assert abs(normalize_angle(est.theta - pose.yaw)) <= 1e-9
            assert abs(est.d_obj - pose.z) <= 1e-9 * pose.z
    assert time.perf_counter() - start < 5.0


def test_criterion_02_worked_fixture():
    # l=4, w=2, theta=30 deg, d_b=10: the hand-checked reference numbers.
    theta = math.radians(30.0)
    length, width = 4.0, 2.0
    z_center = 10.0 + 0.5 * (length * math.sin(theta) + width * math.cos(theta))
    pose = BoxPose3D(center=(0.0, 0.9, z_center), dims=(length, width, 1.5), yaw=theta)
    tuples = {t.reference: t for t in pose_tuples(pose)}

    assert tuples["b"].r1 == pytest.approx(1.1732051, abs=1e-7)
    assert tuples["b"].r2 == pytest.approx(1.2, abs=1e-7)

    est_b = pose_estimate(tuples["b"], length, width)
    est_a = pose_estimate(tuples["a"], length, width)
    for est in (est_b, est_a):
        assert est.theta == pytest.approx(theta, abs=1e-7)
        assert est.d_obj == pytest.approx(11.8660254, abs=1e-7)
    assert est_b.d_ref == pytest.approx(10.0, abs=1e-7)
    assert est_a.d_ref == pytest.approx(10.0 + math.sqrt(3.0), abs=1e-7)


def test_criterion_03_intrinsics_independence():
    # Same poses, focal length swept 0.5x to 4x: recovered values must not move.
    rng = np.random.default_rng(3)
    scales = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
    for _ in range(25):
        pose = random_pose(rng)
        base = None
        for scale in scales:
            intr = CameraIntrinsics(
                focal_length=721.5377 * scale, principal_point=(609.5593, 172.854)
            )
            estimates, _ = solve_all(pose_tuples(pose, intr), pose.length, pose.width)
            values = {est.reference: (est.theta, est.d_obj) for est in estimates}
            if base is None:
                base = values
                continue
            assert values.keys() == base.keys()
            for ref, (theta, d_obj) in values.items():
                theta0, d0 = base[ref]
                assert abs(theta - theta0) <= 1e-12 * max(1.0, abs(theta0))
                assert abs(d_obj - d0) <= 1e-12 * d0


def test_criterion_04_gradient_check():
    # Analytic depth partials against central differences on 1,000 tuples.
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    step = 1e-6
    checked = 0
    while checked < 1000:
        pose = random_pose(rng)
        for t in pose_tuples(pose):
            p1, p2 = depth_partials(t, pose.length, pose.width)
            n1 = central_difference(
                lambda r: pose_estimate(
                    RatioTuple(t.reference, r, t.r2), pose.length, pose.width
                ).d_obj,
                t.r1,
                step,
            )
            n2 = central_difference(
                lambda r: pose_estimate(
                    RatioTuple(t.reference, t.r1, r), pose.length, pose.width
                ).d_obj,
                t.r2,
                step,
            )
            for analytic, numeric in ((p1, n1), (p2, n2)):
                # max(..., 1.0) keeps zero crossings of the partial honest
                assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), abs(numeric), 1.0)
            checked += 1
            if checked == 1000:
                break
    assert time.perf_counter() - start < 2.0


def test_criterion_05_fusion_correctness():
    def member(d_obj, ref, sigma):
        return PoseEstimate(theta=0.3, d_ref=d_obj, d_obj=d_obj, reference=ref), sigma

    depths = (9.0, 10.5, 11.2, 12.4)
    fused = fuse([member(d, ref, 0.7) for d, ref in zip(depths, "abcd")])
    assert fused.d_fusion == pytest.approx(sum(depths) / len(depths), rel=1e-12)

    fused = fuse([member(10.0, "a", 1.0), member(12.0, "b", 2.0)])
    assert fused.d_fusion == pytest.approx(10.6667, abs=1e-4)

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        ds = rng.uniform(2.0, 80.0, size=n)
        sigmas = rng.uniform(0.05, 5.0, size=n)
        fused = fuse([member(float(d), "abcd"[i], float(s)) for i, (d, s) in enumerate(zip(ds, sigmas))])
        assert ds.min() - 1e-12 <= fused.d_fusion <= ds.max() + 1e-12


def test_criterion_06_loss_fixture_and_minimizer():
    assert uncertainty_loss(1.2, 0.1, 1.0) == pytest.approx(-0.302585, abs=1e-6)

    r, r_star = 1.3, 1.0
    grid = np.linspace(0.05, 1.0, 951)  # step 1e-3
    losses = [uncertainty_loss(r, float(s), r_star) for s in grid]
    best = float(grid[int(np.argmin(losses))])
    assert abs(best - abs(r - r_star)) <= 1e-3 + 1e-12


def _random_eval_set(rng, n_frames):
    """Ground truth i sits in frame i % n_frames at x = 40 * (i // n_frames).

    With several frames, ground truths of different frames share a box, so
    a detection of one frame always overlaps a ground truth of another.
    """
    n_gt = int(rng.integers(1, 7))
    gts, dets = [], []
    for i in range(n_gt):
        x = 40.0 * (i // n_frames)
        box = (x, 0.0, x + 20.0, 20.0)
        d_gt = float(rng.uniform(5.0, 60.0))
        gts.append(GroundTruthRecord(bbox2d=box, d_gt=d_gt, gamma_gt=0.0, frame=i % n_frames))
    palette = (0.3, 0.5, 0.5, 0.7, 0.9, 0.9)
    n_det = int(rng.integers(0, 13))
    for _ in range(n_det):
        if n_gt and rng.random() < 0.7:
            gt = gts[int(rng.integers(0, n_gt))]
            dx, dy = rng.uniform(-3.0, 3.0, size=2)
            left, top, right, bottom = gt.bbox2d
            box = (left + dx, top + dy, right + dx, bottom + dy)
            d_est = gt.d_gt * float(rng.uniform(0.8, 1.2))
        else:
            x = float(rng.uniform(300.0, 500.0))
            box = (x, 0.0, x + 20.0, 20.0)
            d_est = float(rng.uniform(5.0, 60.0))
        conf = float(palette[int(rng.integers(0, len(palette)))])
        frame = int(rng.integers(0, n_frames))
        dets.append(DetectionRecord(bbox2d=box, confidence=conf, d_est=d_est, frame=frame))
    return dets, gts


def test_criterion_07_arde_oracle_equivalence():
    # The envelope monotonicity assert runs inside arde() on every call.
    # Equivalence must hold with several frames and with every box in one.
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for n_frames in (3, 1):
        for _ in range(200):
            dets, gts = _random_eval_set(rng, n_frames)
            got = arde(dets, gts)
            want = brute_force_arde(
                [(d.bbox2d, d.confidence, d.d_est, d.frame) for d in dets],
                [(g.bbox2d, g.d_gt, g.frame) for g in gts],
            )
            assert abs(got - want) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_08_camera_centric_ratio_bound(capsys):
    # Whenever the nearest-by-distance keyedge also attains the minimum depth
    # the four ratios obey the exact <= 1 bound.  Every pose, aligned or not,
    # obeys the exact per-pose bound r_pq <= cos(gamma_q) / cos(gamma_p), with
    # gamma_k the bearing of keyedge k's bottom corner (derived in the
    # keyedge.indexing docstring).  The exception set's fraction and largest
    # ratio, which reaches 1.9 at close range, are reported.
    max_same = max_other = max_slack = 0.0
    n_same = n_other = 0
    worst = None
    for gamma in np.linspace(math.radians(-40.0), math.radians(40.0), 17):
        for depth in np.linspace(5.0, 60.0, 12):
            for yaw in np.linspace(-math.pi, math.pi, 72, endpoint=False):
                pose = BoxPose3D(
                    center=(depth * math.tan(float(gamma)), 0.9, float(depth)),
                    dims=(4.2, 1.7, 1.5),
                    yaw=float(yaw),
                )
                obs = project_keyedges(pose, INTR)
                view = camera_centric_view(obs)
                ratios = (view.r21, view.r41, view.r32, view.r34)
                nearest = NEAREST_BY_GROUP[view.group]
                # attainment, not letter equality: depth ties must not
                # reclassify an aligned pose as an exception
                min_depth = min(obs.depths.values())
                if obs.depths[nearest] <= min_depth * (1.0 + 1e-12):
                    n_same += 1
                    max_same = max(max_same, *ratios)
                    assert all(r <= 1.0 + 1e-12 for r in ratios)
                else:
                    n_other += 1
                    if max(ratios) > max_other:
                        max_other = max(ratios)
                        worst = (math.degrees(float(gamma)), float(depth), math.degrees(float(yaw)))

                corners, _ = keyedge_positions(pose)
                offset = KEYEDGES.index(nearest)
                cos_g = [
                    math.cos(viewing_angle(corners[KEYEDGES[(offset + k) % 4]])) for k in range(4)
                ]  # camera indices 1..4
                bounds = (
                    cos_g[0] / cos_g[1],  # r21
                    cos_g[0] / cos_g[3],  # r41
                    cos_g[1] / cos_g[2],  # r32
                    cos_g[3] / cos_g[2],  # r34
                )
                for name, r, bound in zip(("r21", "r41", "r32", "r34"), ratios, bounds):
                    assert r <= bound * (1.0 + 1e-12), f"{name}={r!r} > bound {bound!r} for {pose}"
                    max_slack = max(max_slack, r / bound)
    assert n_same > 0 and n_other > 0
    total = n_same + n_other
    with capsys.disabled():
        print(
            f"\n[criterion 8] aligned poses {n_same}/{total}: max ratio {max_same:.15f}; "
            f"exception poses {n_other}/{total}: max ratio {max_other:.6f} "
            f"at gamma={worst[0]:.0f} deg, depth={worst[1]:.0f} m, yaw={worst[2]:.0f} deg; "
            f"max ratio/cos-bearing bound - 1 = {max_slack - 1.0:.1e}"
        )


def test_criterion_09_kitti_ingestion():
    solved = 0
    for name in ("000001", "000002"):
        labels = parse_label_file((DATA / "labels" / f"{name}.txt").read_text())
        intr = parse_calib((DATA / "calib" / f"{name}.txt").read_text())
        for label in labels:
            if label.is_dontcare:
                continue
            x, _, z = label.location
            gamma = math.atan2(x, z)
            residual = normalize_angle(label.rotation_y - (label.alpha + gamma))
            assert abs(residual) <= 1e-2
        for gt in labels_to_ground_truth(labels, intr):
            tuples = object_centric_tuples(keyedge_ratios(gt.observation))
            estimates, _ = solve_all(tuples, gt.pose.length, gt.pose.width)
            fused = fuse([(est, 1.0) for est in estimates])
            assert abs(fused.d_fusion - gt.pose.z) <= 1e-2 * gt.pose.z
            solved += 1
    assert solved == 6


def test_criterion_10_sensitivity_determinism_and_trend(tmp_path, capsys):
    flags = [
        "sensitivity", "--seed", "17", "--noise", "gaussian_height",
        "--noise-params", "0.5", "--depth-bands", "5,20,40,60",
        "--gamma-bins-deg=-40,40",
    ]

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(flags + ["--trials", "200", "--out", str(first)]) == 0
    assert main(flags + ["--trials", "200", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    # 3 bands x 33,334 trials > 1e5 total
    out = tmp_path / "grid.csv"
    start = time.perf_counter()
    assert main(flags + ["--trials", "33334", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n_failed"]) for r in rows] == [0, 0, 0]
    medians = [float(r["median_rel_depth_error"]) for r in rows]
    assert len(medians) == 3
    assert medians[0] < medians[1] < medians[2]
    with capsys.disabled():
        print(
            f"\n[criterion 10] 100,002 trials in {elapsed:.1f}s; "
            f"median relative depth error by band: "
            + ", ".join(f"{m:.5f}" for m in medians)
        )
