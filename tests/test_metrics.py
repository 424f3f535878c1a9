"""ARDE, IoU matching, and the recall sweep against an exhaustive oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedge.metrics import (
    ArdeBin,
    DetectionRecord,
    GroundTruthRecord,
    NoGroundTruth,
    arde,
    arde_by_viewing_angle,
    iou_2d,
    match_detections,
)
from oracles import brute_force_arde


def det(bbox, conf, d_est, gamma_est=None):
    return DetectionRecord(bbox2d=bbox, confidence=conf, d_est=d_est, gamma_est=gamma_est)


def gt(bbox, d_gt, gamma_gt=0.0):
    return GroundTruthRecord(bbox2d=bbox, d_gt=d_gt, gamma_gt=gamma_gt)


def unit_box(x, y, size=10.0):
    return (x, y, x + size, y + size)


def random_scene(rng, n_gts=None, n_dets=None, max_dets=12):
    """A detection/ground-truth pair with deliberate confidence ties."""
    n_gts = n_gts if n_gts is not None else int(rng.integers(1, 5))
    n_dets = n_dets if n_dets is not None else int(rng.integers(0, max_dets + 1))
    gts = []
    for i in range(n_gts):
        x, y = rng.uniform(0.0, 200.0, size=2)
        gts.append(gt(unit_box(x, y), d_gt=float(rng.uniform(5.0, 60.0)), gamma_gt=float(rng.uniform(-0.6, 0.6))))
    dets = []
    confidences = rng.choice([0.3, 0.5, 0.5, 0.7, 0.9, 0.9], size=n_dets)
    for i in range(n_dets):
        if gts and rng.uniform() < 0.7:
            target = gts[int(rng.integers(0, len(gts)))]
            dx, dy = rng.uniform(-4.0, 4.0, size=2)
            bbox = (
                target.bbox2d[0] + dx,
                target.bbox2d[1] + dy,
                target.bbox2d[2] + dx,
                target.bbox2d[3] + dy,
            )
            d_est = target.d_gt * float(rng.uniform(0.85, 1.15))
        else:
            x, y = rng.uniform(300.0, 500.0, size=2)
            bbox = unit_box(x, y)
            d_est = float(rng.uniform(5.0, 60.0))
        dets.append(det(bbox, float(confidences[i]), d_est))
    return dets, gts


def random_frames(rng, n_frames):
    """random_scene drawn once per frame over the same pixel area.

    A third of the detections move to a random frame, so they sit on
    another frame's boxes.  Coordinates lie on a 1/64 px grid, which keeps
    IoU bit-identical when a frame is shifted by whole pixels.
    """
    dets, gts = [], []
    for frame in range(n_frames):
        f_dets, f_gts = random_scene(rng)
        gts += [replace(g, bbox2d=snap(g.bbox2d), frame=frame) for g in f_gts]
        for d in f_dets:
            moved = int(rng.integers(0, n_frames)) if rng.uniform() < 1 / 3 else frame
            gamma_est = float(rng.uniform(-0.8, 0.8)) if rng.uniform() < 0.5 else None
            dets.append(replace(d, bbox2d=snap(d.bbox2d), frame=moved, gamma_est=gamma_est))
    return dets, gts


def snap(bbox):
    return tuple(round(v * 64.0) / 64.0 for v in bbox)


def as_oracle_inputs(dets, gts):
    o_dets = [(d.bbox2d, d.confidence, d.d_est, d.frame) for d in dets]
    o_gts = [(g.bbox2d, g.d_gt, g.frame) for g in gts]
    return o_dets, o_gts


def oracle_bin_ardes(dets, gts, iou_min, edges):
    """brute_force_arde rerun on each viewing-angle bin's share of the records."""
    def bin_of(gamma):
        if gamma is None:
            return None
        return next((k for k in range(len(edges) - 1) if edges[k] <= gamma < edges[k + 1]), None)

    gt_bins = [bin_of(g.gamma_gt) for g in gts]
    det_bins = {
        r.det_index: gt_bins[r.gt_index] if r.gt_index is not None else bin_of(dets[r.det_index].gamma_est)
        for r in match_detections(dets, gts, iou_min)
    }
    values = []
    for idx in range(len(edges) - 1):
        sub_gts = [g for g, b in zip(gts, gt_bins) if b == idx]
        sub_dets = [d for i, d in enumerate(dets) if det_bins[i] == idx]
        values.append(
            brute_force_arde(*as_oracle_inputs(sub_dets, sub_gts), iou_min=iou_min) if sub_gts else None
        )
    return values


def assert_bins_match_oracle(bins, dets, gts, iou_min, edges):
    for b, want in zip(bins, oracle_bin_ardes(dets, gts, iou_min, edges), strict=True):
        if want is None:
            assert b.arde is None
        else:
            assert b.arde == pytest.approx(want, abs=1e-12)


class TestIou:
    def test_identical(self):
        assert iou_2d((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou_2d((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_half_overlapping_unit_squares(self):
        # intersection 0.5, union 1.5
        assert iou_2d((0, 0, 1, 1), (0.5, 0, 1.5, 1)) == pytest.approx(1.0 / 3.0)

    @given(
        st.floats(0, 100), st.floats(0, 100),
        st.floats(1, 50), st.floats(1, 50),
        st.floats(-60, 60), st.floats(-60, 60),
    )
    def test_bounds_and_symmetry(self, x, y, w, h, dx, dy):
        box_a = (x, y, x + w, y + h)
        box_b = (x + dx, y + dy, x + dx + w, y + dy + h)
        v = iou_2d(box_a, box_b)
        assert 0.0 <= v <= 1.0
        assert iou_2d(box_b, box_a) == pytest.approx(v)


class TestMatching:
    def test_single_exact_match(self):
        results = match_detections([det(unit_box(0, 0), 0.9, 10.0)], [gt(unit_box(0, 0), 10.0)], 0.7)
        assert len(results) == 1
        assert results[0].is_tp and results[0].gt_index == 0

    def test_two_dets_one_gt(self):
        d_hi = det(unit_box(0, 0), 0.9, 10.0)
        d_lo = det(unit_box(0, 0), 0.5, 11.0)
        results = match_detections([d_lo, d_hi], [gt(unit_box(0, 0), 10.0)], 0.7)
        assert [r.det_index for r in results] == [1, 0]  # descending confidence
        assert results[0].is_tp and not results[1].is_tp

    def test_below_threshold_is_fp(self):
        shifted = (0, 0, 10, 10 * 0.5 / (1 - 0.5 + 1))  # IoU 0.5 / 1.5 ... just use offset
        d = det((0, 0, 10, 5), 0.9, 10.0)  # IoU vs 10x10 box = 50/150
        results = match_detections([d], [gt(unit_box(0, 0), 10.0)], 0.7)
        assert not results[0].is_tp

    def test_iou_min_validated(self):
        with pytest.raises(ValueError):
            match_detections([], [gt(unit_box(0, 0), 10.0)], 1.5)


class TestArde:
    def test_perfect_depths(self):
        dets = [det(unit_box(i * 50, 0), 0.9 - 0.01 * i, 10.0) for i in range(3)]
        gts = [gt(unit_box(i * 50, 0), 10.0) for i in range(3)]
        assert arde(dets, gts, 0.7) == 0.0

    def test_single_pair_ten_percent_error(self):
        # full recall reached, every point scores 0.1
        value = arde([det(unit_box(0, 0), 0.9, 11.0)], [gt(unit_box(0, 0), 10.0)], 0.7)
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_unreachable_tail_contributes_zero(self):
        # two gts, one detected: recall tops out at 0.5, half the points
        dets = [det(unit_box(0, 0), 0.9, 11.0)]
        gts = [gt(unit_box(0, 0), 10.0), gt(unit_box(100, 0), 20.0)]
        assert arde(dets, gts, 0.7) == pytest.approx(0.05, abs=1e-12)

    def test_hand_built_three_gts_four_dets(self):
        gts = [gt(unit_box(0, 0), 10.0), gt(unit_box(50, 0), 20.0), gt(unit_box(100, 0), 40.0)]
        dets = [
            det(unit_box(0, 0), 0.9, 11.0),    # tp, d_r 0.1
            det(unit_box(50, 0), 0.8, 18.0),   # tp, d_r 0.1
            det(unit_box(200, 0), 0.7, 30.0),  # fp
            det(unit_box(100, 0), 0.6, 42.0),  # tp, d_r 0.05
        ]
        got = arde(dets, gts, 0.7)
        want = brute_force_arde(*as_oracle_inputs(dets, gts), iou_min=0.7)
        assert got == pytest.approx(want, abs=1e-12)

    def test_no_ground_truth(self):
        with pytest.raises(NoGroundTruth):
            arde([det(unit_box(0, 0), 0.9, 10.0)], [], 0.7)

    def test_confidence_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        dets, gts = random_scene(rng, n_gts=3, n_dets=8)
        base = arde(dets, gts, 0.5)
        squashed = [
            DetectionRecord(d.bbox2d, 0.01 + 0.5 * d.confidence, d.d_est, d.gamma_est)
            for d in dets
        ]
        assert arde(squashed, gts, 0.5) == pytest.approx(base, abs=1e-12)

    def test_duplicate_detections_do_not_double_count(self):
        g = [gt(unit_box(0, 0), 10.0), gt(unit_box(100, 0), 10.0)]
        dets = [det(unit_box(0, 0), 0.9, 11.0), det(unit_box(0, 0), 0.5, 15.0)]
        # recall stays at 0.5: the duplicate cannot claim a second gt
        assert arde(dets, g, 0.7) == pytest.approx(0.05, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dets, gts = random_scene(rng)
        got = arde(dets, gts, 0.5)
        want = brute_force_arde(*as_oracle_inputs(dets, gts), iou_min=0.5)
        assert got == pytest.approx(want, abs=1e-12)


class TestArdeByViewingAngle:
    def test_single_bin_equals_global(self):
        rng = np.random.default_rng(3)
        dets, gts = random_scene(rng, n_gts=4, n_dets=9)
        bins = arde_by_viewing_angle(dets, gts, 0.5, [-1.0, 1.0])
        assert len(bins) == 1
        assert bins[0].arde == pytest.approx(arde(dets, gts, 0.5), abs=1e-12)
        assert bins[0].n_ground_truth == len(gts)

    def test_identical_bins_identical_values(self):
        gts1 = [gt(unit_box(0, 0), 10.0, gamma_gt=-0.5), gt(unit_box(50, 0), 20.0, gamma_gt=-0.4)]
        gts2 = [gt(unit_box(200, 0), 10.0, gamma_gt=0.5), gt(unit_box(250, 0), 20.0, gamma_gt=0.4)]
        dets1 = [det(unit_box(0, 0), 0.9, 11.0), det(unit_box(50, 0), 0.8, 19.0)]
        dets2 = [det(unit_box(200, 0), 0.9, 11.0), det(unit_box(250, 0), 0.8, 19.0)]
        bins = arde_by_viewing_angle(dets1 + dets2, gts1 + gts2, 0.7, [-1.0, 0.0, 1.0])
        assert bins[0].arde == pytest.approx(bins[1].arde, abs=1e-12)

    def test_empty_bin_reports_none(self):
        gts = [gt(unit_box(0, 0), 10.0, gamma_gt=0.5)]
        dets = [det(unit_box(0, 0), 0.9, 11.0)]
        bins = arde_by_viewing_angle(dets, gts, 0.7, [-1.0, 0.0, 1.0])
        assert bins[0].arde is None and bins[0].n_ground_truth == 0
        assert bins[1].arde is not None

    def test_unmatched_det_uses_gamma_est(self):
        gts = [gt(unit_box(0, 0), 10.0, gamma_gt=-0.5)]
        stray = det(unit_box(300, 0), 0.95, 30.0, gamma_est=-0.5)
        dets = [det(unit_box(0, 0), 0.9, 11.0), stray]
        bins = arde_by_viewing_angle(dets, gts, 0.7, [-1.0, 0.0])
        # the stray fp lands in the gt's bin and suppresses early recall
        assert bins[0].n_detections == 2

    def test_unmatched_det_without_gamma_excluded(self):
        gts = [gt(unit_box(0, 0), 10.0, gamma_gt=-0.5)]
        stray = det(unit_box(300, 0), 0.95, 30.0)
        dets = [det(unit_box(0, 0), 0.9, 11.0), stray]
        bins = arde_by_viewing_angle(dets, gts, 0.7, [-1.0, 0.0])
        assert bins[0].n_detections == 1
        assert bins[0].arde == pytest.approx(0.1, abs=1e-12)

    def test_bin_edges_validated(self):
        with pytest.raises(ValueError):
            arde_by_viewing_angle([], [gt(unit_box(0, 0), 10.0)], 0.7, [1.0, -1.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_per_bin_matches_oracle_on_subsets(self, seed):
        rng = np.random.default_rng(seed)
        dets, gts = random_scene(rng, n_gts=4, n_dets=10)
        edges = [-0.7, 0.0, 0.7]
        bins = arde_by_viewing_angle(dets, gts, 0.5, edges)
        assert_bins_match_oracle(bins, dets, gts, 0.5, edges)


class TestFrames:
    def test_detection_only_claims_its_own_frame(self):
        # the frame-1 detection sits on frame 0's box and overlaps frame 1's by 0.82
        gts = [gt(unit_box(0, 0), 10.0), replace(gt(unit_box(1, 0), 15.0), frame=1)]
        (row,) = match_detections([replace(det(unit_box(0, 0), 0.9, 15.0), frame=1)], gts, 0.7)
        assert row.gt_index == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_per_frame_equals_pooled_frames_pushed_apart(self, seed, n_frames):
        rng = np.random.default_rng(seed)
        dets, gts = random_frames(rng, n_frames)

        def apart(rec):
            left, top, right, bottom = rec.bbox2d
            shift = 1024.0 * rec.frame  # wider than any frame's boxes
            return replace(rec, bbox2d=(left + shift, top, right + shift, bottom), frame=None)

        pooled_dets, pooled_gts = [apart(d) for d in dets], [apart(g) for g in gts]
        assert arde(dets, gts, 0.5) == arde(pooled_dets, pooled_gts, 0.5)
        edges = [-0.7, 0.0, 0.7]
        bins = arde_by_viewing_angle(dets, gts, 0.5, edges)
        assert bins == arde_by_viewing_angle(pooled_dets, pooled_gts, 0.5, edges)
        assert_bins_match_oracle(bins, dets, gts, 0.5, edges)


class TestRecordValidation:
    def test_detection_bbox(self):
        with pytest.raises(ValueError):
            DetectionRecord(bbox2d=(10, 0, 0, 10), confidence=0.5, d_est=10.0)

    def test_gt_depth(self):
        with pytest.raises(ValueError):
            GroundTruthRecord(bbox2d=(0, 0, 10, 10), d_gt=0.0, gamma_gt=0.0)

    @pytest.mark.parametrize("frame", [1.0, True, [1], (1,)])
    def test_frame_type(self, frame):
        with pytest.raises(ValueError, match="frame must be"):
            DetectionRecord(bbox2d=(0, 0, 10, 10), confidence=0.5, d_est=10.0, frame=frame)
        with pytest.raises(ValueError, match="frame must be"):
            GroundTruthRecord(bbox2d=(0, 0, 10, 10), d_gt=10.0, gamma_gt=0.0, frame=frame)
