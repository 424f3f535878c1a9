"""KITTI ingestion, scene generation, noise, and record serialization."""

import csv
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keyedge.dataio import (
    MAX_POSE_RETRIES,
    MIN_HEIGHT_PX,
    BBOX_FIELDS,
    PLAIN_FIELDS,
    RECORD_FIELDS,
    SENSITIVITY_FIELDS,
    ConfigError,
    BehindCamera,
    KittiLabel,
    NoiseModel,
    NonPositiveFocal,
    ParseError,
    SceneConfig,
    generate_scene,
    kitti_records,
    labels_to_ground_truth,
    min_tuple_distortion,
    object_record,
    observe_scene,
    parse_calib,
    parse_label_file,
    perturb_heights,
    ratio_sigmas,
    read_jsonl,
    record_ratio_sigmas,
    record_tuples,
    scene_records,
    write_csv,
    write_json,
    write_jsonl,
)
from keyedge.dataio import _DETECTION, _GROUND_TRUTH, _SOLVE, SIGMA_KEYS, _blocks, _cell_errors
from keyedge.geometry import (
    CameraIntrinsics,
    BoxPose3D,
    KeyedgeObservation,
    keyedge_ratios,
    keyedge_positions,
    normalize_angle,
    project_keyedges,
    viewing_angle,
)
from keyedge.indexing import allocentric_group, camera_centric_view, object_centric_tuples
from keyedge.recovery import solve_all
from oracles import sequential_scene
from test_cli import (
    DETECTION_FIELDS, GROUND_TRUTH_FIELDS, MISSING, SOLVE_NUMBERS, bad_arde_value, bad_solve_value, unit_box_fields,
)

DATA = Path(__file__).parent / "data" / "kitti"
INTR = CameraIntrinsics(focal_length=721.5377, principal_point=(609.5593, 172.854))

VALID_LINE = (
    "Car 0.00 0 0.52 455.34 182.05 770.48 317.60 "
    "1.50 1.80 4.00 0.00 1.65 10.00 0.52"
)


def eight_corner_box(pose, intr):
    """(left, top, right, bottom) of the eight box corners, each projected on its own."""
    corners, height = keyedge_positions(pose)
    f, (cx, cy) = intr.focal_length, intr.principal_point
    pixels = [(cx + f * px / pz, cy + f * y / pz)
              for px, py, pz in corners.values() for y in (py, py - height)]
    us, vs = zip(*pixels)
    return min(us), min(vs), max(us), max(vs)


def reference_record(index, class_name, pose, intr, heights=None, noise=NoiseModel(kind="none")):
    """A record assembled from the scalar forward model, field by field.

    heights replace the projected ones when given, as noise would; the
    sigma fields follow from the noise model when it contributes any.
    """
    obs = project_keyedges(pose, intr)
    if heights is not None:
        obs = replace(obs, heights=heights)
    gamma = viewing_angle(pose.center)
    alpha = normalize_angle(pose.yaw - gamma)
    rec = {"index": index, "class_name": class_name, "x": pose.x, "y": pose.y, "z": pose.z,
           "length": pose.length, "width": pose.width, "height": pose.height, "yaw": pose.yaw,
           "alpha": alpha, "gamma": gamma, "group": allocentric_group(alpha), **keyedge_ratios(obs)}
    rec.update((f"h_{k}", obs.heights[k]) for k in "abcd")
    rec.update((f"d_{k}", obs.depths[k]) for k in "abcd")
    rec.update(zip(BBOX_FIELDS, eight_corner_box(pose, intr)))
    rec.update(ratio_sigmas(obs, noise) or {})
    return rec


def assert_same_record(rec, want):
    # numpy's arctan2 and the wrap of yaw - gamma may differ from
    # math.atan2 and normalize_angle in the last places
    assert list(rec) == list(want)
    rec, want = dict(rec), dict(want)
    for key in ("gamma", "alpha"):
        assert rec.pop(key) == pytest.approx(want.pop(key), rel=0.0, abs=8 * np.finfo(float).eps)
    assert rec == want


class TestParseLabels:
    def test_fixture_file(self):
        labels = parse_label_file((DATA / "labels" / "000001.txt").read_text())
        assert len(labels) == 5
        first = labels[0]
        assert first.class_name == "Car"
        assert first.alpha == 0.52
        assert first.dims_hwl == (1.50, 1.80, 4.00)
        assert first.location == (0.00, 1.65, 10.00)
        assert first.rotation_y == 0.52
        assert first.bbox2d == (455.34, 182.05, 770.48, 317.60)
        assert not first.is_dontcare and not first.is_hard

    def test_flags(self):
        labels1 = parse_label_file((DATA / "labels" / "000001.txt").read_text())
        assert labels1[3].is_hard          # truncated 0.60
        assert labels1[4].is_dontcare
        labels2 = parse_label_file((DATA / "labels" / "000002.txt").read_text())
        assert labels2[0].is_hard          # occluded 2
        assert not labels1[1].is_hard      # occluded 1 is not hard

    def test_empty_file(self):
        assert parse_label_file("") == []
        assert parse_label_file("\n\n") == []

    def test_fourteen_fields(self):
        short = " ".join(VALID_LINE.split()[:14])
        with pytest.raises(ParseError) as exc:
            parse_label_file(short)
        assert exc.value.line == 1 and exc.value.field == 15

    def test_sixteen_fields(self):
        with pytest.raises(ParseError) as exc:
            parse_label_file(VALID_LINE + " 0.1")
        assert exc.value.field == 16

    def test_line_number_reported(self):
        text = VALID_LINE + "\n" + "Car only four fields\n"
        with pytest.raises(ParseError) as exc:
            parse_label_file(text)
        assert exc.value.line == 2

    def test_nonpositive_dims_rejected(self):
        tokens = VALID_LINE.split()
        tokens[9] = "-1.80"  # width, field 10
        with pytest.raises(ParseError) as exc:
            parse_label_file(" ".join(tokens))
        assert exc.value.field == 10

    def test_dontcare_dims_allowed(self):
        line = "DontCare -1 -1 -10 559.62 175.83 575.40 183.15 -1 -1 -1 -1000 -1000 -1000 -10"
        (label,) = parse_label_file(line)
        assert label.is_dontcare

    @given(st.integers(1, 14))
    def test_corrupt_numeric_field(self, idx):
        tokens = VALID_LINE.split()
        tokens[idx] = "zz"
        with pytest.raises(ParseError) as exc:
            parse_label_file(" ".join(tokens))
        assert exc.value.field == idx + 1

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_fuzzed_mutations_never_escape(self, seed):
        # mutations parse cleanly or raise ParseError, nothing else
        rng = np.random.default_rng(seed)
        tokens = VALID_LINE.split()
        op = rng.integers(0, 3)
        idx = int(rng.integers(0, len(tokens)))
        if op == 0:
            del tokens[idx]
        elif op == 1:
            tokens.insert(idx, "1.0")
        else:
            tokens[idx] = rng.choice(["", "nan?", "1e", "--3", "Car"])
        try:
            parse_label_file(" ".join(t for t in tokens if t))
        except ParseError:
            pass


class TestParseCalib:
    def test_fixture_file(self):
        intr = parse_calib((DATA / "calib" / "000001.txt").read_text())
        assert intr.focal_length == 721.5377
        assert intr.principal_point == (609.5593, 172.854)

    def test_missing_p2(self):
        with pytest.raises(ParseError):
            parse_calib("P0: " + " ".join(["1.0"] * 12))

    def test_wrong_scalar_count(self):
        with pytest.raises(ParseError):
            parse_calib("P2: " + " ".join(["1.0"] * 11))

    def test_nonpositive_focal(self):
        row = ["0.0"] * 12
        row[0] = "-5.0"
        with pytest.raises(NonPositiveFocal):
            parse_calib("P2: " + " ".join(row))


class TestLabelsToGroundTruth:
    def fixture_objects(self, name="000001.txt"):
        labels = parse_label_file((DATA / "labels" / name).read_text())
        return labels, labels_to_ground_truth(labels, INTR)

    def test_dontcare_skipped(self):
        labels, gts = self.fixture_objects()
        assert len(gts) == 4

    def test_pose_conversion(self):
        _, gts = self.fixture_objects()
        pose = gts[0].pose
        assert pose.center == (0.0, 1.65 - 0.75, 10.0)  # bottom-center to center
        assert pose.dims == (4.0, 1.8, 1.5)             # h w l file order to (l, w, h)
        assert pose.yaw == 0.52

    def test_angle_cross_check(self):
        for name in ("000001.txt", "000002.txt"):
            labels, _ = self.fixture_objects(name)
            for label in labels:
                if label.is_dontcare:
                    continue
                x, _, z = label.location
                resid = normalize_angle(label.rotation_y - label.alpha - math.atan2(x, z))
                assert abs(resid) <= 1e-2

    def test_axis_aligned_ratios(self):
        line = "Car 0.00 0 0.00 0 0 10 10 1.50 1.80 4.00 0.00 1.65 10.00 0.00"
        (label,) = parse_label_file(line)
        (gt,) = labels_to_ground_truth([label], INTR)
        assert object_record(0, "Car", gt.pose, INTR, gt.observation)["group"] == 2
        view = camera_centric_view(gt.observation)
        assert view.nearest == "b"
        assert view.r21 == pytest.approx(1.0, abs=1e-12)        # d_b == d_c
        assert view.r41 == pytest.approx(9.1 / 10.9, abs=1e-12)  # d_b / d_a

    def test_recovery_round_trip(self):
        for name in ("000001.txt", "000002.txt"):
            _, gts = self.fixture_objects(name)
            for gt in gts:
                tuples = object_centric_tuples(keyedge_ratios(gt.observation))
                estimates, skipped = solve_all(tuples, gt.pose.length, gt.pose.width)
                assert not skipped
                for est in estimates:
                    assert est.d_obj == pytest.approx(gt.pose.z, rel=1e-6)

    def test_behind_camera(self):
        line = "Car 0.00 0 0.00 0 0 10 10 1.50 1.80 4.00 0.00 1.65 -4.00 0.00"
        (label,) = parse_label_file(line)
        with pytest.raises(BehindCamera):
            labels_to_ground_truth([label], INTR)

    def test_label_carried_through(self):
        labels, gts = self.fixture_objects()
        assert gts[0].label is labels[0]


class TestGenerateScene:
    def cfg(self, **kw):
        base = dict(count=20, seed=42)
        base.update(kw)
        return SceneConfig(**base)

    def test_deterministic(self):
        a = generate_scene(self.cfg())
        b = generate_scene(self.cfg())
        assert a == b

    def test_count_zero(self):
        assert generate_scene(self.cfg(count=0)) == []

    def test_prefix_stable_under_count(self):
        # one pose stream drawn in object order, redraws included: extending
        # the scene keeps earlier objects
        for kw in ({}, dict(min_distortion=0.1, depth_range=(5.0, 30.0))):
            long = generate_scene(self.cfg(count=10, **kw))
            short = generate_scene(self.cfg(count=4, **kw))
            assert long[:4] == short
        # the rejecting scene redrew within the prefix: it is not the plain one
        assert short != generate_scene(self.cfg(count=4, depth_range=(5.0, 30.0)))

    def test_ranges_respected(self):
        cfg = self.cfg(
            count=1000,
            depth_range=(5.0, 60.0),
            gamma_range=(-0.6, 0.6),
            length_range=(3.0, 5.0),
            width_range=(1.4, 1.9),
            height_range=(1.3, 1.8),
        )
        poses = generate_scene(cfg)
        assert len(poses) == 1000
        for p in poses:
            assert 5.0 <= p.z < 60.0
            gamma = viewing_angle(p.center)
            assert -0.6 <= gamma < 0.6
            assert p.x == pytest.approx(p.z * math.tan(gamma), rel=1e-9)
            assert 3.0 <= p.length < 5.0 and 1.4 <= p.width < 1.9 and 1.3 <= p.height < 1.8
            assert -math.pi <= p.yaw < math.pi
            assert p.y == pytest.approx(1.65 - p.height / 2.0, abs=1e-12)

    def test_min_distortion_rejection(self):
        cfg = self.cfg(count=50, seed=7, min_distortion=0.02, depth_range=(5.0, 30.0))
        scene = observe_scene(cfg, INTR, NoiseModel(kind="none"))
        assert (min_tuple_distortion(scene.depths) >= 0.02).all()

    def test_unattainable_distortion(self):
        with pytest.raises(ConfigError):
            generate_scene(self.cfg(count=1, min_distortion=5.0))

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            self.cfg(depth_range=(10.0, 10.0))
        with pytest.raises(ConfigError):
            self.cfg(depth_range=(-1.0, 5.0))
        with pytest.raises(ConfigError):
            self.cfg(count=-1)


def oracle_scene(cfg, noise):
    return sequential_scene(cfg, INTR.focal_length, noise, MAX_POSE_RETRIES, MIN_HEIGHT_PX)


GAUSSIAN = NoiseModel(kind="gaussian_height", sigma_px=0.5)
QUANTIZED = NoiseModel(kind="pixel_quantization", quantum_px=1.0)
# Scenes that redraw poses: 5-30 m under min_distortion 0.1, and 0.5-4 m,
# where keyedges fall behind the camera.
REJECTING = dict(min_distortion=0.1, depth_range=(5.0, 30.0))
NEAR = dict(depth_range=(0.5, 4.0))
# 40-60 m under 30 px of noise: heights of 16-36 px go below MIN_HEIGHT_PX.
CLAMPING = (dict(depth_range=(40.0, 60.0)), NoiseModel(kind="gaussian_height", sigma_px=30.0))


class TestObserveScene:
    def test_streams_are_block_draws(self):
        # The scheme: the poses are the pose stream's six uniforms per object
        # (no redraws at these ranges) and the noise is the noise stream's
        # four normals per object, so block draws give the same values.
        cfg = SceneConfig(count=50, seed=42)
        scene = observe_scene(cfg, INTR, GAUSSIAN)
        stream = [np.random.default_rng(np.random.SeedSequence(42, spawn_key=(key,))) for key in (0, 1)]
        lows, highs = zip(cfg.depth_range, cfg.gamma_range, (-math.pi, math.pi),
                          cfg.length_range, cfg.width_range, cfg.height_range)
        draws = stream[0].uniform(lows, highs, size=(50, 6)).tolist()
        deltas = stream[1].normal(0.0, 0.5, size=(50, 4)).tolist()
        poses = generate_scene(cfg)
        assert scene.redraws == 0
        for i, (pose, (z, gamma, yaw, *dims), delta) in enumerate(zip(poses, draws, deltas)):
            assert (pose.z, pose.x, pose.yaw, list(pose.dims)) == (z, z * float(np.tan(gamma)), yaw, dims)
            assert (scene.z[i], scene.x[i], scene.yaw[i]) == (pose.z, pose.x, pose.yaw)
            clean = project_keyedges(pose, INTR)
            heights = [clean.heights[k] + d for k, d in zip("abcd", delta)]
            assert scene.heights[i].tolist() == heights
            assert scene.depths[i].tolist() == [clean.depths[k] for k in "abcd"]
            obs = KeyedgeObservation(clean.depths, clean.distances, dict(zip("abcd", heights)))
            assert scene.ratios[i].tolist() == list(keyedge_ratios(obs).values())
            assert scene.sigmas[i].tolist() == list(ratio_sigmas(obs, GAUSSIAN).values())

    def test_clean_and_noisy_share_poses(self):
        cfg = SceneConfig(count=20, seed=5)
        clean = observe_scene(cfg, INTR, NoiseModel(kind="none"))
        noisy = observe_scene(cfg, INTR, GAUSSIAN)
        for a, b in zip(clean[:8], noisy[:8]):  # the pose columns and depths
            assert a.tolist() == b.tolist()
        poses = generate_scene(cfg)
        assert clean.x.tolist() == [pose.x for pose in poses]
        projected = [project_keyedges(pose, INTR).heights for pose in poses]
        assert clean.heights.tolist() == [[h[k] for k in "abcd"] for h in projected]
        assert clean.sigmas is None and clean.clamped == 0

    @pytest.mark.parametrize("kw, noise", [
        (dict(seed=1), NoiseModel(kind="none")),
        (dict(seed=2), GAUSSIAN),
        (dict(seed=3), QUANTIZED),
        (dict(seed=4, **REJECTING), GAUSSIAN),
        (dict(seed=5, **REJECTING), QUANTIZED),
        (dict(seed=6, **NEAR), NoiseModel(kind="none")),
        (dict(seed=7, **NEAR), GAUSSIAN),
        (dict(seed=8, **NEAR, min_distortion=0.1), QUANTIZED),
        (dict(seed=9, **CLAMPING[0]), CLAMPING[1]),
        (dict(seed=10, **CLAMPING[0]), NoiseModel(kind="pixel_quantization", quantum_px=40.0)),
    ])
    def test_matches_sequential_oracle(self, kw, noise):
        cfg = SceneConfig(count=400, **kw)
        scene = observe_scene(cfg, INTR, noise)
        objects, redraws, clamped = oracle_scene(cfg, noise)
        poses, depths, heights, ratios, sigmas = (list(column) for column in zip(*objects))
        assert np.column_stack(scene[:7]).tolist() == [list(pose) for pose in poses]
        assert scene.depths.tolist() == depths
        assert scene.heights.tolist() == heights
        assert scene.ratios.tolist() == ratios
        if noise.kind == "none":
            assert scene.sigmas is None and sigmas == [None] * 400
        else:
            assert scene.sigmas.tolist() == sigmas
        assert (scene.redraws, scene.clamped) == (redraws, clamped)
        assert (redraws > 0) == ("min_distortion" in kw or kw.get("depth_range") == (0.5, 4.0))

    def test_redraws_counted(self):
        cfg = SceneConfig(count=3000, seed=42, **REJECTING)
        assert observe_scene(cfg, INTR, GAUSSIAN).redraws == 1033
        assert observe_scene(replace(cfg, **NEAR, min_distortion=0.0), INTR, GAUSSIAN).redraws == 1823
        assert observe_scene(replace(cfg, min_distortion=0.0), INTR, GAUSSIAN).redraws == 0

    def test_clamps_counted(self):
        cfg = SceneConfig(count=1000, seed=42, **CLAMPING[0])
        scene = observe_scene(cfg, INTR, CLAMPING[1])
        assert scene.clamped == 934
        assert (scene.heights == MIN_HEIGHT_PX).sum() == scene.clamped
        assert observe_scene(cfg, INTR, GAUSSIAN).clamped == 0

    @pytest.mark.parametrize("kw", [{}, REJECTING, NEAR])
    def test_prefix_stable_under_count(self, kw):
        short = observe_scene(SceneConfig(count=40, seed=3, **kw), INTR, GAUSSIAN)
        long = observe_scene(SceneConfig(count=100, seed=3, **kw), INTR, GAUSSIAN)
        for a, b in zip(short[:10], long[:10]):
            assert a.tolist() == b[:40].tolist()
        assert short.redraws <= long.redraws

    def test_no_acceptable_pose_names_the_object(self):
        with pytest.raises(ConfigError) as exc:
            observe_scene(SceneConfig(count=3, seed=42, min_distortion=5.0), INTR, GAUSSIAN)
        assert str(exc.value) == f"object 0: no acceptable pose in {MAX_POSE_RETRIES} draws (min_distortion=5.0)"
        # a rare acceptance: some objects find a pose before one does not
        cfg = SceneConfig(count=200, seed=42, min_distortion=0.4, depth_range=(5.0, 30.0))
        with pytest.raises(ValueError) as oracle:
            oracle_scene(cfg, GAUSSIAN)
        index = int(str(oracle.value).split()[1])
        assert index > 0
        with pytest.raises(ConfigError) as exc:
            observe_scene(cfg, INTR, GAUSSIAN)
        assert str(exc.value).startswith(f"object {index}: no acceptable pose in {MAX_POSE_RETRIES} draws")


class TestCellErrors:
    def test_a_cell_whose_every_trial_fails(self, tmp_path):
        # the grid's per-cell reducer over one solve_batch call's rows
        cells, trials = 3, 7
        rng = np.random.default_rng(4)
        rel_depth, abs_yaw = rng.random(cells * trials), rng.random(cells * trials)
        none_failed = np.zeros(cells * trials, dtype=bool)
        failed = none_failed.copy()
        failed[trials:2 * trials] = True  # every trial of cell 1
        failed[2 * trials + 3] = True  # one trial of cell 2
        got = _cell_errors(failed, rel_depth, abs_yaw, cells)
        clean = _cell_errors(none_failed, rel_depth, abs_yaw, cells)
        assert got[1] == (trials, None, None, None, None)
        assert got[0] == clean[0] and got[2] != clean[2]
        # each cell's statistics are .mean() and np.median of its kept trials alone, to the bit
        for errors, mask in ((got, failed), (clean, none_failed)):
            for c in (0, 2):
                cell = slice(c * trials, (c + 1) * trials)
                kept = [values[cell][~mask[cell]] for values in (rel_depth, abs_yaw)]
                assert errors[c] == (int(mask[cell].sum()), *(stat for v in kept for stat in (
                    float(v.mean()), float(np.median(v)))))
        # the failed cell's statistics are empty CSV cells
        fields = SENSITIVITY_FIELDS[7:]
        write_csv(tmp_path / "g.csv", [dict(zip(fields, got[1]))], fields=fields)
        assert (tmp_path / "g.csv").read_text().splitlines()[1] == f"{trials},,,,"


class TestSceneRecords:
    @pytest.mark.parametrize("noise", [NoiseModel(kind="none"), GAUSSIAN, QUANTIZED])
    def test_matches_object_record(self, noise):
        # against the scalar forward model, one object at a time
        cfg = SceneConfig(count=300, seed=13)
        scene = observe_scene(cfg, INTR, noise)
        records = scene_records(scene, (INTR.focal_length, *INTR.principal_point), ["Van"] * 300)
        assert len(records) == 300
        for i, (rec, pose) in enumerate(zip(records, generate_scene(cfg))):
            heights = dict(zip("abcd", scene.heights[i].tolist()))
            assert_same_record(rec, reference_record(i, "Van", pose, INTR, heights, noise))

    def test_labelgen_records_match_scalar_model(self):
        records = kitti_records(DATA / "labels", DATA / "calib")
        want = []
        for frame in (1, 2):
            intr = parse_calib((DATA / "calib" / f"00000{frame}.txt").read_text())
            labels = parse_label_file((DATA / "labels" / f"00000{frame}.txt").read_text())
            for gt in labels_to_ground_truth(labels, intr):
                rec = reference_record(len(want), gt.label.class_name, gt.pose, intr)
                want.append({**rec, "frame": frame})
        assert len(records) == len(want) == 6
        for rec, expected in zip(records, want):
            assert_same_record(rec, expected)


class TestPerturbHeights:
    def obs(self):
        pose = BoxPose3D(center=(1.0, 0.9, 14.0), dims=(4.2, 1.7, 1.5), yaw=0.9)
        return project_keyedges(pose, INTR)

    def test_none_is_identity(self):
        obs = self.obs()
        assert perturb_heights(obs, NoiseModel(kind="none"), seed=1) == obs

    def test_quantization(self):
        obs = self.obs()
        noisy = perturb_heights(obs, NoiseModel(kind="pixel_quantization", quantum_px=1.0), seed=0)
        for k in "abcd":
            assert noisy.heights[k] == round(obs.heights[k])
        assert noisy.depths == obs.depths  # only heights move

    def test_quantization_example(self):
        obs = self.obs()
        base = dict(obs.heights, a=150.4)
        import dataclasses
        obs = dataclasses.replace(obs, heights=base)
        noisy = perturb_heights(obs, NoiseModel(kind="pixel_quantization", quantum_px=1.0), seed=0)
        assert noisy.heights["a"] == 150.0

    def test_gaussian_reproducible(self):
        obs = self.obs()
        noise = NoiseModel(kind="gaussian_height", sigma_px=0.5)
        one = perturb_heights(obs, noise, seed=99)
        two = perturb_heights(obs, noise, seed=99)
        other = perturb_heights(obs, noise, seed=100)
        assert one == two
        assert one != other
        assert one != obs

    def test_gaussian_moves_each_height_independently(self):
        obs = self.obs()
        noisy = perturb_heights(obs, NoiseModel(kind="gaussian_height", sigma_px=0.5), seed=5)
        deltas = {k: noisy.heights[k] - obs.heights[k] for k in "abcd"}
        assert len({round(v, 9) for v in deltas.values()}) == 4

    def test_clamp_floor(self):
        import dataclasses
        obs = dataclasses.replace(self.obs(), heights={"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3})
        noisy = perturb_heights(obs, NoiseModel(kind="pixel_quantization", quantum_px=1.0), seed=0)
        assert all(v == 0.1 for v in noisy.heights.values())

    def test_noise_model_validation(self):
        with pytest.raises(ConfigError):
            NoiseModel(kind="salt_and_pepper")
        with pytest.raises(ConfigError):
            NoiseModel(kind="gaussian_height", sigma_px=-0.5)
        with pytest.raises(ConfigError):
            NoiseModel(kind="pixel_quantization", quantum_px=0.0)


class TestRecords:
    def setup_method(self):
        self.pose = BoxPose3D(center=(2.0, 0.9, 18.0), dims=(4.4, 1.8, 1.5), yaw=-0.8)
        self.obs = project_keyedges(self.pose, INTR)

    def test_field_order_and_values(self):
        rec = object_record(3, "Car", self.pose, INTR, self.obs)
        assert list(rec) == [f for f in RECORD_FIELDS if not f.startswith("sigma_")]
        assert rec["index"] == 3 and rec["class_name"] == "Car"
        assert (rec["x"], rec["y"], rec["z"]) == self.pose.center
        assert (rec["length"], rec["width"], rec["height"]) == self.pose.dims
        gamma = viewing_angle(self.pose.center)
        assert rec["gamma"] == gamma
        assert rec["alpha"] == normalize_angle(self.pose.yaw - gamma)
        assert rec["group"] == allocentric_group(rec["alpha"])
        ratios = keyedge_ratios(self.obs)
        for key, value in ratios.items():
            assert rec[key] == value
        for k in "abcd":
            assert rec[f"h_{k}"] == self.obs.heights[k]
            assert rec[f"d_{k}"] == self.obs.depths[k]

    def test_bbox_matches_eight_corner_projection(self):
        rec = object_record(0, "Car", self.pose, INTR, self.obs)
        assert tuple(rec[key] for key in BBOX_FIELDS) == eight_corner_box(self.pose, INTR)

    def test_sigma_fields_and_reciprocal_transform(self):
        noise = NoiseModel(kind="gaussian_height", sigma_px=0.5)
        sig = ratio_sigmas(self.obs, noise)
        rec = object_record(0, "Car", self.pose, INTR, self.obs, sigmas=sig)
        assert list(rec) == list(RECORD_FIELDS)
        ratios = keyedge_ratios(self.obs)
        h = self.obs.heights
        expect = ratios["r_ab"] * 0.5 * math.sqrt(1 / h["a"] ** 2 + 1 / h["b"] ** 2)
        assert rec["sigma_ab"] == pytest.approx(expect, rel=1e-12)
        per_ref = record_ratio_sigmas(rec)
        # reference a opens with r_ad = 1/r_da, so its sigma is sigma_da / r_da^2
        assert per_ref["a"][0] == pytest.approx(rec["sigma_da"] / rec["r_da"] ** 2, rel=1e-12)
        assert per_ref["a"][1] == rec["sigma_ab"]
        assert per_ref["b"][0] == pytest.approx(rec["sigma_ab"] / rec["r_ab"] ** 2, rel=1e-12)
        assert per_ref["b"][1] == rec["sigma_bc"]

    def test_quantization_sigma(self):
        noise = NoiseModel(kind="pixel_quantization", quantum_px=2.0)
        sig = ratio_sigmas(self.obs, noise)
        ratios = keyedge_ratios(self.obs)
        h = self.obs.heights
        expect = ratios["r_bc"] * (2.0 / math.sqrt(12.0)) * math.sqrt(1 / h["b"] ** 2 + 1 / h["c"] ** 2)
        assert sig["sigma_bc"] == pytest.approx(expect, rel=1e-12)

    def test_no_noise_no_sigmas(self):
        assert ratio_sigmas(self.obs, NoiseModel(kind="none")) is None
        rec = object_record(0, "Car", self.pose, INTR, self.obs)
        assert record_ratio_sigmas(rec) is None

    def test_record_tuples_round_trip(self):
        rec = object_record(0, "Car", self.pose, INTR, self.obs)
        tuples = record_tuples(rec)
        direct = object_centric_tuples(keyedge_ratios(self.obs))
        assert tuples == direct
        estimates, skipped = solve_all(tuples, self.pose.length, self.pose.width)
        assert not skipped
        for est in estimates:
            assert est.d_obj == pytest.approx(self.pose.z, rel=1e-9)


class TestSerialization:
    def records(self):
        poses = generate_scene(SceneConfig(count=5, seed=11))
        out = []
        for i, pose in enumerate(poses):
            obs = project_keyedges(pose, INTR)
            out.append(object_record(i, "Car", pose, INTR, obs))
        return out

    def test_jsonl_round_trip_lossless(self, tmp_path):
        records = self.records()
        path = tmp_path / "scene.jsonl"
        write_jsonl(path, records)
        back = read_jsonl(path)
        assert back == records  # exact float equality via repr round-trip

    def test_jsonl_is_utf8_lf(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_jsonl(path, self.records())
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert len(raw.splitlines()) == 5

    def test_read_jsonl_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_jsonl(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("bad", [
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
        '{"r_ab": 1' + "0" * 5000 + "}",  # an integer past the digit limit
    ])
    def test_read_jsonl_line_past_parser_limits(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_jsonl(path)
        assert exc.value.line == 2

    def test_read_jsonl_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_jsonl(path)

    def test_csv_mirrors_schema(self, tmp_path):
        records = self.records()
        path = tmp_path / "scene.csv"
        write_csv(path, records, PLAIN_FIELDS)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        assert list(rows[0]) == list(records[0])
        for row, rec in zip(rows, records):
            assert float(row["z"]) == rec["z"]
            assert float(row["r_ab"]) == rec["r_ab"]
            assert int(row["group"]) == rec["group"]

    @pytest.mark.parametrize("write", ["jsonl_dumps", "jsonl", "csv", "json"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, write):
        records = self.records()

        def rows():  # three records, then the run fails
            yield from records[:3]
            raise RuntimeError("failed partway")

        if write == "jsonl_dumps":
            dumps, calls = json.dumps, []

            def failing_dumps(obj, *args, **kwargs):
                calls.append(obj)
                if len(calls) > 3:
                    raise RuntimeError("failed partway")
                return dumps(obj, *args, **kwargs)

            monkeypatch.setattr(json, "dumps", failing_dumps)
        run = {
            "jsonl_dumps": lambda path: write_jsonl(path, records),
            "jsonl": lambda path: write_jsonl(path, rows()),
            "csv": lambda path: write_csv(path, rows(), PLAIN_FIELDS),
            "json": lambda path: write_json(path, {"arde": 0.5, "bins": [records[0], object()]}),
        }[write]
        earlier, fresh = tmp_path / "earlier.out", tmp_path / "fresh.out"
        earlier.write_bytes(b"an earlier run's output\n")
        for path in (earlier, fresh):
            with pytest.raises((RuntimeError, TypeError)):
                run(path)
        assert earlier.read_bytes() == b"an earlier run's output\n"
        assert sorted(os.listdir(tmp_path)) == ["earlier.out"]

    def test_write_replaces_earlier_file(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        path.write_text("stale\n" * 10, encoding="utf-8")
        assert write_jsonl(path, self.records()[:2]) == 2
        assert read_jsonl(path) == self.records()[:2]
        assert sorted(os.listdir(tmp_path)) == ["scene.jsonl"]

    def test_write_through_link_and_into_pipe(self, tmp_path):
        records = self.records()
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("stale\n", encoding="utf-8")
        link.symlink_to(target)
        write_jsonl(link, records)
        assert link.is_symlink() and read_jsonl(target) == records
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_jsonl(pipe, records[:1])
            assert os.read(reader, 1 << 16) == (json.dumps(records[0]) + "\n").encode()
        finally:
            os.close(reader)
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "pipe", "target.jsonl"]


# Each record kind's schema, the fields given bad values, and the values drawn for them.
SCHEMA_KINDS = {
    "solve": (_SOLVE, SOLVE_NUMBERS, bad_solve_value),
    "detection": (_DETECTION, DETECTION_FIELDS, bad_arde_value),
    "ground truth": (_GROUND_TRUTH, GROUND_TRUTH_FIELDS, bad_arde_value),
}
NUMBERS = st.floats(0.5, 5.0) | st.integers(1, 5)


@st.composite
def schema_blocks(draw):
    """A record kind, and a block of its records of which a few fields may hold values it must refuse."""
    kind = draw(st.sampled_from(sorted(SCHEMA_KINDS)), label="kind")
    schema, fields, bad_value = SCHEMA_KINDS[kind]
    records = []
    for i in range(draw(st.integers(1, 8), label="records")):
        if kind == "solve":
            rec = {"index": i, "class_name": "Car", "length": draw(NUMBERS), "width": draw(NUMBERS),
                   "r_ab": draw(NUMBERS), "r_bc": draw(NUMBERS), "r_cd": draw(NUMBERS), "r_da": draw(NUMBERS)}
            if draw(st.booleans()):  # sigmas on some records only
                rec.update((key, draw(NUMBERS)) for key in SIGMA_KEYS)
        else:
            rec = {**unit_box_fields(draw(NUMBERS), 0), "frame": draw(st.sampled_from([None, 7, "7"]))}
            if kind == "detection":
                rec.update(confidence=draw(NUMBERS), d_est=draw(NUMBERS), gamma_est=draw(st.none() | NUMBERS))
            else:
                rec.update(z=draw(NUMBERS), gamma=draw(NUMBERS))
        records.append(rec)
    for rec in records:
        for field in draw(st.lists(st.sampled_from(fields), max_size=2, unique=True), label="bad fields"):
            value = draw(bad_value(field))
            if value is MISSING:
                rec.pop(field, None)
            else:
                rec[field] = value
    return schema, records


class TestSchemaReader:
    @settings(max_examples=200, deadline=None)
    @given(block=schema_blocks())
    def test_block_check_matches_record_at_a_time(self, block):
        # The column pass refuses a block exactly when a record checked alone
        # is refused, and then names the first such record with its message;
        # a block that passes holds the values each record gives alone.
        schema, records = block

        def read(block_records):
            return list(_blocks(schema, iter(block_records)))

        passed, refused = [], []  # (record, what it gives alone), (position, record, reason)
        for pos, rec in enumerate(records):
            try:
                passed.append((rec, read([rec])))
            except ParseError as err:
                refused.append((pos, rec, str(err).removeprefix(f"{schema.name(0, rec)}: ")))
        good = [rec for rec, _ in passed]
        (checked,) = read(good)
        if schema.build is not None:  # the records built
            assert checked == [record for _, ((record,),) in passed]
        else:  # the float columns
            for key in (key for group in schema.fields if group.rule for key in group.keys):
                alone = np.concatenate([np.empty(0), *(one[key] for _, (one,) in passed)])
                assert np.array_equal(checked[key], alone, equal_nan=True)
        for pos, rec, reason in refused:  # alone among the records that pass
            at = min(pos, len(good))
            with pytest.raises(ParseError) as err:
                read([*good[:at], rec, *good[at:]])
            assert str(err.value) == f"{schema.name(at, rec)}: {reason}"
        if refused:  # the block as drawn
            pos, rec, reason = refused[0]
            with pytest.raises(ParseError) as err:
                read(records)
            assert str(err.value) == f"{schema.name(pos, rec)}: {reason}"
