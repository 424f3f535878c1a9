"""End-to-end subcommand flows, exit codes, and byte determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import keyedge.cli as cli
from keyedge.cli import SENSITIVITY_FIELDS, main
from keyedge.dataio import (
    BBOX_FIELDS, LABELGEN_FIELDS, PLAIN_FIELDS, RECORD_FIELDS, SOLVE_FIELDS, ConfigError, ParseError,
    read_jsonl, write_jsonl,
)
from keyedge.geometry import Degenerate, NonPositiveDepth, ZeroHeight, normalize_angle
from keyedge.indexing import DegenerateObservation
from keyedge.recovery import AllDegenerate, UnobservableDistortion
from keyedge.uncertainty import NonPositiveSigma
from oracles import STORED_PAIRS, brute_force_arde, reference_solve_rows, rotation_corners

DATA = Path(__file__).parent / "data" / "kitti"
# eval-arde on the fixture labels without frames (TestLabelgen), as the
# matcher that pooled every box wrote it.
REPORT_WITHOUT_FRAMES = (
    b'{\n  "arde": 0.07500000000000005,\n  "iou_min": 0.7,\n  "recall_points": 40,\n'
    b'  "n_detections": 7,\n  "n_ground_truth": 6,\n  "bins": [\n    {\n'
    b'      "gamma_min": -0.6981317007977318,\n      "gamma_max": 0.0,\n'
    b'      "arde": 0.07500000000000007,\n      "n_ground_truth": 2,\n      "n_detections": 2\n'
    b'    },\n    {\n      "gamma_min": 0.0,\n      "gamma_max": 0.6981317007977318,\n'
    b'      "arde": 0.07500000000000004,\n      "n_ground_truth": 4,\n      "n_detections": 5\n'
    b'    }\n  ]\n}\n'
)
REPO = Path(__file__).resolve().parent.parent


def run(*argv):
    return main([str(a) for a in argv])


def synth(out, *extra, count=20, seed=3):
    return run("synth", "--count", count, "--seed", seed, "--out", out, *extra)


def label_line(x, y, z, h, w, l, ry):
    """A KITTI Car label; labelgen ignores the alpha and bbox columns."""
    return f"Car 0.00 0 0.00 0.00 0.00 10.00 10.00 {h} {w} {l} {x} {y} {z} {ry}\n"


def write_two_frame_trap(tmp_path):
    """Frames that pooled matching gets wrong; returns (detections, ground truth) paths.

    Frame 0 holds car A.  Frame 1 holds car B, A scaled by 1.5 about the
    camera and moved 0.3 m right, so its box nearly covers A's and its depth
    is half again A's.  A frame-1 detection sits exactly on A's box with
    B's depth; within frame 1 it matches B, across the pooled files it
    takes A.  A frame-2 detection, in a frame with no ground truth, also
    sits on A's box: per frame it is a false positive, pooled it takes B.
    """
    a = dict(x=-2.91, y=1.65, z=8.0, h=1.40, w=1.50, l=3.60, ry=0.30)
    b = {k: v * 1.5 for k, v in a.items() if k != "ry"}
    b.update(x=b["x"] + 0.3, ry=a["ry"])
    labels, calib = tmp_path / "label_2", tmp_path / "calib"
    labels.mkdir()
    calib.mkdir()
    for frame, car in enumerate((a, b)):
        (labels / f"{frame:06d}.txt").write_text(label_line(**car))
        (calib / f"{frame:06d}.txt").write_text((DATA / "calib" / "000001.txt").read_text())
    gt_path, det_path = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
    assert run("labelgen", "--labels", labels, "--calib", calib, "--out", gt_path) == 0
    gt_a, gt_b = read_jsonl(gt_path)
    on_a = {k: gt_a[k] for k in BBOX_FIELDS}
    write_jsonl(det_path, [
        {**on_a, "frame": 1, "confidence": 0.9, "d_est": gt_b["z"], "gamma_est": gt_a["gamma"]},
        {**on_a, "frame": 2, "confidence": 0.5, "d_est": gt_a["z"], "gamma_est": gt_a["gamma"]},
    ])
    return det_path, gt_path


class TestSynth:
    def test_writes_records(self, tmp_path):
        out = tmp_path / "scene.jsonl"
        assert synth(out) == 0
        records = read_jsonl(out)
        assert len(records) == 20
        assert list(records[0]) == list(PLAIN_FIELDS)
        assert not any(f.startswith("sigma_") for f in PLAIN_FIELDS)
        for rec in records:
            assert 5.0 <= rec["z"] < 60.0
            assert abs(math.degrees(rec["gamma"])) <= 40.0

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert synth(a) == 0 and synth(b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_adds_sigma_fields(self, tmp_path):
        clean, noisy = tmp_path / "clean.jsonl", tmp_path / "noisy.jsonl"
        assert synth(clean) == 0
        assert synth(noisy, "--noise", "gaussian_height", "--sigma-px", "0.5") == 0
        c_recs, n_recs = read_jsonl(clean), read_jsonl(noisy)
        assert list(n_recs[0]) == list(RECORD_FIELDS)
        for c, n in zip(c_recs, n_recs):
            assert c["z"] == n["z"] and c["yaw"] == n["yaw"]  # same scene stream
            assert c["r_ab"] != n["r_ab"]
            assert n["sigma_ab"] > 0.0

    def test_noise_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ("--noise", "gaussian_height", "--sigma-px", "0.5")
        assert synth(a, *flags) == 0 and synth(b, *flags) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noisy_prefix_stable_under_count(self, tmp_path):
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        flags = ("--noise", "gaussian_height", "--sigma-px", "0.5")
        assert synth(short, *flags, count=4) == 0 and synth(long, *flags, count=10) == 0
        assert short.read_bytes().splitlines() == long.read_bytes().splitlines()[:4]

    def test_csv_mirror(self, tmp_path):
        out, mirror = tmp_path / "s.jsonl", tmp_path / "s.csv"
        assert synth(out, "--csv-out", mirror) == 0
        header = mirror.read_text().splitlines()[0]
        assert header == ",".join(PLAIN_FIELDS)
        with open(mirror, newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = read_jsonl(out)
        assert len(rows) == len(records)
        assert float(rows[7]["z"]) == records[7]["z"]

    @pytest.mark.parametrize("noise, fields", [
        ((), PLAIN_FIELDS),
        (("--noise", "gaussian_height", "--sigma-px", "0.5"), list(RECORD_FIELDS)),
    ])
    def test_csv_mirror_zero_records(self, tmp_path, noise, fields):
        out, mirror = tmp_path / "s.jsonl", tmp_path / "s.csv"
        assert synth(out, "--csv-out", mirror, *noise, count=0) == 0
        assert out.read_bytes() == b""
        assert mirror.read_text() == ",".join(fields) + "\n"


# The fields solve reads as numbers, and values it must refuse in them.
SOLVE_NUMBERS = ("length", "width", "r_ab", "r_bc", "r_cd", "r_da",
                 "sigma_ab", "sigma_bc", "sigma_cd", "sigma_da")
MISSING = object()


def bad_solve_value(field):
    """A missing field, NaN, an infinity, a boolean, a string, null, another JSON type,
    an integer beyond the float range, or a number out of the field's domain."""
    anywhere = st.sampled_from([MISSING, math.nan, math.inf, -math.inf, True, False, None,
                                "1.5", "", [1.0], {"v": 1.0}])
    too_large = st.integers(min_value=2**1024, max_value=2**1100)
    if field.startswith("sigma_"):  # a sigma may be 0
        out_of_domain = st.floats(max_value=0.0, exclude_max=True) | st.integers(max_value=-1)
    else:
        out_of_domain = st.floats(max_value=0.0) | st.integers(max_value=0)
    return anywhere | too_large | out_of_domain


DETECTION_FIELDS = (*BBOX_FIELDS, "confidence", "d_est", "gamma_est", "frame")
GROUND_TRUTH_FIELDS = (*BBOX_FIELDS, "z", "gamma", "frame")


def bad_arde_value(field):
    """A value eval-arde must refuse in field, from the kinds bad_solve_value draws.

    A frame may be missing, null, any integer or a string, and gamma_est
    missing or null; only the depths d_est and z must be positive.
    """
    if field == "frame":
        return st.sampled_from([math.nan, math.inf, -math.inf, True, False, 1.5, [1], {"v": 1}])
    anywhere = [math.nan, math.inf, -math.inf, True, False, "1.5", "", [1.0], {"v": 1.0}]
    if field != "gamma_est":
        anywhere += [MISSING, None]
    bad = st.sampled_from(anywhere) | st.integers(min_value=2**1024, max_value=2**1100)
    if field in ("d_est", "z"):
        bad |= st.floats(max_value=0.0) | st.integers(max_value=0)
    return bad


JSON_SCALARS = st.none() | st.integers(-10, 10**6) | st.text(max_size=4)


@st.composite
def solve_records(draw):
    """Valid solve records of random poses: ints among the floats, sigmas on some
    records, z on all, some or none, odd index and class_name values, and tuple
    b forced unobservable (r_ab = r_bc = 1) on some records."""
    z_in = draw(st.sampled_from(["all", "some", "none"]), label="z in")
    records = []
    for _ in range(draw(st.integers(1, 6), label="records")):
        z, gamma = draw(st.floats(4.0, 80.0)), draw(st.floats(-0.7, 0.7))
        yaw, height = draw(st.floats(-math.pi, math.pi)), draw(st.floats(1.0, 2.5))
        length = draw(st.integers(3, 5) | st.floats(3.0, 5.0))
        width = draw(st.integers(1, 2) | st.floats(1.4, 2.0))
        corners, _ = rotation_corners(z * math.tan(gamma), 1.65 - height / 2.0, z, length, width, height, yaw)
        rec = {"index": draw(JSON_SCALARS), "length": length, "width": width}
        if draw(st.booleans()):
            rec["class_name"] = draw(JSON_SCALARS)
        rec.update((key, float(corners[q][2] / corners[p][2])) for key, (p, q) in STORED_PAIRS.items())
        if draw(st.booleans()):
            rec.update(r_ab=1, r_bc=1)
        if draw(st.booleans()):
            rec.update((f"sigma_{key[2:]}", draw(st.floats(1e-4, 0.05) | st.just(1))) for key in STORED_PAIRS)
        if z_in == "all" or z_in == "some" and draw(st.booleans()):
            rec["z"] = draw(st.just(z) | JSON_SCALARS)  # echoed as read
        records.append(rec)
    return records


def write_fifo(path, data):
    """Make a FIFO at path and write data into it from a thread, once a reader opens it."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


class TestSolveFlow:
    def test_noise_free_round_trip(self, tmp_path):
        scene, est = tmp_path / "scene.jsonl", tmp_path / "est.jsonl"
        assert synth(scene, count=30, seed=11) == 0
        assert run("solve", "--in", scene, "--out", est) == 0
        inputs, outputs = read_jsonl(scene), read_jsonl(est)
        assert len(outputs) == 30
        assert list(outputs[0]) == list(SOLVE_FIELDS)
        for rec, sol in zip(inputs, outputs):
            assert sol["theta_fusion_rule"] == "weighted_circular_mean"
            assert sol["skipped"] == ""
            assert sol["d_fusion"] == pytest.approx(rec["z"], rel=1e-9)
            assert abs(normalize_angle(sol["theta_fusion"] - rec["yaw"])) <= 1e-9
            for ref in "abcd":
                assert sol[f"d_obj_{ref}"] == pytest.approx(rec["z"], rel=1e-9)

    def test_sigma_weighted_solve(self, tmp_path):
        scene, est = tmp_path / "scene.jsonl", tmp_path / "est.jsonl"
        assert synth(scene, "--noise", "gaussian_height", "--sigma-px", "0.5", seed=4) == 0
        assert run("solve", "--in", scene, "--out", est) == 0
        for sol in read_jsonl(est):
            weights = [sol[f"weight_{r}"] for r in "abcd" if sol[f"weight_{r}"] is not None]
            assert weights and sum(weights) == pytest.approx(1.0, abs=1e-9)
            for ref in "abcd":
                if sol[f"sigma_d_{ref}"] is not None:
                    assert sol[f"sigma_d_{ref}"] > 0.0

    def test_csv_mirror(self, tmp_path):
        scene, est, mirror = tmp_path / "s.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        assert synth(scene, count=5) == 0
        assert run("solve", "--in", scene, "--out", est, "--csv-out", mirror) == 0
        with open(mirror, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert float(rows[0]["d_fusion"]) == read_jsonl(est)[0]["d_fusion"]

    def test_csv_mirror_z_in_some_records(self, tmp_path):
        # The header is solve's schema: z when any record carries it, else none.
        scene, est, mirror = tmp_path / "s.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        assert synth(scene, count=2) == 0
        records = read_jsonl(scene)
        no_z = [f for f in SOLVE_FIELDS if f != "z"]
        for without_z, fields, z_column in ((1, list(SOLVE_FIELDS), ["", repr(records[1]["z"])]),
                                            (2, no_z, [None, None])):
            # the first without_z records lose their z field
            write_jsonl(scene, [{k: v for k, v in rec.items() if k != "z" or i >= without_z}
                                for i, rec in enumerate(records)])
            assert run("solve", "--in", scene, "--out", est, "--csv-out", mirror) == 0
            with open(mirror, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert list(rows[0]) == fields
            assert [row.get("z") for row in rows] == z_column

    def test_csv_mirror_zero_records(self, tmp_path):
        src, est, mirror = tmp_path / "r.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        src.write_text("")
        assert run("solve", "--in", src, "--out", est, "--csv-out", mirror) == 0
        assert est.read_bytes() == b""
        assert mirror.read_text() == ",".join(SOLVE_FIELDS) + "\n"

    def test_degenerate_record_exit_5(self, tmp_path):
        rec = {"index": 0, "length": 4.0, "width": 2.0,
               "r_ab": 1.0, "r_bc": 1.0, "r_cd": 1.0, "r_da": 1.0}
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, [rec])
        assert run("solve", "--in", src, "--out", est) == 5

    def test_zero_sigmas_exit_5(self, tmp_path, capsys):
        # a zero sigma is read, but a tuple whose two ratio sigmas are 0 has a
        # sigma_d of 0, which has no 1/sigma_d weight
        rec = {"index": 0, "length": 4.0, "width": 2.0, "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.95,
               "sigma_ab": 0.0, "sigma_bc": 0.0, "sigma_cd": 0.0, "sigma_da": 0.0}
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, [rec])
        assert run("solve", "--in", src, "--out", est) == 5
        assert capsys.readouterr().err == "error: record 0 (index 0): sigma_d must be positive, got 0.0\n"
        assert not est.exists()

    def test_missing_field_exit_3(self, tmp_path, capsys):
        rec = {"index": 0, "length": 4.0, "width": 2.0,
               "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05}  # r_da missing
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, [rec])
        assert run("solve", "--in", src, "--out", est) == 3
        assert capsys.readouterr().err == "error: record 0 (index 0): missing field 'r_da'\n"

    @pytest.mark.parametrize("dims", [{"length": -4.0}, {"width": 0}, {"length": True},
                                      {"width": "1.5"}])
    def test_non_positive_dims_exit_3(self, tmp_path, capsys, dims):
        rec = {"index": 0, "length": 4.0, "width": 2.0,
               "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.95, **dims}
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, [rec])
        assert run("solve", "--in", src, "--out", est) == 3
        ((name, value),) = dims.items()
        problem = "must be a number" if isinstance(value, (bool, str)) else "must be positive"
        assert f"{name} {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"r_ab": 0.0}, {"r_bc": -0.9}, {"r_cd": math.inf},
                                     {"r_da": math.nan}, {"r_ab": True}, {"r_bc": "1.5"}])
    def test_ratio_not_finite_and_positive_exit_3(self, tmp_path, capsys, bad):
        rec = {"index": 4, "length": 4.0, "width": 2.0,
               "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.95, **bad}
        for sigmas in ({}, {"sigma_ab": 0.01, "sigma_bc": 0.01, "sigma_cd": 0.01, "sigma_da": 0.01}):
            src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
            write_jsonl(src, [{**rec, **sigmas}])
            assert run("solve", "--in", src, "--out", est) == 3
            ((key, value),) = bad.items()
            err = capsys.readouterr().err
            assert err.startswith("error: record 0 (index 4): ")
            problem = "must be a number" if isinstance(value, (bool, str)) else "must be finite and positive"
            assert f"{key} {problem}" in err

    @pytest.mark.parametrize("sigma", [-0.01, math.nan, math.inf, True, "1.5"])
    def test_sigma_not_finite_and_nonnegative_exit_3(self, tmp_path, capsys, sigma):
        rec = {"index": 4, "length": 4.0, "width": 2.0,
               "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.95,
               "sigma_ab": sigma, "sigma_bc": 0.01, "sigma_cd": 0.01, "sigma_da": 0.01}
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, [rec])
        assert run("solve", "--in", src, "--out", est) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: record 0 (index 4): ")
        problem = "must be a number" if isinstance(sigma, (bool, str)) else "must be finite and nonnegative"
        assert f"sigma_ab {problem}" in err

    @pytest.mark.parametrize("bad, code", [
        ({"r_ab": 1.0, "r_bc": 1.0, "r_cd": 1.0, "r_da": 1.0}, 5),
        ({"r_da": "x"}, 3),
    ])
    def test_error_names_record(self, tmp_path, capsys, bad, code):
        scene, est = tmp_path / "s.jsonl", tmp_path / "e.jsonl"
        assert synth(scene, count=4, seed=6) == 0
        records = read_jsonl(scene)
        records[2].update(index=17, **bad)
        write_jsonl(scene, records)
        assert run("solve", "--in", scene, "--out", est) == code
        assert capsys.readouterr().err.startswith("error: record 2 (index 17): ")


    def test_parse_errors_come_before_degeneracy(self, tmp_path, capsys):
        # record 1 fuses nothing (exit 5 on its own), record 3 is malformed
        scene, est = tmp_path / "s.jsonl", tmp_path / "e.jsonl"
        assert synth(scene, count=4, seed=6) == 0
        records = read_jsonl(scene)
        records[1].update(r_ab=1.0, r_bc=1.0, r_cd=1.0, r_da=1.0)
        records[3].update(r_cd="x")
        write_jsonl(scene, records)
        assert run("solve", "--in", scene, "--out", est) == 3
        assert capsys.readouterr().err.startswith("error: record 3 (index 3): ")
        assert not est.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=solve_records())
    def test_rows_match_reference(self, tmp_path, records):
        # solve reads its records as columns; its lines and CSV mirror are
        # those of the record-at-a-time reference
        src, est, mirror = tmp_path / "r.jsonl", tmp_path / "e.jsonl", tmp_path / "e.csv"
        write_jsonl(src, records)
        assert run("solve", "--in", src, "--out", est, "--csv-out", mirror) == 0
        expected = reference_solve_rows(read_jsonl(src))
        assert est.read_text().splitlines() == [json.dumps(row) for row in expected]
        fields = [f for f in SOLVE_FIELDS if f != "z" or any("z" in rec for rec in records)]
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(expected)
        assert mirror.read_bytes() == text.getvalue().encode()

    def write_lines(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines))

    GOOD = json.dumps({"index": 0, "length": 4.0, "width": 2.0,
                       "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.95})

    def test_bad_record_before_invalid_json(self, tmp_path, capsys):
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        bad = json.dumps({**json.loads(self.GOOD), "index": 8, "width": "2"})
        self.write_lines(src, self.GOOD, bad, self.GOOD, "{oops")
        assert run("solve", "--in", src, "--out", est) == 3
        assert capsys.readouterr().err == "error: record 1 (index 8): width must be a number, got '2'\n"
        assert not est.exists()

    def test_invalid_json_after_clean_records(self, tmp_path, capsys):
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        self.write_lines(src, self.GOOD, "", "{oops", json.dumps({"r_ab": "x"}))
        assert run("solve", "--in", src, "--out", est) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: invalid JSON: ") and err.endswith(" (line 3)\n")
        assert not est.exists()

    def test_earlier_of_two_bad_records(self, tmp_path, capsys):
        # a partial sigma set on record 1, a NaN ratio on record 2
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        good = json.loads(self.GOOD)
        self.write_lines(src, self.GOOD, json.dumps({**good, "index": 5, "sigma_cd": 0.1}),
                         json.dumps({**good, "index": 6, "r_ab": math.nan}))
        assert run("solve", "--in", src, "--out", est) == 3
        assert capsys.readouterr().err == "error: record 1 (index 5): missing field 'sigma_ab'\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_input_read_once(self, tmp_path):
        # --in may be a pipe: solve reads it once, also to name a bad record
        scene = tmp_path / "scene.jsonl"
        assert synth(scene, "--noise", "gaussian_height", "--sigma-px", "0.5", count=50) == 0
        records = read_jsonl(scene)
        bad = tmp_path / "bad.jsonl"
        write_jsonl(bad, records[:3] + [{**records[3], "r_cd": True}] + records[4:])

        def solve(src, est):
            proc = subprocess.run([sys.executable, "-m", "keyedge", "solve", "--in", str(src),
                                   "--out", str(est)], capture_output=True, env=module_env(), timeout=120)
            return proc.returncode, proc.stderr, est.read_bytes() if est.exists() else None

        for source, code in ((scene, 0), (bad, 3)):
            fifo = tmp_path / f"{source.stem}.fifo"
            writer = write_fifo(fifo, source.read_bytes())
            from_fifo = solve(fifo, tmp_path / f"{source.stem}.fifo.out")
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert from_fifo == solve(source, tmp_path / f"{source.stem}.out")
            assert from_fifo[0] == code
        assert from_fifo[1:] == (b"error: record 3 (index 3): r_cd must be a number, got True\n", None)

    def test_invalid_utf8_exit_3(self, tmp_path, capsys):
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        for lines, err in (
            ([self.GOOD.encode(), b"", b'{"index": "\xff"}'],
             f"error: {src}: invalid UTF-8 (line 3)\n"),
            # a bad record comes before a later bad byte
            ([self.GOOD.replace("1.1", '"x"').encode(), b'{"index": "caf\xc3"}'],
             "error: record 0 (index 0): r_ab must be a number, got 'x'\n"),
        ):
            src.write_bytes(b"\n".join(lines) + b"\n")
            assert run("solve", "--in", src, "--out", est) == 3
            assert capsys.readouterr().err == err
            assert not est.exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_bad_value_exit_3(self, tmp_path, capsys, data):
        # one field of one record gets a value solve must refuse, by name
        pos = data.draw(st.integers(0, 3), label="pos")
        field = data.draw(st.sampled_from(SOLVE_NUMBERS), label="field")
        value = data.draw(bad_solve_value(field), label="value")
        index = data.draw(st.integers(-5, 10**6), label="index")
        records = [{"index": i, "class_name": "Car", "length": 4.0, "width": 1.8,
                    "r_ab": 1.1, "r_bc": 0.9, "r_cd": 1.05, "r_da": 0.97,
                    "sigma_ab": 0.01, "sigma_bc": 0.01, "sigma_cd": 0.01, "sigma_da": 0.01}
                   for i in range(4)]
        records[pos]["index"] = index
        if value is MISSING:
            del records[pos][field]
        else:
            records[pos][field] = value
        src, est = tmp_path / "r.jsonl", tmp_path / "e.jsonl"
        write_jsonl(src, records)
        assert run("solve", "--in", src, "--out", est) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: record {pos} (index {index}): ")
        assert field in err and err.count("\n") == 1
        assert not est.exists()


class TestLabelgen:
    def test_fixture_directories(self, tmp_path):
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                   "--out", out) == 0
        records = read_jsonl(out)
        assert len(records) == 6  # DontCare dropped
        assert [r["index"] for r in records] == list(range(6))
        assert {r["class_name"] for r in records} == {"Car", "Pedestrian", "Cyclist"}

    def test_skip_hard(self, tmp_path):
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                   "--out", out, "--skip-hard") == 0
        assert len(read_jsonl(out)) == 4

    def test_single_file_pair(self, tmp_path):
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", DATA / "labels" / "000001.txt",
                   "--calib", DATA / "calib" / "000001.txt", "--out", out) == 0
        assert len(read_jsonl(out)) == 4

    def test_solve_round_trip(self, tmp_path):
        gt, est = tmp_path / "gt.jsonl", tmp_path / "est.jsonl"
        assert run("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                   "--out", gt) == 0
        assert run("solve", "--in", gt, "--out", est) == 0
        for rec, sol in zip(read_jsonl(gt), read_jsonl(est)):
            assert sol["d_fusion"] == pytest.approx(rec["z"], rel=1e-6)

    def test_corrupt_label_exit_3(self, tmp_path):
        labels = tmp_path / "000001.txt"
        labels.write_text("Car 0.0 0 only five fields\n")
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", labels,
                   "--calib", DATA / "calib" / "000001.txt", "--out", out) == 3

    def test_invalid_utf8_exit_3(self, tmp_path, capsys):
        labels, calib, out = tmp_path / "000001.txt", tmp_path / "calib.txt", tmp_path / "gt.jsonl"
        good_label = label_line(0.0, 1.65, 10.0, 1.5, 1.8, 4.0, 0.5).encode()
        good_calib = (DATA / "calib" / "000001.txt").read_bytes()
        for label_bytes, calib_bytes, bad, line in (
            (good_label + b"Caf\xe9 0.00 0 0.00\n", good_calib, labels, 2),
            (good_label, b"\xff\n" * 2 + good_calib, calib, 1),
        ):
            labels.write_bytes(label_bytes)
            calib.write_bytes(calib_bytes)
            assert run("labelgen", "--labels", labels, "--calib", calib, "--out", out) == 3
            assert capsys.readouterr().err == f"error: {bad}: invalid UTF-8 (line {line})\n"
            assert not out.exists()

    def test_label_behind_camera_exit_3(self, tmp_path, capsys):
        labels = tmp_path / "000001.txt"
        # a good label, a blank line, then the label at z -5 on line 3
        labels.write_text(label_line(0.0, 1.65, 10.0, 1.5, 1.8, 4.0, 0.5) + "\n"
                          + label_line(0.0, 1.65, -5.0, 1.5, 1.8, 4.0, 0.5))
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", labels,
                   "--calib", DATA / "calib" / "000001.txt", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}: ")
        assert "z=-5.0 (line 3, field 14)" in err
        assert not out.exists()
        # center at z 1 m in front, keyedge a 1 m behind the camera, on line 3
        labels.write_text(label_line(0.0, 1.65, 10.0, 1.5, 1.8, 4.0, 0.5) + "\n"
                          + label_line(0.5, 1.65, 1.0, 1.5, 1.6, 4.0, 1.57))
        assert run("labelgen", "--labels", labels,
                   "--calib", DATA / "calib" / "000001.txt", "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels}: label Car: keyedge a depth -0.99")
        assert err.endswith(" is not positive (line 3)\n")
        assert not out.exists()

    def test_behind_camera_before_a_later_file_s_parse_error(self, tmp_path, capsys):
        # the first file's keyedge behind the camera, then a malformed line
        # in the second: files are checked in order
        labels, calib, out = tmp_path / "labels", tmp_path / "calib", tmp_path / "gt.jsonl"
        labels.mkdir()
        calib.mkdir()
        (labels / "000001.txt").write_text(label_line(0.0, 1.65, 10.0, 1.5, 1.8, 4.0, 0.5)
                                           + label_line(0.5, 1.65, 1.0, 1.5, 1.6, 4.0, 1.57))
        (labels / "000002.txt").write_text("Car 0.0 0 only five fields\n")
        for name in ("000001.txt", "000002.txt"):
            (calib / name).write_text((DATA / "calib" / "000001.txt").read_text())
        assert run("labelgen", "--labels", labels, "--calib", calib, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {labels / '000001.txt'}: label Car: keyedge a depth -0.99")
        assert err.endswith(" is not positive (line 2)\n")
        assert not out.exists()

    def test_each_frame_under_its_own_camera(self, tmp_path):
        cameras = {"000001": (721.5377, 609.5593, 172.854), "000002": (980.25, 402.5, 251.75)}
        labels, calib, out = tmp_path / "labels", tmp_path / "calib", tmp_path / "gt.jsonl"
        labels.mkdir()
        calib.mkdir()
        for name, (f, cx, cy) in cameras.items():
            (calib / f"{name}.txt").write_text(f"P2: {f} 0 {cx} 0 0 {f} {cy} 0 0 0 1 0\n")
        (labels / "000001.txt").write_text(label_line(-3.0, 1.7, 12.0, 1.5, 1.8, 4.0, 0.4)
                                           + label_line(4.0, 1.6, 25.0, 1.4, 1.7, 4.4, -1.1))
        (labels / "000002.txt").write_text(label_line(2.0, 1.65, 9.0, 1.6, 1.9, 4.2, 2.5)
                                           + label_line(-6.0, 1.7, 30.0, 1.5, 1.6, 3.9, -2.9))
        assert run("labelgen", "--labels", labels, "--calib", calib, "--out", out) == 0
        records = read_jsonl(out)
        assert [rec["frame"] for rec in records] == [1, 1, 2, 2]
        for rec in records:
            f, cx, cy = cameras[f"{rec['frame']:06d}"]
            for k in "abcd":
                assert rec[f"h_{k}"] == f * rec["height"] / rec[f"d_{k}"]
            corners, height = rotation_corners(*(rec[key] for key in
                                                 ("x", "y", "z", "length", "width", "height", "yaw")))
            pixels = [(cx + f * px / pz, cy + f * v / pz)
                      for px, py, pz in corners.values() for v in (py, py - height)]
            us, vs = zip(*pixels)
            box = [rec[key] for key in BBOX_FIELDS]
            assert box == pytest.approx([min(us), min(vs), max(us), max(vs)], rel=1e-12)

    def test_non_positive_focal_exit_3(self, tmp_path, capsys):
        calib = tmp_path / "000001.txt"
        text = (DATA / "calib" / "000001.txt").read_text()
        calib.write_text(text.replace("P2: 7.215377000000e+02", "P2: -7.0e+02"))
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", DATA / "labels" / "000001.txt",
                   "--calib", calib, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {calib}: ")
        assert "P2[0,0] = -700.0 (line 3)" in err
        assert not out.exists()

    def test_frames_from_file_stems(self, tmp_path):
        out = tmp_path / "gt.jsonl"
        assert run("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                   "--out", out) == 0
        records = read_jsonl(out)
        assert list(records[0]) == list(LABELGEN_FIELDS)
        assert [r["frame"] for r in records] == [1, 1, 1, 1, 2, 2]
        named = tmp_path / "drive_7.txt"
        named.write_text((DATA / "labels" / "000002.txt").read_text())
        assert run("labelgen", "--labels", named,
                   "--calib", DATA / "calib" / "000002.txt", "--out", out) == 0
        assert [r["frame"] for r in read_jsonl(out)] == ["drive_7", "drive_7"]

    def test_csv_mirror_zero_records(self, tmp_path):
        labels, out, mirror = tmp_path / "000001.txt", tmp_path / "gt.jsonl", tmp_path / "gt.csv"
        labels.write_text("DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10\n")
        assert run("labelgen", "--labels", labels, "--calib", DATA / "calib" / "000001.txt",
                   "--out", out, "--csv-out", mirror) == 0
        assert out.read_bytes() == b""
        assert mirror.read_text() == ",".join(LABELGEN_FIELDS) + "\n"

    def test_records_without_frames_score_as_before(self, tmp_path):
        gt_path, det_path, report = tmp_path / "gt.jsonl", tmp_path / "d.jsonl", tmp_path / "r.json"
        assert run("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                   "--out", gt_path) == 0
        records = read_jsonl(gt_path)
        for rec in records:
            del rec["frame"]
        write_jsonl(gt_path, records)
        dets = [
            {**{f: rec[f] + k * (f in ("bbox_left", "bbox_right")) for f in BBOX_FIELDS},
             "confidence": (0.9, 0.9, 0.7, 0.5, 0.5, 0.3)[k], "d_est": rec["z"] * (1.0 + 0.03 * k),
             "gamma_est": rec["gamma"]}
            for k, rec in enumerate(records)
        ]
        dets.append({**dets[0], "d_est": records[0]["z"] * 1.2})  # a duplicate at the top confidence
        write_jsonl(det_path, dets)
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", report, "--bin-edges-deg=-40,0,40") == 0
        assert report.read_bytes() == REPORT_WITHOUT_FRAMES


def unit_box_fields(x, y, size=10.0):
    return {"bbox_left": x, "bbox_top": y, "bbox_right": x + size, "bbox_bottom": y + size}


class TestEvalArde:
    GT = [
        {**unit_box_fields(0, 0), "z": 10.0, "gamma": -0.5},
        {**unit_box_fields(50, 0), "z": 20.0, "gamma": 0.4},
        {**unit_box_fields(100, 0), "z": 40.0, "gamma": 0.6},
    ]
    DETS = [
        {**unit_box_fields(0, 0), "confidence": 0.9, "d_est": 11.0},
        {**unit_box_fields(50, 0), "confidence": 0.8, "d_est": 18.0},
        {**unit_box_fields(200, 0), "confidence": 0.7, "d_est": 30.0},
        {**unit_box_fields(100, 0), "confidence": 0.6, "d_est": 42.0},
    ]

    def write_inputs(self, tmp_path):
        det_path, gt_path = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
        write_jsonl(det_path, self.DETS)
        write_jsonl(gt_path, self.GT)
        return det_path, gt_path

    def oracle(self):
        dets = [
            ((d["bbox_left"], d["bbox_top"], d["bbox_right"], d["bbox_bottom"]),
             d["confidence"], d["d_est"])
            for d in self.DETS
        ]
        gts = [
            ((g["bbox_left"], g["bbox_top"], g["bbox_right"], g["bbox_bottom"]), g["z"])
            for g in self.GT
        ]
        return brute_force_arde(dets, gts, iou_min=0.7)

    def test_report_matches_oracle(self, tmp_path):
        det_path, gt_path = self.write_inputs(tmp_path)
        report_path = tmp_path / "report.json"
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["arde"] == pytest.approx(self.oracle(), abs=1e-12)
        assert report["n_detections"] == 4 and report["n_ground_truth"] == 3
        assert "bins" not in report

    def test_binned_report(self, tmp_path):
        det_path, gt_path = self.write_inputs(tmp_path)
        report_path = tmp_path / "report.json"
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", report_path, "--bin-edges-deg=-60,0,60") == 0
        report = json.loads(report_path.read_text())
        bins = report["bins"]
        assert len(bins) == 2
        assert bins[0]["gamma_min"] == pytest.approx(math.radians(-60))
        assert bins[0]["n_ground_truth"] == 1 and bins[1]["n_ground_truth"] == 2
        assert all(b["arde"] is not None for b in bins)

    def test_two_frame_trap_matches_within_frames(self, tmp_path):
        det_path, gt_path = write_two_frame_trap(tmp_path)
        report_path = tmp_path / "report.json"
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", report_path, "--bin-edges-deg=-40,0,40") == 0
        report = json.loads(report_path.read_text())
        assert report["arde"] == 0.0  # pooled, the frame-1 detection takes A: 50 % error
        assert report["bins"][0]["arde"] == 0.0 and report["bins"][0]["n_detections"] == 2

    def test_bad_frame_exit_3(self, tmp_path, capsys):
        det_path, gt_path = self.write_inputs(tmp_path)
        write_jsonl(det_path, [{**self.DETS[0], "frame": 1.5}])
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 3
        assert "detection 0: frame must be" in capsys.readouterr().err

    def test_invalid_utf8_exit_3(self, tmp_path, capsys):
        det_path, gt_path = self.write_inputs(tmp_path)
        gt_path.write_bytes(gt_path.read_bytes() + b'{"frame": "\xfe"}\n')
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err == f"error: {gt_path}: invalid UTF-8 (line {len(self.GT) + 1})\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("text, message", [
        (json.dumps(GT[0]) + "\n{oops\n",
         "invalid JSON: Expecting property name enclosed in double quotes (line 2)"),
        ("[1,2]\n", "expected a JSON object (line 1)"),
    ])
    def test_bad_ground_truth_line_names_its_file(self, tmp_path, capsys, text, message):
        det_path, gt_path = self.write_inputs(tmp_path)
        gt_path.write_text(text)
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err == f"error: {gt_path}: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_empty_ground_truth_exit_2(self, tmp_path):
        det_path, _ = self.write_inputs(tmp_path)
        gt_path = tmp_path / "empty.jsonl"
        gt_path.write_text("")
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 2

    def test_boolean_confidence_exit_3(self, tmp_path, capsys):
        det_path, gt_path = self.write_inputs(tmp_path)
        write_jsonl(det_path, [self.DETS[0], {**self.DETS[1], "confidence": True}])
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 3
        assert "detection 1: confidence must be a number, got True" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_bad_value_exit_3(self, tmp_path, capsys, data):
        # one field of one detection or ground truth gets a value eval-arde
        # must refuse, by name
        side, fields = data.draw(st.sampled_from([("detection", DETECTION_FIELDS),
                                                  ("ground truth", GROUND_TRUTH_FIELDS)]), label="side")
        pos = data.draw(st.integers(0, 2), label="pos")
        field = data.draw(st.sampled_from(fields), label="field")
        value = data.draw(bad_arde_value(field), label="value")
        dets = [{**d, "gamma_est": 0.1, "frame": 7} for d in self.DETS[:3]]
        gts = [{**g, "frame": 7} for g in self.GT]
        record = (dets if side == "detection" else gts)[pos]
        if value is MISSING:
            del record[field]
        else:
            record[field] = value
        det_path, gt_path, report = tmp_path / "d.jsonl", tmp_path / "g.jsonl", tmp_path / "r.json"
        write_jsonl(det_path, dets)
        write_jsonl(gt_path, gts)
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", report, "--bin-edges-deg=-40,0,40") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side} {pos}: ")
        assert re.search(rf"\b{field}\b", err) and err.count("\n") == 1
        assert not report.exists()

    def test_missing_field_exit_3(self, tmp_path, capsys):
        det_path, gt_path = self.write_inputs(tmp_path)
        write_jsonl(det_path, [{**unit_box_fields(0, 0), "d_est": 10.0}])  # no confidence
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err == "error: detection 0: missing field 'confidence'\n"


class TestSensitivity:
    def test_single_cell_structure(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("sensitivity", "--seed", 5, "--trials", 40, "--out", out,
                   "--noise", "gaussian_height", "--noise-params", "0.5",
                   "--depth-bands", "10,30", "--gamma-bins-deg=-20,20") == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == list(SENSITIVITY_FIELDS)
        assert row["noise_kind"] == "gaussian_height"
        assert int(row["trials"]) == 40
        assert float(row["mean_rel_depth_error"]) > 0.0
        assert float(row["gamma_min_deg"]) == -20.0

    def test_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ("--seed", 9, "--trials", 25, "--noise", "gaussian_height",
                 "--noise-params", "0.25,0.5", "--depth-bands", "5,20,40",
                 "--gamma-bins-deg=-30,0,30")
        assert run("sensitivity", *flags, "--out", a) == 0
        assert run("sensitivity", *flags, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_row_order(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("sensitivity", "--seed", 9, "--trials", 10, "--out", out,
                   "--noise-params", "0.25,0.5", "--depth-bands", "5,20,40",
                   "--gamma-bins-deg=-30,0,30") == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # noise x band x bin
        assert [r["noise_param"] for r in rows] == ["0.25"] * 4 + ["0.5"] * 4
        assert [r["depth_min"] for r in rows[:4]] == ["5.0", "5.0", "20.0", "20.0"]

    def test_noise_none_is_exact(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("sensitivity", "--seed", 2, "--trials", 30, "--out", out,
                   "--noise", "none", "--depth-bands", "5,20",
                   "--gamma-bins-deg=-30,30") == 0
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["noise_kind"] == "none"
        assert int(row["n_failed"]) == 0
        assert float(row["mean_rel_depth_error"]) <= 1e-9
        assert float(row["median_rel_depth_error"]) <= 1e-9
        assert float(row["mean_abs_yaw_error"]) <= 1e-9


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_bad_depth_range(self, tmp_path):
        assert synth(tmp_path / "s.jsonl", "--depth-min", 10, "--depth-max", 5) == 2

    @pytest.mark.parametrize("flags", [("--length-min=-1", "--length-max=0.5"),
                                       ("--width-min=0",), ("--height-min=-1",)])
    def test_non_positive_dims_range(self, tmp_path, capsys, flags):
        assert synth(tmp_path / "s.jsonl", *flags) == 2
        assert "_range must be positive" in capsys.readouterr().err

    def test_bad_quantum(self, tmp_path):
        assert synth(tmp_path / "s.jsonl", "--noise", "pixel_quantization",
                     "--quantum-px", 0) == 2

    def test_missing_input_file(self, tmp_path):
        assert run("solve", "--in", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "e.jsonl") == 4

    def test_missing_labels_dir(self, tmp_path):
        assert run("labelgen", "--labels", tmp_path / "nope",
                   "--calib", DATA / "calib", "--out", tmp_path / "o.jsonl") == 4

    def test_bad_iou_min(self, tmp_path):
        assert run("eval-arde", "--detections", tmp_path / "d.jsonl",
                   "--ground-truth", tmp_path / "g.jsonl",
                   "--out", tmp_path / "r.json", "--iou-min", 1.5) == 2

    @pytest.mark.parametrize("flag", ["--depth-bands", "--gamma-bins-deg", "--noise-params"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_list_value(self, tmp_path, capsys, flag, value):
        assert run("sensitivity", "--seed", 1, "--trials", 5, "--out", tmp_path / "g.csv",
                   f"{flag}=5,{value},30") == 2
        assert f"{flag} values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_bin_edge(self, tmp_path, capsys, value):
        det_path, gt_path = TestEvalArde().write_inputs(tmp_path)
        assert run("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                   "--out", tmp_path / "r.json", f"--bin-edges-deg=-40,0,{value}") == 2
        assert "--bin-edges-deg values must be finite" in capsys.readouterr().err

    def test_zero_trials(self, tmp_path):
        assert run("sensitivity", "--seed", 1, "--trials", 0,
                   "--out", tmp_path / "g.csv") == 2

    def test_missing_output_dir(self, tmp_path):
        assert synth(tmp_path / "missing" / "deep" / "s.jsonl") == 4

    @pytest.mark.parametrize("error, code", [
        *((cls, 5) for cls in (NonPositiveDepth, ZeroHeight, DegenerateObservation,
                               UnobservableDistortion, AllDegenerate, NonPositiveSigma)),
        (ParseError, 3), (ConfigError, 2),
    ])
    def test_exit_code_by_type(self, tmp_path, capsys, monkeypatch, error, code):
        # the exit code follows the raised type; a degeneracy is any Degenerate
        assert (error in Degenerate.__subclasses__()) == (code == 5)
        assert issubclass(error, ValueError)

        def handler(args):
            raise error("no depth")

        monkeypatch.setattr(cli, "_cmd_synth", handler)
        assert synth(tmp_path / "s.jsonl") == code
        assert capsys.readouterr().err == "error: no depth\n"


def module_env():
    """The environment for a `python -m keyedge` subprocess: src first on the path."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)}


class TestModuleEntry:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "keyedge", "--help"], capture_output=True, text=True,
            env=module_env(),
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "sensitivity" in proc.stdout

    def test_module_synth_smoke(self, tmp_path):
        out = tmp_path / "scene.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "keyedge", "synth", "--count", "3", "--seed", "1",
             "--out", str(out)],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(read_jsonl(out)) == 3


    def test_runtime_imports_only_stdlib_and_numpy(self):
        # numpy is the one runtime dependency: importing the CLI, with no site
        # hooks, loads nothing beyond the standard library, keyedge and numpy
        import numpy

        code = (
            "import sys; sys.path[:0] = sys.argv[1:]; import keyedge.cli; "
            "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(REPO / "src"), str(Path(numpy.__file__).parent.parent)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {"keyedge", "numpy"} <= loaded
        assert loaded - set(sys.stdlib_module_names) <= {"__main__", "keyedge", "numpy"}


class TestBenchTracer:
    def test_install_binds_every_traced_name(self):
        # The traced benchmark run wraps named library functions; install()
        # raises when one of them is no longer bound anywhere.
        code = (
            "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import keyedge, keyedge.cli, tracing; tracing.install(keyedge)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(REPO / "src"), str(REPO / "bench")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def traced(*argv):
        """The tracer's report of one CLI run under the benchmark's traced worker."""
        code = (
            "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import keyedge, keyedge.cli, tracing; tracer = tracing.install(keyedge); "
            "rc = tracer.run(tracing.ROOT, keyedge.cli.main, (sys.argv[3:],), {}); "
            "print(json.dumps({'rc': rc, **tracer.report()}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(REPO / "src"), str(REPO / "bench"), *map(str, argv)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(proc.stdout.splitlines()[-1])
        assert trace["rc"] == 0
        return trace

    def test_traced_eval_arde_counts_per_frame(self, tmp_path):
        # The per-layer metrics of the benchmark's traced run: true positives
        # of the overall matching, calls of the matcher and of iou_2d.
        det_path, gt_path = write_two_frame_trap(tmp_path)
        trace = self.traced("eval-arde", "--detections", det_path, "--ground-truth", gt_path,
                            "--out", tmp_path / "r.json", "--bin-edges-deg=-40,0,40")
        assert trace["calls"]["dataio.read_jsonl"] == 2  # the record readers reach the span
        assert trace["counts"]["metrics.true_positives"] == 1  # 2 when pooled
        assert trace["calls"]["metrics.match_detections"] <= 2
        assert trace["counts"]["metrics.iou_2d"] > 0

    def test_traced_labelgen_builds_through_spans(self, tmp_path):
        # labelgen reaches the traced readers and writer, and builds its
        # records as columns, with no per-label projection or record
        trace = self.traced("labelgen", "--labels", DATA / "labels", "--calib", DATA / "calib",
                            "--out", tmp_path / "gt.jsonl")
        calls = trace["calls"]
        assert calls["dataio.parse_label_file"] == 2 and calls["dataio.parse_calib"] == 2
        assert calls["dataio.write_jsonl"] == 1
        assert "dataio.object_record" not in calls and "geometry.project_keyedges" not in calls
