"""Each check passes on the program's real output and rejects one corrupted value.

Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import keyedge.cli as cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(op):
    """Run one operation in this process and evaluate it as the benchmark does."""
    return run.evaluate(op, cli.main(op.argv))


def _passes(op):
    problems, fault = _run(op)
    assert problems == [] and fault == []


def _fails(op):
    problems, fault = run.evaluate(op, 0)
    assert problems or fault
    return problems, fault


def _corrupt_jsonl(path, line, key, factor=1.0 + 1e-4):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[line])
    rec[key] = rec[key] * factor
    lines[line] = json.dumps(rec)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    work = tmp_path_factory.mktemp("scene")
    wl = workloads.scene_solve(3, work, count=400)
    for op in wl.ops:
        _passes(op)
    return wl, work


@pytest.mark.parametrize("key", ["d_a", "d_c", "bbox_left", "bbox_bottom", "r_ab", "h_c",
                                 "sigma_bc", "gamma", "alpha", "z"])
def test_synth_check_rejects_one_corrupted_value(scene, key):
    wl, work = scene
    cli.main(wl.ops[0].argv)
    _corrupt_jsonl(work / "synth.jsonl", 17, key)
    _fails(wl.ops[0])


def test_synth_check_rejects_a_wrong_noise_level(scene):
    wl, work = scene
    cli.main(wl.ops[0].argv)
    problems = checks.check_synth(checks.read_jsonl(work / "synth.jsonl"), count=400, sigma_px=0.6,
                                  camera=workloads.CAMERA, **workloads.SCENE)
    assert any("residual std" in p for p in problems)


@pytest.mark.parametrize("key", ["d_fusion", "theta_fusion", "d_obj_b", "theta_c", "sigma_d_a",
                                 "weight_d", "z"])
def test_solve_check_rejects_one_corrupted_value(scene, key):
    wl, work = scene
    for op in wl.ops:
        _passes(op)
    _corrupt_jsonl(work / "solved.jsonl", 5, key)
    _fails(wl.ops[1])


def test_solve_reference_matches_closed_form_on_an_exact_pose():
    # A box seen head-on at yaw 30 deg: ratios from exact depths.
    length, width, theta, d_b = 4.0, 1.8, math.radians(30.0), 20.0
    d = {"a": d_b + width * math.cos(theta), "b": d_b, "c": d_b + length * math.sin(theta)}
    d["d"] = d["a"] + d["c"] - d["b"]
    ratios = {pq: np.array([d[pq[1]] / d[pq[0]]]) for pq in checks.STORED_RATIOS}
    sigmas = {pq: np.array([1e-3]) for pq in checks.STORED_RATIOS}
    ref = checks.solve_reference(ratios, sigmas, np.array([length]), np.array([width]))
    assert ref["usable"].all()
    assert np.allclose(ref["d_obj"], (d["a"] + d["c"]) / 2.0, rtol=1e-12)
    assert np.allclose(ref["theta"], theta, rtol=1e-12)
    assert ref["d_fusion"][0] == pytest.approx((d["a"] + d["c"]) / 2.0, rel=1e-12)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    work = tmp_path_factory.mktemp("grid")
    wl = workloads.sensitivity_grid(5, work)
    for _ in range(2):  # the second run is compared with the first
        for op in wl.ops:
            _passes(op)
    return wl, work


def _rewrite_csv_cell(path, row, column, value):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_sensitivity_check_rejects_bytes_that_differ_between_runs(grid):
    wl, work = grid
    op = wl.ops[0]
    cli.main(op.argv)
    path = work / "sensitivity-gaussian_height.csv"
    row = path.read_text().splitlines()[3].split(",")
    _rewrite_csv_cell(path, 2, "median_rel_depth_error", repr(float(row[9]) * 1.0001))
    _fails(op)


@pytest.mark.parametrize("column,value", [("mean_rel_depth_error", "0.0"), ("n_failed", "61"),
                                          ("trials", "59")])
def test_sensitivity_check_rejects_a_first_run_that_breaks_a_property(tmp_path, column, value):
    wl = workloads.sensitivity_grid(5, tmp_path)
    op = wl.ops[1]
    cli.main(op.argv)
    # the last row holds the highest noise level of its cell
    n_rows = len((tmp_path / "sensitivity-pixel_quantization.csv").read_text().splitlines()) - 1
    _rewrite_csv_cell(tmp_path / "sensitivity-pixel_quantization.csv", n_rows - 1, column, value)
    problems, _ = _fails(op)
    assert problems


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    work = tmp_path_factory.mktemp("frames")
    wl = workloads.arde_frames(11, work, n_frames=12)
    return wl, work


def test_labelgen_check_passes_and_rejects_one_corrupted_value(frames):
    wl, work = frames
    _passes(wl.ops[0])
    for key in ("z", "yaw", "bbox_right", "r_cd", "d_b"):
        cli.main(wl.ops[0].argv)
        _corrupt_jsonl(work / "ground_truth.jsonl", 9, key)
        _fails(wl.ops[0])
    cli.main(wl.ops[0].argv)


def test_pooled_matching_fails_as_the_known_fault_on_the_fixed_frames(frames):
    wl, work = frames
    cli.main(wl.ops[0].argv)
    problems, fault = _run(wl.ops[1])
    assert problems == []  # the report is what pooled matching gives
    assert fault  # and not what per-frame matching gives
    report = json.loads((work / "arde.json").read_text())
    report["arde"] *= 1.0001
    (work / "arde.json").write_text(json.dumps(report))
    problems, _ = run.evaluate(wl.ops[1], 0)
    assert problems  # a report neither matching explains makes the run incorrect


def _single_frame_files(wl, work, frame):
    det_lines = [line for line in (work / "detections.jsonl").read_text().splitlines()
                 if json.loads(line)["frame"] == frame]
    gt_lines = (work / "ground_truth.jsonl").read_text().splitlines()
    keep = np.flatnonzero(wl.truth["gt"]["frame"] == frame)
    (work / "one_det.jsonl").write_text("\n".join(det_lines) + "\n")
    (work / "one_gt.jsonl").write_text("\n".join(gt_lines[i] for i in keep) + "\n")
    det = {k: v[wl.truth["det"]["frame"] == frame] for k, v in wl.truth["det"].items()}
    gt = {k: v[keep] for k, v in wl.truth["gt"].items()}
    return det, gt


@pytest.mark.parametrize("corrupt", ["arde", "bin_arde", "bin_n_detections"])
def test_eval_arde_check_passes_per_frame_and_rejects_one_corrupted_value(frames, corrupt):
    wl, work = frames
    cli.main(wl.ops[0].argv)
    det, gt = _single_frame_files(wl, work, frame=4)
    report = work / "one.json"
    argv = ["eval-arde", "--detections", str(work / "one_det.jsonl"),
            "--ground-truth", str(work / "one_gt.jsonl"), "--out", str(report),
            "--bin-edges-deg=" + ",".join(map(repr, workloads.ARDE_BIN_EDGES_DEG))]
    assert cli.main(argv) == 0

    def verdict():
        return checks.check_eval_arde(report, det, gt, workloads.ARDE_IOU_MIN, wl.truth["bin_edges"])

    assert verdict() == ([], [])
    data = json.loads(report.read_text())
    populated = next(b for b in data["bins"] if b["arde"])
    if corrupt == "arde":
        data["arde"] *= 1.0001
    elif corrupt == "bin_arde":
        populated["arde"] *= 1.0001
    else:
        populated["n_detections"] += 1
    report.write_text(json.dumps(data))
    problems, fault = verdict()
    assert problems and fault


def test_run_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "scene_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_exact_per_round_counts():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "scene_solve",
         "--seed", "2", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    n = workloads.SCENE_COUNT
    assert metrics["uncertainty.fuse.calls"] == n
    assert metrics["recovery.solve_tuple.calls"] == 8 * n - metrics["recovery.tuples_skipped"]
    assert metrics["recovery.solve_tuple.per_tuple"] == metrics["recovery.solve_tuple.calls"] / (4 * n)
    assert metrics["metrics.iou_2d.calls"] == 0
    assert metrics["dataio.write_jsonl.bytes"] > metrics["dataio.read_jsonl.bytes"] > 0
