"""The seeded workloads: the inputs each writes, its operations and their checks.

A workload is one round of `keyedge` CLI operations.  A run repeats the
round, with the same inputs, until its measured time is used up, so every
round does the same work and the per-round counts of a traced run repeat
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Default KITTI-like camera, passed explicitly so the checks know it.
CAMERA = (721.5377, 609.5593, 172.854)
# The three KITTI P2 rows (focal, cx, cy) of the raw drives.
KITTI_CAMERAS = (CAMERA, (707.0493, 604.0814, 180.5066), (718.3351, 600.3891, 181.5122))

SCENE_COUNT = 8000
SCENE_SIGMA_PX = 0.5
SCENE = dict(
    depth_range=(5.0, 60.0), gamma_range_deg=(-40.0, 40.0), length_range=(3.2, 4.8),
    width_range=(1.4, 1.9), height_range=(1.3, 1.8), ground_y=1.65,
)

SENSITIVITY_TRIALS = 60
SENSITIVITY_BANDS = (5.0, 20.0, 40.0, 60.0)
SENSITIVITY_GAMMA_BINS_DEG = (-40.0, -20.0, 0.0, 20.0, 40.0)
# Levels four apart keep the mean error of 60 trials rising with the level:
# over 300 seeds the smallest rise between neighbours was 1.5x.
SENSITIVITY_LEVELS = {
    "gaussian_height": (0.05, 0.2, 0.8),
    "pixel_quantization": (0.1, 0.4, 1.6),
}

ARDE_FRAMES = 250
ARDE_CARS_PER_FRAME = 4
ARDE_DETECTED_SHARE = 0.9
ARDE_FALSE_POSITIVES_PER_FRAME = 0.25
ARDE_BOX_JITTER = 0.03
ARDE_DEPTH_JITTER = 0.05
ARDE_IOU_MIN = 0.7
ARDE_BIN_EDGES_DEG = (-40.0, 0.0, 40.0)
IMAGE_SIZE = (1242.0, 375.0)


@dataclass
class Op:
    """One CLI call of a round.

    check returns problems that make the run incorrect; fault returns
    problems explained by a known fault in the program.  Either fails the
    operation.
    """

    argv: list[str]
    objects: int
    check: Callable[[], list[str]]
    fault: Callable[[], list[str]] | None = None


@dataclass
class Workload:
    ops: list[Op]
    inputs: str  # make-up and size, for the run summary
    figures: dict = field(default_factory=dict)  # reference figures the checks record
    truth: dict = field(default_factory=dict)  # the benchmark's own account of its inputs


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _camera_flags(camera):
    focal, cx, cy = camera
    return ["--focal", repr(focal), "--cx", repr(cx), "--cy", repr(cy)]


def scene_solve(seed: int, work: Path, count: int = SCENE_COUNT) -> Workload:
    synth_out, solve_out = work / "synth.jsonl", work / "solved.jsonl"
    s = SCENE
    argv = [
        "synth", "--count", str(count), "--seed", str(seed), "--out", str(synth_out),
        "--noise", "gaussian_height", "--sigma-px", repr(SCENE_SIGMA_PX),
        f"--depth-min={s['depth_range'][0]!r}", f"--depth-max={s['depth_range'][1]!r}",
        f"--gamma-min-deg={s['gamma_range_deg'][0]!r}", f"--gamma-max-deg={s['gamma_range_deg'][1]!r}",
        f"--length-min={s['length_range'][0]!r}", f"--length-max={s['length_range'][1]!r}",
        f"--width-min={s['width_range'][0]!r}", f"--width-max={s['width_range'][1]!r}",
        f"--height-min={s['height_range'][0]!r}", f"--height-max={s['height_range'][1]!r}",
        f"--ground-y={s['ground_y']!r}", *_camera_flags(CAMERA),
    ]
    wl = Workload(ops=[], inputs=f"synth of {count} objects (seed {seed}, "
                                 f"gaussian_height {SCENE_SIGMA_PX} px), then solve")
    synthesized = []  # the synth records, which solve then reads

    def check_synth():
        synthesized[:] = checks.read_jsonl(synth_out)
        return checks.check_synth(synthesized, count=count, sigma_px=SCENE_SIGMA_PX, camera=CAMERA,
                                  **SCENE)

    wl.ops = [
        Op(argv, count, check_synth),
        Op(["solve", "--in", str(synth_out), "--out", str(solve_out)], count,
           lambda: checks.check_solve(synthesized, checks.read_jsonl(solve_out), wl.figures)),
    ]
    return wl


def sensitivity_grid(seed: int, work: Path) -> Workload:
    cells = (len(SENSITIVITY_BANDS) - 1) * (len(SENSITIVITY_GAMMA_BINS_DEG) - 1)
    wl = Workload(ops=[], inputs="")
    for kind, levels in SENSITIVITY_LEVELS.items():
        out = work / f"sensitivity-{kind}.csv"
        first: list[bytes] = []

        def check(out=out, kind=kind, levels=levels, first=first):
            data = out.read_bytes()
            problems = checks.check_sensitivity(
                data, first[0] if first else None, kind=kind, params=levels,
                bands=SENSITIVITY_BANDS, gamma_bins_deg=SENSITIVITY_GAMMA_BINS_DEG,
                trials=SENSITIVITY_TRIALS, figures=wl.figures)
            if not first:
                first.append(data)
            return problems

        argv = [
            "sensitivity", "--seed", str(seed), "--trials", str(SENSITIVITY_TRIALS),
            "--out", str(out), "--noise", kind,
            "--noise-params=" + ",".join(map(repr, levels)),
            "--depth-bands=" + ",".join(map(repr, SENSITIVITY_BANDS)),
            "--gamma-bins-deg=" + ",".join(map(repr, SENSITIVITY_GAMMA_BINS_DEG)),
            *_camera_flags(CAMERA),
        ]
        wl.ops.append(Op(argv, len(levels) * cells * SENSITIVITY_TRIALS, check))
    wl.inputs = (f"sensitivity, seed {seed}, {SENSITIVITY_TRIALS} trials x {cells} cells x 3 levels, "
                 f"once per noise kind")
    return wl


# ---------------------------------------------------------------------------
# arde_frames: KITTI label and calib files plus detections.


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _car(x, y_bottom, z, h, w, l, ry):
    """A label as written (2-decimal KITTI precision) and parsed back."""
    text = dict(h=_fmt(h), w=_fmt(w), l=_fmt(l), x=_fmt(x), y=_fmt(y_bottom), z=_fmt(z), ry=_fmt(ry))
    return {k: float(v) for k, v in text.items()}


def _label_line(car, camera):
    _, box = checks.box_geometry(car["x"], car["y"] - car["h"] / 2.0, car["z"], car["l"], car["w"],
                                 car["h"], car["ry"], *camera)
    alpha = float(checks.wrap_angle(car["ry"] - math.atan2(car["x"], car["z"])))
    fields = ["Car", "0.00", "0", _fmt(alpha), *map(_fmt, box[0]),
              _fmt(car["h"]), _fmt(car["w"]), _fmt(car["l"]),
              _fmt(car["x"]), _fmt(car["y"]), _fmt(car["z"]), _fmt(car["ry"])]
    return " ".join(fields), box[0]


def _calib_text(camera):
    f, cx, cy = camera
    p2 = [f, 0.0, cx, 44.85728, 0.0, f, cy, 0.2163791, 0.0, 0.0, 1.0, 0.002745884]
    p0 = [f, 0.0, cx, 0.0, 0.0, f, cy, 0.0, 0.0, 0.0, 1.0, 0.0]
    rows = [("P0:", p0), ("P1:", p0), ("P2:", p2), ("P3:", p0),
            ("R0_rect:", [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])]
    return "".join(f"{name} {' '.join(f'{v:.12e}' for v in vals)}\n" for name, vals in rows)


def _trap_frames():
    """Two fixed frames that make pooled matching fail for every seed.

    Frame 0 holds car A; frame 1 holds car B, A scaled by 1.5 about the
    camera and moved 0.3 m right, so its box is nearly A's and its depth is
    half again A's.  The only detection is frame 1's, placed exactly on A's
    box with the top confidence: within frame 1 it matches B (IoU about
    0.9); across the pooled file it takes A first.
    """
    a = _car(-2.91, 1.65, 8.0, 1.40, 1.50, 3.60, 0.30)
    s = 1.5
    b = _car(a["x"] * s + 0.3, a["y"] * s, a["z"] * s, a["h"] * s, a["w"] * s, a["l"] * s, a["ry"])
    return [[a], [b]]


def _random_frames(rng, n_frames):
    frames = []
    for _ in range(n_frames):
        cars = []
        for _ in range(ARDE_CARS_PER_FRAME):
            z = rng.uniform(6.0, 50.0)
            gamma = rng.uniform(math.radians(-35.0), math.radians(35.0))
            cars.append(_car(z * math.tan(gamma), 1.65 + rng.uniform(-0.1, 0.1), z,
                             rng.uniform(1.3, 1.8), rng.uniform(1.4, 1.9), rng.uniform(3.2, 4.8),
                             rng.uniform(-math.pi, math.pi)))
        frames.append(cars)
    return frames


def arde_frames(seed: int, work: Path, n_frames: int = ARDE_FRAMES) -> Workload:
    rng = _rng(seed, "arde_frames")
    frames = _trap_frames() + _random_frames(rng, n_frames - 2)
    cameras = [CAMERA, CAMERA] + [KITTI_CAMERAS[i] for i in rng.integers(0, 3, n_frames - 2)]
    labels, calib = work / "label_2", work / "calib"
    labels.mkdir()
    calib.mkdir()
    objects, gt_box = [], []
    for f, (cars, camera) in enumerate(zip(frames, cameras)):
        lines = []
        for car in cars:
            line, box = _label_line(car, camera)
            lines.append(line)
            objects.append(dict(car, frame=f))
            gt_box.append(box)
        # KITTI marks unlabelled regions with DontCare rows, which labelgen skips
        lines.append("DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10")
        (labels / f"{f:06d}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (calib / f"{f:06d}.txt").write_text(_calib_text(camera), encoding="utf-8")
    gt = {
        "box": np.array(gt_box),
        "d": np.array([o["z"] for o in objects]),
        "gamma": np.array([math.atan2(o["x"], o["z"]) for o in objects]),
        "frame": np.array([o["frame"] for o in objects]),
    }

    # Detections: a fixed share of the seeded cars, jittered, plus false positives.
    dets = [dict(frame=1, box=gt["box"][0], conf=0.999, d=objects[1]["z"], gamma=gt["gamma"][1])]
    seeded = np.flatnonzero(gt["frame"] >= 2)
    found = np.sort(rng.choice(seeded, round(ARDE_DETECTED_SHARE * len(seeded)), replace=False))
    for j in found:
        box = gt["box"][j]
        size = np.array([box[2] - box[0], box[3] - box[1]] * 2)
        jittered = box + rng.normal(0.0, ARDE_BOX_JITTER, 4) * size
        if not (jittered[0] < jittered[2] and jittered[1] < jittered[3]):
            jittered = box
        dets.append(dict(frame=int(gt["frame"][j]), box=jittered, conf=rng.uniform(0.0, 0.99),
                         d=gt["d"][j] * (1.0 + rng.normal(0.0, ARDE_DEPTH_JITTER)),
                         gamma=gt["gamma"][j] + rng.normal(0.0, 0.01)))
    n_fp = round(ARDE_FALSE_POSITIVES_PER_FRAME * (n_frames - 2))
    for f in rng.choice(np.arange(2, n_frames), n_fp, replace=False):
        focal, cx, _ = cameras[f]
        width, height = rng.uniform(40.0, 250.0), rng.uniform(30.0, 150.0)
        left, top = rng.uniform(0.0, IMAGE_SIZE[0] - width), rng.uniform(100.0, IMAGE_SIZE[1] - height)
        dets.append(dict(frame=int(f), box=np.array([left, top, left + width, top + height]),
                         conf=rng.uniform(0.0, 0.99), d=rng.uniform(5.0, 60.0),
                         gamma=math.atan2(left + width / 2.0 - cx, focal)))
    dets.sort(key=lambda d: d["frame"])
    det_path = work / "detections.jsonl"
    with open(det_path, "w", encoding="utf-8") as fh:
        for d in dets:
            left, top, right, bottom = map(float, d["box"])
            fh.write(json.dumps({
                "frame": d["frame"], "bbox_left": left, "bbox_top": top, "bbox_right": right,
                "bbox_bottom": bottom, "confidence": float(d["conf"]), "d_est": float(d["d"]),
                "gamma_est": float(d["gamma"]),
            }) + "\n")
    det = {key: np.array([d[key] for d in dets]) for key in ("box", "conf", "d", "gamma", "frame")}

    gt_out, report = work / "ground_truth.jsonl", work / "arde.json"
    edges = [math.radians(v) for v in ARDE_BIN_EDGES_DEG]
    verdict = {}

    def check_arde():
        problems, verdict["fault"] = checks.check_eval_arde(report, det, gt, ARDE_IOU_MIN, edges)
        if "pooled_true_positives" not in wl.figures:
            tp, crossed = checks.pooled_cross_frame_matches(det, gt, ARDE_IOU_MIN)
            wl.figures.update(pooled_true_positives=tp, cross_frame_true_positives=crossed)
        return problems

    camera_of = dict(enumerate(cameras))
    n_gt = len(objects)
    wl = Workload(
        ops=[
            Op(["labelgen", "--labels", str(labels), "--calib", str(calib), "--out", str(gt_out)],
               n_gt, lambda: checks.check_labelgen(checks.read_jsonl(gt_out), objects, camera_of)),
            Op(["eval-arde", "--detections", str(det_path), "--ground-truth", str(gt_out),
                "--out", str(report), f"--iou-min={ARDE_IOU_MIN!r}",
                "--bin-edges-deg=" + ",".join(map(repr, ARDE_BIN_EDGES_DEG))],
               n_gt, check_arde, lambda: verdict.pop("fault", [])),
        ],
        inputs=f"{n_frames} frames, {n_gt} cars, {len(dets)} detections (seed {seed})",
        truth={"det": det, "gt": gt, "bin_edges": edges},
    )
    return wl


WORKLOADS = {
    "scene_solve": scene_solve,
    "sensitivity_grid": sensitivity_grid,
    "arde_frames": arde_frames,
}
