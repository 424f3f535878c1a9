"""Checks of keyedge outputs against computations made apart from the program.

Nothing here imports keyedge.  Each check re-derives what an output must
hold from the inputs the benchmark chose, with its own construction:

- box geometry from a BEV rotation matrix applied to the local corners;
- the closed-form inversion from the depth relations
  d_a = d_b + w cos(theta), d_c = d_b + l sin(theta) and the rectangle
  identity d_a + d_c = d_b + d_d, with depth partials by complex-step
  differentiation instead of the program's closed-form partials;
- ARDE from numpy IoU matrices, matched greedily within each frame (the
  KITTI protocol) or across the pooled file.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

LETTERS = "abcd"
STORED_RATIOS = ("ab", "bc", "cd", "da")  # r_pq = h_p / h_q as the records store them
MIN_DISTORTION = 1e-10  # below this a tuple carries no depth (keyedge.recovery)

# (cw, cl) with d_k - d_b = cw * W cos(theta) + cl * L sin(theta).
OFFSET_FROM_B = {"a": (1, 0), "b": (0, 0), "c": (0, 1), "d": (1, 1)}
# Local BEV corner coordinates (forward, left) in units of (length / 2, width / 2).
LOCAL_CORNERS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]])

REL_TOL = 1e-9
BOX_TOL_PX = 1e-6


def wrap_angle(angle):
    """Wrap to [-pi, pi)."""
    return (np.asarray(angle) + math.pi) % (2.0 * math.pi) - math.pi


def angle_gap(a, b):
    return np.abs(wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def box_geometry(x, y, z, length, width, height, yaw, focal, cx, cy):
    """Corner depths (N, 4) in a, b, c, d order and the tight pixel box (N, 4).

    The BEV rotation R(yaw) = [[cos, sin], [-sin, cos]] maps the local
    (forward, left) axes to camera (x, z); corner a is front-left and the
    letters run clockwise seen from above.
    """
    x, y, z, length, width, height, yaw = (
        np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y, z, length, width, height, yaw)
    )
    cos_t, sin_t = np.cos(yaw), np.sin(yaw)
    rot = np.stack([np.stack([cos_t, sin_t], -1), np.stack([-sin_t, cos_t], -1)], -2)  # (N, 2, 2)
    local = LOCAL_CORNERS[None, :, :] * np.stack([length / 2.0, width / 2.0], -1)[:, None, :]
    bev = np.einsum("nij,nkj->nki", rot, local) + np.stack([x, z], -1)[:, None, :]  # (N, 4, 2)
    cx_, cz_ = bev[..., 0], bev[..., 1]
    u = cx + focal * cx_ / cz_
    v_bottom = cy + focal * (y + height / 2.0)[:, None] / cz_
    v_top = cy + focal * (y - height / 2.0)[:, None] / cz_
    box = np.stack([u.min(1), v_top.min(1), u.max(1), v_bottom.max(1)], -1)
    return cz_, box


def allocentric(yaw, x, z):
    """(gamma, alpha, group) for poses, group = quarter of alpha on [-pi, pi)."""
    gamma = np.arctan2(x, z)
    alpha = wrap_angle(np.asarray(yaw) - gamma)
    group = np.clip(np.floor((alpha + math.pi) / (math.pi / 2.0)), 0, 3).astype(int)
    return gamma, alpha, group


def _column(records, key):
    return np.array([rec[key] for rec in records], dtype=float)


def _compare(problems, name, got, want, rtol=REL_TOL, atol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        problems.append(
            f"{name}: {int(bad.sum())} values differ, first at {i}: "
            f"{got.ravel()[i]!r} != {want.ravel()[i]!r}"
        )


def _compare_angle(problems, name, got, want, tol=REL_TOL):
    bad = ~(angle_gap(got, want) <= tol)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        problems.append(f"{name}: {int(bad.sum())} angles differ, first at {i}")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _pose_problems(records, camera, prefix):
    """Depths, heights, ratios, box and angles of pose records against geometry."""
    problems = []
    focal, cx, cy = camera
    pose = {k: _column(records, k) for k in ("x", "y", "z", "length", "width", "height", "yaw")}
    depths, box = box_geometry(**pose, focal=focal, cx=cx, cy=cy)
    for j, k in enumerate(LETTERS):
        _compare(problems, f"{prefix} d_{k}", _column(records, f"d_{k}"), depths[:, j])
    for j, side in enumerate(("left", "top", "right", "bottom")):
        _compare(problems, f"{prefix} bbox_{side}", _column(records, f"bbox_{side}"), box[:, j],
                 rtol=0.0, atol=BOX_TOL_PX)
    gamma, alpha, group = allocentric(pose["yaw"], pose["x"], pose["z"])
    _compare_angle(problems, f"{prefix} gamma", _column(records, "gamma"), gamma)
    _compare_angle(problems, f"{prefix} alpha", _column(records, "alpha"), alpha)
    if not np.array_equal(_column(records, "group"), group):
        problems.append(f"{prefix} group: allocentric quarter differs")
    heights = np.stack([_column(records, f"h_{k}") for k in LETTERS], -1)
    for j, (p, q) in enumerate(STORED_RATIOS):
        want = heights[:, LETTERS.index(p)] / heights[:, LETTERS.index(q)]
        _compare(problems, f"{prefix} r_{p}{q}", _column(records, f"r_{p}{q}"), want, rtol=1e-12)
    clean = focal * pose["height"][:, None] / depths
    return problems, pose, heights, clean


def check_synth(records, *, count, sigma_px, camera, depth_range, gamma_range_deg,
                length_range, width_range, height_range, ground_y):
    """The records of a `synth --noise gaussian_height` file against its pose fields and flags."""
    if len(records) != count:
        return [f"synth: {len(records)} records, expected {count}"]
    if [rec.get("index") for rec in records] != list(range(count)):
        return ["synth: indices are not 0..count-1 in order"]
    problems, pose, heights, clean = _pose_problems(records, camera, "synth")
    for name, (lo, hi) in (("z", depth_range), ("length", length_range),
                           ("width", width_range), ("height", height_range)):
        if not ((pose[name] >= lo) & (pose[name] <= hi)).all():
            problems.append(f"synth {name}: outside [{lo}, {hi}]")
    gamma = np.arctan2(pose["x"], pose["z"])
    lo, hi = (math.radians(v) for v in gamma_range_deg)
    if not ((gamma >= lo - 1e-12) & (gamma <= hi + 1e-12)).all():
        problems.append("synth: viewing angle outside the requested range")
    _compare(problems, "synth y", pose["y"], ground_y - pose["height"] / 2.0, rtol=1e-12)
    if not ((pose["yaw"] >= -math.pi) & (pose["yaw"] < math.pi)).all():
        problems.append("synth yaw: outside [-pi, pi)")

    for p, q in STORED_RATIOS:
        hp, hq = heights[:, LETTERS.index(p)], heights[:, LETTERS.index(q)]
        want = (hp / hq) * sigma_px * np.sqrt(1.0 / hp**2 + 1.0 / hq**2)
        _compare(problems, f"synth sigma_{p}{q}", _column(records, f"sigma_{p}{q}"), want)
    residual = (heights - clean).ravel()
    n = residual.size
    # The sample deviation of n normal draws has relative spread 1/sqrt(2n);
    # six of those happen by chance about once in 10^9 checks.
    if abs(residual.std() / sigma_px - 1.0) > 6.0 / math.sqrt(2.0 * n):
        problems.append(f"synth: height residual std {residual.std():.6g} px != --sigma-px {sigma_px}")
    if abs(residual.mean()) > 6.0 * sigma_px / math.sqrt(n):
        problems.append(f"synth: height residual mean {residual.mean():.6g} px is not zero")
    return problems


def _ratio(r, k, n):
    """d_n / d_k = h_k / h_n from the four stored ratios (complex-safe)."""
    key = k + n
    return r[key] if key in r else 1.0 / r[n + k]


# For each reference k: (its neighbour across the width, sign), (its neighbour
# along the length, sign), read off d_a - d_b = W cos(theta),
# d_c - d_b = L sin(theta), d_d - d_c = W cos(theta), d_d - d_a = L sin(theta).
NEIGHBOURS = {
    "a": (("b", -1), ("d", 1)),
    "b": (("a", 1), ("c", 1)),
    "c": (("d", 1), ("b", -1)),
    "d": (("c", -1), ("a", -1)),
}


def invert_reference(r, k, length, width):
    """(theta, d_ref, d_obj, distortion) for reference keyedge k.

    r maps "ab", "bc", "cd", "da" to the stored ratios (real or complex).
    With (n_w, s_w) the neighbour across the width, d_nw / d_k - 1 =
    s_w * W cos(theta) / d_k, and likewise along the length with sin(theta).
    """
    (n_w, s_w), (n_l, s_l) = NEIGHBOURS[k]
    e_w = _ratio(r, k, n_w) - 1.0
    e_l = _ratio(r, k, n_l) - 1.0
    cos_over_d = e_w / (s_w * width)
    sin_over_d = e_l / (s_l * length)
    d_ref = 1.0 / np.sqrt(cos_over_d**2 + sin_over_d**2)
    cos_t, sin_t = cos_over_d * d_ref, sin_over_d * d_ref
    cw, cl = OFFSET_FROM_B[k]
    d_b = d_ref - width * cos_t * cw - length * sin_t * cl
    d_obj = d_b + 0.5 * (width * cos_t + length * sin_t)  # (d_a + d_c) / 2
    theta = np.arctan2(np.real(sin_t), np.real(cos_t))
    distortion = np.maximum(np.abs(np.real(e_w)), np.abs(np.real(e_l)))
    return theta, d_ref, d_obj, distortion


def solve_reference(ratios, sigmas, length, width):
    """Per-reference and fused estimates from stored ratios and their sigmas.

    ratios and sigmas map "ab".. to (N,) arrays.  Returns a dict of (N, 4)
    arrays (theta, d_obj, sigma_d, weight; NaN where a tuple is skipped), the
    usable mask, and the fused (N,) depth and yaw.
    """
    n = len(length)
    theta = np.full((n, 4), np.nan)
    d_obj = np.full((n, 4), np.nan)
    sigma_d = np.zeros((n, 4))
    usable = np.zeros((n, 4), dtype=bool)
    reason = np.full((n, 4), "", dtype=object)
    step = 1e-30
    for j, k in enumerate(LETTERS):
        t, _, d, distortion = invert_reference(ratios, k, length, width)
        theta[:, j], d_obj[:, j] = t, d
        for key in STORED_RATIOS:
            bumped = dict(ratios)
            bumped[key] = ratios[key] + 1j * step
            _, _, d_c, _ = invert_reference(bumped, k, length, width)
            sigma_d[:, j] += np.abs(np.imag(d_c) / step) * sigmas[key]
        observable = distortion >= MIN_DISTORTION
        usable[:, j] = observable & (d > 0.0)
        reason[~observable, j] = "unobservable distortion"
        reason[observable & ~(d > 0.0), j] = "non-positive center depth"
    inv = np.where(usable, 1.0 / np.where(usable, sigma_d, 1.0), 0.0)
    weight = inv / inv.sum(1, keepdims=True)
    d_fusion = np.nansum(np.where(usable, weight * d_obj, 0.0), 1)
    theta_fusion = np.arctan2(
        np.where(usable, weight * np.sin(theta), 0.0).sum(1),
        np.where(usable, weight * np.cos(theta), 0.0).sum(1),
    )
    return {
        "theta": np.where(usable, theta, np.nan),
        "d_obj": np.where(usable, d_obj, np.nan),
        "sigma_d": np.where(usable, sigma_d, np.nan),
        "weight": np.where(usable, weight, np.nan),
        "usable": usable,
        "reason": reason,
        "d_fusion": d_fusion,
        "theta_fusion": wrap_angle(theta_fusion),
    }


def _nullable_column(records, key):
    return np.array([np.nan if rec[key] is None else rec[key] for rec in records], dtype=float)


def check_solve(inputs, outputs, figures=None):
    """The records of a `solve` file against a numpy inversion of the records it read."""
    if len(outputs) != len(inputs):
        return [f"solve: {len(outputs)} records for {len(inputs)} inputs"]
    problems = []
    for key in ("index", "class_name", "z", "length", "width"):
        if any(o.get(key) != i.get(key) for i, o in zip(inputs, outputs)):
            problems.append(f"solve: field {key} is not carried through")
    if any(o.get("theta_fusion_rule") != "weighted_circular_mean" for o in outputs):
        problems.append("solve: theta_fusion_rule is not weighted_circular_mean")
    ratios = {key: _column(inputs, "r_" + key) for key in STORED_RATIOS}
    sigmas = {key: _column(inputs, "sigma_" + key) for key in STORED_RATIOS}
    ref = solve_reference(ratios, sigmas, _column(inputs, "length"), _column(inputs, "width"))
    for j, k in enumerate(LETTERS):
        got_null = np.array([o.get(f"d_obj_{k}") is None for o in outputs])
        if not np.array_equal(got_null, ~ref["usable"][:, j]):
            problems.append(f"solve: tuple {k} kept or skipped against the reference")
            continue
        keep = ref["usable"][:, j]
        kept = [o for o, u in zip(outputs, keep) if u]
        _compare_angle(problems, f"solve theta_{k}", _column(kept, f"theta_{k}"), ref["theta"][keep, j])
        for name in ("d_obj", "sigma_d"):
            _compare(problems, f"solve {name}_{k}", _column(kept, f"{name}_{k}"), ref[name][keep, j])
        _compare(problems, f"solve weight_{k}", _column(kept, f"weight_{k}"), ref["weight"][keep, j],
                 rtol=0.0, atol=1e-9)
    skipped = [
        ";".join(f"{k}:{ref['reason'][i, j]}" for j, k in enumerate(LETTERS) if not ref["usable"][i, j])
        for i in range(len(inputs))
    ]
    if [o.get("skipped") for o in outputs] != skipped:
        problems.append("solve: skipped field differs from the reference")
    d_fusion = _nullable_column(outputs, "d_fusion")
    _compare(problems, "solve d_fusion", d_fusion, ref["d_fusion"])
    _compare_angle(problems, "solve theta_fusion", _column(outputs, "theta_fusion"), ref["theta_fusion"])
    if figures is not None:
        z = _column(inputs, "z")
        figures["median_rel_depth_error"] = float(np.median(np.abs(d_fusion - z) / z))
    return problems


SENSITIVITY_COLUMNS = (
    "noise_kind", "noise_param", "depth_min", "depth_max", "gamma_min_deg", "gamma_max_deg",
    "trials", "n_failed", "mean_rel_depth_error", "median_rel_depth_error",
)


def check_sensitivity(data: bytes, first: bytes | None, *, kind, params, bands, gamma_bins_deg,
                      trials, figures=None):
    """A `sensitivity` CSV: grid coverage, counts, monotone error, repeatability.

    first holds the bytes of the first run with the same seed, or None for
    the first run itself.
    """
    problems = []
    if first is not None and data != first:
        problems.append("sensitivity: output bytes differ from the first run with this seed")
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    missing = [c for c in SENSITIVITY_COLUMNS if rows and c not in rows[0]]
    if missing:
        return problems + [f"sensitivity: missing columns {missing}"]
    band_pairs = list(zip(bands, bands[1:]))
    bin_pairs = list(zip(gamma_bins_deg, gamma_bins_deg[1:]))
    expected = {
        (float(p), float(b[0]), float(b[1]), float(g[0]), float(g[1]))
        for p in params for b in band_pairs for g in bin_pairs
    }
    if len(rows) != len(expected):
        problems.append(f"sensitivity: {len(rows)} rows, expected {len(expected)}")
    by_cell = {}
    for row in rows:
        key = tuple(float(row[c]) for c in ("noise_param", "depth_min", "depth_max",
                                             "gamma_min_deg", "gamma_max_deg"))
        if key not in expected or key in by_cell:
            problems.append(f"sensitivity: unexpected or repeated cell {key}")
            continue
        by_cell[key] = row
        if row["noise_kind"] != kind:
            problems.append(f"sensitivity: noise_kind {row['noise_kind']!r} in a {kind} run")
        n_failed = int(row["n_failed"])
        if int(row["trials"]) != trials or not 0 <= n_failed <= trials:
            problems.append(f"sensitivity: cell {key} has trials {row['trials']}, n_failed {n_failed}")
        if n_failed < trials:
            for c in ("mean_rel_depth_error", "median_rel_depth_error"):
                try:
                    value = float(row[c])
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and value >= 0.0):
                    problems.append(f"sensitivity: cell {key} has {c} {row[c]!r}")
    for b in band_pairs:
        for g in bin_pairs:
            cells = [by_cell.get((float(p), *map(float, b), *map(float, g))) for p in sorted(params)]
            means = [float(c["mean_rel_depth_error"]) for c in cells
                     if c is not None and c["mean_rel_depth_error"] != ""]
            if any(hi < lo for lo, hi in zip(means, means[1:])):
                problems.append(f"sensitivity: mean error falls with noise in band {b}, bin {g}: {means}")
    if figures is not None and rows:
        figures[f"median_rel_depth_error.{kind}"] = float(
            np.median([float(r["median_rel_depth_error"]) for r in rows if r["median_rel_depth_error"]])
        )
    return problems


def check_labelgen(records, objects, camera_of):
    """labelgen records against the label values the benchmark wrote.

    objects: the written non-DontCare labels in file then line order, each a
    dict with frame, h, w, l, x, y (bottom), z, ry as parsed back from the
    text; camera_of maps frame to (focal, cx, cy).
    """
    if len(records) != len(objects):
        return [f"labelgen: {len(records)} records for {len(objects)} labels"]
    problems = []
    if [r.get("index") for r in records] != list(range(len(objects))):
        problems.append("labelgen: indices are not 0..n-1 in label order")
    if any(r.get("class_name") != "Car" for r in records):
        problems.append("labelgen: class_name is not Car")
    if any(f"sigma_{k}" in r for r in records for k in STORED_RATIOS):
        problems.append("labelgen: records carry sigma fields")
    want = {
        "x": [o["x"] for o in objects],
        "y": [o["y"] - o["h"] / 2.0 for o in objects],
        "z": [o["z"] for o in objects],
        "length": [o["l"] for o in objects],
        "width": [o["w"] for o in objects],
        "height": [o["h"] for o in objects],
        "yaw": [o["ry"] for o in objects],
    }
    for key, values in want.items():
        _compare(problems, f"labelgen {key}", _column(records, key), values, rtol=1e-12)
    for frame in sorted({o["frame"] for o in objects}):
        rows = [r for r, o in zip(records, objects) if o["frame"] == frame]
        sub, pose, heights, clean = _pose_problems(rows, camera_of[frame], f"labelgen {frame}")
        _compare(sub, f"labelgen {frame} heights", heights, clean, rtol=1e-9)
        problems += sub
        if len(problems) > 20:
            break
    return problems


# ---------------------------------------------------------------------------
# ARDE, matched within frames (KITTI) or across the pooled file.


def iou_row(box, boxes):
    """IoU of one (left, top, right, bottom) box against an (M, 4) array."""
    left = np.maximum(box[0], boxes[:, 0])
    top = np.maximum(box[1], boxes[:, 1])
    right = np.minimum(box[2], boxes[:, 2])
    bottom = np.minimum(box[3], boxes[:, 3])
    inter = np.maximum(0.0, right - left) * np.maximum(0.0, bottom - top)
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    union = area + areas - inter
    return np.where(union > 0.0, inter / np.where(union > 0.0, union, 1.0), 0.0)


def greedy_match(det, gt, iou_min):
    """Matched GT index per detection (-1 for a false positive), and the visiting order.

    Detections are visited by descending confidence, ties in input order;
    each claims the unmatched GT of its own frame with the highest IoU
    (first on ties), if that IoU reaches iou_min.
    """
    order = np.lexsort((np.arange(len(det["conf"])), -det["conf"]))
    match = np.full(len(order), -1)
    by_frame = {}
    for j, f in enumerate(gt["frame"]):
        by_frame.setdefault(f, []).append(j)
    by_frame = {f: np.array(js) for f, js in by_frame.items()}
    free = {f: np.ones(len(js), dtype=bool) for f, js in by_frame.items()}
    for i in order:
        js = by_frame.get(det["frame"][i])
        if js is None:
            continue
        overlap = np.where(free[det["frame"][i]], iou_row(det["box"][i], gt["box"][js]), 0.0)
        best = int(np.argmax(overlap))
        if overlap[best] > 0.0 and overlap[best] >= iou_min:
            free[det["frame"][i]][best] = False
            match[i] = js[best]
    return match, order


def arde_value(det, gt, iou_min, recall_points=40):
    """Mean over recall targets k/R of the suffix-max envelope of mean relative depth error."""
    match, order = greedy_match(det, gt, iou_min)
    visit = match[order]
    tp = visit >= 0
    err = np.where(tp, np.abs(det["d"][order] - gt["d"][np.maximum(visit, 0)])
                   / gt["d"][np.maximum(visit, 0)], 0.0)
    tp_count = np.cumsum(tp)
    err_sum = np.cumsum(err)
    conf = det["conf"][order]
    ends = np.append(conf[1:] != conf[:-1], True) & (tp_count > 0)
    recall = tp_count[ends] / len(gt["d"])
    score = err_sum[ends] / tp_count[ends]
    envelope = np.zeros(recall_points)
    for k in range(recall_points):
        reach = np.flatnonzero(recall >= (k + 1) / recall_points)
        if reach.size:
            envelope[k] = score[reach[0]]
    envelope = np.maximum.accumulate(envelope[::-1])[::-1]
    return float(envelope.sum() / recall_points), match


def _pooled(arrays):
    """The same boxes with every frame identity dropped."""
    return dict(arrays, frame=np.zeros(len(arrays["d"]), dtype=int))


def pooled_cross_frame_matches(det, gt, iou_min):
    """(true positives, those matched to another frame's GT) of pooled matching."""
    match, _ = greedy_match(_pooled(det), _pooled(gt), iou_min)
    tp = match >= 0
    return int(tp.sum()), int((det["frame"][tp] != gt["frame"][match[tp]]).sum())


def _subset(arrays, mask):
    return {k: v[mask] for k, v in arrays.items()}


def arde_reference(det, gt, iou_min, bin_edges_rad, pooled=False):
    """ARDE overall and per viewing-angle bin, as the report lays them out.

    det: dict of arrays box (D, 4), conf, d, gamma, frame; gt: box, d,
    gamma, frame.  pooled=True ignores frames, reproducing a matcher that
    pools every box of the file.
    """
    if pooled:
        det, gt = _pooled(det), _pooled(gt)
    value, match = arde_value(det, gt, iou_min)
    edges = np.asarray(bin_edges_rad)

    def bin_of(gamma):
        inside = (gamma >= edges[0]) & (gamma < edges[-1])
        return np.where(inside, np.searchsorted(edges, gamma, side="right") - 1, -1)

    gt_bin = bin_of(gt["gamma"])
    det_bin = np.where(match >= 0, gt_bin[np.maximum(match, 0)], bin_of(det["gamma"]))
    bins = []
    for b in range(len(edges) - 1):
        sub_gt, sub_det = _subset(gt, gt_bin == b), _subset(det, det_bin == b)
        n_gt = len(sub_gt["d"])
        bins.append({
            "gamma_min": float(edges[b]),
            "gamma_max": float(edges[b + 1]),
            "arde": arde_value(sub_det, sub_gt, iou_min)[0] if n_gt else None,
            "n_ground_truth": n_gt,
            "n_detections": len(sub_det["d"]),
        })
    return {"arde": value, "n_detections": len(det["d"]), "n_ground_truth": len(gt["d"]),
            "bins": bins}


def report_differences(report, ref, rtol=1e-9):
    """Where an eval-arde report differs from a reference; empty when equal."""
    problems = []

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        return abs(a - b) <= rtol * max(abs(b), 1e-300)

    if not close(report.get("arde"), ref["arde"]):
        problems.append(f"arde {report.get('arde')!r} != {ref['arde']!r}")
    bins = report.get("bins") or []
    if len(bins) != len(ref["bins"]):
        return problems + [f"{len(bins)} bins, expected {len(ref['bins'])}"]
    for i, (got, want) in enumerate(zip(bins, ref["bins"])):
        for key in ("n_ground_truth", "n_detections"):
            if got.get(key) != want[key]:
                problems.append(f"bin {i} {key} {got.get(key)!r} != {want[key]!r}")
        for key in ("gamma_min", "gamma_max", "arde"):
            if not close(got.get(key), want[key]):
                problems.append(f"bin {i} {key} {got.get(key)!r} != {want[key]!r}")
    return problems


def check_eval_arde(report_path, det, gt, iou_min, bin_edges_rad):
    """(problems, fault): problems when the report matches neither the per-frame
    nor the pooled reference; fault when it differs from the per-frame one.
    """
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"eval-arde: unreadable report: {err}"], []
    problems = []
    for key, want in (("iou_min", iou_min), ("recall_points", 40),
                      ("n_detections", len(det["d"])), ("n_ground_truth", len(gt["d"]))):
        if report.get(key) != want:
            problems.append(f"eval-arde: {key} {report.get(key)!r} != {want!r}")
    per_frame = report_differences(report, arde_reference(det, gt, iou_min, bin_edges_rad))
    if per_frame:
        pooled = report_differences(report, arde_reference(det, gt, iou_min, bin_edges_rad, pooled=True))
        if pooled:
            problems.append("eval-arde: report matches neither the per-frame nor the pooled "
                            f"reference: {per_frame[:3]}")
    fault = [f"eval-arde: differs from per-frame matching: {per_frame[:3]}"] if per_frame else []
    return problems, fault
