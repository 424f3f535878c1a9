"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way and shares no
code with the package: matrix-based corner construction, explicit distance
argmins, finite differences, and an exhaustive recall-sweep enumeration.
"""

from __future__ import annotations

import math

import numpy as np

KEYEDGE_ORDER = ("a", "b", "c", "d")


def rotation_corners(x, y, z, length, width, height, yaw):
    """Bottom corners a,b,c,d via an explicit rotation-matrix product.

    Object frame: +x is the front axis, +z the left axis, y down.  The
    rotation about the camera y axis maps object x to
    (cos yaw, 0, -sin yaw).  Returns a dict letter -> (x, y, z) of bottom
    corners plus the shared edge height.
    """
    rot = np.array(
        [
            [math.cos(yaw), 0.0, math.sin(yaw)],
            [0.0, 1.0, 0.0],
            [-math.sin(yaw), 0.0, math.cos(yaw)],
        ]
    )
    half_l, half_w = length / 2.0, width / 2.0
    local = {
        "a": np.array([half_l, 0.0, half_w]),
        "b": np.array([half_l, 0.0, -half_w]),
        "c": np.array([-half_l, 0.0, -half_w]),
        "d": np.array([-half_l, 0.0, half_w]),
    }
    bottom_y = y + height / 2.0
    center = np.array([x, bottom_y, z])
    corners = {k: tuple(center + rot @ v) for k, v in local.items()}
    return corners, height


def nearest_corner_by_distance(x, y, z, length, width, height, yaw):
    """Letter of the bottom corner closest to the camera origin."""
    corners, _ = rotation_corners(x, y, z, length, width, height, yaw)
    dists = {k: float(np.linalg.norm(np.array(v))) for k, v in corners.items()}
    dmin = min(dists.values())
    for k in KEYEDGE_ORDER:
        if dists[k] <= dmin * (1.0 + 1e-9):
            return k
    raise AssertionError("unreachable")


def quarter_of(alpha):
    """Quarter index of alpha in [-pi, pi) by explicit comparisons."""
    a = math.atan2(math.sin(alpha), math.cos(alpha))
    if a >= math.pi:
        a = -math.pi
    if a < -math.pi / 2:
        return 0
    if a < 0.0:
        return 1
    if a < math.pi / 2:
        return 2
    return 3


def central_difference(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# Exhaustive ARDE sweep, independent of the package implementation.


def _iou(box_a, box_b):
    la, ta, ra, ba = box_a
    lb, tb, rb, bb = box_b
    iw = min(ra, rb) - max(la, lb)
    ih = min(ba, bb) - max(ta, tb)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ra - la) * (ba - ta) + (rb - lb) * (bb - tb) - inter
    return inter / union


def _frame(entry, position):
    """entry[position], or None for an entry that carries no frame."""
    return entry[position] if len(entry) > position else None


def _greedy_match(dets, gts, iou_min):
    """dets: list of (bbox, confidence, d_est[, frame]); gts: list of (bbox, d_gt[, frame]).

    A missing frame is None.  A detection only considers ground truths of
    its own frame.  Returns per-detection (confidence, is_tp,
    rel_depth_error) tuples in descending confidence order (ties by input
    position).
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    taken = set()
    rows = []
    for i in order:
        bbox, conf, d_est = dets[i][:3]
        frame = _frame(dets[i], 3)
        best_j, best_iou = None, 0.0
        for j, gt in enumerate(gts):
            if j in taken or _frame(gt, 2) != frame:
                continue
            v = _iou(bbox, gt[0])
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j is not None and best_iou >= iou_min:
            taken.add(best_j)
            d_gt = gts[best_j][1]
            rows.append((conf, True, abs(d_est - d_gt) / d_gt))
        else:
            rows.append((conf, False, 0.0))
    return rows


def brute_force_arde(dets, gts, iou_min=0.7, recall_points=40):
    """Enumerate every confidence cutoff explicitly and average the envelope.

    Boxes are matched within their frame (see _greedy_match).  For each
    recall point k/N the score is the mean relative depth error
    over true positives at the highest cutoff whose recall reaches the
    point; unreachable points contribute zero via the suffix-max envelope.
    """
    if not gts:
        raise ValueError("no ground truth")
    rows = _greedy_match(dets, gts, iou_min)
    n_gt = len(gts)
    cutoffs = sorted({conf for conf, _, _ in rows}, reverse=True)

    def stats_at(cutoff):
        picked = [(tp, err) for conf, tp, err in rows if conf >= cutoff]
        tps = [err for tp, err in picked if tp]
        recall = len(tps) / n_gt
        score = sum(tps) / len(tps) if tps else None
        return recall, score

    scores = []
    for k in range(1, recall_points + 1):
        target = k / recall_points
        found = None
        for c in cutoffs:
            recall, score = stats_at(c)
            if recall >= target:
                found = score
                break
        scores.append(found)

    envelope = []
    for k in range(recall_points):
        tail = [s for s in scores[k:] if s is not None]
        envelope.append(max(tail) if tail else 0.0)
    for earlier, later in zip(envelope, envelope[1:]):
        assert earlier >= later
    return sum(envelope) / recall_points
