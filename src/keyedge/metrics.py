"""Average relative depth error (ARDE) over a recall sweep.

Detections and ground truths are matched within each frame (image), as
in the KITTI protocol: a detection only ever claims a ground truth that
carries the same ``frame``.  Records without a frame share frame None, so
a file pair where no record carries one is scored as a single frame.
Detections are visited once, in descending confidence order across all
frames, and each claims the best-overlap unmatched ground truth of its
frame: it is a true positive iff that overlap reaches ``iou_min``.  The
confidence axis is then swept globally over the distinct confidence
values (ties form atomic groups).  For each of ``RECALL_POINTS`` evenly
spaced recall targets k/N the score is the mean relative depth error
|d_est - d_gt| / d_gt over true positives at the highest cutoff whose
recall reaches the target.  Unreachable targets contribute zero.  The
per-point scores are replaced by their suffix maximum, which makes the
envelope non-increasing in recall, and ARDE is the mean of the envelope.

``arde_by_viewing_angle`` buckets ground truths by viewing angle.
Detections inherit the bucket of their matched ground truth; unmatched
detections fall back to their own estimated viewing angle and are dropped
from the breakdown if they have none.  Each bucket's ARDE is the sweep
over its share of the one overall matching.  This equals rerunning the
matching on the bucket's records alone: a detection of bucket b either
claimed a bucket-b ground truth or fell below ``iou_min`` against every
free one, so by induction over the visiting order it sees the same free
bucket-b ground truths and makes the same choice in both runs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


Frame = int | str | None

RECALL_POINTS = 40  # AP|R40 (Simonelli et al. 2019)


class NoGroundTruth(ValueError):
    """ARDE is undefined without at least one ground-truth object."""


def _check_frame(frame: Frame) -> None:
    # bool is an int subclass, but a JSON true is no frame identity
    if frame is not None and (isinstance(frame, bool) or not isinstance(frame, (int, str))):
        raise ValueError(f"frame must be an integer, a string or None, got {frame!r}")


def _check_bbox(bbox: tuple[float, float, float, float]) -> None:
    left, top, right, bottom = bbox
    if not all(math.isfinite(v) for v in bbox):
        raise ValueError(f"bbox2d must be finite, got {bbox!r}")
    if not (left < right and top < bottom):
        raise ValueError(f"bbox2d must satisfy left < right and top < bottom, got {bbox!r}")


@dataclass(frozen=True)
class DetectionRecord:
    """One detection: 2D box, confidence, an estimated object depth, its frame."""

    bbox2d: tuple[float, float, float, float]
    confidence: float
    d_est: float
    gamma_est: float | None = None
    frame: Frame = None

    def __post_init__(self) -> None:
        _check_bbox(self.bbox2d)
        _check_frame(self.frame)
        if not math.isfinite(self.confidence):
            raise ValueError(f"confidence must be finite, got {self.confidence!r}")
        if not (math.isfinite(self.d_est) and self.d_est > 0.0):
            raise ValueError(f"d_est must be positive, got {self.d_est!r}")
        if self.gamma_est is not None and not math.isfinite(self.gamma_est):
            raise ValueError(f"gamma_est must be finite or None, got {self.gamma_est!r}")


@dataclass(frozen=True)
class GroundTruthRecord:
    """One annotated object: 2D box, true depth, viewing angle, and its frame."""

    bbox2d: tuple[float, float, float, float]
    d_gt: float
    gamma_gt: float
    frame: Frame = None

    def __post_init__(self) -> None:
        _check_bbox(self.bbox2d)
        _check_frame(self.frame)
        if not (math.isfinite(self.d_gt) and self.d_gt > 0.0):
            raise ValueError(f"d_gt must be positive, got {self.d_gt!r}")
        if not math.isfinite(self.gamma_gt):
            raise ValueError(f"gamma_gt must be finite, got {self.gamma_gt!r}")


@dataclass(frozen=True)
class MatchResult:
    """Assignment outcome for one detection; gt_index is None for FPs."""

    det_index: int
    is_tp: bool
    gt_index: int | None


@dataclass(frozen=True)
class ArdeBin:
    """ARDE restricted to one viewing-angle bucket (None when empty)."""

    gamma_min: float
    gamma_max: float
    arde: float | None
    n_ground_truth: int
    n_detections: int


def iou_2d(
    box_a: tuple[float, float, float, float],
    box_b: tuple[float, float, float, float],
) -> float:
    """Intersection over union of two (left, top, right, bottom) boxes."""
    left = max(box_a[0], box_b[0])
    top = max(box_a[1], box_b[1])
    right = min(box_a[2], box_b[2])
    bottom = min(box_a[3], box_b[3])
    inter = max(0.0, right - left) * max(0.0, bottom - top)
    area_a = (box_a[2] - box_a[0]) * (box_a[3] - box_a[1])
    area_b = (box_b[2] - box_b[0]) * (box_b[3] - box_b[1])
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def match_detections(
    detections: list[DetectionRecord],
    ground_truths: list[GroundTruthRecord],
    iou_min: float = 0.7,
) -> list[MatchResult]:
    """Greedy one-to-one assignment within each frame, in descending confidence order.

    Each detection claims the highest-IoU still-unmatched ground truth of
    its own frame (the first one on equal IoU), provided the overlap
    reaches ``iou_min``; otherwise it is a false positive.  Confidence ties
    keep input order.  Results are returned in the visiting order
    (descending confidence).
    """
    if not (0.0 < iou_min <= 1.0):
        raise ValueError(f"iou_min must be in (0, 1], got {iou_min!r}")
    in_frame: dict[Frame, list[int]] = {}
    for j, gt in enumerate(ground_truths):
        in_frame.setdefault(gt.frame, []).append(j)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].confidence, i))
    taken: set[int] = set()
    results = []
    for i in order:
        bbox = detections[i].bbox2d
        best_j = None
        best_iou = 0.0
        for j in in_frame.get(detections[i].frame, ()):
            if j in taken:
                continue
            overlap = iou_2d(bbox, ground_truths[j].bbox2d)
            if overlap > best_iou:
                best_j, best_iou = j, overlap
        if best_j is not None and best_iou >= iou_min:
            taken.add(best_j)
            results.append(MatchResult(det_index=i, is_tp=True, gt_index=best_j))
        else:
            results.append(MatchResult(det_index=i, is_tp=False, gt_index=None))
    return results


def arde(
    detections: list[DetectionRecord],
    ground_truths: list[GroundTruthRecord],
    iou_min: float = 0.7,
) -> float:
    """Mean of the suffix-max score envelope over the recall sweep."""
    if not ground_truths:
        raise NoGroundTruth("ARDE requires at least one ground-truth object")
    results = match_detections(detections, ground_truths, iou_min)
    return _sweep(results, detections, ground_truths, len(ground_truths))


def _sweep(
    results: list[MatchResult],
    detections: list[DetectionRecord],
    ground_truths: list[GroundTruthRecord],
    n_gt: int,
) -> float:
    """ARDE of match results in visiting order, against n_gt ground truths."""
    # One pass over the descending-confidence list, closing a sweep level
    # at the end of each distinct-confidence group.
    levels: list[tuple[float, float]] = []  # (recall, mean rel depth error)
    tp_count = 0
    err_sum = 0.0
    for pos, row in enumerate(results):
        det = detections[row.det_index]
        if row.is_tp:
            gt = ground_truths[row.gt_index]
            tp_count += 1
            err_sum += abs(det.d_est - gt.d_gt) / gt.d_gt
        group_ends = (
            pos + 1 == len(results)
            or detections[results[pos + 1].det_index].confidence != det.confidence
        )
        if group_ends and tp_count:
            levels.append((tp_count / n_gt, err_sum / tp_count))

    scores: list[float | None] = []
    for k in range(1, RECALL_POINTS + 1):
        target = k / RECALL_POINTS
        scores.append(next((s for r, s in levels if r >= target), None))

    envelope = [0.0] * RECALL_POINTS
    running = 0.0
    for k in range(RECALL_POINTS - 1, -1, -1):
        if scores[k] is not None:
            running = max(running, scores[k])
        envelope[k] = running
    for earlier, later in zip(envelope, envelope[1:]):
        assert earlier >= later, "score envelope must be non-increasing"
    return sum(envelope) / RECALL_POINTS


def arde_by_viewing_angle(
    detections: list[DetectionRecord],
    ground_truths: list[GroundTruthRecord],
    iou_min: float,
    bin_edges: list[float],
) -> list[ArdeBin]:
    """ARDE per viewing-angle bucket [edge_i, edge_{i+1}), all from one matching."""
    if len(bin_edges) < 2:
        raise ValueError("bin_edges needs at least two entries")
    if not all(math.isfinite(e) for e in bin_edges):
        raise ValueError(f"bin_edges must be finite, got {bin_edges!r}")
    if any(lo >= hi for lo, hi in zip(bin_edges, bin_edges[1:])):
        raise ValueError(f"bin_edges must be strictly increasing, got {bin_edges!r}")
    if not ground_truths:
        raise NoGroundTruth("ARDE requires at least one ground-truth object")

    def bin_of(gamma: float | None) -> int | None:
        if gamma is None or gamma < bin_edges[0] or gamma >= bin_edges[-1]:
            return None
        return bisect.bisect_right(bin_edges, gamma) - 1

    gt_bins = [bin_of(gt.gamma_gt) for gt in ground_truths]
    results = match_detections(detections, ground_truths, iou_min)
    det_bins = [
        gt_bins[row.gt_index] if row.is_tp else bin_of(detections[row.det_index].gamma_est)
        for row in results
    ]

    bins = []
    for idx in range(len(bin_edges) - 1):
        n_gt = gt_bins.count(idx)
        rows = [row for row, b in zip(results, det_bins) if b == idx]
        value = _sweep(rows, detections, ground_truths, n_gt) if n_gt else None
        bins.append(
            ArdeBin(
                gamma_min=bin_edges[idx],
                gamma_max=bin_edges[idx + 1],
                arde=value,
                n_ground_truth=n_gt,
                n_detections=len(rows),
            )
        )
    return bins
