"""KITTI-format ingestion, synthetic scenes, pixel noise, and flat records.

KITTI label grammar: one object per line, 15 whitespace-separated fields in
devkit order (type, truncated, occluded, alpha, bbox left/top/right/bottom,
dimensions h w l, location x y z, rotation_y).  The location is the bottom
center of the box, so conversion to a pose shifts y up by h/2.  rotation_y
and alpha already follow this package's yaw and allocentric conventions;
the theta = alpha + gamma identity holds per label to within the file's
2-decimal precision and is what pins the sign map.

Calibration: the "P2:" row holds the rectified left color camera's 3x4
projection, row-major.  We read f = P2[0,0] and the principal point from
P2[0,2], P2[1,2]; rectified cameras have equal horizontal and vertical
focal lengths, so a single f suffices.

Records: one flat JSON-lines object per box (RECORD_FIELDS order), with
ratios keyed "r_ab" etc. and the group as an integer; CSV export mirrors
the same schema.  Noise is applied in pixel space on keyedge heights, not
on ratios, because that is where measurement error physically arises;
ratio sigmas are then first-order propagated from the per-height sigma.

Every record format lives here, solve's rows (SOLVE_FIELDS) included, and
one loop, parse_records, reads solve's and eval-arde's inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (
    KEYEDGES,
    RATIO_KEYS,
    BoxPose3D,
    CameraIntrinsics,
    KeyedgeObservation,
    NonPositiveDepth,
    keyedge_positions,
    keyedge_ratios,
    normalize_angle,
    project_keyedges,
    viewing_angle,
)
from .indexing import RatioTuple, allocentric_group, object_centric_tuples, reference_pairs
from .metrics import DetectionRecord, GroundTruthRecord
from .recovery import UNOBSERVABLE, check_dims

BBOX_FIELDS = ("bbox_left", "bbox_top", "bbox_right", "bbox_bottom")

# Flat record schema; the four sigma fields appear only when noise is active.
RECORD_FIELDS = (
    "index", "class_name",
    "x", "y", "z", "length", "width", "height", "yaw", "alpha", "gamma", "group",
    "r_ab", "r_bc", "r_cd", "r_da",
    "h_a", "h_b", "h_c", "h_d",
    "d_a", "d_b", "d_c", "d_d",
    *BBOX_FIELDS,
    "sigma_ab", "sigma_bc", "sigma_cd", "sigma_da",
)
SIGMA_KEYS = ("sigma_ab", "sigma_bc", "sigma_cd", "sigma_da")

PLAIN_FIELDS = tuple(f for f in RECORD_FIELDS if f not in SIGMA_KEYS)

# labelgen's records also name the frame their label file describes
LABELGEN_FIELDS = (*PLAIN_FIELDS, "frame")

THETA_FUSION_RULE = "weighted_circular_mean"

PER_TUPLE_FIELDS = ("theta", "d_obj", "sigma_d", "weight")

# solve's rows; solve_fields drops "z" when records exist and none carries it.
SOLVE_FIELDS = (
    "index", "class_name", "z", "length", "width",
    "d_fusion", "theta_fusion", "theta_fusion_rule",
    *(f"{name}_{ref}" for ref in KEYEDGES for name in PER_TUPLE_FIELDS),
    "skipped",
)

LABEL_FIELD_COUNT = 15
MIN_HEIGHT_PX = 0.1  # clamp floor for perturbed heights
MAX_POSE_RETRIES = 100


class ParseError(ValueError):
    """Input text violates the expected grammar."""

    def __init__(self, message: str, line: int | None = None, field: int | None = None):
        where = [f"line {line}"] if line is not None else []
        if field is not None:
            where.append(f"field {field}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.line = line
        self.field = field


class NonPositiveFocal(ParseError):
    """Calibration carries a non-positive focal length."""


class BehindCamera(ParseError):
    """A label places its object's center or one of its keyedges at z <= 0."""


class ConfigError(ValueError):
    """A configuration value is out of its documented domain."""


@dataclass(frozen=True)
class KittiLabel:
    """One parsed label line, values exactly as read, and its 1-based line number."""

    class_name: str
    truncated: float
    occluded: int
    alpha: float
    bbox2d: tuple[float, float, float, float]
    dims_hwl: tuple[float, float, float]
    location: tuple[float, float, float]
    rotation_y: float
    line: int | None = None

    @property
    def is_dontcare(self) -> bool:
        return self.class_name == "DontCare"

    @property
    def is_hard(self) -> bool:
        # flagged, never dropped here; filtering is a CLI choice
        return self.truncated > 0.5 or self.occluded == 2


def _numeric(tokens: list[str], idx0: int, caster, name: str, line_no: int):
    try:
        value = caster(tokens[idx0])
    except ValueError:
        raise ParseError(
            f"{name} is not numeric: {tokens[idx0]!r}", line=line_no, field=idx0 + 1
        ) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{name} is not finite: {tokens[idx0]!r}", line=line_no, field=idx0 + 1)
    return value


def parse_label_file(text: str) -> list[KittiLabel]:
    """Parse a KITTI label file; strict on field count and numeric grammar."""
    labels = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        tokens = raw.split()
        if len(tokens) != LABEL_FIELD_COUNT:
            raise ParseError(
                f"expected {LABEL_FIELD_COUNT} fields, got {len(tokens)}",
                line=line_no,
                field=min(len(tokens) + 1, LABEL_FIELD_COUNT + 1),
            )
        class_name = tokens[0]
        truncated = _numeric(tokens, 1, float, "truncated", line_no)
        occluded = _numeric(tokens, 2, int, "occluded", line_no)
        alpha = _numeric(tokens, 3, float, "alpha", line_no)
        bbox = tuple(_numeric(tokens, i, float, "bbox", line_no) for i in range(4, 8))
        dims = tuple(_numeric(tokens, i, float, ("h", "w", "l")[i - 8], line_no) for i in range(8, 11))
        location = tuple(_numeric(tokens, i, float, ("x", "y", "z")[i - 11], line_no) for i in range(11, 14))
        rotation_y = _numeric(tokens, 14, float, "rotation_y", line_no)
        if class_name != "DontCare":
            for offset, value in enumerate(dims):
                if value <= 0.0:
                    raise ParseError(
                        f"dimension must be positive, got {value}", line=line_no, field=9 + offset
                    )
        labels.append(
            KittiLabel(
                class_name=class_name,
                truncated=truncated,
                occluded=occluded,
                alpha=alpha,
                bbox2d=bbox,
                dims_hwl=dims,
                location=location,
                rotation_y=rotation_y,
                line=line_no,
            )
        )
    return labels


def parse_calib(text: str) -> CameraIntrinsics:
    """Read intrinsics from the P2 row of a KITTI calibration file."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] != "P2:":
            continue
        scalars = tokens[1:]
        if len(scalars) != 12:
            raise ParseError(f"P2 row must have 12 scalars, got {len(scalars)}", line=line_no)
        values = [_numeric(scalars, i, float, "P2 entry", line_no) for i in range(12)]
        focal = values[0]
        if not focal > 0.0:
            raise NonPositiveFocal(f"P2[0,0] = {focal}", line=line_no)
        return CameraIntrinsics(focal_length=focal, principal_point=(values[2], values[6]))
    raise ParseError("no P2 row found")


@dataclass(frozen=True)
class GroundTruthObject:
    """A label lifted into the pose convention with its projected keyedges."""

    pose: BoxPose3D
    observation: KeyedgeObservation
    label: KittiLabel


def labels_to_ground_truth(
    labels: list[KittiLabel], intr: CameraIntrinsics
) -> list[GroundTruthObject]:
    """Project labels into ground-truth observations; DontCare rows skipped."""
    out = []
    for label in labels:
        if label.is_dontcare:
            continue
        h, w, l = label.dims_hwl
        x, y_bottom, z = label.location
        if z <= 0.0:
            raise BehindCamera(f"label {label.class_name} at z={z}", line=label.line, field=14)
        pose = BoxPose3D(center=(x, y_bottom - h / 2.0, z), dims=(l, w, h), yaw=label.rotation_y)
        try:
            obs = project_keyedges(pose, intr)
        except NonPositiveDepth as err:
            raise BehindCamera(f"label {label.class_name}: {err}", line=label.line) from None
        out.append(GroundTruthObject(pose=pose, observation=obs, label=label))
    return out


def kitti_records(labels: Path, calib: Path, skip_hard: bool = False) -> list[dict]:
    """labelgen's records (LABELGEN_FIELDS) of KITTI label files and their calibration.

    In directories, each *.txt label file pairs with the calib file of its
    name, and every pair must exist before any is read.  skip_hard drops
    the labels KittiLabel.is_hard flags.  A record's frame is its label
    file's stem, as an integer when all digits.  A parse error names the
    file at fault.
    """
    label_files = sorted(labels.glob("*.txt")) if labels.is_dir() else [labels]
    if not label_files:
        raise FileNotFoundError(f"no .txt label files under {labels}")
    pairs = []
    for label_file in label_files:
        calib_file = calib / label_file.name if calib.is_dir() else calib
        if not calib_file.is_file():
            raise FileNotFoundError(f"no calib file for {label_file.name}: {calib_file}")
        pairs.append((label_file, calib_file))
    records = []
    for label_file, calib_file in pairs:
        try:
            intr = parse_calib(calib_file.read_text(encoding="utf-8"))
        except ParseError as err:  # NonPositiveFocal included
            raise ParseError(f"{calib_file}: {err}") from None
        try:
            kitti = parse_label_file(label_file.read_text(encoding="utf-8"))
            gts = labels_to_ground_truth([lab for lab in kitti if not (skip_hard and lab.is_hard)], intr)
        except ParseError as err:  # BehindCamera included
            raise ParseError(f"{label_file}: {err}") from None
        stem = label_file.stem
        frame = int(stem) if stem.isascii() and stem.isdigit() else stem
        for gt in gts:
            rec = object_record(len(records), gt.label.class_name, gt.pose, intr, gt.observation)
            rec["frame"] = frame
            records.append(rec)
    return records


def _check_range(name: str, lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"{name} must be a finite (min, max) with min < max, got ({lo}, {hi})")


@dataclass(frozen=True)
class SceneConfig:
    """Sampling ranges for synthetic box poses; seed is mandatory."""

    count: int
    seed: int
    depth_range: tuple[float, float] = (5.0, 60.0)
    gamma_range: tuple[float, float] = (-0.7, 0.7)
    length_range: tuple[float, float] = (3.2, 4.8)
    width_range: tuple[float, float] = (1.4, 1.9)
    height_range: tuple[float, float] = (1.3, 1.8)
    ground_y: float = 1.65
    min_distortion: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("depth_range", "gamma_range", "length_range", "width_range", "height_range"):
            _check_range(name, *getattr(self, name))
        for name in ("depth_range", "length_range", "width_range", "height_range"):
            if getattr(self, name)[0] <= 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (-math.pi / 2 < self.gamma_range[0] and self.gamma_range[1] < math.pi / 2):
            raise ConfigError(f"gamma_range must lie inside (-pi/2, pi/2), got {self.gamma_range}")
        if not math.isfinite(self.ground_y):
            raise ConfigError(f"ground_y must be finite, got {self.ground_y}")
        if not (math.isfinite(self.min_distortion) and self.min_distortion >= 0.0):
            raise ConfigError(f"min_distortion must be >= 0, got {self.min_distortion}")


def min_tuple_distortion(pose: BoxPose3D) -> float:
    """Worst conditioning over the four canonical tuples.

    Each tuple's usable signal is max(|r1 - 1|, |r2 - 1|); the minimum over
    tuples bounds how close any inversion comes to the degeneracy tolerance.
    Requires every keyedge in front of the camera.
    """
    corners, _ = keyedge_positions(pose)
    depth = [corners[k][2] for k in KEYEDGES]
    # the stored ratios r_ab, r_bc, r_cd, r_da; r_pq = d_q / d_p
    pairs, _ = reference_pairs([depth[(i + 1) % 4] / depth[i] for i in range(4)])
    return min(max(abs(r1 - 1.0), abs(r2 - 1.0)) for r1, r2 in pairs)


def generate_scene(cfg: SceneConfig) -> list[BoxPose3D]:
    """Draw poses in object order from one stream of the scene seed.

    The stream is SeedSequence(seed, spawn_key=(0,)).  Each draw takes six
    uniforms (depth, viewing angle, yaw, length, width, height) and a redraw
    continues the same stream, so object i depends only on objects 0..i-1
    and scenes are prefix stable under count changes.  Poses with a keyedge
    at z <= 0 are redrawn, as are poses under cfg.min_distortion when that
    rejection is enabled; either way a single object gets at most
    MAX_POSE_RETRIES draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    lows, highs = np.array([cfg.depth_range, cfg.gamma_range, (-math.pi, math.pi),
                            cfg.length_range, cfg.width_range, cfg.height_range]).T
    poses = []
    for index in range(cfg.count):
        for _ in range(MAX_POSE_RETRIES):
            z, gamma, yaw, length, width, height = rng.uniform(lows, highs).tolist()
            pose = BoxPose3D(
                center=(z * math.tan(gamma), cfg.ground_y - height / 2.0, z),
                dims=(length, width, height),
                yaw=yaw,
            )
            corners, _ = keyedge_positions(pose)
            if min(c[2] for c in corners.values()) <= 0.0:
                continue
            if cfg.min_distortion > 0.0 and min_tuple_distortion(pose) < cfg.min_distortion:
                continue
            poses.append(pose)
            break
        else:
            raise ConfigError(
                f"object {index}: no acceptable pose in {MAX_POSE_RETRIES} draws "
                f"(min_distortion={cfg.min_distortion})"
            )
    return poses


NOISE_KINDS = ("none", "gaussian_height", "pixel_quantization")


@dataclass(frozen=True)
class NoiseModel:
    """Pixel-space perturbation of keyedge heights."""

    kind: str
    sigma_px: float = 0.0
    quantum_px: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.sigma_px) and self.sigma_px >= 0.0):
            raise ConfigError(f"sigma_px must be >= 0, got {self.sigma_px}")
        if not (math.isfinite(self.quantum_px) and self.quantum_px >= 0.0):
            raise ConfigError(f"quantum_px must be >= 0, got {self.quantum_px}")
        if self.kind == "pixel_quantization" and self.quantum_px <= 0.0:
            raise ConfigError("pixel_quantization requires quantum_px > 0")


def perturb_heights(
    obs: KeyedgeObservation, noise: NoiseModel, seed
) -> KeyedgeObservation:
    """Apply the noise model to the four heights; clamp to MIN_HEIGHT_PX.

    seed may be an integer or a numpy Generator; only gaussian_height
    consumes randomness.
    """
    if noise.kind == "none":
        return obs
    if noise.kind == "gaussian_height":
        rng = np.random.default_rng(seed)
        draws = rng.normal(0.0, noise.sigma_px, size=len(KEYEDGES))
        heights = {
            k: max(obs.heights[k] + float(d), MIN_HEIGHT_PX)
            for k, d in zip(KEYEDGES, draws)
        }
    else:
        q = noise.quantum_px
        heights = {k: max(q * round(obs.heights[k] / q), MIN_HEIGHT_PX) for k in KEYEDGES}
    return replace(obs, heights=heights)


def sigma_effective(noise: NoiseModel) -> float:
    """Per-height pixel sigma of the noise model; 0 means records carry no sigma fields."""
    if noise.kind == "gaussian_height":
        return noise.sigma_px
    if noise.kind == "pixel_quantization":
        # standard deviation of uniform rounding error on [-q/2, q/2]
        return noise.quantum_px / math.sqrt(12.0)
    return 0.0


def ratio_sigmas(obs: KeyedgeObservation, noise: NoiseModel) -> dict[str, float] | None:
    """First-order ratio sigmas from independent per-height pixel noise.

    sigma(r_pq) = r_pq * sigma_px * sqrt(1/h_p^2 + 1/h_q^2).  Returns None
    when the noise model contributes nothing, in which case records carry
    no sigma fields.
    """
    s = sigma_effective(noise)
    if s == 0.0:
        return None
    ratios = keyedge_ratios(obs)
    h = obs.heights
    out = {}
    for key in RATIO_KEYS:
        p, q = key[2], key[3]
        out["sigma_" + key[2:]] = ratios[key] * s * math.sqrt(1.0 / h[p] ** 2 + 1.0 / h[q] ** 2)
    return out


def observe_scene(cfg: SceneConfig, intr: CameraIntrinsics, noise: NoiseModel):
    """(pose, observation, sigmas) per object of the scene, in object order.

    Each pose of generate_scene is projected, perturbed and given its ratio
    sigmas (None when the noise model contributes none).  The noise draws
    come in object order from a second stream of the scene seed,
    SeedSequence(seed, spawn_key=(1,)), so clean and noisy runs share their
    poses and noisy scenes stay prefix stable too.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    for pose in generate_scene(cfg):
        obs = perturb_heights(project_keyedges(pose, intr), noise, rng)
        yield pose, obs, ratio_sigmas(obs, noise)


def keyedge_bbox(
    pose: BoxPose3D, intr: CameraIntrinsics
) -> tuple[float, float, float, float]:
    """Tight pixel box around the eight projected box corners.

    Keyedges are vertical, so top and bottom corners share a column and
    the extremes come from the four keyedges alone.
    """
    corners, height = keyedge_positions(pose)
    f = intr.focal_length
    cx, cy = intr.principal_point
    us, v_top, v_bot = [], [], []
    for px, py, pz in corners.values():
        if pz <= 0.0:
            raise NonPositiveDepth(f"keyedge at depth {pz}")
        us.append(cx + f * px / pz)
        v_bot.append(cy + f * py / pz)
        v_top.append(cy + f * (py - height) / pz)
    return (min(us), min(v_top), max(us), max(v_bot))


def object_record(
    index: int,
    class_name: str,
    pose: BoxPose3D,
    intr: CameraIntrinsics,
    obs: KeyedgeObservation,
    sigmas: dict[str, float] | None = None,
) -> dict:
    """Flatten one object into the RECORD_FIELDS schema.

    obs may be a perturbed observation; ratios and heights then reflect the
    noise while the pose fields, depths, and bbox stay geometric.
    """
    gamma = viewing_angle(pose.center)
    alpha = normalize_angle(pose.yaw - gamma)
    bbox = keyedge_bbox(pose, intr)
    rec = {
        "index": index,
        "class_name": class_name,
        "x": pose.x,
        "y": pose.y,
        "z": pose.z,
        "length": pose.length,
        "width": pose.width,
        "height": pose.height,
        "yaw": pose.yaw,
        "alpha": alpha,
        "gamma": gamma,
        "group": allocentric_group(alpha),
    }
    rec.update(keyedge_ratios(obs))
    for k in KEYEDGES:
        rec[f"h_{k}"] = obs.heights[k]
    for k in KEYEDGES:
        rec[f"d_{k}"] = obs.depths[k]
    rec.update(zip(BBOX_FIELDS, bbox))
    if sigmas:
        for key in SIGMA_KEYS:
            rec[key] = sigmas[key]
    return rec


def record_number(record: dict, key: str) -> float:
    """record[key] as a float; a JSON value that is not a number is a ParseError."""
    value = record[key]
    if type(value) not in (int, float):
        raise ParseError(f"{key} must be a number, got {value!r}")
    return float(value)


def record_ratios(record: dict) -> list[float]:
    """A record's four stored ratios in RATIO_KEYS order, each finite and positive."""
    ratios = [record_number(record, key) for key in RATIO_KEYS]
    for key, r in zip(RATIO_KEYS, ratios):
        if not (math.isfinite(r) and r > 0.0):
            raise ParseError(f"{key} must be finite and positive, got {r!r}")
    return ratios


def record_sigmas(record: dict) -> list[float] | None:
    """A record's four ratio sigmas in SIGMA_KEYS order, each finite and nonnegative.

    Returns None when the record carries no sigma fields.
    """
    if SIGMA_KEYS[0] not in record:
        return None
    sigmas = [record_number(record, key) for key in SIGMA_KEYS]
    for key, s in zip(SIGMA_KEYS, sigmas):
        if not (math.isfinite(s) and s >= 0.0):
            raise ParseError(f"{key} must be finite and nonnegative, got {s!r}")
    return sigmas


def record_tuples(record: dict) -> tuple[RatioTuple, ...]:
    """Canonical tuples from a record's four stored ratios."""
    return object_centric_tuples(dict(zip(RATIO_KEYS, record_ratios(record))))


def record_ratio_sigmas(record: dict) -> dict[str, tuple[float, float]] | None:
    """Per-reference (sigma1, sigma2) matching record_tuples' pair order.

    A reversed ratio is the reciprocal, so its first-order sigma transforms
    as sigma(1/r) = sigma(r) / r^2.  Returns None when the record carries
    no sigma fields.
    """
    sigmas = record_sigmas(record)
    if sigmas is None:
        return None
    _, pairs = reference_pairs(record_ratios(record), sigmas)
    return dict(zip(KEYEDGES, pairs))


def record_name(pos: int, record: dict) -> str:
    """How solve names a record in an error: its 0-based position and its index field."""
    return f"record {pos} (index {record.get('index')})"


def parse_records(records, parse, name) -> list:
    """parse(rec) for each record, in order; a bad record is named by name(pos, rec).

    A missing field raises ParseError("<name>: missing field 'k'"), and a
    TypeError or ValueError raised by parse raises ParseError("<name>: <reason>").
    """
    parsed = []
    for pos, rec in enumerate(records):
        try:
            parsed.append(parse(rec))
        except KeyError as err:
            raise ParseError(f"{name(pos, rec)}: missing field {err.args[0]!r}") from None
        except (TypeError, ValueError) as err:
            raise ParseError(f"{name(pos, rec)}: {err}") from None
    return parsed


def _solve_input(rec: dict) -> tuple[dict, list[float], list[float]]:
    """A solve record's echoed fields, its ratios and its sigmas (NaN when it carries none)."""
    ratios = record_ratios(rec)
    sigmas = record_sigmas(rec) or [math.nan] * 4
    dims = {key: record_number(rec, key) for key in ("length", "width")}
    check_dims(**dims)
    head = {"index": rec.get("index"), "class_name": rec.get("class_name", "")}
    if "z" in rec:
        head["z"] = rec["z"]  # ground truth echoed through for evaluation
    return {**head, **dims}, ratios, sigmas


def solve_columns(path) -> tuple[list[dict], tuple]:
    """solve_batch's columns from the records of a JSON-lines file, each checked in turn.

    Returns the fields each output row echoes and the columns (R, S, L, W);
    S holds NaN for a record without sigma fields.
    """
    parsed = parse_records(iter_jsonl(path), _solve_input, record_name)
    heads, ratios, sigmas = zip(*parsed) if parsed else ((), (), ())
    lengths, widths = ([head[key] for head in heads] for key in ("length", "width"))
    return list(heads), (np.reshape(ratios, (-1, 4)), np.reshape(sigmas, (-1, 4)), lengths, widths)


def solve_fields(heads: list[dict]) -> tuple[str, ...]:
    """SOLVE_FIELDS for rows with these heads: without "z" when heads exist and none carries it."""
    if not heads or any("z" in head for head in heads):
        return SOLVE_FIELDS
    return tuple(f for f in SOLVE_FIELDS if f != "z")


def solved_rows(heads: list[dict], batch):
    """solve's output rows, one per record, from the kernel's arrays."""
    per_tuple = np.stack([batch.pose.theta, batch.pose.d_obj, batch.sigma_d, batch.weight], axis=2)
    fused = zip(batch.d_fusion.tolist(), batch.theta_fusion.tolist(), batch.pose.observable.tolist())
    for head, (d_fusion, theta_fusion, observable), values in zip(heads, fused, per_tuple):
        row = {**head, "d_fusion": d_fusion, "theta_fusion": theta_fusion,
               "theta_fusion_rule": THETA_FUSION_RULE}
        for ref, ok, tuple_values in zip(KEYEDGES, observable, values.tolist()):
            row.update((f"{name}_{ref}", v if ok else None) for name, v in zip(PER_TUPLE_FIELDS, tuple_values))
        row["skipped"] = ";".join(f"{ref}:{UNOBSERVABLE}" for ref, ok in zip(KEYEDGES, observable) if not ok)
        yield row


def _bbox(rec: dict) -> tuple[float, float, float, float]:
    return tuple(record_number(rec, key) for key in BBOX_FIELDS)


def _detection(rec: dict) -> DetectionRecord:
    return DetectionRecord(
        bbox2d=_bbox(rec),
        confidence=record_number(rec, "confidence"),
        d_est=record_number(rec, "d_est"),
        gamma_est=None if rec.get("gamma_est") is None else record_number(rec, "gamma_est"),
        frame=rec.get("frame"),
    )


def _ground_truth(rec: dict) -> GroundTruthRecord:
    return GroundTruthRecord(
        bbox2d=_bbox(rec), d_gt=record_number(rec, "z"), gamma_gt=record_number(rec, "gamma"),
        frame=rec.get("frame"),
    )


def read_detections(path) -> list[DetectionRecord]:
    """eval-arde's detections; a bad one is named "detection <0-based position>"."""
    return parse_records(read_jsonl(path), _detection, lambda pos, _: f"detection {pos}")


def read_ground_truth(path) -> list[GroundTruthRecord]:
    """eval-arde's ground truth; a bad one is named "ground truth <0-based position>"."""
    return parse_records(read_jsonl(path), _ground_truth, lambda pos, _: f"ground truth {pos}")


def write_jsonl(path, records) -> int:
    """One JSON object per line, UTF-8, LF terminated; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
            count += 1
    return count


def iter_jsonl(path):
    """The objects of a JSON-lines file, one at a time; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"invalid JSON: {err.msg}", line=line_no) from None
            if not isinstance(rec, dict):
                raise ParseError("expected a JSON object", line=line_no)
            yield rec


def read_jsonl(path) -> list[dict]:
    return list(iter_jsonl(path))


def write_csv(path, records, fields) -> None:
    """CSV of the records with header fields, the schema they follow; None is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
