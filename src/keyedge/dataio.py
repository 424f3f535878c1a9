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

Scenes are columns: observe_scene draws a scene's poses and noise in
blocks and returns its SceneColumns, which synth's records (scene_records)
read; labelgen's labels pass through the same projection stage and record
builder, and the sensitivity grid (sensitivity_rows) through it and the
kernel, whole cells at a time.  observe_scene, generate_scene,
perturb_heights, ratio_sigmas and object_record are views of these stages.

Every record format lives here, solve's rows (SOLVE_FIELDS) included; one
row builder makes every record from columns, and one reader checks every
record file as columns by the schema of its kind (_SOLVE, _DETECTION,
_GROUND_TRUTH).  Every writer replaces its target only once it is whole.

Records are built, read and written in blocks of _BLOCK (1,024) rows.
synth, labelgen and solve keep their columns as arrays and build row dicts
one block at a time on each pass over them, for the JSON-lines file and
again for the CSV mirror; solve_columns picks and checks its input a block
at a time into arrays.  So peak memory grows with the record count only by
the arrays: at 100,000 records, synth peaks at 82 MB (269 MB when every
record was held as a dict) and solve at 101 MB (178 MB), by ru_maxrss.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice, product, repeat
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import (
    KEYEDGES,
    RATIO_KEYS,
    BoxPose3D,
    CameraIntrinsics,
    KeyedgeObservation,
    corner_columns,
    keyedge_ratios,
    project_keyedges,
    wrap_turn,
)
from .indexing import QUARTER_EDGES, RatioTuple, object_centric_tuples, reference_pairs
from .metrics import DetectionRecord, GroundTruthRecord
from .recovery import UNOBSERVABLE
from .uncertainty import solve_batch

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

# solve's rows; "z" is left out of a row whose record has none, and of the header when none has (_Rows).
SOLVE_FIELDS = (
    "index", "class_name", "z", "length", "width",
    "d_fusion", "theta_fusion", "theta_fusion_rule",
    *(f"{name}_{ref}" for ref in KEYEDGES for name in PER_TUPLE_FIELDS),
    "skipped",
)

# sensitivity's rows, one per (noise level, depth band, gamma bin) cell
SENSITIVITY_FIELDS = (
    "noise_kind", "noise_param",
    "depth_min", "depth_max", "gamma_min_deg", "gamma_max_deg",
    "trials", "n_failed",
    "mean_rel_depth_error", "median_rel_depth_error",
    "mean_abs_yaw_error", "median_abs_yaw_error",
)

LABEL_FIELD_COUNT = 15
MIN_HEIGHT_PX = 0.1  # clamp floor for perturbed heights
# Column of each keyedge's clockwise neighbour in (N, 4) arrays: r_pq = h_p / h_q = d_q / d_p.
NEXT_KEYEDGE = [1, 2, 3, 0]
MAX_POSE_RETRIES = 100
_BLOCK = 1024  # rows per block wherever records are built, read, written or solved
_ABSENT = object()  # what a record without a field reads as, where its schema gives no default
_UNDECODED = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" makes of non-UTF-8 bytes


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


def _label_poses(labels: Sequence[KittiLabel], files=None) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The pose columns (x, y, z, yaw, length, width, height) of labels, and their (N, 4) keyedge depths.

    A label's location is its box's bottom center, so y moves up by h/2,
    and its dimensions h w l become length, width, height.  The first label
    whose center, or else one of whose keyedges, sits at z <= 0 raises
    BehindCamera naming its line, and its file when files gives each label's.
    """
    values = np.array([(*lab.location, lab.rotation_y, *lab.dims_hwl) for lab in labels]).reshape(-1, 7)
    x, y_bottom, z, yaw, h, w, l = values.T
    depths = _keyedge_depths(x, z, yaw, l, w)
    behind = np.flatnonzero((z <= 0.0) | (depths <= 0.0).any(axis=1))
    if behind.size:
        i = behind[0]
        label = labels[i]
        name = (f"{files[i]}: " if files else "") + f"label {label.class_name}"
        if z[i] <= 0.0:
            raise BehindCamera(f"{name} at z={label.location[2]}", line=label.line, field=14)
        k = int((depths[i] <= 0.0).argmax())
        raise BehindCamera(f"{name}: keyedge {KEYEDGES[k]} depth {depths[i, k].item()} is not positive",
                           line=label.line)
    return (x, y_bottom - h / 2.0, z, yaw, l, w, h), depths


def labels_to_ground_truth(labels: list[KittiLabel], intr: CameraIntrinsics) -> list[GroundTruthObject]:
    """Project labels into ground-truth observations; DontCare rows skipped."""
    kept = [label for label in labels if not label.is_dontcare]
    return [GroundTruthObject(pose=pose, observation=project_keyedges(pose, intr), label=label)
            for pose, label in zip(_poses(_label_poses(kept)[0]), kept)]


def _parse_file(parse, path: Path):
    """parse(text) of a UTF-8 file; a ParseError, invalid UTF-8 included, names the file."""
    data = path.read_bytes()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as err:  # on the line where str.splitlines, as the parsers, puts the byte
        problem = f"invalid UTF-8 (line {len((data[:err.start].decode() + '_').splitlines())})"
    except ParseError as err:  # NonPositiveFocal included
        problem = err
    raise ParseError(f"{path}: {problem}")


def kitti_records(labels: Path, calib: Path, skip_hard: bool = False) -> _Rows:
    """labelgen's records (LABELGEN_FIELDS) of KITTI label files and their calibration.

    In directories, each *.txt label file pairs with the calib file of its
    name, and every pair must exist before any is read.  skip_hard drops
    the labels KittiLabel.is_hard flags.  A record's frame is its label
    file's stem, as an integer when all digits.  The labels of all files
    are checked and projected together, each under its own file's camera,
    and errors come in file order: a file that fails to read or parse is
    reported only once the labels of the files before it pass the check.
    """
    label_files = sorted(labels.glob("*.txt")) if labels.is_dir() else [labels]
    if not label_files:
        raise FileNotFoundError(f"no .txt label files under {labels}")
    pairs = [(label_file, calib / label_file.name if calib.is_dir() else calib) for label_file in label_files]
    for label_file, calib_file in pairs:
        if not calib_file.is_file():
            raise FileNotFoundError(f"no calib file for {label_file.name}: {calib_file}")
    rows, failure = [], None  # (label, its file, camera, frame) per kept label
    for label_file, calib_file in pairs:
        try:
            intr = _parse_file(parse_calib, calib_file)
            file_labels = _parse_file(parse_label_file, label_file)
        except (OSError, ValueError) as err:  # ParseError is a ValueError
            failure = err
            break
        stem = label_file.stem
        frame = int(stem) if stem.isascii() and stem.isdigit() else stem
        camera = (intr.focal_length, *intr.principal_point)
        rows += [(label, label_file, camera, frame) for label in file_labels
                 if not (label.is_dontcare or skip_hard and label.is_hard)]
    kept, files, cameras, frames = zip(*rows) if rows else ((),) * 4
    pose, depths = _label_poses(kept, files)
    if failure is not None:
        raise failure
    f, cx, cy = np.reshape(cameras, (-1, 3)).T
    scene = _observe(pose, depths, f, _row_noise(NoiseModel(kind="none"), len(depths), None))
    return scene_records(scene, (f, cx, cy), [lab.class_name for lab in kept], frame=frames)


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


class SceneColumns(NamedTuple):
    """A scene as columns, row i holding object i; what observe_scene returns.

    x .. height are the (N,) pose columns.  depths, heights and ratios are
    (N, 4), in KEYEDGES and RATIO_KEYS order; heights and ratios carry the
    noise, depths stay geometric.  sigmas are the (N, 4) ratio sigmas in
    SIGMA_KEYS order, None when the noise model contributes none.  redraws
    counts the pose rows rejected before the N-th accepted one, clamped the
    noisy heights raised to MIN_HEIGHT_PX.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    yaw: np.ndarray
    length: np.ndarray
    width: np.ndarray
    height: np.ndarray
    depths: np.ndarray
    heights: np.ndarray
    ratios: np.ndarray
    sigmas: np.ndarray | None
    redraws: int
    clamped: int


def min_tuple_distortion(depths: np.ndarray) -> np.ndarray:
    """Worst conditioning over the four canonical tuples, per row of (N, 4) keyedge depths.

    Each tuple's usable signal is max(|r1 - 1|, |r2 - 1|); the minimum over
    tuples bounds how close any inversion comes to the degeneracy tolerance.
    Requires every depth positive.
    """
    # the stored ratios r_ab, r_bc, r_cd, r_da; r_pq = d_q / d_p
    pairs, _ = reference_pairs((depths[:, NEXT_KEYEDGE] / depths).T)
    return np.minimum.reduce([np.maximum(abs(r1 - 1.0), abs(r2 - 1.0)) for r1, r2 in pairs])


def _pose_columns(rows: np.ndarray, ground_y: float):
    """x, y, z, yaw, length, width, height of (M, 6) pose draws."""
    z, gamma, yaw, length, width, height = rows.T
    return z * np.tan(gamma), ground_y - height / 2.0, z, yaw, length, width, height


def _corners(x, z, yaw, length, width):
    return corner_columns(x, z, np.sin(yaw), np.cos(yaw), length, width)


def _keyedge_depths(x, z, yaw, length, width) -> np.ndarray:
    """(N, 4) depths of the keyedges a, b, c, d of pose columns."""
    return np.stack([cz for _, cz in _corners(x, z, yaw, length, width)], axis=1)


def _poses(columns) -> list[BoxPose3D]:
    """The poses of pose columns (x, y, z, yaw, length, width, height), in row order."""
    return [BoxPose3D(center=(x, y, z), dims=(length, width, height), yaw=yaw)
            for x, y, z, yaw, length, width, height in zip(*(column.tolist() for column in columns))]


def _draw_poses(cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The scene's (N, 6) pose rows, their (N, 4) keyedge depths and the rows rejected.

    The rows (depth, viewing angle, yaw, length, width, height) come in
    blocks of uniform(lows, highs, size=(M, 6)) from the pose stream,
    SeedSequence(seed, spawn_key=(0,)), and the scene is the first count
    accepted rows.  A row is rejected when a keyedge sits at z <= 0, or
    below cfg.min_distortion when that rejection is enabled.  Each block is
    as large as the objects still missing, so every row drawn is consumed.
    A run of MAX_POSE_RETRIES rejections before an accepted row is a
    ConfigError naming the object that run was drawn for.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    lows, highs = np.array([cfg.depth_range, cfg.gamma_range, (-math.pi, math.pi),
                            cfg.length_range, cfg.width_range, cfg.height_range]).T
    blocks, accepted, drawn, run = [], 0, 0, 0  # run: rejections since the last accepted row
    while accepted < cfg.count:
        rows = rng.uniform(lows, highs, size=(cfg.count - accepted, 6))
        x, _, z, yaw, length, width, _ = _pose_columns(rows, cfg.ground_y)
        depths = _keyedge_depths(x, z, yaw, length, width)
        ok = depths.min(axis=1) > 0.0
        if cfg.min_distortion > 0.0:
            ok[ok] = min_tuple_distortion(depths[ok]) >= cfg.min_distortion
        hits = np.flatnonzero(ok)
        # the rejections before each accepted row, then those after the last
        runs = np.diff(np.concatenate(([-1], hits, [len(rows)]))) - 1
        runs[0] += run
        failed = np.flatnonzero(runs >= MAX_POSE_RETRIES)
        if failed.size:
            raise ConfigError(
                f"object {accepted + failed[0]}: no acceptable pose in {MAX_POSE_RETRIES} draws "
                f"(min_distortion={cfg.min_distortion})"
            )
        blocks.append((rows[hits], depths[hits]))
        accepted, drawn, run = accepted + hits.size, drawn + len(rows), int(runs[-1])
    if not blocks:
        return np.empty((0, 6)), np.empty((0, 4)), 0
    rows, depths = (np.concatenate(parts) for parts in zip(*blocks))
    return rows, depths, drawn - cfg.count


def generate_scene(cfg: SceneConfig) -> list[BoxPose3D]:
    """The scene's poses, in object order, read off the pose columns of observe_scene."""
    rows, _, _ = _draw_poses(cfg)
    return _poses(_pose_columns(rows, cfg.ground_y))


class _RowNoise(NamedTuple):
    """A noise model at N rows, so that rows of cells at several levels share one pass.

    offsets is the (N, 4) gaussian_height draw, None for the other kinds;
    quantum (pixel_quantization) and sigma (sigma_effective) are floats
    when every row shares them, else (N, 1) columns.
    """

    kind: str
    offsets: np.ndarray | None
    quantum: float | np.ndarray
    sigma: float | np.ndarray


def _row_noise(noise: NoiseModel, n: int, rng) -> _RowNoise:
    """The noise model at n rows; only gaussian_height draws from rng: one normal(0, sigma_px, (n, 4))."""
    offsets = rng.normal(0.0, noise.sigma_px, size=(n, 4)) if noise.kind == "gaussian_height" else None
    return _RowNoise(noise.kind, offsets, noise.quantum_px, sigma_effective(noise))


def _noisy_heights(clean: np.ndarray, noise: _RowNoise) -> tuple[np.ndarray, int]:
    """(N, 4) clean heights under the row noise, and how many it raised to MIN_HEIGHT_PX."""
    if noise.kind == "none":
        return clean, 0
    if noise.kind == "gaussian_height":
        noisy = clean + noise.offsets
    else:
        q = noise.quantum
        noisy = q * np.round(clean / q)
    low = noisy < MIN_HEIGHT_PX
    return np.where(low, MIN_HEIGHT_PX, noisy), int(low.sum())


def _ratio_sigmas(ratios: np.ndarray, heights: np.ndarray, sigma) -> np.ndarray:
    """(N, 4) ratio sigmas of (N, 4) ratios and heights under per-height sigma, a float or an (N, 1) column.

    A row whose sigma is 0 has no sigma: it gets NaN, which solve_batch reads as none given.
    """
    inverse_square = 1.0 / heights ** 2
    sigma = np.where(sigma > 0.0, sigma, np.nan)
    return ratios * sigma * np.sqrt(inverse_square + inverse_square[:, NEXT_KEYEDGE])


def _heights_row(obs: KeyedgeObservation) -> np.ndarray:
    return np.array([[obs.heights[k] for k in KEYEDGES]])


def perturb_heights(
    obs: KeyedgeObservation, noise: NoiseModel, seed
) -> KeyedgeObservation:
    """Apply the noise model to the four heights; clamp to MIN_HEIGHT_PX.

    A one-row view of observe_scene's noise stage.  seed may be an integer
    or a numpy Generator; only gaussian_height consumes randomness.
    """
    heights, _ = _noisy_heights(_heights_row(obs), _row_noise(noise, 1, np.random.default_rng(seed)))
    return replace(obs, heights=dict(zip(KEYEDGES, heights[0].tolist())))


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

    sigma(r_pq) = r_pq * sigma_px * sqrt(1/h_p^2 + 1/h_q^2), a one-row view
    of observe_scene's sigma stage.  Returns None when the noise model
    contributes nothing, in which case records carry no sigma fields.
    """
    sigma = sigma_effective(noise)
    if sigma == 0.0:
        return None
    ratios = np.array([list(keyedge_ratios(obs).values())])
    return dict(zip(SIGMA_KEYS, _ratio_sigmas(ratios, _heights_row(obs), sigma)[0].tolist()))


def _draw_cell(cfg: SceneConfig, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, int, _RowNoise]:
    """_draw_poses(cfg), and the row noise of the noise stream, SeedSequence(seed, spawn_key=(1,))."""
    rows, depths, redraws = _draw_poses(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    return rows, depths, redraws, _row_noise(noise, len(rows), rng)


def observe_scene(cfg: SceneConfig, intr: CameraIntrinsics, noise: NoiseModel) -> SceneColumns:
    """The scene of cfg drawn, projected, perturbed and given its ratio sigmas, as columns.

    The poses are the first cfg.count accepted rows of the pose stream (see
    _draw_poses).  The keyedges project to h_i = f * height / d_i, and the
    noise is one (N, 4) block of the noise stream,
    SeedSequence(seed, spawn_key=(1,)).  So clean and noisy runs share
    their poses, and scenes are prefix stable under count changes.
    """
    rows, depths, redraws, row_noise = _draw_cell(cfg, noise)
    return _observe(_pose_columns(rows, cfg.ground_y), depths, intr.focal_length, row_noise, redraws)


def _observe(pose, depths, focal, noise: _RowNoise, redraws: int = 0) -> SceneColumns:
    """SceneColumns of pose columns and their (N, 4) keyedge depths, seen through focal lengths.

    The keyedges project to h_i = f * height / d_i, focal being a float or
    an (N,) column; the row noise perturbs the heights, and the ratios and
    sigmas follow from the noisy heights.
    """
    clean = np.reshape(focal, (-1, 1)) * pose[6][:, None] / depths
    heights, clamped = _noisy_heights(clean, noise)
    ratios = heights / heights[:, NEXT_KEYEDGE]
    sigmas = _ratio_sigmas(ratios, heights, noise.sigma) if np.any(noise.sigma) else None
    return SceneColumns(*pose, depths, heights, ratios, sigmas, redraws, clamped)


def sensitivity_rows(scene: SceneConfig, intr: CameraIntrinsics, kind: str,
                     params, bands, gamma_bins_deg) -> list[dict]:
    """sensitivity's rows (SENSITIVITY_FIELDS), one per (noise level, depth band, gamma bin) cell.

    A cell is scene, with its count trials, in its band and bin (degrees),
    under the seed SeedSequence(scene.seed, spawn_key=(level, band, bin)).
    Each cell is drawn as observe_scene draws it; then up to _BLOCK rows of
    whole cells (a wider cell alone) are projected, perturbed and solved in
    one solve_batch call, so each row is what its cell alone gives.
    """
    if scene.count < 1:
        raise ConfigError(f"trials must be positive, got {scene.count}")
    cells = product(enumerate(params), enumerate(bands), enumerate(gamma_bins_deg))
    rows = []
    while group := list(islice(cells, max(1, _BLOCK // scene.count))):
        rows += _group_rows(scene, intr, kind, group)  # a call, so that no group's arrays outlive it
    return rows


def _group_rows(scene: SceneConfig, intr: CameraIntrinsics, kind: str, group) -> list[dict]:
    """The rows of a group of ((level, param), (band, range), (bin, range)) cells, solved in one call."""
    trials, heads, drawn = scene.count, [], []
    for (i, param), (j, band), (k, (glo, ghi)) in group:
        noise = NoiseModel(kind, sigma_px=param if kind == "gaussian_height" else 0.0,
                           quantum_px=param if kind == "pixel_quantization" else 0.0)
        cell_seed = np.random.SeedSequence(scene.seed, spawn_key=(i, j, k))
        cfg = replace(scene, seed=int(cell_seed.generate_state(1, np.uint64)[0]),
                      depth_range=band, gamma_range=(math.radians(glo), math.radians(ghi)))
        heads.append((kind, param, *band, glo, ghi, trials))
        try:
            drawn.append(_draw_cell(cfg, noise))
        except ConfigError as err:  # named by its level, band and bin, as in its row
            cell = ", ".join(f"{f}={v}" for f, v in zip(SENSITIVITY_FIELDS[1:6], heads[-1][1:6]))
            raise ConfigError(f"cell ({cell}): {err}") from None
    pose_rows, depths, _, noises = zip(*drawn)
    _, offsets, quanta, sigmas = zip(*noises)
    row_noise = _RowNoise(kind, None if offsets[0] is None else np.concatenate(offsets), *(
        v[0] if len(set(v)) == 1 else np.repeat(v, trials)[:, None] for v in (quanta, sigmas)))
    observed = _observe(_pose_columns(np.concatenate(pose_rows), scene.ground_y),
                        np.concatenate(depths), intr.focal_length, row_noise)
    del drawn, pose_rows, depths, noises, offsets, row_noise  # so that the solve's peak holds no draw
    batch = solve_batch(observed.ratios, observed.sigmas, observed.length, observed.width)
    rel_depth = abs(batch.d_fusion - observed.z) / observed.z
    abs_yaw = abs(wrap_turn(batch.theta_fusion - observed.yaw))
    errors = _cell_errors(batch.failed, rel_depth, abs_yaw, len(heads))
    return [dict(zip(SENSITIVITY_FIELDS, (*head, *cell))) for head, cell in zip(heads, errors)]


def _cell_errors(failed, rel_depth, abs_yaw, cells: int) -> list[tuple]:
    """n_failed, then mean and median of relative depth error and of absolute yaw error, per cell.

    The rows are cells of equal size, and a failed trial is left out.  A
    cell's statistics are a row of the (cells, trials) matrix's, or, when
    it has a failed trial, of its kept slice's, None when that is empty.
    mean(axis=1) and np.median(axis=1) give a row the bits .mean() and
    np.median give it alone; np.add.reduceat sums in another order.
    """
    failed, *matrices = (values.reshape(cells, -1) for values in (failed, rel_depth, abs_yaw))
    stats = (stat(m, axis=1).tolist() for m in matrices for stat in (np.mean, np.median))
    errors = list(zip(failed.sum(axis=1).tolist(), *stats))
    for c in np.flatnonzero(failed.any(axis=1)).tolist():
        kept = (m[c][~failed[c]] for m in matrices)
        errors[c] = (errors[c][0], *chain.from_iterable(
            (float(v.mean()), float(np.median(v))) if len(v) else (None, None) for v in kept))
    return errors


def object_record(index: int, class_name: str, pose: BoxPose3D, intr: CameraIntrinsics,
                  obs: KeyedgeObservation, sigmas: dict[str, float] | None = None) -> dict:
    """Flatten one object into the RECORD_FIELDS schema, a one-row view of scene_records.

    obs may be a perturbed observation; ratios and heights then reflect the
    noise while the pose fields, depths, and bbox stay geometric.
    """
    ratios = np.array([list(keyedge_ratios(obs).values())])  # ZeroHeight on a height <= 0
    scene = SceneColumns(
        *np.array([[pose.x, pose.y, pose.z, pose.yaw, *pose.dims]]).T,
        np.array([[obs.depths[k] for k in KEYEDGES]]), _heights_row(obs), ratios,
        np.array([[sigmas[key] for key in SIGMA_KEYS]]) if sigmas else None, 0, 0,
    )
    (rec,) = scene_records(scene, (intr.focal_length, *intr.principal_point), [class_name])
    return {**rec, "index": index}


class _Rows:
    """The row builder of every record: dict(zip(fields, row)) for each row of (N,) columns.

    A column is an array, or a (values, present) pair of arrays whose row
    is None where present is False; the first column is an array.  Each
    pass over the rows builds them afresh from the columns, _BLOCK rows at
    a time, so no more than one block of row dicts is ever held.  A value
    that is _ABSENT, an optional echoed field its record lacks, is left out
    of its row, and its field out of fields when there are rows and every
    row lacks it: fields is the header of the rows' CSV.
    """

    def __init__(self, fields, columns):
        self.fields, self.columns, self.sparse = [], [], False
        for field, column in zip(fields, columns):
            if isinstance(column, np.ndarray) and column.dtype == object:
                lacking = [v is _ABSENT for v in column]
                if lacking and all(lacking):
                    continue
                self.sparse = self.sparse or any(lacking)
            self.fields.append(field)
            self.columns.append(column)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        fields = self.fields
        for start in range(0, len(self), _BLOCK):
            rows = zip(*(_block(column, slice(start, start + _BLOCK)) for column in self.columns))
            if self.sparse:
                yield from ({f: v for f, v in zip(fields, row) if v is not _ABSENT} for row in rows)
            else:
                yield from (dict(zip(fields, row)) for row in rows)


def _block(column, rows: slice) -> list:
    """A column's values at rows, as Python objects."""
    if isinstance(column, tuple):
        values, present = column
        return np.where(present[rows], values[rows], None).tolist()
    return column[rows].tolist()


def scene_records(scene: SceneColumns, camera, class_names, **extra) -> _Rows:
    """The records of a scene's rows, RECORD_FIELDS when it has sigmas, else PLAIN_FIELDS.

    camera is (f, cx, cy), each a float or an (N,) column, and class_names names
    each row (itertools.repeat(name) names them all).  extra columns, such as
    labelgen's frame, follow the schema's fields.  gamma is atan2(x, z), alpha is
    yaw - gamma wrapped to [-pi, pi), and the box is the tight pixel box of the
    eight box corners: keyedges are vertical, so the four keyedges bound it.
    The records are built from these columns a block at a time on each pass
    over them, so synth and labelgen stream them to their files.
    """
    n = len(scene.x)
    f, cx, cy = (np.reshape(v, (-1, 1)) for v in camera)
    gamma = np.arctan2(scene.x, scene.z)
    alpha = wrap_turn(scene.yaw - gamma)
    # pixel columns and rows, one keyedge per column
    corners = _corners(scene.x, scene.z, scene.yaw, scene.length, scene.width)
    bottom_y = (scene.y + scene.height / 2.0)[:, None]
    us = cx + f * np.stack([px for px, _ in corners], axis=1) / scene.depths
    v_bot = cy + f * bottom_y / scene.depths
    v_top = cy + f * (bottom_y - scene.height[:, None]) / scene.depths
    columns = [
        np.arange(n), _objects(class_names, n),
        scene.x, scene.y, scene.z, scene.length, scene.width, scene.height, scene.yaw, alpha, gamma,
        np.searchsorted(QUARTER_EDGES, alpha, side="right"),
        *scene.ratios.T, *scene.heights.T, *scene.depths.T,
        us.min(axis=1), v_top.min(axis=1), us.max(axis=1), v_bot.max(axis=1),
    ]
    fields = PLAIN_FIELDS
    if scene.sigmas is not None:
        columns.extend(scene.sigmas.T)
        fields = RECORD_FIELDS
    return _Rows((*fields, *extra), [*columns, *(_objects(v, n) for v in extra.values())])


def _objects(values, n: int) -> np.ndarray:
    """The first n values, as they are, in an (n,) object array."""
    return np.fromiter(values, dtype=object, count=n)


def record_name(pos: int, record: dict) -> str:
    """How solve names a record in an error: its 0-based position and its index field."""
    return f"record {pos} (index {record.get('index')})"


class _Rule(NamedTuple):
    """A check on a float64 column: ok(values) is True where a value passes; problem is what a failure breaks."""

    ok: Callable[[np.ndarray], np.ndarray]
    problem: str


_FINITE = _Rule(np.isfinite, "must be finite")
_FINITE_POSITIVE = _Rule(lambda values: (0.0 < values) & (values < math.inf), "must be finite and positive")
_FINITE_NONNEGATIVE = _Rule(lambda values: (0.0 <= values) & (values < math.inf), "must be finite and nonnegative")
_POSITIVE = _FINITE_POSITIVE._replace(problem="must be positive")  # the dims, worded as recovery.check_dims


class _Fields(NamedTuple):
    """Fields read together, then each held to rule; with no rule, each is echoed as read.

    A record that lacks a field reads as default, and a field with a rule is
    absent where it reads so: a required group needs every field, an
    optional one all or none, and an absent value is NaN.
    """

    keys: tuple[str, ...]
    rule: _Rule | None = None
    optional: bool = False
    default: object = _ABSENT


class _Schema(NamedTuple):
    """A record kind: how a bad record is named, its fields in check order, and what builds a record of a row."""

    name: Callable[[int, dict], str]
    fields: tuple[_Fields, ...]
    build: Callable | None = None


_BOX = tuple(_Fields((key,), _FINITE) for key in BBOX_FIELDS)  # a built row opens with them, as bbox2d
# solve's ratios and sigmas, which record_tuples and record_ratio_sigmas read alone, as one row
_RATIOS = _Schema(record_name, (*(_Fields((key,), _FINITE_POSITIVE) for key in RATIO_KEYS),
                                _Fields(SIGMA_KEYS, _FINITE_NONNEGATIVE, optional=True)), lambda *row: row)
_SOLVE = _Schema(record_name, (
    _Fields(("index",), default=None), _Fields(("class_name",), default=""), _Fields(("z",)),
    *_RATIOS.fields, _Fields(("length", "width"), _POSITIVE),
))
_DETECTION = _Schema(lambda pos, _: f"detection {pos}", (
    *_BOX, _Fields(("confidence",), _FINITE), _Fields(("d_est",), _FINITE_POSITIVE),
    _Fields(("gamma_est",), _FINITE, optional=True, default=None),  # so a null gamma_est is none
    _Fields(("frame",), default=None),
), lambda *row: DetectionRecord(row[:4], *row[4:]))
_GROUND_TRUTH = _Schema(lambda pos, _: f"ground truth {pos}", (
    *_BOX, _Fields(("z",), _FINITE_POSITIVE), _Fields(("gamma",), _FINITE), _Fields(("frame",), default=None),
), lambda *row: GroundTruthRecord(row[:4], *row[4:]))


def _floats(key: str, values) -> np.ndarray:
    """A field's values as float64; each must be a JSON number (a bool is none) in the float range."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise ParseError(f"missing field {key!r}" if bad is _ABSENT else f"{key} must be a number, got {bad!r}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ParseError(f"{key} is beyond the float range") from None


def _checked(schema: _Schema, picked: list):
    """The columns of the rows picked by schema's fields, or the records schema.build makes of their rows.

    Each field is echoed as read (_echoed) or held to its rule, and the
    first field to fail, in schema order, raises a ValueError.  A group's
    fields are each read as numbers before any is held to the rule, so that
    a block of one record fails as the record does.  build is given None
    for an optional number that a row lacks.
    """
    columns = iter(zip(*picked)) if picked else repeat(())
    checked = {}
    for group in schema.fields:
        values = [next(columns) for _ in group.keys]
        if group.rule is None:
            checked.update(zip(group.keys, map(_echoed, values)))
            continue
        if group.optional:  # all or none: a row that has any of the fields must have each
            has = np.array([[v is not group.default for v in column] for column in values], dtype=bool).any(axis=0)
            values = [tuple(compress(column, has)) for column in values]
        numbers = [_floats(key, column) for key, column in zip(group.keys, values)]
        for key, column in zip(group.keys, numbers):
            ok = group.rule.ok(column)
            if not ok.all():
                raise ParseError(f"{key} {group.rule.problem}, got {column[~ok][0].item()!r}")
        if group.optional:
            spread = np.full((len(numbers), len(has)), math.nan)
            spread[:, has] = numbers
            numbers = list(spread)
        checked.update(zip(group.keys, numbers))
    if schema.build is None:
        return checked
    values = [(np.where(np.isnan(checked[key]), None, checked[key]) if group.optional else checked[key]).tolist()
              for group in schema.fields for key in group.keys]
    return [schema.build(*row) for row in zip(*values)]


def _blocks(schema: _Schema, records):
    """The records checked by schema (_checked), _BLOCK at a time, each block whole before it is given.

    Only in a block whose check fails, or where a line that fails to decode
    ended the read, are the records checked one at a time, by the same
    rules, to name the first bad one in file order; the decoding error is
    raised when none before it is bad.
    """
    keys = [key for group in schema.fields for key in group.keys]
    defaults = [group.default for group in schema.fields for _ in group.keys]
    for start in count(0, _BLOCK):
        picked = []
        try:
            for rec in islice(records, _BLOCK):
                picked.append(tuple(map(rec.get, keys, defaults)))
            yield _checked(schema, picked)
        except ValueError as err:  # a line that failed to decode, or a bad record among those picked
            for pos, row in enumerate(picked, start):
                try:
                    _checked(schema, [row])
                except ValueError as bad:  # a record's own checks, such as its box's order, included
                    raise ParseError(f"{schema.name(pos, dict(zip(keys, row)))}: {bad}") from None
            raise err
        if len(picked) < _BLOCK:
            return


def record_tuples(record: dict) -> tuple[RatioTuple, ...]:
    """Canonical tuples from a record's four stored ratios."""
    (row,) = next(_blocks(_RATIOS, iter([record])))
    return object_centric_tuples(dict(zip(RATIO_KEYS, row)))


def record_ratio_sigmas(record: dict) -> dict[str, tuple[float, float]] | None:
    """Per-reference (sigma1, sigma2) matching record_tuples' pair order.

    A reversed ratio is the reciprocal, so its first-order sigma transforms
    as sigma(1/r) = sigma(r) / r^2.  Returns None when the record carries
    no sigma fields.
    """
    (row,) = next(_blocks(_RATIOS, iter([record])))
    if row[len(RATIO_KEYS)] is None:
        return None
    _, pairs = reference_pairs(row[:len(RATIO_KEYS)], row[len(RATIO_KEYS):])
    return dict(zip(KEYEDGES, pairs))


def _echoed(values: tuple) -> np.ndarray:
    """Values to echo as read: float64 or int64 when all are floats or all ints, else objects.

    An object column holds each distinct string once, as class names repeat.
    """
    kinds = set(map(type, values))
    if kinds in ({float}, {int}):
        try:
            return np.array(values, dtype=kinds.pop())
        except OverflowError:  # an int beyond int64
            pass
    if kinds == {str}:
        values = tuple(map({v: v for v in values}.get, values))
    return _objects(values, len(values))


def _joined(parts) -> np.ndarray:
    """The blocks of a column in one array, as objects when the dtypes of the nonempty ones differ."""
    parts = [part for part in parts if len(part)] or parts
    if len({part.dtype for part in parts}) > 1:
        parts = [part.astype(object) for part in parts]
    return np.concatenate(parts)


def solve_columns(path) -> tuple[tuple, tuple]:
    """The columns each output row echoes and solve_batch's (R, S, L, W), from one read of a JSON-lines file.

    The echo is index, class_name, z (_ABSENT where a record has none), length and width; S is
    NaN where a record has no sigma fields.  The records are checked by solve's schema
    (_blocks), and every record is read and checked before this returns.
    """
    parts = [(block["index"], block["class_name"], block["z"],
              np.stack([block[key] for key in RATIO_KEYS], axis=1),
              np.stack([block[key] for key in SIGMA_KEYS], axis=1), block["length"], block["width"])
             for block in _blocks(_SOLVE, iter_jsonl(path))]
    index, class_name, z, R, S, L, W = (_joined(column) for column in zip(*parts))
    return (index, class_name, z, L, W), (R, S, L, W)


# the skipped field of each (4,) unobservable mask, at the mask's bits read as a binary number
_SKIPPED = np.array([";".join(f"{ref}:{UNOBSERVABLE}" for ref in compress(KEYEDGES, bits))
                     for bits in product((False, True), repeat=len(KEYEDGES))], dtype=object)


def solved_rows(echo, batch) -> _Rows:
    """solve's output rows, one per record, echoing solve_columns' echo."""
    ok = batch.pose.observable
    return _Rows(SOLVE_FIELDS, [
        *echo, batch.d_fusion, batch.theta_fusion, np.full(len(ok), THETA_FUSION_RULE, dtype=object),
        *((values[:, k], ok[:, k]) for k in range(len(KEYEDGES))
          for values in (batch.pose.theta, batch.pose.d_obj, batch.sigma_d, batch.weight)),
        _SKIPPED[~ok @ (1 << np.arange(len(KEYEDGES) - 1, -1, -1))],
    ])


def read_detections(path) -> list[DetectionRecord]:
    """eval-arde's detections, checked by _DETECTION; a bad one is named "detection <0-based position>"."""
    return list(chain.from_iterable(_blocks(_DETECTION, iter(read_jsonl(path)))))


def read_ground_truth(path) -> list[GroundTruthRecord]:
    """eval-arde's ground truth, checked by _GROUND_TRUTH; a bad one is named "ground truth <0-based position>"."""
    return list(chain.from_iterable(_blocks(_GROUND_TRUTH, iter(read_jsonl(path)))))


@contextmanager
def _replacing(path, newline: str):
    """A UTF-8 text file that takes path's place only when the with block completes.

    It is written beside path and renamed over it, so a run that fails
    partway leaves no partial file and any earlier file at path untouched.
    A symbolic link keeps pointing at the new file.  A path that exists
    but is no regular file, such as a pipe or a device, is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    path = path.resolve()
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def write_jsonl(path, records) -> int:
    """One JSON object per line, UTF-8, LF terminated; returns the number written."""
    count = 0
    with _replacing(path, "\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
            count += 1
    return count


def iter_jsonl(path):
    """The objects of a JSON-lines file, one at a time; blank lines are skipped.

    Bad UTF-8, invalid JSON and a line that is not an object are each a
    ParseError that names the path and the line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii() and _UNDECODED.search(line):
                raise ParseError(f"{path}: invalid UTF-8", line=line_no)
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as err:  # also an overlong integer, or deep nesting
                reason = getattr(err, "msg", err)
                raise ParseError(f"{path}: invalid JSON: {reason}", line=line_no) from None
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: expected a JSON object", line=line_no)
            yield rec


def read_jsonl(path) -> list[dict]:
    return list(iter_jsonl(path))


def write_csv(path, records, fields) -> None:
    """CSV of the records with header fields, the schema they follow; None is an empty cell."""
    with _replacing(path, "") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)


def write_json(path, obj) -> None:
    """One JSON value, indented by two spaces, LF terminated."""
    with _replacing(path, "\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
