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
and the sensitivity grid read; labelgen's labels pass through the same
projection stage and record builder.  generate_scene, perturb_heights,
ratio_sigmas and object_record are views of these stages for callers that
want objects.

Every record format lives here, solve's rows (SOLVE_FIELDS) included; one
row builder makes every record from columns, and solve checks its records
as columns.  Every writer replaces its target only once it is whole.

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
from itertools import chain, compress, islice, product
from pathlib import Path
from typing import NamedTuple, Sequence

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
# Column of each keyedge's clockwise neighbour in (N, 4) arrays: r_pq = h_p / h_q = d_q / d_p.
NEXT_KEYEDGE = [1, 2, 3, 0]
MAX_POSE_RETRIES = 100
_BLOCK = 1024  # rows per block wherever records are built, read or written
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
    scene = _observe(pose, depths, f, NoiseModel(kind="none"))
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


def _noisy_heights(clean: np.ndarray, noise: NoiseModel, rng) -> tuple[np.ndarray, int]:
    """(N, 4) clean heights under the noise model, and how many it raised to MIN_HEIGHT_PX.

    Only gaussian_height draws from rng: one normal(0, sigma_px, (N, 4)) block.
    """
    if noise.kind == "none":
        return clean, 0
    if noise.kind == "gaussian_height":
        noisy = clean + rng.normal(0.0, noise.sigma_px, size=clean.shape)
    else:
        q = noise.quantum_px
        noisy = q * np.round(clean / q)
    low = noisy < MIN_HEIGHT_PX
    return np.where(low, MIN_HEIGHT_PX, noisy), int(low.sum())


def _ratio_sigmas(ratios: np.ndarray, heights: np.ndarray, noise: NoiseModel) -> np.ndarray | None:
    """(N, 4) ratio sigmas of (N, 4) ratios and heights; None when the noise model has no sigma."""
    s = sigma_effective(noise)
    if s == 0.0:
        return None
    inverse_square = 1.0 / heights ** 2
    return ratios * s * np.sqrt(inverse_square + inverse_square[:, NEXT_KEYEDGE])


def _heights_row(obs: KeyedgeObservation) -> np.ndarray:
    return np.array([[obs.heights[k] for k in KEYEDGES]])


def perturb_heights(
    obs: KeyedgeObservation, noise: NoiseModel, seed
) -> KeyedgeObservation:
    """Apply the noise model to the four heights; clamp to MIN_HEIGHT_PX.

    A one-row view of observe_scene's noise stage.  seed may be an integer
    or a numpy Generator; only gaussian_height consumes randomness.
    """
    heights, _ = _noisy_heights(_heights_row(obs), noise, np.random.default_rng(seed))
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
    ratios = np.array([list(keyedge_ratios(obs).values())])
    sigmas = _ratio_sigmas(ratios, _heights_row(obs), noise)
    return None if sigmas is None else dict(zip(SIGMA_KEYS, sigmas[0].tolist()))


def observe_scene(cfg: SceneConfig, intr: CameraIntrinsics, noise: NoiseModel) -> SceneColumns:
    """The scene of cfg drawn, projected, perturbed and given its ratio sigmas, as columns.

    The poses are the first cfg.count accepted rows of the pose stream (see
    _draw_poses).  The keyedges project to h_i = f * height / d_i, and the
    noise is one (N, 4) block of the noise stream,
    SeedSequence(seed, spawn_key=(1,)).  So clean and noisy runs share
    their poses, and scenes are prefix stable under count changes.
    """
    rows, depths, redraws = _draw_poses(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    return _observe(_pose_columns(rows, cfg.ground_y), depths, intr.focal_length, noise, rng, redraws)


def _observe(pose, depths, focal, noise: NoiseModel, rng=None, redraws: int = 0) -> SceneColumns:
    """SceneColumns of pose columns and their (N, 4) keyedge depths, seen through focal lengths.

    The keyedges project to h_i = f * height / d_i, focal being a float or
    an (N,) column; the noise model draws from rng, and the ratios and
    sigmas follow from the noisy heights.
    """
    clean = np.reshape(focal, (-1, 1)) * pose[6][:, None] / depths
    heights, clamped = _noisy_heights(clean, noise, rng)
    ratios = heights / heights[:, NEXT_KEYEDGE]
    sigmas = _ratio_sigmas(ratios, heights, noise)
    return SceneColumns(*pose, depths, heights, ratios, sigmas, redraws, clamped)


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
    a time, so no more than one block of row dicts is ever held.  When
    sparse, a field whose value is _ABSENT is left out of its row.
    """

    def __init__(self, fields, columns, sparse: bool = False):
        self.fields, self.columns, self.sparse = fields, columns, sparse

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


def record_number(record: dict, key: str) -> float:
    """record[key] as a float; a JSON value that is not a number is a ParseError."""
    value = record[key]
    if type(value) not in (int, float):
        raise ParseError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{key} is beyond the float range") from None


def _finite(record: dict, key: str, positive: bool = False) -> float:
    """record_number(record, key), which must be finite, and positive when asked."""
    value = record_number(record, key)
    if not math.isfinite(value) or positive and value <= 0.0:
        raise ParseError(f"{key} must be finite{' and positive' * positive}, got {value!r}")
    return value


def record_ratios(record: dict) -> list[float]:
    """A record's four stored ratios in RATIO_KEYS order, each finite and positive."""
    return [_finite(record, key, positive=True) for key in RATIO_KEYS]


def record_sigmas(record: dict) -> list[float] | None:
    """A record's four ratio sigmas in SIGMA_KEYS order, each finite and nonnegative.

    Returns None when the record carries no sigma fields; one that carries
    some must carry all four.
    """
    if not any(key in record for key in SIGMA_KEYS):
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


def _solve_input(rec: dict) -> None:
    """Raise the first problem of a solve record: its ratios, then its sigmas, then its dims."""
    record_ratios(rec)
    record_sigmas(rec)
    check_dims(*(record_number(rec, key) for key in ("length", "width")))


_ABSENT = object()  # what solve picks for a field its record lacks, unless _SOLVE_PICKS names a default
_SOLVE_PICKS = {"index": None, "class_name": "", "z": _ABSENT,
                **dict.fromkeys((*RATIO_KEYS, "length", "width", *SIGMA_KEYS), _ABSENT)}


def _checked_numbers(numbers) -> tuple | None:
    """(R, S, L, W) of the picked ratio, dim and sigma columns; None where _solve_input refuses a record."""
    present = np.array([[v is not _ABSENT for v in column] for column in numbers[6:]], dtype=bool)
    sigmas = [list(compress(column, present[0])) for column in numbers[6:]]
    if (present != present[0]).any() or not set(map(type, chain(*numbers[:6], *sigmas))) <= {int, float}:
        return None  # a record with only some of the four sigmas, or a value that is no JSON number
    try:
        positive, sigmas = np.array(numbers[:6], dtype=float), np.array(sigmas, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    if not (((0.0 < positive) & (positive < math.inf)).all()
            and ((0.0 <= sigmas) & (sigmas < math.inf)).all()):
        return None
    S = np.full((len(present[0]), 4), math.nan)
    S[present[0]] = sigmas.T
    return positive[:4].T, S, *positive[4:]


def _solve_block(picked: list, start: int, failure: ParseError | None = None) -> tuple:
    """The echoed index, class_name and z (_echoed), then (R, S, L, W), of the records picked from start on.

    When a column check fails, or failure ended the read within the block,
    the block's records are checked one at a time, to name the first bad
    one in file order, and failure is raised if none is.
    """
    columns = list(zip(*picked)) or [()] * len(_SOLVE_PICKS)
    numbers = None if failure else _checked_numbers(columns[3:])
    if numbers is None:
        records = ({key: v for key, v in zip(_SOLVE_PICKS, row) if v is not _ABSENT} for row in picked)
        parse_records(records, _solve_input, lambda pos, rec: record_name(start + pos, rec))
        raise failure  # the column checks fail exactly where _solve_input does
    return (*map(_echoed, columns[:3]), *numbers)


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
    NaN where a record has no sigma fields.  The records are picked and checked as columns
    _BLOCK at a time, and every record is read and checked before this returns.  Only in a
    block whose column check fails, or where a line fails to decode, are the records checked
    one at a time, to name the first bad one in file order.
    """
    records, blocks = iter_jsonl(path), []
    while not blocks or len(blocks[-1][0]) == _BLOCK:  # until a block comes back short
        picked, failure = [], None
        try:
            for rec in islice(records, _BLOCK):
                picked.append(tuple(map(rec.get, _SOLVE_PICKS, _SOLVE_PICKS.values())))
        except ParseError as err:
            failure = err
        blocks.append(_solve_block(picked, len(blocks) * _BLOCK, failure))
    index, class_name, z, R, S, L, W = (_joined(parts) for parts in zip(*blocks))
    return (index, class_name, z, L, W), (R, S, L, W)


def solve_fields(echo) -> tuple[str, ...]:
    """SOLVE_FIELDS for solve_columns' echo: without "z" when records exist and none carries it."""
    absent = _absent(echo[2])
    return tuple(f for f in SOLVE_FIELDS if f != "z") if len(absent) and absent.all() else SOLVE_FIELDS


def _absent(z: np.ndarray) -> np.ndarray:
    """Where solve_columns' z echo holds no z."""
    if z.dtype != object:
        return np.zeros(len(z), dtype=bool)
    return np.array([v is _ABSENT for v in z], dtype=bool)


# the skipped field of each (4,) unobservable mask, at the mask's bits read as a binary number
_SKIPPED = np.array([";".join(f"{ref}:{UNOBSERVABLE}" for ref in compress(KEYEDGES, bits))
                     for bits in product((False, True), repeat=len(KEYEDGES))], dtype=object)


def solved_rows(echo, batch) -> _Rows:
    """solve's output rows, one per record; a row carries z only when its record does."""
    ok = batch.pose.observable
    return _Rows(SOLVE_FIELDS, [
        *echo, batch.d_fusion, batch.theta_fusion, np.full(len(ok), THETA_FUSION_RULE, dtype=object),
        *((values[:, k], ok[:, k]) for k in range(len(KEYEDGES))
          for values in (batch.pose.theta, batch.pose.d_obj, batch.sigma_d, batch.weight)),
        _SKIPPED[~ok @ (1 << np.arange(len(KEYEDGES) - 1, -1, -1))],
    ], sparse=_absent(echo[2]).any())


def _bbox(rec: dict) -> tuple[float, float, float, float]:
    return tuple(_finite(rec, key) for key in BBOX_FIELDS)


def _detection(rec: dict) -> DetectionRecord:
    return DetectionRecord(
        bbox2d=_bbox(rec),
        confidence=_finite(rec, "confidence"),
        d_est=_finite(rec, "d_est", positive=True),
        gamma_est=None if rec.get("gamma_est") is None else _finite(rec, "gamma_est"),
        frame=rec.get("frame"),
    )


def _ground_truth(rec: dict) -> GroundTruthRecord:
    return GroundTruthRecord(
        bbox2d=_bbox(rec), d_gt=_finite(rec, "z", positive=True), gamma_gt=_finite(rec, "gamma"),
        frame=rec.get("frame"),
    )


def read_detections(path) -> list[DetectionRecord]:
    """eval-arde's detections; a bad one is named "detection <0-based position>"."""
    return parse_records(read_jsonl(path), _detection, lambda pos, _: f"detection {pos}")


def read_ground_truth(path) -> list[GroundTruthRecord]:
    """eval-arde's ground truth; a bad one is named "ground truth <0-based position>"."""
    return parse_records(read_jsonl(path), _ground_truth, lambda pos, _: f"ground truth {pos}")


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
