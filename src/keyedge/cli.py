"""Command-line front end for synthesis, solving, and evaluation.

Subcommands:

    synth        draw a synthetic scene and write ratio records (JSON-lines)
    labelgen     convert KITTI label+calib files to ground-truth records
    solve        invert ratio records into fused depth/yaw estimates
    eval-arde    score detection records against ground truth (JSON report)
    sensitivity  Monte Carlo error grid over noise x depth band x gamma bin

Each subcommand is one handler that argparse selects through
set_defaults(run=...).  A handler validates its own flags, then checks that
its inputs and output directories exist, and only then does any work.

Angles are degrees on the command line and radians in files.  Every
stochastic command requires --seed and is byte-reproducible given one.

Exit codes: 0 success, 2 usage or configuration error, 3 parse error,
4 I/O error, 5 numeric degeneracy (any keyedge.geometry.Degenerate).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .dataio import (
    LABELGEN_FIELDS,
    NOISE_KINDS,
    PLAIN_FIELDS,
    RECORD_FIELDS,
    ConfigError,
    NoiseModel,
    ParseError,
    SceneConfig,
    kitti_records,
    observe_scene,
    read_detections,
    read_ground_truth,
    record_name,
    scene_records,
    solve_columns,
    solve_fields,
    solved_rows,
    write_csv,
    write_json,
    write_jsonl,
)
from .geometry import CameraIntrinsics, Degenerate, wrap_turn
from .metrics import RECALL_POINTS, NoGroundTruth, arde, arde_by_viewing_angle
from .uncertainty import check_row, solve_batch

SENSITIVITY_FIELDS = (
    "noise_kind", "noise_param",
    "depth_min", "depth_max", "gamma_min_deg", "gamma_max_deg",
    "trials", "n_failed",
    "mean_rel_depth_error", "median_rel_depth_error",
    "mean_abs_yaw_error", "median_abs_yaw_error",
)

# First match wins.
_EXIT_CODES = {
    ConfigError: 2,
    NoGroundTruth: 2,
    ParseError: 3,
    OSError: 4,
    Degenerate: 5,
}


# ---------------------------------------------------------------------------
# Flags.


def _add_scene_flags(p: argparse.ArgumentParser) -> None:
    """The flags that _scene and _intrinsics read."""
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-distortion", type=float, default=0.0,
                   help="reject poses whose best tuple signal is below this")
    g = p.add_argument_group("object dimensions, meters")
    g.add_argument("--length-min", type=float, default=3.2)
    g.add_argument("--length-max", type=float, default=4.8)
    g.add_argument("--width-min", type=float, default=1.4)
    g.add_argument("--width-max", type=float, default=1.9)
    g.add_argument("--height-min", type=float, default=1.3)
    g.add_argument("--height-max", type=float, default=1.8)
    g.add_argument("--ground-y", type=float, default=1.65, help="camera height of the ground plane")
    g = p.add_argument_group("camera")
    g.add_argument("--focal", type=float, default=721.5377, help="focal length, pixels")
    g.add_argument("--cx", type=float, default=609.5593, help="principal point x, pixels")
    g.add_argument("--cy", type=float, default=172.854, help="principal point y, pixels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyedge",
        description="Closed-form monocular box depth/yaw from keyedge height ratios.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene of ratio records")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--count", type=int, required=True, help="number of objects")
    p.add_argument("--out", type=Path, required=True, help="JSON-lines output path")
    p.add_argument("--csv-out", type=Path, help="optional CSV mirror")
    p.add_argument("--depth-min", type=float, default=5.0)
    p.add_argument("--depth-max", type=float, default=60.0)
    p.add_argument("--gamma-min-deg", type=float, default=-40.0)
    p.add_argument("--gamma-max-deg", type=float, default=40.0)
    p.add_argument("--class-name", default="Car")
    _add_scene_flags(p)
    g = p.add_argument_group("pixel noise")
    g.add_argument("--noise", choices=NOISE_KINDS, default="none")
    g.add_argument("--sigma-px", type=float, default=0.0, help="gaussian_height sigma, pixels")
    g.add_argument("--quantum-px", type=float, default=0.0, help="pixel_quantization step, pixels")

    p = sub.add_parser("labelgen", help="KITTI labels + calib to ground-truth records")
    p.set_defaults(run=_cmd_labelgen)
    p.add_argument("--labels", type=Path, required=True, help="label file or directory")
    p.add_argument("--calib", type=Path, required=True, help="calib file or directory")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--csv-out", type=Path)
    p.add_argument("--skip-hard", action="store_true",
                   help="drop labels with truncation > 0.5 or occlusion 2")

    p = sub.add_parser("solve", help="invert ratio records into fused estimates")
    p.set_defaults(run=_cmd_solve)
    p.add_argument("--in", dest="input_path", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--csv-out", type=Path)

    p = sub.add_parser("eval-arde", help="average relative depth error report")
    p.set_defaults(run=_cmd_eval_arde)
    p.add_argument("--detections", type=Path, required=True)
    p.add_argument("--ground-truth", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="JSON report path")
    p.add_argument("--iou-min", type=float, default=0.7)
    p.add_argument("--bin-edges-deg", help="comma-separated viewing-angle bin edges")

    p = sub.add_parser("sensitivity", help="Monte Carlo error grid (CSV)")
    p.set_defaults(run=_cmd_sensitivity)
    p.add_argument("--trials", type=int, required=True, help="trials per grid cell")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--noise", choices=NOISE_KINDS, default="gaussian_height")
    p.add_argument("--noise-params", default="0.5",
                   help="comma-separated sigma or quantum values, one grid layer each")
    p.add_argument("--depth-bands", default="5,20,40,60",
                   help="comma-separated band edges, meters")
    p.add_argument("--gamma-bins-deg", default="-40,40",
                   help="comma-separated bin edges, degrees")
    _add_scene_flags(p)

    return parser


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag} values must be finite, got {text!r}")
    return values


def _edge_pairs(edges: list[float], flag: str) -> list[tuple[float, float]]:
    if len(edges) < 2:
        raise ConfigError(f"{flag} needs at least two edges, got {edges}")
    if any(lo >= hi for lo, hi in zip(edges, edges[1:])):
        raise ConfigError(f"{flag} must be strictly increasing, got {edges}")
    return list(zip(edges, edges[1:]))


def _intrinsics(args: argparse.Namespace) -> CameraIntrinsics:
    try:
        return CameraIntrinsics(focal_length=args.focal, principal_point=(args.cx, args.cy))
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _scene(args: argparse.Namespace, count: int, **ranges) -> SceneConfig:
    """SceneConfig from --seed, the dimension flags and --min-distortion."""
    return SceneConfig(
        count=count,
        seed=args.seed,
        length_range=(args.length_min, args.length_max),
        width_range=(args.width_min, args.width_max),
        height_range=(args.height_min, args.height_max),
        ground_y=args.ground_y,
        min_distortion=args.min_distortion,
        **ranges,
    )


def _check_paths(args: argparse.Namespace, inputs=()) -> None:
    """Fail fast, before any work: (flag, path) inputs and the output directories must exist."""
    for flag, path in inputs:
        if not Path(path).exists():
            raise FileNotFoundError(f"{flag}: no such path: {path}")
    for flag, path in (("--out", args.out), ("--csv-out", getattr(args, "csv_out", None))):
        if path is None:
            continue
        parent = Path(path).resolve().parent
        if not parent.is_dir():
            raise FileNotFoundError(f"{flag}: no such directory: {parent}")


def _write_records(args: argparse.Namespace, rows, fields, verb: str) -> None:
    """JSON-lines to --out and, if given, a CSV mirror to --csv-out.

    rows builds the records afresh, a block at a time, on each pass, so
    synth, labelgen and solve all stream them to both files.  The CSV
    header is fields, the command's schema for these rows.
    """
    count = write_jsonl(args.out, rows)
    if args.csv_out:
        write_csv(args.csv_out, rows, fields=fields)
    print(f"{verb} {count} records to {args.out}")


# ---------------------------------------------------------------------------
# Record subcommands.


def _cmd_synth(args: argparse.Namespace) -> int:
    scene = _scene(
        args, args.count,
        depth_range=(args.depth_min, args.depth_max),
        gamma_range=(math.radians(args.gamma_min_deg), math.radians(args.gamma_max_deg)),
    )
    noise = NoiseModel(kind=args.noise, sigma_px=args.sigma_px, quantum_px=args.quantum_px)
    intr = _intrinsics(args)
    _check_paths(args)
    observed = observe_scene(scene, intr, noise)
    records = scene_records(observed, (intr.focal_length, *intr.principal_point), repeat(args.class_name))
    fields = PLAIN_FIELDS if observed.sigmas is None else RECORD_FIELDS
    _write_records(args, records, fields, "wrote")
    return 0


def _cmd_labelgen(args: argparse.Namespace) -> int:
    _check_paths(args, (("--labels", args.labels), ("--calib", args.calib)))
    records = kitti_records(args.labels, args.calib, args.skip_hard)
    _write_records(args, records, LABELGEN_FIELDS, "wrote")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_paths(args, (("--in", args.input_path),))
    echo, columns = solve_columns(args.input_path)
    batch = solve_batch(*columns)
    for row in np.flatnonzero(batch.failed)[:1].tolist():
        try:
            check_row(batch, row)
        except Degenerate as err:
            raise type(err)(f"{record_name(row, {'index': echo[0].item(row)})}: {err}") from None
    _write_records(args, solved_rows(echo, batch), solve_fields(echo), "solved")
    return 0


# ---------------------------------------------------------------------------
# ARDE report.


def _cmd_eval_arde(args: argparse.Namespace) -> int:
    if not (0.0 < args.iou_min <= 1.0):
        raise ConfigError(f"--iou-min must be in (0, 1], got {args.iou_min}")
    bin_edges = None
    if args.bin_edges_deg:
        deg = _float_list(args.bin_edges_deg, "--bin-edges-deg")
        _edge_pairs(deg, "--bin-edges-deg")
        bin_edges = [math.radians(v) for v in deg]
    _check_paths(args, (("--detections", args.detections), ("--ground-truth", args.ground_truth)))
    dets = read_detections(args.detections)
    gts = read_ground_truth(args.ground_truth)
    value = arde(dets, gts, args.iou_min)
    report = {
        "arde": value,
        "iou_min": args.iou_min,
        "recall_points": RECALL_POINTS,
        "n_detections": len(dets),
        "n_ground_truth": len(gts),
    }
    if bin_edges is not None:
        report["bins"] = [asdict(b) for b in arde_by_viewing_angle(dets, gts, args.iou_min, bin_edges)]
    write_json(args.out, report)
    print(f"arde {value} over {len(dets)} detections, {len(gts)} ground truths")
    return 0


# ---------------------------------------------------------------------------
# Sensitivity grid.


def _trial_errors(scene: SceneConfig, intr: CameraIntrinsics, noise: NoiseModel) -> tuple:
    """n_failed, then mean and median of relative depth error and of absolute yaw error.

    The scene's observed ratios and sigmas go to one solve_batch call as
    columns.  A trial fails where it fuses nothing.
    """
    observed = observe_scene(scene, intr, noise)
    batch = solve_batch(observed.ratios, observed.sigmas, observed.length, observed.width)
    ok = ~batch.failed
    rel_depth = (abs(batch.d_fusion - observed.z) / observed.z)[ok]
    abs_yaw = abs(wrap_turn(batch.theta_fusion - observed.yaw))[ok]

    def stats(values):
        if not len(values):
            return None, None
        return float(values.mean()), float(np.median(values))

    return (int(batch.failed.sum()), *stats(rel_depth), *stats(abs_yaw))


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    """One CSV row per (noise level, depth band, gamma bin) cell."""
    if args.trials <= 0:
        raise ConfigError(f"--trials must be positive, got {args.trials}")
    params = [0.0] if args.noise == "none" else _float_list(args.noise_params, "--noise-params")
    bands = _edge_pairs(_float_list(args.depth_bands, "--depth-bands"), "--depth-bands")
    gbins_deg = _edge_pairs(_float_list(args.gamma_bins_deg, "--gamma-bins-deg"), "--gamma-bins-deg")
    scene = _scene(args, args.trials)  # depth/gamma ranges are swapped in per cell
    intr = _intrinsics(args)
    _check_paths(args)
    rows = []
    for noise_idx, param in enumerate(params):
        noise = NoiseModel(
            kind=args.noise,
            sigma_px=param if args.noise == "gaussian_height" else 0.0,
            quantum_px=param if args.noise == "pixel_quantization" else 0.0,
        )
        for band_idx, band in enumerate(bands):
            for bin_idx, (glo, ghi) in enumerate(gbins_deg):
                # one scene seed per cell; its pose and noise streams both come from it
                cell_seed = np.random.SeedSequence(args.seed, spawn_key=(noise_idx, band_idx, bin_idx))
                cell = replace(
                    scene,
                    seed=int(cell_seed.generate_state(1, np.uint64)[0]),
                    depth_range=band,
                    gamma_range=(math.radians(glo), math.radians(ghi)),
                )
                errors = _trial_errors(cell, intr, noise)
                rows.append(dict(zip(SENSITIVITY_FIELDS,
                                     (noise.kind, param, *band, glo, ghi, args.trials, *errors))))
    write_csv(args.out, rows, fields=SENSITIVITY_FIELDS)
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
