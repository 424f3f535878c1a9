"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way and shares no
code with the package: matrix-based corner construction, explicit distance
argmins, finite differences, and an exhaustive recall-sweep enumeration.
The exceptions are reference_solve_rows, which keeps solve's record
plumbing of one record at a time around the package's own record checks
and kernel, and reference_sensitivity_rows, which keeps the sensitivity
grid's plumbing of one cell at a time around the package's own scene stage
and kernel, so that they pin the plumbing, not the maths.
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
# Tuple inversion by a 2x2 linear solve, independent of the package.

# Each bottom corner's depth as d_b * (c0 + c1 * x + c2 * y), where
# x = w cos(theta) / d_b and y = l sin(theta) / d_b, from the relations
# d_a = d_b + w cos(theta) and d_c = d_b + l sin(theta) and the rectangle's
# d_a + d_c = d_b + d_d.
CORNER_COEFFS = {"a": (1.0, 1.0, 0.0), "b": (1.0, 0.0, 0.0), "c": (1.0, 0.0, 1.0), "d": (1.0, 1.0, 1.0)}
# Stored ratio r_pq = h_p / h_q = d_q / d_p.
STORED_PAIRS = {"r_ab": ("a", "b"), "r_bc": ("b", "c"), "r_cd": ("c", "d"), "r_da": ("d", "a")}


def invert_reference(reference, stored, length, width):
    """(theta, d_ref, d_obj) from the two stored ratios that touch the reference.

    Each ratio gives one equation d_q - r_pq * d_p = 0, linear in (x, y)
    once divided by d_b; the 2x2 system fixes (x, y), and
    (x / w)^2 + (y / l)^2 = 1 / d_b^2 fixes the scale.  d_obj is the mean
    of the four corner depths.
    """
    rows = []
    for key, (p, q) in STORED_PAIRS.items():
        if reference in (p, q):
            rows.append(np.array(CORNER_COEFFS[q]) - stored[key] * np.array(CORNER_COEFFS[p]))
    x, y = np.linalg.solve(np.array([row[1:] for row in rows]), -np.array([row[0] for row in rows]))
    d_b = 1.0 / math.sqrt((x / width) ** 2 + (y / length) ** 2)
    depth = {k: d_b * (c0 + c1 * x + c2 * y) for k, (c0, c1, c2) in CORNER_COEFFS.items()}
    return math.atan2(y / length, x / width), depth[reference], sum(depth.values()) / 4.0


def gate_records(n, seed):
    """Seeded kernel inputs: stored ratios R (n, 4), sigmas S (n, 4), lengths L, widths W.

    Row k is of kind k % 8: 0 exact ratios of a random pose (depths from
    rotation_corners); 1 the same with 1 % multiplicative noise; 2 noisy
    with a NaN sigma row (a record without sigmas); 3 exact with NaN
    sigmas; 4 all four ratios 1 (every tuple flat); 5 r_ab = r_bc = 1
    (tuple b flat); 6 all sigmas 0 (every sigma_d 0); 7 r_ab and r_bc
    within 5e-11 of 1, inside the degeneracy tolerance.
    """
    rng = np.random.default_rng(seed)
    R, S, L, W = np.empty((n, 4)), rng.uniform(1e-4, 0.05, (n, 4)), np.empty(n), np.empty(n)
    for k in range(n):
        z, gamma = rng.uniform(4.0, 80.0), rng.uniform(-0.7, 0.7)
        L[k], W[k], height = rng.uniform(2.5, 6.0), rng.uniform(1.2, 2.5), rng.uniform(1.0, 2.5)
        yaw = rng.uniform(-math.pi, math.pi)
        corners, _ = rotation_corners(z * math.tan(gamma), 1.65 - height / 2.0, z, L[k], W[k],
                                      height, yaw)
        R[k] = [corners[q][2] / corners[p][2] for p, q in STORED_PAIRS.values()]
    kind = np.arange(n) % 8
    noisy = np.isin(kind, (1, 2, 5))
    R[noisy] *= np.exp(rng.normal(0.0, 0.01, (noisy.sum(), 4)))
    S[np.isin(kind, (2, 3))] = np.nan
    R[kind == 4] = 1.0
    R[kind == 5, :2] = 1.0
    S[kind == 6] = 0.0
    R[kind == 7, :2] = 1.0 + rng.uniform(-5e-11, 5e-11, ((kind == 7).sum(), 2))
    return R, S, L, W


# ---------------------------------------------------------------------------
# Synthetic scenes drawn one object at a time, independent of the package.


def sequential_scene(cfg, focal, noise, max_retries, min_height):
    """The scene of a SceneConfig under a NoiseModel, one object and one draw at a time.

    Per object: six uniforms from the pose stream SeedSequence(seed,
    spawn_key=(0,)), redrawn while a keyedge sits at z <= 0 or, with
    cfg.min_distortion > 0, while the worst tuple's signal falls below it,
    at most max_retries times; then four normals from the noise stream
    SeedSequence(seed, spawn_key=(1,)) for gaussian_height, or rounding to
    the quantum; heights below min_height are raised to it.  x takes
    np.tan, and squares are products, as the block draws do.

    Returns (objects, redraws, clamped): per object ((x, y, z, yaw, length,
    width, height), depths, heights, ratios, sigmas or None), each a list
    in a..d and r_ab..r_da order.  Raises ValueError("object <index>") when
    an object finds no pose.
    """
    pose_rng, noise_rng = (np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(key,)))
                           for key in (0, 1))
    lows, highs = np.array([cfg.depth_range, cfg.gamma_range, (-math.pi, math.pi),
                            cfg.length_range, cfg.width_range, cfg.height_range]).T
    sigma = {"gaussian_height": noise.sigma_px,
             "pixel_quantization": noise.quantum_px / math.sqrt(12.0)}.get(noise.kind, 0.0)
    objects, redraws, clamped = [], 0, 0
    for index in range(cfg.count):
        for _ in range(max_retries):
            z, gamma, yaw, length, width, height = pose_rng.uniform(lows, highs).tolist()
            sin_t, cos_t = math.sin(yaw), math.cos(yaw)
            front, left = -length / 2.0 * sin_t, width / 2.0 * cos_t
            depths = [z + front + left, z + front - left, z - front - left, z - front + left]
            if min(depths) <= 0.0:
                redraws += 1
                continue
            r = [depths[(i + 1) % 4] / depths[i] for i in range(4)]
            signal = min(max(abs(1.0 / r[i - 1] - 1.0), abs(r[i] - 1.0)) for i in range(4))
            if cfg.min_distortion > 0.0 and signal < cfg.min_distortion:
                redraws += 1
                continue
            break
        else:
            raise ValueError(f"object {index}")
        heights = [focal * height / d for d in depths]
        if noise.kind == "gaussian_height":
            heights = [h + d for h, d in zip(heights, noise_rng.normal(0.0, noise.sigma_px, 4).tolist())]
        elif noise.kind == "pixel_quantization":
            heights = [noise.quantum_px * round(h / noise.quantum_px) for h in heights]
        if noise.kind != "none":
            clamped += sum(h < min_height for h in heights)
            heights = [max(h, min_height) for h in heights]
        ratios = [heights[i] / heights[(i + 1) % 4] for i in range(4)]
        sigmas = None if sigma == 0.0 else [
            ratios[i] * sigma * math.sqrt(1.0 / (heights[i] * heights[i])
                                          + 1.0 / (heights[(i + 1) % 4] * heights[(i + 1) % 4]))
            for i in range(4)
        ]
        pose = (z * float(np.tan(gamma)), cfg.ground_y - height / 2.0, z, yaw, length, width, height)
        objects.append((pose, depths, heights, ratios, sigmas))
    return objects, redraws, clamped


# ---------------------------------------------------------------------------
# solve's rows built one record at a time.


def reference_solve_rows(records):
    """solve's output rows of valid records: each record read and echoed in
    turn, one kernel call over all of them, then each row built field by field.

    A row echoes index, class_name (default ""), z when the record carries
    it, and length and width as floats; a tuple's four fields are None when
    it is unobservable, and skipped names those tuples.  The records are
    valid, so their numbers are read with float alone, not with the reader
    under test.
    """
    from keyedge.dataio import SIGMA_KEYS, THETA_FUSION_RULE
    from keyedge.geometry import RATIO_KEYS
    from keyedge.recovery import UNOBSERVABLE
    from keyedge.uncertainty import solve_batch

    heads, ratios, sigmas = [], [], []
    for rec in records:
        ratios.append([float(rec[key]) for key in RATIO_KEYS])
        has_sigmas = any(key in rec for key in SIGMA_KEYS)
        sigmas.append([float(rec[key]) if has_sigmas else math.nan for key in SIGMA_KEYS])
        dims = {key: float(rec[key]) for key in ("length", "width")}
        head = {"index": rec.get("index"), "class_name": rec.get("class_name", "")}
        if "z" in rec:
            head["z"] = rec["z"]
        heads.append({**head, **dims})
    batch = solve_batch(np.reshape(ratios, (-1, 4)), np.reshape(sigmas, (-1, 4)),
                        [head["length"] for head in heads], [head["width"] for head in heads])
    per_tuple = np.stack([batch.pose.theta, batch.pose.d_obj, batch.sigma_d, batch.weight], axis=2)
    fused = zip(batch.d_fusion.tolist(), batch.theta_fusion.tolist(), batch.pose.observable.tolist())
    rows = []
    for head, (d_fusion, theta_fusion, observable), values in zip(heads, fused, per_tuple):
        row = {**head, "d_fusion": d_fusion, "theta_fusion": theta_fusion,
               "theta_fusion_rule": THETA_FUSION_RULE}
        for ref, ok, tuple_values in zip(KEYEDGE_ORDER, observable, values.tolist()):
            row.update((f"{name}_{ref}", v if ok else None)
                       for name, v in zip(("theta", "d_obj", "sigma_d", "weight"), tuple_values))
        row["skipped"] = ";".join(f"{ref}:{UNOBSERVABLE}" for ref, ok in zip(KEYEDGE_ORDER, observable)
                                  if not ok)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The sensitivity grid solved one cell at a time.


def reference_sensitivity_rows(scene, intr, kind, params, bands, gamma_bins_deg):
    """sensitivity's rows, each cell drawn by observe_scene and solved by its own solve_batch call.

    Cell (level, band, bin) is scene under the seed SeedSequence(scene.seed,
    spawn_key=(level, band, bin)), in that band and bin (degrees).  Its
    statistics are .mean() and np.median of the trials that did not fail,
    None when every trial failed.
    """
    from dataclasses import replace

    from keyedge.dataio import SENSITIVITY_FIELDS, NoiseModel, observe_scene
    from keyedge.geometry import wrap_turn
    from keyedge.uncertainty import solve_batch

    rows = []
    for noise_idx, param in enumerate(params):
        noise = NoiseModel(kind=kind, sigma_px=param if kind == "gaussian_height" else 0.0,
                           quantum_px=param if kind == "pixel_quantization" else 0.0)
        for band_idx, band in enumerate(bands):
            for bin_idx, (glo, ghi) in enumerate(gamma_bins_deg):
                cell_seed = np.random.SeedSequence(scene.seed, spawn_key=(noise_idx, band_idx, bin_idx))
                cell = replace(scene, seed=int(cell_seed.generate_state(1, np.uint64)[0]), depth_range=band,
                               gamma_range=(math.radians(glo), math.radians(ghi)))
                observed = observe_scene(cell, intr, noise)
                batch = solve_batch(observed.ratios, observed.sigmas, observed.length, observed.width)
                stats = [int(batch.failed.sum())]
                for errors in (abs(batch.d_fusion - observed.z) / observed.z,
                               abs(wrap_turn(batch.theta_fusion - observed.yaw))):
                    kept = errors[~batch.failed]
                    stats += [float(kept.mean()), float(np.median(kept))] if len(kept) else [None, None]
                head = (kind, param, *band, glo, ghi, scene.count)
                rows.append(dict(zip(SENSITIVITY_FIELDS, (*head, *stats))))
    return rows


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
