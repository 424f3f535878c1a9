"""The solve-and-fuse kernel: sigma propagation, fusion, and the loss.

solve_batch runs four array stages over (N, 4) arrays, each quantity once:
indexing.reference_pairs gives each reference's ratio and sigma pairs,
recovery.invert gives theta, d_ref, d_obj and the closed-form partials of
d_obj (checked against central finite differences in the tests),
propagate_sigma gives each tuple's sigma_d, and the fuse stage gives the
weights and the fused depth and yaw.  depth_partials, propagate_sigma
and fuse are one-row views of the same stages; check_row raises the
reason a failed row fused nothing.

sigma_d sums |partial| * sigma per ratio.  Each term takes an absolute
value so sigma_d is a nonnegative spread even when the partials carry
mixed signs.

Fusion weights each member by the inverse of its sigma_d, normalized to
sum to 1 so the result is an average lying inside the member hull.  Yaw is
fused with the same weights by circular mean (sum the weighted unit
vectors, take atan2); depth-only descriptions leave yaw combination open,
so callers that emit fused yaw should flag the rule they used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import recovery
from .geometry import KEYEDGES, Degenerate, wrap_turn
from .indexing import RatioTuple, reference_pairs
from .recovery import PoseEstimate


class NonPositiveSigma(Degenerate):
    """A sigma that must be positive (or nonnegative) is out of range."""


class EmptyInput(ValueError):
    """No members were given to fuse."""


@dataclass(frozen=True)
class FusedEstimate:
    """Fused depth and yaw plus the per-member records (estimate, sigma_d, weight)."""

    d_fusion: float
    theta_fusion: float
    per_tuple: tuple[tuple[PoseEstimate, float, float], ...]


class Batch(NamedTuple):
    """solve_batch's arrays, (N, 4) per tuple in a..d order and (N,) per record."""

    pose: recovery.Inversion
    sigma_d: np.ndarray
    weight: np.ndarray
    d_fusion: np.ndarray
    theta_fusion: np.ndarray
    failed: np.ndarray


def _check_sigma_d(*values: float) -> None:
    for sigma_d in values:
        if not (math.isfinite(sigma_d) and sigma_d > 0.0):
            raise NonPositiveSigma(f"sigma_d must be positive, got {sigma_d}")


def _fuse(theta, d_obj, sigma_d, used):
    """Weights, fused depth and fused yaw of each row of (N, M) members."""
    raw = np.where(used, 1.0 / sigma_d, 0.0)
    weight = raw / raw.sum(axis=1, keepdims=True)
    d_fusion = (weight * np.where(used, d_obj, 0.0)).sum(axis=1)
    theta = np.where(used, theta, 0.0)
    sin_sum, cos_sum = ((weight * f(theta)).sum(axis=1) for f in (np.sin, np.cos))
    return weight, d_fusion, wrap_turn(np.arctan2(sin_sum, cos_sum))


@np.errstate(divide="ignore", invalid="ignore")
def solve_batch(R, S, L, W) -> Batch:
    """Solve and fuse the four tuples of each of N records.

    R holds the stored ratios as (N, 4) in RATIO_KEYS order, each finite and
    positive, and S their sigmas, nonnegative.  A NaN sigma, or S None,
    means none was given, and the reference sigmas built from it are 1.  L
    and W are the (N,) lengths and widths, finite and positive.  A tuple
    that pose.observable marks False is skipped as unobservable; a record
    that failed marks True fuses nothing, and check_row raises why.
    """
    R, L, W = (np.asarray(a, dtype=float) for a in (R, L, W))
    S = np.full(R.shape, np.nan) if S is None else np.asarray(S, dtype=float)
    ratio_pairs, sigma_pairs = reference_pairs(R.T, S.T)
    r1, r2 = (np.stack(column, axis=1) for column in zip(*ratio_pairs))
    s1, s2 = (np.nan_to_num(np.stack(column, axis=1), nan=1.0) for column in zip(*sigma_pairs))
    pose = recovery.invert(r1, r2, np.arange(4), L[:, None], W[:, None])
    sigma_d = propagate_sigma((pose.p1, pose.p2), s1, s2)
    used = pose.observable
    weight, d_fusion, theta_fusion = _fuse(pose.theta, pose.d_obj, sigma_d, used)
    failed = ~used.any(axis=1) | (used & ~(np.isfinite(sigma_d) & (sigma_d > 0.0))).any(axis=1)
    return Batch(pose, sigma_d, weight, d_fusion, theta_fusion, failed)


def check_row(batch: Batch, row: int) -> None:
    """Raise why a failed row fused nothing: AllDegenerate, then NonPositiveSigma."""
    used = batch.pose.observable[row]
    if not used.any():
        raise recovery.AllDegenerate(f"no usable tuple among {list(KEYEDGES)}")
    _check_sigma_d(*batch.sigma_d[row, used].tolist())


def depth_partials(t: RatioTuple, length: float, width: float) -> tuple[float, float]:
    """Closed-form (d d_obj / d r1, d d_obj / d r2) at the tuple's values."""
    inv = recovery.invert_tuple(t, length, width)
    return inv.p1.item(), inv.p2.item()


def propagate_sigma(partials: tuple[float, float], sigma1: float, sigma2: float) -> float:
    """sigma_d = |p1| * sigma1 + |p2| * sigma2, for floats or arrays alike.

    Zero sigmas are allowed here, and exact ratios give a sigma_d of 0;
    negative ones are not.  Fusion weights a tuple by 1/sigma_d, which has
    no value at 0, so fuse refuses a sigma_d of 0, and solve_batch fails a
    record that would use one: solve exits 5 on a record whose four
    sigma_* are 0, with "record 0 (index 0): sigma_d must be positive,
    got 0.0".
    """
    if np.any(np.less((sigma1, sigma2), 0.0)):
        raise NonPositiveSigma(f"sigmas must be nonnegative, got {sigma1}, {sigma2}")
    p1, p2 = partials
    return abs(p1) * sigma1 + abs(p2) * sigma2


def fuse(members: Sequence[tuple[PoseEstimate, float]]) -> FusedEstimate:
    """Inverse-uncertainty weighted average of per-tuple estimates.

    Arguments:
        members: (estimate, sigma_d) pairs, sigma_d > 0.

    Weights are 1/sigma_d normalized to sum to 1.  Depth is the weighted
    mean; yaw is the weighted circular mean with the same weights.
    """
    members = list(members)
    if not members:
        raise EmptyInput("nothing to fuse")
    estimates, sigma_d = zip(*members)
    _check_sigma_d(*sigma_d)
    theta, d_obj = (np.array([[getattr(e, name) for e in estimates]]) for name in ("theta", "d_obj"))
    weight, d_fusion, theta_fusion = _fuse(theta, d_obj, np.array([sigma_d]), True)
    per_tuple = tuple(zip(estimates, sigma_d, weight[0].tolist()))
    return FusedEstimate(d_fusion.item(), theta_fusion.item(), per_tuple)


def uncertainty_loss(r: float, sigma: float, r_star: float) -> float:
    """L = |r - r*| / sigma + log(sigma); minimized at sigma = |r - r*|."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    return abs(r - r_star) / sigma + math.log(sigma)
