"""First-order sigma propagation, inverse-uncertainty fusion, and the loss.

Depth uncertainty comes from the closed form directly.  With e_i = r_i - 1
and (k1, k2) from axis_scales, d_obj = d_ref * (1 + (e1 + e2) / 2) and
d_ref = (e1^2/k1^2 + e2^2/k2^2)^(-1/2), so

    d(d_obj)/d(r_i) = d_ref / 2 - d_obj * d_ref^2 * e_i / k_i^2

which is what depth_partials returns; fuse_tuples evaluates it from the
d_ref and d_obj that each tuple's inversion already holds, so each tuple
is solved once.  No automatic differentiation is involved, and the result
is checked against central finite differences in the tests.

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
from typing import Sequence

from . import recovery
from .geometry import normalize_angle
from .indexing import RatioTuple
from .recovery import PoseEstimate


class NonPositiveSigma(ValueError):
    """A sigma that must be positive (or nonnegative) is out of range."""


class EmptyInput(ValueError):
    """No members were given to fuse."""


@dataclass(frozen=True)
class RatioWithSigma:
    """A ratio tuple with per-ratio uncertainties sigma1, sigma2 > 0."""

    ratio_tuple: RatioTuple
    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name, v in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            if not (math.isfinite(v) and v > 0.0):
                raise NonPositiveSigma(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class FusedEstimate:
    """Fused depth and yaw plus the per-member records (estimate, sigma_d, weight)."""

    d_fusion: float
    theta_fusion: float
    per_tuple: tuple[tuple[PoseEstimate, float, float], ...]


def _partials(
    t: RatioTuple, est: PoseEstimate, length: float, width: float
) -> tuple[float, float]:
    """(d d_obj / d r1, d d_obj / d r2) at the tuple's values, given its inversion."""
    k1, k2 = recovery.axis_scales(t.reference, length, width)
    e1, e2 = t.r1 - 1.0, t.r2 - 1.0
    d_ref, d_obj = est.d_ref, est.d_obj
    p1 = 0.5 * d_ref - d_obj * d_ref * d_ref * e1 / (k1 * k1)
    p2 = 0.5 * d_ref - d_obj * d_ref * d_ref * e2 / (k2 * k2)
    return p1, p2


def depth_partials(t: RatioTuple, length: float, width: float) -> tuple[float, float]:
    """Closed-form (d d_obj / d r1, d d_obj / d r2) at the tuple's values."""
    return _partials(t, recovery.pose_estimate(t, length, width), length, width)


def propagate_sigma(partials: tuple[float, float], sigma1: float, sigma2: float) -> float:
    """sigma_d = |p1| * sigma1 + |p2| * sigma2.

    Zero sigmas are allowed (exact ratios give an exact depth); negative
    ones are not.
    """
    if sigma1 < 0.0 or sigma2 < 0.0:
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
    for _, sigma_d in members:
        if not (math.isfinite(sigma_d) and sigma_d > 0.0):
            raise NonPositiveSigma(f"sigma_d must be positive, got {sigma_d}")
    raw = [1.0 / sigma_d for _, sigma_d in members]
    total = sum(raw)
    weights = [w / total for w in raw]
    d_fusion = sum(w * est.d_obj for w, (est, _) in zip(weights, members))
    sin_sum = sum(w * math.sin(est.theta) for w, (est, _) in zip(weights, members))
    cos_sum = sum(w * math.cos(est.theta) for w, (est, _) in zip(weights, members))
    theta_fusion = normalize_angle(math.atan2(sin_sum, cos_sum))
    per_tuple = tuple(
        (est, sigma_d, w) for (est, sigma_d), w in zip(members, weights)
    )
    return FusedEstimate(d_fusion=d_fusion, theta_fusion=theta_fusion, per_tuple=per_tuple)


def fuse_tuples(
    tuples: Sequence[RatioTuple],
    sigmas: dict[str, tuple[float, float]] | None,
    length: float,
    width: float,
) -> tuple[FusedEstimate, list[tuple[str, str]]]:
    """Solve every tuple once, propagate its sigmas, and fuse the survivors.

    sigmas maps reference letter to (sigma1, sigma2); None means exact
    ratios, solved with unit sigmas so every surviving tuple carries equal
    per-ratio uncertainty.  Returns the fused estimate and solve_all's
    (reference, reason) skips; raises AllDegenerate when nothing survives.
    """
    by_ref = {t.reference: t for t in tuples}
    estimates, skipped = recovery.solve_all(tuples, length, width)
    members = []
    for est in estimates:
        s1, s2 = sigmas[est.reference] if sigmas else (1.0, 1.0)
        partials = _partials(by_ref[est.reference], est, length, width)
        members.append((est, propagate_sigma(partials, s1, s2)))
    return fuse(members), skipped


def uncertainty_loss(r: float, sigma: float, r_star: float) -> float:
    """L = |r - r*| / sigma + log(sigma); minimized at sigma = |r - r*|."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise NonPositiveSigma(f"sigma must be positive, got {sigma}")
    return abs(r - r_star) / sigma + math.log(sigma)
