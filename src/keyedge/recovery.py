"""Closed-form recovery of yaw and depth from keyedge-ratio tuples.

A tuple (reference, r1, r2) holds the height ratios of a reference keyedge
to its two neighbours, r1 toward the previous letter and r2 toward the
next: (a, r_ad, r_ab), (b, r_ba, r_bc), (c, r_cb, r_cd), (d, r_dc, r_da).
Since r_pq = d_q / d_p, reference b reads the geometry relations
d_a = d_b + w cos(theta) and d_c = d_b + l sin(theta) directly:
e1 = r1 - 1 = w cos(theta) / d_b and e2 = r2 - 1 = l sin(theta) / d_b.
Every other reference sees the same relations on the box turned by a
quarter turn per letter, which swaps length and width and shifts the yaw
by pi/2.  So with (k1, k2) = (length, width) for references a and c,
(width, length) for b and d, and i = 0..3 the position of the reference
in a..d, one set of formulas inverts every tuple:

    theta = atan2(k1 * e2, k2 * e1) + (1 - i) * pi / 2,  wrapped to [-pi, pi)
    d_ref = (e1^2 / k1^2 + e2^2 / k2^2) ** -0.5
    d_obj = d_ref * (r1 + r2) / 2

The two neighbours of a reference are opposite corners, so the center
depth is their mean, which is the last line; it is positive for every
pair of positive ratios.  Differentiating gives the partials that
keyedge.uncertainty propagates into a depth sigma:

    d(d_obj)/d(r_i) = d_ref / 2 - d_obj * d_ref^2 * e_i / k_i^2

invert() applies these formulas elementwise to numpy arrays, and it is the
only place they are written.  solve_tuple, pose_estimate and solve_all are
one-row views of it for RatioTuple inputs.

No focal length appears anywhere here: the ratios already cancelled it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .geometry import KEYEDGES, Degenerate, wrap_turn
from .indexing import RatioTuple

# Below this distortion a tuple pins no depth: d_ref would exceed roughly
# 1e10 * min(length, width).
DEGENERACY_TOL = 1e-10

UNOBSERVABLE = "unobservable distortion"  # the reason a skipped tuple carries


class UnobservableDistortion(Degenerate):
    """Both ratios are too close to 1 to carry depth information."""


class InvalidDims(ValueError):
    """A physical dimension is zero, negative, or not finite."""


class AllDegenerate(Degenerate):
    """Every tuple of an observation was unobservable."""


@dataclass(frozen=True)
class PoseEstimate:
    """One tuple's inversion: yaw, reference-keyedge depth, center depth."""

    theta: float
    d_ref: float
    d_obj: float
    reference: str


class Inversion(NamedTuple):
    """invert()'s arrays, all of one shape; observable is False where a tuple pins no depth."""

    theta: np.ndarray
    d_ref: np.ndarray
    d_obj: np.ndarray
    p1: np.ndarray  # d(d_obj)/d(r1)
    p2: np.ndarray  # d(d_obj)/d(r2)
    observable: np.ndarray


def check_dims(length: float, width: float) -> None:
    """Raise InvalidDims unless both dimensions are finite and positive."""
    for name, v in (("length", length), ("width", width)):
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidDims(f"{name} must be positive, got {v}")


@np.errstate(divide="ignore", invalid="ignore")
def invert(r1, r2, ref, length, width) -> Inversion:
    """Invert tuples elementwise; the arguments broadcast together.

    ref holds each tuple's reference position, 0..3 for a..d.  Negative
    distortions (r < 1) are taken as-is; they encode the viewing side.
    """
    e1, e2 = r1 - 1.0, r2 - 1.0
    width_first = ref % 2 == 1  # references b and d
    k1 = np.where(width_first, width, length)
    k2 = np.where(width_first, length, width)
    theta = wrap_turn(np.arctan2(k1 * e2, k2 * e1) + (1 - ref) * (math.pi / 2.0))
    d_ref = 1.0 / np.sqrt((e1 / k1) ** 2 + (e2 / k2) ** 2)
    d_obj = d_ref * (r1 + r2) / 2.0
    p1 = 0.5 * d_ref - d_obj * d_ref * d_ref * e1 / (k1 * k1)
    p2 = 0.5 * d_ref - d_obj * d_ref * d_ref * e2 / (k2 * k2)
    return Inversion(theta, d_ref, d_obj, p1, p2, np.maximum(abs(e1), abs(e2)) >= DEGENERACY_TOL)


def solve_row(tuples: Sequence[RatioTuple], length: float, width: float) -> Inversion:
    """The tuples inverted as one row of shape (1, len(tuples))."""
    check_dims(length, width)
    r1, r2 = (np.array([[getattr(t, name) for t in tuples]], dtype=float) for name in ("r1", "r2"))
    return invert(r1, r2, np.array([KEYEDGES.index(t.reference) for t in tuples]), length, width)


def invert_tuple(t: RatioTuple, length: float, width: float) -> Inversion:
    """One tuple as a one-element row; raises UnobservableDistortion when it pins no depth."""
    inv = solve_row([t], length, width)
    if not inv.observable[0, 0]:
        raise UnobservableDistortion(
            f"tuple {t.reference}: ratios {t.r1}, {t.r2} are indistinguishable from 1"
        )
    return inv


def solve_tuple(t: RatioTuple, length: float, width: float) -> tuple[float, float]:
    """Invert one tuple to (theta, d_ref)."""
    inv = invert_tuple(t, length, width)
    return inv.theta.item(), inv.d_ref.item()


def pose_estimate(t: RatioTuple, length: float, width: float) -> PoseEstimate:
    """Full inversion of one tuple: theta, d_ref, and d_obj."""
    inv = invert_tuple(t, length, width)
    return PoseEstimate(inv.theta.item(), inv.d_ref.item(), inv.d_obj.item(), t.reference)


def solve_all(
    tuples: Iterable[RatioTuple], length: float, width: float
) -> tuple[list[PoseEstimate], list[tuple[str, str]]]:
    """Invert every tuple; degenerate ones are excluded with a reason.

    Returns (estimates, skipped) where skipped holds (reference, reason)
    pairs.  Raises AllDegenerate when nothing survives.
    """
    tuples = list(tuples)
    inv = solve_row(tuples, length, width)
    columns = (a[0].tolist() for a in (inv.theta, inv.d_ref, inv.d_obj, inv.observable))
    rows = list(zip(tuples, *columns))
    estimates = [PoseEstimate(*values, t.reference) for t, *values, ok in rows if ok]
    skipped = [(t.reference, UNOBSERVABLE) for t, *_, ok in rows if not ok]
    if not estimates:
        raise AllDegenerate(f"no usable tuple among {[ref for ref, _ in skipped]}")
    return estimates, skipped
