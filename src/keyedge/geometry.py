"""Upright-box camera geometry: poses, keyedges, pinhole projection, angles.

Coordinate conventions
----------------------
Camera frame: x right, y down, z forward along the optical axis (matching
KITTI rectified camera coordinates).  The bird's-eye view (BEV) is the
(x, z) plane.  An object is an upright box with center (x, y, z),
dimensions (length, width, height), and egocentric yaw theta, the angle
between the camera's right axis and the object's front axis.  Increasing
theta turns the front axis from +x toward the camera, so in BEV the front
axis is (cos theta, -sin theta) and the left axis is (sin theta, cos theta).

The four vertical edges of the box are its keyedges, labelled a, b, c, d
clockwise in BEV starting at the front-left corner.  Their depths satisfy

    d_a = d_b + width * cos(theta)
    d_c = d_b + length * sin(theta)

which is the local perspective distortion that makes keyedge height ratios
informative about depth and yaw.  Under a pinhole camera with focal length
f, a keyedge at depth d_i projects to visual height h_i = f * height / d_i,
so d_i * h_i is constant for one object and height ratios are independent
of the intrinsics.

Angles
------
Egocentric yaw theta, allocentric angle alpha, and viewing angle
gamma = atan2(x, z) satisfy theta = alpha + gamma.  Every angle in this
package is normalized to the half-open interval [-pi, pi).

All values here are immutable after construction; treat the mapping fields
of KeyedgeObservation as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

TWO_PI = 2.0 * math.pi

# Object-centric keyedge letters, clockwise in BEV from front-left.
KEYEDGES = ("a", "b", "c", "d")

# Canonical adjacent-ratio keys emitted by keyedge_ratios.
RATIO_KEYS = ("r_ab", "r_bc", "r_cd", "r_da")


class Degenerate(ValueError):
    """Base of the errors where the numbers, not the input's form, gave out."""


class NonPositiveDepth(Degenerate):
    """A depth that must be positive is zero or negative."""


class ZeroHeight(Degenerate):
    """A keyedge visual height is zero or negative."""


def normalize_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    if -math.pi <= angle < math.pi:
        # already in range; the modulo below would absorb values tiny
        # relative to pi
        return angle
    wrapped = (angle + math.pi) % TWO_PI - math.pi
    # the modulo can round up to 2*pi for tiny negative inputs
    return wrapped if wrapped < math.pi else -math.pi


def wrap_turn(angle):
    """Wrap an angle, a float or a numpy array, in [-3*pi, 3*pi) to [-pi, pi), exactly."""
    return angle - TWO_PI * (angle >= math.pi) + TWO_PI * (angle < -math.pi)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal length and principal point, in pixels.

    The principal point is needed only by the forward model (pixel
    columns); it cancels everywhere ratios are involved.
    """

    focal_length: float
    principal_point: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.focal_length) and self.focal_length > 0.0):
            raise ValueError(f"focal_length must be positive, got {self.focal_length}")
        if not all(math.isfinite(v) for v in self.principal_point):
            raise ValueError(f"principal_point must be finite, got {self.principal_point}")


@dataclass(frozen=True)
class BoxPose3D:
    """Center (x, y, z) in meters, dims (length, width, height), yaw in radians.

    Pitch and roll are implicitly zero: the box keyedges stay vertical.
    """

    center: tuple[float, float, float]
    dims: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        if any(d <= 0.0 or not math.isfinite(d) for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.center[2] <= 0.0:
            raise NonPositiveDepth(f"center depth must be positive, got {self.center[2]}")

    @property
    def x(self) -> float:
        return self.center[0]

    @property
    def y(self) -> float:
        return self.center[1]

    @property
    def z(self) -> float:
        return self.center[2]

    @property
    def length(self) -> float:
        return self.dims[0]

    @property
    def width(self) -> float:
        return self.dims[1]

    @property
    def height(self) -> float:
        return self.dims[2]


@dataclass(frozen=True)
class KeyedgeObservation:
    """Per-keyedge depth, camera distance, and visual height.

    Mappings are keyed by the letters in KEYEDGES.  Depths and distances
    describe the generating geometry and must be positive; heights are
    measurements and may carry noise (ops that consume them raise
    ZeroHeight when one is not positive).
    """

    depths: Mapping[str, float]
    distances: Mapping[str, float]
    heights: Mapping[str, float]

    def __post_init__(self):
        for field in (self.depths, self.distances, self.heights):
            if set(field) != set(KEYEDGES):
                raise ValueError(f"expected keys {KEYEDGES}, got {sorted(field)}")
        for k in KEYEDGES:
            if self.depths[k] <= 0.0:
                raise NonPositiveDepth(f"keyedge {k} depth {self.depths[k]} is not positive")


@dataclass(frozen=True)
class AngleTriple:
    """Consistent (theta, alpha, gamma) with theta = alpha + gamma mod 2*pi."""

    egocentric: float
    allocentric: float
    viewing: float

    def __post_init__(self):
        residual = normalize_angle(self.egocentric - self.allocentric - self.viewing)
        if abs(residual) > 1e-9:
            raise ValueError(f"theta != alpha + gamma (residual {residual})")


def viewing_angle(center: tuple[float, float, float]) -> float:
    """Bearing gamma = atan2(x, z) of a point about the camera front axis."""
    x, _, z = center
    if z <= 0.0:
        raise NonPositiveDepth(f"viewing angle needs z > 0, got {z}")
    return normalize_angle(math.atan2(x, z))


def angle_convert(
    gamma: float, theta: Optional[float] = None, alpha: Optional[float] = None
) -> AngleTriple:
    """Complete an AngleTriple from gamma plus exactly one of theta or alpha."""
    if (theta is None) == (alpha is None):
        raise ValueError("provide exactly one of theta or alpha")
    gamma = normalize_angle(gamma)
    if theta is not None:
        theta = normalize_angle(theta)
        alpha = normalize_angle(theta - gamma)
    else:
        alpha = normalize_angle(alpha)
        theta = normalize_angle(alpha + gamma)
    return AngleTriple(egocentric=theta, allocentric=alpha, viewing=gamma)


def corner_columns(x, z, sin_t, cos_t, length, width):
    """BEV (x, z) of the corners a, b, c, d, in that order.

    Each argument is a float or a numpy column, since the arithmetic is
    plain; sin_t and cos_t are the sine and cosine of the yaw.
    """
    half_l, half_w = length / 2.0, width / 2.0
    # front axis (cos, -sin), left axis (sin, cos)
    fx, fz = half_l * cos_t, -half_l * sin_t
    lx, lz = half_w * sin_t, half_w * cos_t
    return (
        (x + fx + lx, z + fz + lz),
        (x + fx - lx, z + fz - lz),
        (x - fx - lx, z - fz - lz),
        (x - fx + lx, z - fz + lz),
    )


def keyedge_positions(pose: BoxPose3D) -> tuple[dict[str, tuple[float, float, float]], float]:
    """Bottom corners of the four keyedges plus their common height.

    Corners are ordered a, b, c, d clockwise in BEV from front-left; y is
    the ground point of each vertical edge (y grows downward).
    """
    bottom_y = pose.y + pose.height / 2.0
    bev = corner_columns(pose.x, pose.z, math.sin(pose.yaw), math.cos(pose.yaw),
                         pose.length, pose.width)
    return {k: (cx, bottom_y, cz) for k, (cx, cz) in zip(KEYEDGES, bev)}, pose.height


def project_keyedges(pose: BoxPose3D, intr: CameraIntrinsics) -> KeyedgeObservation:
    """Pinhole projection of the keyedges: h_i = f * height / d_i.

    Raises NonPositiveDepth when any keyedge sits on or behind the image
    plane.
    """
    corners, height = keyedge_positions(pose)
    f = intr.focal_length
    depths, distances, heights = {}, {}, {}
    for k, (px, py, pz) in corners.items():
        if pz <= 0.0:
            raise NonPositiveDepth(f"keyedge {k} depth {pz} is not positive")
        depths[k] = pz
        distances[k] = math.hypot(px, py, pz)
        heights[k] = f * height / pz
    return KeyedgeObservation(depths=depths, distances=distances, heights=heights)


def keyedge_ratios(obs: KeyedgeObservation) -> dict[str, float]:
    """Adjacent height ratios r_ij = h_i / h_j, keyed per RATIO_KEYS.

    Equivalently r_ij = d_j / d_i, which is what the closed-form inversion
    exploits.  All other directed ratios are reciprocals of these four.
    """
    h = obs.heights
    for k in KEYEDGES:
        if h[k] <= 0.0:
            raise ZeroHeight(f"keyedge {k} height {h[k]} is not positive")
    return {
        "r_ab": h["a"] / h["b"],
        "r_bc": h["b"] / h["c"],
        "r_cd": h["c"] / h["d"],
        "r_da": h["d"] / h["a"],
    }
