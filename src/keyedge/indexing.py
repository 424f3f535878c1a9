"""Camera-centric keyedge indexing, allocentric groups, tuple conversion.

Object-centric letters a, b, c, d are fixed to the box, so which letter
faces the camera changes with the allocentric angle alpha.  Camera-centric
indexing relabels the keyedges 1..4: index 1 is the keyedge whose bottom
corner is nearest the camera center (Euclidean distance), and 2, 3, 4
continue in the object's clockwise order.  With that labeling the observed
ratios [r21, r41, r32, r34] stay at or below 1 whenever the nearest
keyedge is also the minimum-depth keyedge.  When the two differ, which
happens only off the optical axis, a ratio can exceed 1 by a wide margin
(1.90 for a car-sized box at 5 m center depth and gamma = -40 deg), but
every ratio obeys the exact per-pose bound

    r_pq <= cos(gamma_q) / cos(gamma_p)    for pq in {21, 41, 32, 34}

where gamma_k is the viewing angle of keyedge k's bottom corner.  Writing
rho_k for that corner's BEV distance, r_pq = d_q / d_p and
d_k = rho_k * cos(gamma_k).  Index 1 is the nearest corner, so
rho_1 <= rho_2 and rho_1 <= rho_4; index 3 is the opposite corner of the
rectangle, hence the farthest (|c3|^2 - |c2|^2 = |c4|^2 - |c1|^2 >= 0), so
rho_2 <= rho_3 and rho_4 <= rho_3.  The four corners share one bottom y,
so 3D and BEV distances order alike.  Equality holds at distance ties; a
tie broken within DISTANCE_TIE_REL may overshoot the bound by that much.

The nearest letter is a function of alpha alone.  Partitioning [-pi, pi)
into quarters gives the allocentric group, which fixes the cyclic offset
between the labelings:

    group 0: alpha in [-pi, -pi/2)   nearest keyedge d
    group 1: alpha in [-pi/2, 0)     nearest keyedge c
    group 2: alpha in [0, pi/2)      nearest keyedge b
    group 3: alpha in [pi/2, pi)     nearest keyedge a

Exactly on a quarter boundary two corners are equidistant; ties break to
the lowest letter at relative tolerance 1e-9.  (At alpha = -pi the
tie-break picks a while the quarter rule says d; the set is measure zero
and the emitted group always matches the letter actually used.)

Both directions of the relabeling are one rotation of a..d: camera
indices 1..4 are the nearest letter followed by the rest clockwise.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

from .geometry import KEYEDGES, RATIO_KEYS, Degenerate, KeyedgeObservation, keyedge_ratios, normalize_angle

# Nearest keyedge letter for each allocentric group.
NEAREST_BY_GROUP = ("d", "c", "b", "a")
GROUP_BY_NEAREST = {letter: g for g, letter in enumerate(NEAREST_BY_GROUP)}
# Lower edges of allocentric groups 1, 2 and 3; group 0 starts at -pi.
QUARTER_EDGES = (-math.pi / 2.0, 0.0, math.pi / 2.0)

DISTANCE_TIE_REL = 1e-9


class DegenerateObservation(Degenerate):
    """Nearest-keyedge selection is ambiguous.

    The lowest-letter tie-break resolves every tie finite geometry can
    produce, so this fires only for observations with non-finite
    distances.
    """


def allocentric_group(alpha: float) -> int:
    """Quarter index of alpha under the fixed partition of [-pi, pi).

    The group is the number of QUARTER_EDGES at or below alpha.  Comparing
    against the edges keeps the half-open boundaries exact; a floor of
    (alpha + pi) / (pi / 2) would absorb values tiny relative to pi.
    """
    return bisect.bisect_right(QUARTER_EDGES, normalize_angle(alpha))


def nearest_keyedge(distances: Mapping[str, float]) -> str:
    """Letter with the smallest camera distance; ties go to the lowest letter."""
    values = [distances[k] for k in KEYEDGES]
    if not all(math.isfinite(v) for v in values):
        raise DegenerateObservation(f"non-finite keyedge distances: {distances}")
    cutoff = min(values) * (1.0 + DISTANCE_TIE_REL)
    for k in KEYEDGES:
        if distances[k] <= cutoff:
            return k
    raise DegenerateObservation(f"no nearest keyedge among {distances}")


@dataclass(frozen=True)
class CameraCentricRatios:
    """Height ratios under camera-centric indexing plus the group.

    r_pq = h_p / h_q for camera indices p, q; index 1 is the nearest
    keyedge and the group records which letter that is.
    """

    r21: float
    r41: float
    r32: float
    r34: float
    group: int

    def __post_init__(self):
        for name in ("r21", "r41", "r32", "r34"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.group not in (0, 1, 2, 3):
            raise ValueError(f"group must be in 0..3, got {self.group}")

    @property
    def nearest(self) -> str:
        return NEAREST_BY_GROUP[self.group]


@dataclass(frozen=True)
class RatioTuple:
    """(reference, r1, r2): one reference keyedge and its two ratios.

    The canonical tuples are (a, r_ad, r_ab), (b, r_ba, r_bc),
    (c, r_cb, r_cd), (d, r_dc, r_da); inverting one yields the reference
    keyedge's depth and the yaw.
    """

    reference: str
    r1: float
    r2: float

    def __post_init__(self):
        if self.reference not in KEYEDGES:
            raise ValueError(f"reference must be one of {KEYEDGES}, got {self.reference!r}")
        for name, v in (("r1", self.r1), ("r2", self.r2)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v}")


def _camera_order(nearest: str) -> tuple[str, ...]:
    """Letters at camera indices 1..4: the nearest, then the rest clockwise."""
    offset = KEYEDGES.index(nearest)
    return KEYEDGES[offset:] + KEYEDGES[:offset]


def camera_centric_view(obs: KeyedgeObservation) -> CameraCentricRatios:
    """Relabel an observation by camera distance and take its four ratios."""
    nearest = nearest_keyedge(obs.distances)
    keyedge_ratios(obs)  # raises ZeroHeight
    h1, h2, h3, h4 = (obs.heights[k] for k in _camera_order(nearest))
    return CameraCentricRatios(
        r21=h2 / h1, r41=h4 / h1, r32=h3 / h2, r34=h3 / h4, group=GROUP_BY_NEAREST[nearest]
    )


def reference_pairs(ratios, sigmas=None):
    """Per-reference (r1, r2) pairs, and their sigmas, from the four stored ratios.

    ratios and sigmas follow RATIO_KEYS order (r_ab, r_bc, r_cd, r_da); each
    entry is a float or a numpy column, since the arithmetic is plain.
    Reference i of a..d pairs r1 = r_{i,i-1} = 1 / r_{i-1,i} with
    r2 = r_{i,i+1}.  A reversed ratio's first-order sigma is sigma / r^2.
    Returns (ratio pairs, sigma pairs), the second None without sigmas.
    """
    ratio_pairs = tuple((1.0 / ratios[i - 1], ratios[i]) for i in range(4))
    if sigmas is None:
        return ratio_pairs, None
    sigma_pairs = tuple(
        (sigmas[i - 1] / (ratios[i - 1] * ratios[i - 1]), sigmas[i]) for i in range(4)
    )
    return ratio_pairs, sigma_pairs


def object_centric_tuples(ratios: Mapping[str, float]) -> tuple[RatioTuple, ...]:
    """Build the four canonical tuples from {r_ab, r_bc, r_cd, r_da}."""
    pairs, _ = reference_pairs([ratios[key] for key in RATIO_KEYS])
    return tuple(RatioTuple(ref, r1, r2) for ref, (r1, r2) in zip(KEYEDGES, pairs))


def to_object_centric_tuples(cc: CameraCentricRatios) -> tuple[RatioTuple, ...]:
    """Undo the cyclic relabeling and emit the four canonical tuples.

    In camera order the stored ratio r_pq of each letter p and its
    clockwise neighbour q is 1/r21, 1/r32, r34, r41.
    """
    stored = dict(zip(_camera_order(cc.nearest), (1.0 / cc.r21, 1.0 / cc.r32, cc.r34, cc.r41)))
    return object_centric_tuples({key: stored[key[2]] for key in RATIO_KEYS})
