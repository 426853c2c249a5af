"""Low-level 2-D geometry helpers shared by the scenario and propagation code."""
from __future__ import annotations

import numpy as np


def wrap_deg(angle):
    """Normalize an angle (scalar or array) in degrees to (-180, 180].

    Bit-equal to `angle % 360.0` folded at 180, but with the cheaper fmod:
    its remainder keeps the angle's sign, so a negative one moves up by 360.
    So does a zero of either sign, which the fold then takes to the +0.0
    that % returns.
    """
    wrapped = np.fmod(np.asarray(angle, dtype=float), 360.0)
    wrapped = np.where(wrapped <= 0.0, wrapped + 360.0, wrapped)
    wrapped = np.where(wrapped > 180.0, wrapped - 360.0, wrapped)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def points_in_rect(points: np.ndarray, min_corner, max_corner) -> np.ndarray:
    """Closed-rectangle containment test for an (N, 2) point array."""
    pts = np.atleast_2d(points)
    inside = (
        (pts[:, 0] >= min_corner[0])
        & (pts[:, 0] <= max_corner[0])
        & (pts[:, 1] >= min_corner[1])
        & (pts[:, 1] <= max_corner[1])
    )
    return inside


def segment_rect_crossing(p0, targets: np.ndarray, min_corner, max_corner):
    """Clip segments p0 -> targets[i] against the *open* interior of rectangles.

    Uses the slab method with strict inequalities, so a segment that only
    grazes an edge or a corner of a rectangle does not count as a crossing.

    p0: (2,) start point shared by all segments, or (S, 1, 2) start points,
    one per row of (S, N) segments.
    targets: (N, 2) end points.
    min_corner, max_corner: (2,) for one rectangle, or (B, 1, 2) for B
    (B, 1, 1, 2 with (S, 1, 2) start points).

    Returns (hit, t_enter, t_exit): boolean (N,) mask, or (S, N), with a
    leading axis of B for B rectangles, plus the clipped parameter interval
    in [0, 1] where hit is True (undefined elsewhere).
    """
    p0 = np.asarray(p0, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    min_corner = np.asarray(min_corner, dtype=float)
    max_corner = np.asarray(max_corner, dtype=float)
    d = targets - p0

    t_enter = np.zeros(d.shape[:-1])
    t_exit = np.ones(d.shape[:-1])
    ok = np.ones(d.shape[:-1], dtype=bool)

    for axis in (0, 1):
        lo, hi = min_corner[..., axis], max_corner[..., axis]
        da = d[..., axis]
        pa = p0[..., axis]
        parallel = da == 0.0
        # Parallel segments intersect the open slab only if strictly inside it.
        ok = ok & (~parallel | ((pa > lo) & (pa < hi)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (lo - pa) / da
            t2 = (hi - pa) / da
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        live = ~parallel
        t_enter = np.where(live, np.maximum(t_enter, t_lo), t_enter)
        t_exit = np.where(live, np.minimum(t_exit, t_hi), t_exit)

    hit = ok & (t_enter < t_exit)
    return hit, t_enter, t_exit
