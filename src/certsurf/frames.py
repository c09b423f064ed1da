"""Tangent-aligned coordinate frames and oriented box geometry.

A frame at a point z is an orthogonal matrix V whose first d columns span
the (approximate) tangent plane of the zero set and whose last m columns
span the row space of the Jacobian, plus the matching equation mixer U.
Frames are float data chosen heuristically; every rigorous statement made
in frame coordinates goes through interval enclosures of V and V^{-1}, so
the rounding in V itself is accounted for.

The frame and box methods here are the only place where the local <-> world
map is enclosed (``TransformedSystem`` evaluates through ``image_box`` too),
and ``within`` is the one test that a local box lies inside given radii.
Frames enclose V and V^{-1} once, when built, and keep both; boxes keep
V^{-1}.  Single boxes go through the scalar ``IntervalMatrix``; the pair
geometry (``frame_map``, ``obox_contains``, ``obox_disjoint``) works on
endpoint arrays, since it maps many boxes, or one box onto many axes, at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .intervals import (
    Interval,
    IntervalBox,
    IntervalMatrix,
    add_up,
    array_add,
    array_dot,
    array_matvec,
)
from .linalg import orthogonal_inverse_enclosure, svd_factor

__all__ = [
    "CoordinateFrame",
    "OrientedBox",
    "image_box",
    "within",
    "tangent_align",
    "frame_map",
    "obox_contains",
    "obox_disjoint",
]


def image_box(center, iv: IntervalMatrix, local_box: IntervalBox) -> IntervalBox:
    """Enclosure of {center + V z : z in local_box}, with V enclosed by ``iv``."""
    spread = iv.matvec(local_box)
    return IntervalBox([Interval.point(c) + s for c, s in zip(center, spread.parts)])


def within(local, radii) -> bool:
    """True only if the local box, an endpoint pair, lies in [-r, r] per coordinate."""
    r = np.asarray(radii)
    return bool(np.all((-r <= local[0]) & (local[1] <= r)))


@dataclass(frozen=True, eq=False, slots=True)
class CoordinateFrame:
    """Affine chart x = center + V z with tangent coordinates first."""

    center: tuple
    v: np.ndarray
    u: np.ndarray
    sigma: tuple
    v_inv: IntervalMatrix
    iv: IntervalMatrix  # interval enclosure of the float matrix V

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def d(self) -> int:
        return self.n - len(self.sigma)

    def to_world(self, z) -> np.ndarray:
        return np.asarray(self.center) + self.v @ np.asarray(z, dtype=float)

    def to_world_box(self, local_box: IntervalBox) -> IntervalBox:
        """Rigorous enclosure of center + V z over the given local box."""
        return image_box(self.center, self.iv, local_box)

    def world_to_local_box(self, world_box: IntervalBox) -> IntervalBox:
        """Rigorous enclosure of V^{-1} (w - center) over the given box."""
        return self.v_inv.matvec(world_box.sub_point(self.center))

    def box(self, radii) -> "OrientedBox":
        """Oriented box of the given per-axis radii around the frame center."""
        return OrientedBox._build(self.center, self.v, radii, self.v_inv, self.iv)

    def box_at(self, local_center, radii) -> "OrientedBox":
        """Oriented box at a frame-local center, float rounding absorbed.

        The world center is rounded to floats; the radii grow by a rigorous
        bound on that rounding displacement so the box still covers the
        exact region.
        """
        exact = self.to_world_box(IntervalBox.point(local_center))
        center = exact.midpoint()
        margin = 0.0
        for c, p in zip(center, exact.parts):
            margin = max(margin, add_up(p.hi, -c), add_up(c, -p.lo))
        return OrientedBox._build(
            center, self.v, [add_up(float(r), margin) for r in radii], self.v_inv, self.iv
        )


def tangent_align(system, z_hat) -> tuple[CoordinateFrame, "object"]:
    """Build the tangent frame at z_hat and the system rewritten in it.

    The returned system G(z) = U^T F(z_hat + V z) has, at z = 0, a Jacobian
    of the form [0 | diag(sigma)] up to float noise: base directions first,
    fiber directions carrying the singular values.  The frame shares the
    system's interval enclosure of V.
    """
    z_hat = [float(x) for x in z_hat]
    jac = system.jacobian_point(z_hat)
    u, sigma, vt = svd_factor(jac)
    m = system.m
    # kernel columns (tangent) first, then row-space columns
    v = np.hstack([vt[m:].T, vt[:m].T])
    v_inv = orthogonal_inverse_enclosure(v)
    aligned = system.transform(u, v, shift=z_hat)
    frame = CoordinateFrame(
        center=tuple(z_hat),
        v=v,
        u=u,
        sigma=tuple(float(s) for s in sigma),
        v_inv=v_inv,
        iv=aligned.iv,
    )
    return frame, aligned


@dataclass(frozen=True, eq=False, slots=True)
class OrientedBox:
    """World-space box {center + V z : |z_i| <= radii_i} with cached V^{-1}.

    Radii are per-axis, ordered like the frame columns (base axes first).
    """

    center: tuple
    v: np.ndarray
    radii: tuple
    v_inv: IntervalMatrix = field(repr=False)
    # rigorous axis-aligned hull, ((lo, hi), ...), for fast disjointness
    aabb: tuple = field(repr=False)

    @staticmethod
    def make(center, v, radii) -> "OrientedBox":
        """Box in a float frame matrix V; encloses V and V^{-1} afresh."""
        v = np.asarray(v, dtype=float)
        return OrientedBox._build(
            center, v, radii, orthogonal_inverse_enclosure(v), IntervalMatrix.from_floats(v)
        )

    @staticmethod
    def _build(center, v, radii, v_inv: IntervalMatrix, iv: IntervalMatrix) -> "OrientedBox":
        """Box whose frame enclosures V^{-1} and V are already at hand."""
        center = tuple(float(c) for c in center)
        radii = tuple(float(r) for r in radii)
        local = IntervalBox([Interval(-r, r) for r in radii])
        hull = image_box(center, iv, local)
        return OrientedBox(
            center=center,
            v=v,
            radii=radii,
            v_inv=v_inv,
            aabb=tuple((p.lo, p.hi) for p in hull.parts),
        )

    @property
    def n(self) -> int:
        return len(self.center)

    def world_hull(self) -> IntervalBox:
        return IntervalBox([Interval(lo, hi) for lo, hi in self.aabb])


def frame_map(outer, inner) -> tuple[np.ndarray, np.ndarray]:
    """Enclosure of the map from inner's local coordinates to outer's.

    ``outer`` and ``inner`` are frames or oriented boxes.  The result is the
    n x (n+1) endpoint pair [offset | M]: the local point z of ``inner`` lies
    at outer-local offset + M z, with offset enclosing
    V_outer^{-1} (c_inner - c_outer) and M enclosing V_outer^{-1} V_inner.
    ``array_matvec`` of it and (1, z) maps a batch of local boxes at once.
    """
    c_in = np.asarray(inner.center)
    c_out = np.asarray(outer.center)
    shift = array_add((c_in, c_in), (-c_out, -c_out))
    cols_lo = np.vstack([shift[0], inner.v.T])
    cols_hi = np.vstack([shift[1], inner.v.T])
    # row j of cols is column j of [c_inner - c_outer | V_inner]
    lo, hi = array_matvec(outer.v_inv.ends(), (cols_lo, cols_hi))
    return lo.T, hi.T


def _local_span(radii) -> tuple[np.ndarray, np.ndarray]:
    """(1, [-r_1, r_1], ...) as an endpoint pair, the argument of an affine map."""
    r = np.asarray(radii, dtype=float)
    one = np.ones(r.shape[:-1] + (1,))
    return np.concatenate([one, -r], axis=-1), np.concatenate([one, r], axis=-1)


def obox_contains(outer: OrientedBox, inner: OrientedBox) -> bool:
    """True only if inner is provably a subset of outer."""
    return within(array_matvec(frame_map(outer, inner), _local_span(inner.radii)), outer.radii)


# index maps of the 3-d cross product: (u x v)_k = u_{k+1} v_{k+2} - u_{k+2} v_{k+1}
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def obox_disjoint(a: OrientedBox, b: OrientedBox) -> bool:
    """True only if the two boxes are provably disjoint (conservative).

    Separating-axis candidates (Gottschalk, Lin and Manocha, "OBBTree",
    1996): world axes (via the cached hulls), both frames' columns, and in
    dimension 3 all 9 pairwise cross products.  Candidate axes are float
    guesses, but each projection is an interval enclosure, so a reported
    separation is always genuine.  Both boxes are projected onto every
    candidate in one pass: box s projects onto row w of the axes as
    w . c_s + sum_j (w . V_s e_j) [-r_j, r_j].
    """
    for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb):
        if ahi < blo or bhi < alo:
            return True
    axes = [a.v.T, b.v.T]
    if a.n == 3:
        # row 3i + j is column i of V_a cross column j of V_b
        u, v = a.v.T[:, None, :], b.v.T[None, :, :]
        axes.append((u[..., _NEXT] * v[..., _PREV] - u[..., _PREV] * v[..., _NEXT]).reshape(9, 3))
    w = np.vstack(axes)[None, :, None, :]
    # cols[s, j] is column j of [c_s | V_s]
    cols = np.stack([np.vstack([box.center, box.v.T]) for box in (a, b)])[:, None, :, :]
    coeffs = array_dot((w, w), (cols, cols))
    lo, hi = array_matvec(coeffs, _local_span([a.radii, b.radii]))
    return bool(np.any(hi[0] < lo[1]) or np.any(hi[1] < lo[0]))
