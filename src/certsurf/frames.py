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
Frames and boxes enclose V and V^{-1} once, when built, and keep both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .intervals import Interval, IntervalBox, IntervalMatrix, add_up
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


def _local_image(center, v_inv: IntervalMatrix, world_box: IntervalBox) -> IntervalBox:
    """Enclosure of {V^{-1} (w - center) : w in world_box}."""
    return v_inv.matvec(world_box.sub_point(center))


def within(local: IntervalBox, radii, axes=None) -> bool:
    """True only if each listed coordinate of ``local`` lies in [-r, r].

    ``axes`` restricts the check to the listed coordinates (all by default).
    """
    for i in range(len(radii)) if axes is None else axes:
        p = local.parts[i]
        r = radii[i]
        if not (-r <= p.lo and p.hi <= r):
            return False
    return True


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
        return _local_image(self.center, self.v_inv, world_box)

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
    """World-space box {center + V z : |z_i| <= radii_i} with cached V, V^{-1}.

    Radii are per-axis, ordered like the frame columns (base axes first).
    """

    center: tuple
    v: np.ndarray
    radii: tuple
    v_inv: IntervalMatrix = field(repr=False)
    iv: IntervalMatrix = field(repr=False)
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
            iv=iv,
            aabb=tuple((p.lo, p.hi) for p in hull.parts),
        )

    @property
    def n(self) -> int:
        return len(self.center)

    def local_box(self) -> IntervalBox:
        return IntervalBox([Interval(-r, r) for r in self.radii])

    def world_hull(self) -> IntervalBox:
        return IntervalBox([Interval(lo, hi) for lo, hi in self.aabb])


def frame_map(outer, inner) -> tuple[IntervalBox, IntervalMatrix]:
    """Enclosure (offset, M) of the map from inner's local coordinates to outer's.

    ``outer`` and ``inner`` are frames or oriented boxes.  The local point z
    of ``inner`` lies at outer-local offset + M z, with offset enclosing
    V_outer^{-1} (c_inner - c_outer) and M enclosing V_outer^{-1} V_inner.
    Building both once per pair leaves one ``matvec`` per mapped box.
    """
    offset = _local_image(outer.center, outer.v_inv, IntervalBox.point(inner.center))
    return offset, outer.v_inv.matmul(inner.iv)


def _inner_local_image(outer: OrientedBox, inner: OrientedBox) -> IntervalBox:
    """Enclosure of inner's region expressed in outer's local coordinates."""
    offset, mixed = frame_map(outer, inner)
    spread = mixed.matvec(inner.local_box())
    return IntervalBox([o + s for o, s in zip(offset.parts, spread.parts)])


def obox_contains(
    outer: OrientedBox,
    inner: OrientedBox,
    axes: tuple[int, ...] | None = None,
) -> bool:
    """True only if inner is provably a subset of outer.

    ``axes`` restricts the check to the listed outer coordinates.
    """
    return within(_inner_local_image(outer, inner), outer.radii, axes)


def _projections(axes: IntervalMatrix, box: OrientedBox) -> list[Interval]:
    """Rigorous intervals enclosing {w . x : x in box}, one per row w of ``axes``.

    Each sum starts at the centre term w . c and adds (w V)_j [-r_j, r_j]
    in axis order; that order fixes every rounding step.
    """
    centers = axes.matvec(IntervalBox.point(box.center)).parts
    coeffs = axes.matmul(box.iv).rows
    spans = [Interval(-r, r) for r in box.radii]
    out = []
    for total, row in zip(centers, coeffs):
        for c, span in zip(row, spans):
            total = total + c * span
        out.append(total)
    return out


def obox_disjoint(a: OrientedBox, b: OrientedBox) -> bool:
    """True only if the two boxes are provably disjoint (conservative).

    Separating-axis candidates: world axes (via the cached hulls), both
    frames' columns, and in dimension 3 all 9 pairwise cross products.
    Candidate axes are float guesses, but each projection is an interval
    enclosure, so a reported separation is always genuine.
    """
    for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb):
        if ahi < blo or bhi < alo:
            return True
    axes = [a.v.T, b.v.T]
    if a.n == 3:
        for i in range(3):
            for j in range(3):
                w = np.cross(a.v[:, i], b.v[:, j])
                if np.max(np.abs(w)) > 1e-12:
                    axes.append(w)
    stacked = IntervalMatrix.from_floats(np.vstack(axes))
    return any(
        pa.hi < pb.lo or pb.hi < pa.lo
        for pa, pb in zip(_projections(stacked, a), _projections(stacked, b))
    )
