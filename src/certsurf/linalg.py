"""Float linear algebra helpers plus one rigorous enclosure.

Everything here except :func:`orthogonal_inverse_enclosure` is plain float
arithmetic used to pick preconditioners and frames.  Those choices never
need to be exact: a bad frame or a bad preconditioner can only make the
interval test fail, not lie.  The gates exist to fail fast with a clear
error instead of grinding through refinement with garbage matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import LinearAlgebraError, RankDeficientError
from .intervals import Interval, IntervalMatrix, add_up, div_up, mul_up

__all__ = ["svd_factor", "approx_inverse", "approx_inverses", "orthogonal_inverse_enclosure"]

_SVD_ORTHO_TOL = 1e-12
_SVD_RECON_TOL = 1e-10
_RANK_RATIO = 1e-8
_INVERSE_RESIDUAL_TOL = 1e-8


def svd_factor(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD u @ diag(s) @ vt with sanity gates.

    Raises RankDeficientError when the smallest singular value is below
    _RANK_RATIO times the largest, which downstream code treats as "no
    usable tangent frame here".
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise LinearAlgebraError(f"expected a matrix, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise LinearAlgebraError("matrix has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(mat, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"SVD failed to converge: {exc}") from exc
    if s[0] == 0.0 or s[-1] <= _RANK_RATIO * s[0]:
        raise RankDeficientError(
            f"singular values {s} span more than 1/{_RANK_RATIO:g}"
        )
    for q, label in ((u, "U"), (vt.T, "V")):
        defect = float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))
        if not defect <= _SVD_ORTHO_TOL:
            raise LinearAlgebraError(f"SVD factor {label} defect {defect:.3e}")
    smat = np.zeros(mat.shape)
    np.fill_diagonal(smat, s)
    scale = max(1.0, float(np.max(np.abs(mat))))
    err = float(np.max(np.abs(u @ smat @ vt - mat)))
    if not err <= _SVD_RECON_TOL * scale:
        raise LinearAlgebraError(f"SVD reconstruction error {err:.3e}")
    return u, s, vt


def approx_inverse(mat) -> np.ndarray:
    """Float inverse, one lane of ``approx_inverses``; raises if the lane fails the gate."""
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if mat.shape != (k, k):
        raise LinearAlgebraError(f"cannot invert non-square {mat.shape}")
    inv = approx_inverses(mat[None])[0]
    if np.isnan(inv).any():
        raise LinearAlgebraError("matrix is singular or its inverse fails the residual gate")
    return inv


def approx_inverses(mats) -> np.ndarray:
    """Float inverses of a stack (N, k, k); NaN on a lane that fails the gate.

    A lane fails when it is singular, or when its inverse is not finite or
    leaves a residual above ``_INVERSE_RESIDUAL_TOL``.  Each lane is
    inverted and gated on its own, so its result does not depend on the
    rest of the stack.  The caller treats each inverse as a guess.
    """
    mats = np.asarray(mats, dtype=float)
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(mats)
        except np.linalg.LinAlgError:  # some lane is singular; the others still count
            inv = np.stack([_inverse_or_nan(mat) for mat in mats])
        resid = np.max(np.abs(inv @ mats - np.eye(mats.shape[-1])), axis=(-2, -1))
    bad = ~(np.all(np.isfinite(inv), axis=(-2, -1)) & (resid <= _INVERSE_RESIDUAL_TOL))
    inv[bad] = np.nan
    return inv


def _inverse_or_nan(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return np.full(mat.shape, np.nan)


def orthogonal_inverse_enclosure(v: np.ndarray) -> IntervalMatrix:
    """Rigorous interval enclosure of V^{-1} for a near-orthogonal float V.

    With E = V^T V - I (enclosed in interval arithmetic) and e = |E|_inf < 1,
    V^{-1} = (I + E)^{-1} V^T differs from V^T by at most
    |V^T|_inf * e / (1 - e) in every entry, since each entry of a matrix is
    bounded by its inf-norm.  The result is V^T fattened by that margin.
    """
    v = np.asarray(v, dtype=float)
    k = v.shape[0]
    if v.shape != (k, k):
        raise LinearAlgebraError(f"expected square matrix, got {v.shape}")
    iv = IntervalMatrix.from_floats(v)
    ivt = IntervalMatrix.from_floats(v.T)
    residual = ivt.matmul(iv) - IntervalMatrix.identity(k)
    defect = residual.norm_inf_up()
    if not defect < 1.0:
        raise LinearAlgebraError(
            f"matrix too far from orthogonal for inverse enclosure (defect {defect:.3e})"
        )
    vt_norm = ivt.norm_inf_up()
    # upper bound on vt_norm * defect / (1 - defect), all rounded up
    margin = div_up(mul_up(vt_norm, defect), -add_up(defect, -1.0))
    rows = []
    for i in range(k):
        rows.append(
            [Interval.point(float(v[j, i])).inflate(margin) for j in range(k)]
        )
    return IntervalMatrix(rows)
