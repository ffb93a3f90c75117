"""Motif features, OLS regression, and the outlier filter of the error model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .motif import Motif

# two-sided normal thresholds for 95 / 99 / 99.9 percent
_STAR_THRESHOLDS = ((3.290527, "***"), (2.575829, "**"), (1.959964, "*"))


@dataclass
class MotifFeatures:
    n_like: int  # adjacent like-label pairs within the motif (non-cyclic)
    d_neel: int  # Hamming distance to the closer alternating motif


def motif_features(motif: Motif) -> MotifFeatures:
    if any(x > 1 for x in motif):
        raise ValueError("motif features are defined for M=2")
    k = len(motif)
    n_like = sum(1 for i in range(k - 1) if motif[i] == motif[i + 1])
    neel_a = tuple(i % 2 for i in range(k))
    neel_b = tuple((i + 1) % 2 for i in range(k))
    d_neel = min(
        sum(1 for a, b in zip(motif, neel_a) if a != b),
        sum(1 for a, b in zip(motif, neel_b) if a != b),
    )
    return MotifFeatures(n_like=n_like, d_neel=d_neel)


@dataclass
class RegressionResult:
    names: list[str]
    coefficients: np.ndarray
    std_errors: np.ndarray
    r_squared: float
    n_obs: int
    condition_number: float
    stars: list[str]
    rank_deficient: bool = False

    def table(self) -> str:
        """Plain-text table: coefficient, (std. error), significance stars."""
        lines = [f"R^2 = {self.r_squared:.3f}   No. Obs. = {self.n_obs}   "
                 f"Cond. No. = {self.condition_number:.3g}"]
        width = max(len(n) for n in self.names)
        for name, c, se, st in zip(self.names, self.coefficients,
                                   self.std_errors, self.stars):
            lines.append(f"{name:>{width}}  {c: .4g}{st} ({se:.4g})")
        return "\n".join(lines)


def _stars(z: float) -> str:
    for thresh, mark in _STAR_THRESHOLDS:
        if abs(z) >= thresh:
            return mark
    return ""


def ols_regress(
    design: np.ndarray, targets: np.ndarray, names: Sequence[str] | None = None
) -> RegressionResult:
    """Least-squares fit with normal-approximation standard errors.

    The design matrix must already contain its intercept column.  Standard
    errors come from sigma^2 * diag((X^T X)^-1); the condition number is the
    ratio of extreme singular values of the design.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    n_obs, n_par = x.shape
    if n_obs < n_par:
        raise ValueError(f"need rows >= columns, got {n_obs} x {n_par}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite entries in the regression inputs")
    svals = np.linalg.svd(x, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    rank_deficient = svals[-1] <= 1e-12 * svals[0]

    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    dof = max(n_obs - n_par, 1)
    sigma2 = rss / dof
    xtx_inv = np.linalg.pinv(x.T @ x)
    se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
    stars = [_stars(b / s) if s > 0 else "" for b, s in zip(beta, se)]
    if names is None:
        names = ["Intercept"] + [f"x{i}" for i in range(1, n_par)]
    return RegressionResult(
        names=list(names), coefficients=beta, std_errors=se,
        r_squared=max(0.0, min(1.0, r2)), n_obs=n_obs,
        condition_number=cond, stars=stars, rank_deficient=rank_deficient,
    )


def outlier_filter(
    records: Sequence[Mapping], key: str = "delta_e_rel", threshold: float = 6.0
) -> tuple[list, int]:
    """Drop the records whose relative energy error ``record[key]`` is >=
    threshold (inclusive)."""
    kept = []
    removed = 0
    for rec in records:
        if rec[key] >= threshold:
            removed += 1
        else:
            kept.append(rec)
    return kept, removed


def feature_design(motifs: Sequence[Motif]) -> tuple[np.ndarray, list[str]]:
    """Design matrix [1, d_Neel, n_like, d_Neel*n_like] for the feature model."""
    rows = []
    for mo in motifs:
        f = motif_features(mo)
        rows.append([1.0, f.d_neel, f.n_like, f.d_neel * f.n_like])
    return np.array(rows), ["Intercept", "d_Neel", "n_like", "d_Neel*n_like"]
