"""Wavefunction ansatzes in the unified exponential form.

The shallow CNN, the correlator-product (CPS) and the maximum-entropy ansatz
all evaluate to ln psi(s) = sum over motifs of coefficient * count.  One-hot
channel layout: a window starting at i contributes
``sum_j w[j][label(s_{i+j})] + b`` before the ReLU.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .motif import Motif, all_motifs, independent_operator_set, motif_count_rows
from .spinchain import SpinConfig


@dataclass(frozen=True)
class CnnParams:
    """Filter w (K x M), scalar bias b, scalar output weight v."""

    w: np.ndarray
    b: float
    v: float

    @property
    def k(self) -> int:
        return self.w.shape[0]

    @property
    def m(self) -> int:
        return self.w.shape[1]

    def to_json(self, n: int | None = None) -> str:
        doc = {"N": n, "M": self.m, "K": self.k, "v": self.v, "b": self.b,
               "w": [float(x) for x in self.w.ravel()]}
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "CnnParams":
        doc = json.loads(text)
        w = np.array(doc["w"], dtype=float).reshape(doc["K"], doc["M"])
        return cls(w=w, b=float(doc["b"]), v=float(doc["v"]))


def _windows(s_arr: np.ndarray, k: int) -> np.ndarray:
    """Cyclic window index matrix, shape (..., N, K)."""
    n = s_arr.shape[-1]
    idx = (np.arange(n)[:, None] + np.arange(k)[None, :]) % n
    return s_arr[..., idx]


def preactivations(p: CnnParams, s_arr: np.ndarray) -> np.ndarray:
    """w . window + b for each of the N cyclic windows; batched over leading axes."""
    win = _windows(s_arr, p.k)  # (..., N, K) labels
    return p.w[np.arange(p.k), win].sum(axis=-1) + p.b


def cnn_logpsi(p: CnnParams, s: SpinConfig) -> float:
    pre = preactivations(p, np.asarray(s, dtype=np.intp))
    return float(p.v * np.maximum(pre, 0.0).sum())


def cnn_logpsi_batch(p: CnnParams, states: np.ndarray) -> np.ndarray:
    """ln psi for a (B, N) array of states."""
    pre = preactivations(p, np.asarray(states, dtype=np.intp))
    return p.v * np.maximum(pre, 0.0).sum(axis=-1)


def motif_activations(p: CnnParams) -> np.ndarray:
    """sigma(w . s' + b) for every motif s', lexicographic order."""
    motifs = np.array(all_motifs(p.m, p.k), dtype=np.intp)
    pre = p.w[np.arange(p.k), motifs].sum(axis=1) + p.b
    return np.maximum(pre, 0.0)


def cnn_logpsi_motif_form(p: CnnParams, counts: np.ndarray) -> float:
    counts = np.asarray(counts)
    if counts.shape[0] != p.m**p.k:
        raise ValueError(f"expected {p.m**p.k} motif counts, got {counts.shape[0]}")
    return float(p.v * np.dot(motif_activations(p), counts))


def cps_logpsi(coeffs: np.ndarray, counts: np.ndarray) -> float:
    """ln psi = sum of correlator log-coefficients weighted by motif counts."""
    coeffs = np.asarray(coeffs, dtype=float)
    counts = np.asarray(counts)
    if coeffs.shape != counts.shape:
        raise ValueError("coefficient/count length mismatch")
    return float(np.dot(coeffs, counts))


def cnn_as_cps(p: CnnParams) -> np.ndarray:
    """CPS coefficients v*sigma(w.s'+b) reproducing the CNN exactly."""
    return p.v * motif_activations(p)


@dataclass(frozen=True)
class MaxEntParams:
    """Lagrange multipliers on an independent operator set, plus ln Z."""

    motifs: tuple[Motif, ...]
    lam: np.ndarray
    ln_z: float

    @property
    def k(self) -> int:
        return len(self.motifs[0])


def maxent_logpsi(mp: MaxEntParams, states: np.ndarray, m: int = 2) -> np.ndarray:
    """ln psi of each row of an ``(S, N)`` label array: sum over the
    independent set of lambda * count, minus ln Z."""
    return mp.lam @ motif_count_rows(states, mp.motifs, m) - mp.ln_z


def grandsum(p: CnnParams) -> float:
    """Sum of all filter entries plus 2b; the relabeling-symmetry functional (M=2)."""
    if p.m != 2:
        raise ValueError("grand sum condition is defined for M=2")
    return float(p.w.sum() + 2.0 * p.b)


def project_grandsum(p: CnnParams) -> CnnParams:
    """Shift w uniformly so that grandsum vanishes; b and v are untouched."""
    c = grandsum(p)
    return replace(p, w=p.w - c / (2.0 * p.k))


def logpsi_gradient(p: CnnParams, s: SpinConfig) -> tuple[float, np.ndarray, float]:
    """(d/dv, d/dw, d/db) of ln psi at s.  ReLU subgradient at 0 is 0."""
    s_arr = np.asarray(s, dtype=np.intp)
    n = s_arr.shape[0]
    win = _windows(s_arr, p.k)  # (N, K)
    pre = p.w[np.arange(p.k), win].sum(axis=1) + p.b
    act = np.maximum(pre, 0.0)
    firing = pre > 0.0
    dv = float(act.sum())
    db = float(p.v * firing.sum())
    dw = np.zeros_like(p.w)
    for i in range(n):
        if firing[i]:
            dw[np.arange(p.k), win[i]] += p.v
    return dv, dw, db


def logpsi_gradient_batch(p: CnnParams, states: np.ndarray) -> np.ndarray:
    """Flattened (v, w, b) log-derivatives for a (B, N) state batch; shape (B, 2+K*M)."""
    states = np.asarray(states, dtype=np.intp)
    bsz, n = states.shape
    win = _windows(states, p.k)  # (B, N, K)
    pre = p.w[np.arange(p.k), win].sum(axis=2) + p.b
    firing = pre > 0.0
    dv = np.maximum(pre, 0.0).sum(axis=1)
    db = p.v * firing.sum(axis=1)
    onehot = np.eye(p.m)[win]  # (B, N, K, M)
    dw = p.v * np.einsum("bn,bnkm->bkm", firing.astype(float), onehot)
    return np.concatenate([dv[:, None], dw.reshape(bsz, -1), db[:, None]], axis=1)


def unpack_gradient(p: CnnParams, flat: np.ndarray) -> tuple[float, np.ndarray, float]:
    return float(flat[0]), flat[1:-1].reshape(p.k, p.m).copy(), float(flat[-1])


def linear_cnn_logpsi(p: CnnParams, s: SpinConfig) -> float:
    """CNN output with sigma = identity; constant across states by the
    linear-activation theorem."""
    pre = preactivations(p, np.asarray(s, dtype=np.intp))
    return float(p.v * pre.sum())


def linear_activation_constant(p: CnnParams, n: int) -> float:
    """Predicted all-state value N*v*grandsum(w + b/K)/M under linear activation."""
    gs_tilde = float(p.w.sum() + p.m * p.b)
    return n * p.v * gs_tilde / p.m


class MaxEntFitError(RuntimeError):
    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"MaxEnt dual Newton did not converge after {iterations} iterations "
            f"(max residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def fit_maxent(
    targets: dict[Motif, float],
    basis: np.ndarray,
    k: int,
    *,
    m: int = 2,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> MaxEntParams:
    """Fit multipliers so the model MEVs match targets on the independent set.

    ``basis`` is the ``(S, N)`` label array the model is normalized over.
    Targets use the probability convention (diagonal of rho_K); the model is
    P(s) proportional to exp(2 * sum lambda * count).  Damped Newton on the
    convex dual; the step solves the Hessian system by least squares so the
    rank-deficient K ~ N limit still converges on the residual.
    """
    n = basis.shape[1]
    ops = independent_operator_set(k, m)
    missing = [mo for mo in ops if mo not in targets]
    if missing:
        raise ValueError(f"targets missing independent motifs: {missing[:3]}...")
    t_counts = np.array([targets[mo] for mo in ops]) * n  # count convention
    c_mat = motif_count_rows(basis, ops, m).T.astype(float, order="C")

    lam = np.zeros(len(ops))
    residual = np.inf
    for _ in range(max_iter):
        logw = 2.0 * c_mat @ lam
        logw -= logw.max()
        w = np.exp(logw)
        z = w.sum()
        prob = w / z
        mean = prob @ c_mat
        resid = mean - t_counts
        residual = float(np.abs(resid).max())
        if residual < tol:
            break
        cov = c_mat.T @ (c_mat * prob[:, None]) - np.outer(mean, mean)
        step, *_ = np.linalg.lstsq(2.0 * cov, resid, rcond=None)

        def dual(l_vec: np.ndarray) -> float:
            lw = 2.0 * c_mat @ l_vec
            shift = lw.max()
            return 0.5 * (shift + np.log(np.exp(lw - shift).sum())) - l_vec @ t_counts

        f0 = dual(lam)
        alpha = 1.0
        for _ in range(50):
            trial = lam - alpha * step
            if dual(trial) < f0:
                break
            alpha *= 0.5
        lam = lam - alpha * step
    else:
        raise MaxEntFitError(residual, max_iter)

    logw = 2.0 * c_mat @ lam
    shift = logw.max()
    ln_z = 0.5 * (shift + np.log(np.exp(logw - shift).sum()))
    return MaxEntParams(motifs=tuple(ops), lam=lam, ln_z=ln_z)


def maxent_state_probs(mp: MaxEntParams, basis: np.ndarray, m: int = 2) -> np.ndarray:
    """Normalized P(s) = psi^2 over an ``(S, N)`` label basis for a fitted model."""
    logpsi = maxent_logpsi(mp, basis, m)
    w = np.exp(2.0 * (logpsi - logpsi.max()))
    return w / w.sum()
