"""Wavefunction ansatzes in the unified exponential form.

The shallow CNN, the correlator-product (CPS) and the maximum-entropy ansatz
all evaluate to ln psi(s) = sum over motifs of coefficient * count.
:func:`cps_logpsi` is that motif form; :func:`cnn_as_cps` gives the CNN's
coefficients.  The MaxEnt coefficients sit on the certified independent
rows of the motif count matrix on the basis, so they are unique for any M.
States are the rows of a ``(B, N)`` label array.  One-hot channel layout: a
window starting at i contributes ``sum_j w[j][label(s_{i+j})] + b`` before
the ReLU.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .motif import (
    Motif,
    all_motifs,
    independent_rows,
    motif_count_matrix,
    motif_count_rows,
)


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


def cnn_logpsi_batch(p: CnnParams, states: np.ndarray) -> np.ndarray:
    """ln psi for a (B, N) array of states."""
    pre = preactivations(p, np.asarray(states, dtype=np.intp))
    return p.v * np.maximum(pre, 0.0).sum(axis=-1)


def cps_logpsi(coeffs: np.ndarray, states: np.ndarray, m: int) -> np.ndarray:
    """ln psi of each row of a ``(B, N)`` label array: the correlator
    log-coefficients, one per K-motif in lexicographic order, weighted by the
    row's motif counts.  K is read off ``len(coeffs) == m**K``."""
    coeffs = np.asarray(coeffs, dtype=float)
    k = 1
    while m**k < len(coeffs):
        k += 1
    if len(coeffs) != m**k:
        raise ValueError(f"need M**K coefficients with K >= 1, got {len(coeffs)} for M={m}")
    return coeffs @ motif_count_matrix(states, k, m)


def cnn_as_cps(p: CnnParams) -> np.ndarray:
    """CPS coefficients v*sigma(w.s'+b), motifs s' in lex order: the CNN exactly."""
    motifs = np.array(all_motifs(p.m, p.k), dtype=np.intp)
    pre = p.w[np.arange(p.k), motifs].sum(axis=1) + p.b
    return p.v * np.maximum(pre, 0.0)


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


def linear_cnn_logpsi(p: CnnParams, states: np.ndarray) -> np.ndarray:
    """CNN output with sigma = identity for a (B, N) array of states;
    constant across states by the linear-activation theorem."""
    pre = preactivations(p, np.asarray(states, dtype=np.intp))
    return p.v * pre.sum(axis=-1)


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
    P(s) proportional to exp(2 * sum lambda * count).  The operators are the
    :func:`~spinmotif.motif.independent_rows` of the count matrix on the
    basis, so their number is its rank and the multipliers are unique.  The
    constant sum of counts lies in their span, so damped Newton with Cholesky
    steps on the moment dual sum_s exp(2 lambda.c(s))/2 - lambda.t, whose
    Hessian is positive definite, also matches the normalization.
    """
    n = basis.shape[1]
    counts = motif_count_matrix(basis, k, m)
    rows = independent_rows(counts)
    motifs = all_motifs(m, k)
    ops = [motifs[i] for i in rows]
    missing = [mo for mo in ops if mo not in targets]
    if missing:
        raise ValueError(f"targets missing independent motifs: {missing[:3]}...")
    t_counts = np.array([targets[mo] for mo in ops]) * n  # count convention
    c_mat = counts[rows].T.astype(float, order="C")

    def dual(l_vec: np.ndarray) -> float:
        return 0.5 * np.exp(2.0 * c_mat @ l_vec).sum() - l_vec @ t_counts

    lam = np.zeros(len(ops))
    residual = np.inf
    for _ in range(max_iter):
        prob = np.exp(2.0 * c_mat @ lam)
        resid = prob @ c_mat - t_counts
        residual = float(np.abs(resid).max())
        if residual < tol:
            break
        hess = 2.0 * c_mat.T @ (c_mat * prob[:, None])
        step = cho_solve(cho_factor(hess), resid)
        f0 = dual(lam)
        alpha = 1.0
        for _ in range(50):
            if dual(lam - alpha * step) <= f0:
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
