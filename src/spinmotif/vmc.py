"""Metropolis sampling in the zero-magnetization sector and CNN training.

Implements the plain gradient-descent loop plus the two symmetry-forcing
variants: grand-sum projection at initialization only, or after every update.
All randomness flows from one root seed through named substreams, so runs are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ansatz import (
    CnnParams,
    born_weights,
    cnn_logpsi_batch,
    grandsum,
    logpsi_gradient_batch,
    project_grandsum,
    unpack_gradient,
)
from .spinchain import enumerate_basis, state_codes

ALGORITHMS = ("original", "symforce-init", "symforce-traj")


@dataclass
class SamplerConfig:
    n_samples: int = 1000
    burn_in: int | None = None  # proposed moves; default 10*N
    thinning: int | None = None  # moves between samples; default N
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass
class TrainConfig:
    algorithm: str = "symforce-traj"
    k: int = 4
    eta: float = 0.01
    n_opt: int = 10
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.eta <= 0:
            raise ValueError("learning rate must be positive")
        if self.n_opt < 1:
            raise ValueError("n_opt must be >= 1")


@dataclass
class TrainingTrajectory:
    energies: list[float] = field(default_factory=list)
    stderrs: list[float] = field(default_factory=list)
    grandsums: list[float] = field(default_factory=list)
    params_history: list[CnnParams] = field(default_factory=list)
    final_params: CnnParams | None = None
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.energies)


def local_energies(p: CnnParams, states: np.ndarray) -> np.ndarray:
    """Vectorized local energies for a (B, N) batch of M=2 states."""
    states = np.asarray(states, dtype=np.intp)
    bsz, n = states.shape
    base = cnn_logpsi_batch(p, states)
    nxt = np.roll(states, -1, axis=1)
    unlike = states != nxt  # (B, N) bond mask
    # assemble every single-bond swap of every state
    b_idx, bond_idx = np.nonzero(unlike)
    swapped = states[b_idx].copy()
    j = (bond_idx + 1) % n
    rows = np.arange(swapped.shape[0])
    swapped[rows, bond_idx], swapped[rows, j] = (
        swapped[rows, j],
        swapped[rows, bond_idx],
    )
    ratios = np.exp(cnn_logpsi_batch(p, swapped) - base[b_idx])
    offdiag = np.bincount(b_idx, weights=ratios, minlength=bsz)
    n_like = n - unlike.sum(axis=1)
    return n_like - offdiag


def _logpsi_fast(wl: list[list[float]], b: float, v: float, s: list[int],
                 n: int, k: int) -> float:
    total = 0.0
    for i in range(n):
        pre = b
        for j in range(k):
            pre += wl[j][s[(i + j) % n]]
        if pre > 0.0:
            total += pre
    return v * total


def random_state(n: int, rng: np.random.Generator, m: int = 2) -> np.ndarray:
    """A uniformly shuffled zero-magnetization state as a uint8 label row."""
    base = np.repeat(np.arange(m), n // m)
    rng.shuffle(base)
    return base.astype(np.uint8)


def metropolis_chain(
    p: CnnParams,
    cfg: SamplerConfig,
    n: int,
    rng: np.random.Generator | None = None,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Metropolis samples of |psi|^2, shape (n_samples, N).

    The chain starts from the label row ``initial``, or from a random state.
    Proposal: swap two uniformly chosen unlike-label sites, a like pair being
    drawn again; accept with min(1, exp(2*delta ln psi)).  The number of
    unlike pairs is constant on the fixed-composition sector, so the proposal
    is symmetric.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    burn_in = 10 * n if cfg.burn_in is None else cfg.burn_in
    stride = n if cfg.thinning is None else cfg.thinning
    s = (initial if initial is not None else random_state(n, rng, p.m)).tolist()

    wl = [[float(x) for x in row] for row in p.w]
    b, v, k = float(p.b), float(p.v), p.k
    cur = _logpsi_fast(wl, b, v, s, n, k)

    total_moves = burn_in + cfg.n_samples * stride
    samples = np.empty((cfg.n_samples, n), dtype=np.intp)
    # draw randomness in chunks; scalar generator calls dominate otherwise
    chunk = 8192
    ints = rng.integers(0, n, size=(0,))
    logs = np.log(rng.random(size=(0,)))
    ii = 0
    out = 0
    for move in range(total_moves):
        while True:
            if ii + 2 > ints.shape[0]:
                ints = rng.integers(0, n, size=chunk)
                logs = np.log(rng.random(size=chunk))
                ii = 0
            i, j = int(ints[ii]), int(ints[ii + 1])
            logu = float(logs[ii])
            ii += 2
            if s[i] != s[j]:
                break
        s[i], s[j] = s[j], s[i]
        new = _logpsi_fast(wl, b, v, s, n, k)
        if logu < 2.0 * (new - cur):
            cur = new
        else:
            s[i], s[j] = s[j], s[i]
        if move >= burn_in and (move - burn_in + 1) % stride == 0:
            samples[out] = s
            out += 1
    return samples[:out]


def energy_gradient(
    p: CnnParams, states: np.ndarray, eloc: np.ndarray | None = None
) -> tuple[float, np.ndarray, float]:
    """Covariance estimator 2*[<E O> - <E><O>] over a sample batch."""
    states = np.asarray(states, dtype=np.intp)
    if states.shape[0] < 2:
        raise ValueError("need at least 2 samples for the gradient estimator")
    if eloc is None:
        eloc = local_energies(p, states)
    o = logpsi_gradient_batch(p, states)
    g = 2.0 * ((eloc[:, None] * o).mean(axis=0) - eloc.mean() * o.mean(axis=0))
    return unpack_gradient(p, g)


def exact_energy_gradient(
    p: CnnParams, basis: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Full-batch gradient of the Rayleigh quotient, summing over an
    ``(S, N)`` label basis with psi^2 weights.  Feasible only at small N."""
    states = np.asarray(basis, dtype=np.intp)
    w = born_weights(cnn_logpsi_batch(p, states))
    eloc = local_energies(p, states)
    o = logpsi_gradient_batch(p, states)
    mean_e = float(w @ eloc)
    mean_o = w @ o
    g = 2.0 * ((w * eloc) @ o - mean_e * mean_o)
    return unpack_gradient(p, g)


def exact_energy(p: CnnParams, basis: np.ndarray) -> float:
    """Rayleigh quotient of the gauged Hamiltonian via summation over an
    ``(S, N)`` label basis."""
    states = np.asarray(basis, dtype=np.intp)
    return float(born_weights(cnn_logpsi_batch(p, states)) @ local_energies(p, states))


def init_params(k: int, m: int, rng: np.random.Generator) -> CnnParams:
    """w, b ~ U[-0.1, 0.1]; v ~ U[0.5, 1.5]."""
    w = rng.uniform(-0.1, 0.1, size=(k, m))
    b = float(rng.uniform(-0.1, 0.1))
    v = float(rng.uniform(0.5, 1.5))
    return CnnParams(w=w, b=b, v=v)


def train(
    cfg: TrainConfig,
    sampler: SamplerConfig,
    n: int,
    m: int = 2,
    keep_history: bool = True,
) -> TrainingTrajectory:
    """Run the configured training algorithm for a periodic M=2 chain.

    Each sampled batch is reused for ``n_opt`` gradient steps; the recorded
    energy is the batch mean of the local energies under the batch's params.
    """
    ss = np.random.SeedSequence(cfg.seed)
    init_seed, chain_seed = ss.spawn(2)
    init_rng = np.random.default_rng(init_seed)
    chain_rng = np.random.default_rng(chain_seed)

    p = init_params(cfg.k, m, init_rng)
    if cfg.algorithm in ("symforce-init", "symforce-traj"):
        p = project_grandsum(p)

    traj = TrainingTrajectory()
    state: np.ndarray | None = None
    for _ in range(cfg.max_iter):
        samples = metropolis_chain(p, sampler, n, rng=chain_rng, initial=state)
        state = samples[-1]
        eloc = local_energies(p, samples)
        e_hat = float(eloc.mean())
        stderr = float(eloc.std(ddof=1) / np.sqrt(len(eloc)))
        for _ in range(cfg.n_opt):
            gv, gw, gb = energy_gradient(p, samples)
            p = replace(p, v=p.v - cfg.eta * gv, w=p.w - cfg.eta * gw,
                        b=p.b - cfg.eta * gb)
            if cfg.algorithm == "symforce-traj":
                p = project_grandsum(p)
        traj.energies.append(e_hat)
        traj.stderrs.append(stderr)
        traj.grandsums.append(grandsum(p))
        if keep_history:
            traj.params_history.append(p)
        if abs(e_hat) > 1e3 * n or not np.isfinite(e_hat):
            traj.diverged = True
            break
    traj.final_params = p
    return traj


def convergence_iteration(traj: TrainingTrajectory | list[float],
                          max_iter: int = 500, window: int = 10) -> int:
    """First iteration where the rolling-average energy changed by less than
    0.01% relative to its value 5 iterations earlier; max_iter if never."""
    energies = traj.energies if isinstance(traj, TrainingTrajectory) else list(traj)
    if not energies:
        raise ValueError("empty trajectory")
    arr = np.asarray(energies)
    for t in range(window + 5, len(arr) + 1):
        roll_now = arr[t - window : t].mean()
        roll_then = arr[t - 5 - window : t - 5].mean()
        if roll_then != 0 and abs(roll_now - roll_then) / abs(roll_then) < 1e-4:
            return t
    return max_iter


def invariant_dynamics_check(
    p: CnnParams, n: int, eta: float = 1.0
) -> dict[str, float]:
    """Max deviation of the one-step gradient-flow direction over orbit pairs.

    Computes delta ln psi(s) for every basis state from the full-batch exact
    gradient and compares (s, Ts) translation pairs and (s, Ls) label-flip
    pairs (M=2); the partner rows are found by code.
    """
    if p.m != 2:
        raise ValueError("the label-flip pairs are defined for M=2")
    states = enumerate_basis(n, p.m)
    codes = state_codes(states, p.m)
    gv, gw, gb = exact_energy_gradient(p, states)
    flat = np.concatenate([[gv], gw.ravel(), [gb]])
    delta = -eta * (logpsi_gradient_batch(p, states) @ flat)
    out = {}
    for name, image in (("translate", np.roll(states, -1, axis=1)), ("relabel", 1 - states)):
        partner = np.searchsorted(codes, state_codes(image, p.m))
        out[name] = float(np.abs(delta - delta[partner]).max())
    return out
