"""Exact-diagonalization oracle for the periodic exchange chain.

Builds H = sum_i P_{i,i+1} on the zero-magnetization sector, solves for the
extremal eigenpairs, and derives reduced density matrices, entanglement
spectra, motif expectation values (MEVs), and the CFT thermal approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .motif import Motif, all_motifs, motif_index
from .spinchain import (
    EquivalenceClassPartition,
    SpinConfig,
    as_states,
    enumerate_basis,
    marshall_signs,
    state_codes,
)

#: Largest sector solved with dense ``eigh``; bigger ones go to Lanczos.  Dense
#: is faster at 90 states and Lanczos at 252 (one BLAS thread).
DENSE_CAP = 150
#: Eigen-residuals above ``RESIDUAL_TOL * max(1, |E|)`` fail the solve.
RESIDUAL_TOL = 1e-9
DEGENERACY_TOL = 1e-10


class NumericalCheckError(RuntimeError):
    """A computation finished but its result failed a numerical check."""


class DegenerateGroundStateError(NumericalCheckError):
    pass


class ResidualError(NumericalCheckError):
    pass


def build_hamiltonian(
    basis: list[SpinConfig] | np.ndarray, gauge: bool = False
) -> sp.csr_matrix:
    """Sparse H = sum of neighbor exchanges (periodic).  With ``gauge`` the
    Marshall similarity transform is applied (M=2 only), making all
    off-diagonal entries -1.

    One vectorized pass per bond: the states with unlike labels on the bond
    get their swapped code by digit arithmetic and their row by
    ``searchsorted`` in the sorted code array.
    """
    states = as_states(basis)
    dim, n = states.shape
    m = int(states.max()) + 1
    codes = state_codes(states, m)
    signs = marshall_signs(states) if gauge else None
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for i in range(n):
        j = (i + 1) % n
        a, b = states[:, i], states[:, j]
        unlike = np.flatnonzero(a != b)
        diag += a == b
        delta = b[unlike].astype(np.int64) - a[unlike]
        row = np.searchsorted(codes, codes[unlike] + delta * (place[i] - place[j]))
        rows.append(row)
        cols.append(unlike)
        vals.append(np.ones(len(unlike)) if signs is None else signs[unlike] * signs[row])
    occupied = np.flatnonzero(diag)
    rows.append(occupied)
    cols.append(occupied)
    vals.append(diag[occupied])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


@dataclass
class GroundStateSolution:
    n: int
    m: int
    e0: float
    emax: float
    amplitudes: np.ndarray  # normalized, over the lex basis
    basis: list[SpinConfig] = field(repr=False)
    states: np.ndarray = field(repr=False)  # the basis as an (S, N) uint8 label array
    gauge: bool
    residual: float
    solver: str
    signs: np.ndarray | None = field(default=None, repr=False)  # Marshall signs if gauged

    @cached_property
    def codes(self) -> np.ndarray:
        """Sorted base-M codes of the basis states."""
        return state_codes(self.states, self.m)

    def physical_amplitudes(self) -> np.ndarray:
        """Amplitudes with the Marshall gauge removed (sign per basis state)."""
        if not self.gauge:
            return self.amplitudes
        return self.amplitudes * self.signs


def _check_residual(what: str, residual: float, scale: float) -> None:
    limit = RESIDUAL_TOL * max(1.0, abs(scale))
    if not residual <= limit:
        raise ResidualError(f"{what} residual {residual:.3e} exceeds {limit:.3e}")


def ground_state(
    n: int, m: int, gauge: bool = False, dense_cap: int = DENSE_CAP
) -> GroundStateSolution:
    """Lowest eigenpair of the sector Hamiltonian, plus E_max.

    Dense symmetric solver up to ``dense_cap`` states, restarted Lanczos
    (ARPACK, from a fixed-seed start vector, so runs replay) above it.
    Lanczos takes E_max = N without a second solve: ||sum_i P_i|| <= N, and
    the fully symmetric state (the sign vector when gauged) has eigenvalue
    N, which one matvec certifies.  Both residuals are checked and a failure
    raises :class:`ResidualError`.
    """
    basis = enumerate_basis(n, m)
    states = as_states(basis)
    h = build_hamiltonian(states, gauge=gauge)
    signs = marshall_signs(states) if gauge else None
    dim = len(states)
    if dim <= dense_cap:
        evals, evecs = np.linalg.eigh(h.toarray())
        e0, e1, emax = float(evals[0]), float(evals[1]), float(evals[-1])
        vec = evecs[:, 0]
        solver = "dense"
    else:
        # not a symmetric start such as ones: Lanczos would stay in the
        # trivial sector and e1 would miss the global second eigenvalue
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
        evals, evecs = spla.eigsh(h, k=2, which="SA", tol=0, v0=v0)
        order = np.argsort(evals)
        e0, e1 = float(evals[order[0]]), float(evals[order[1]])
        vec = evecs[:, order[0]]
        emax = float(n)
        sym = np.ones(dim) if signs is None else signs  # norm sqrt(dim)
        sym_residual = float(np.linalg.norm(h @ sym - emax * sym)) / np.sqrt(dim)
        _check_residual("E_max = N", sym_residual, emax)
        solver = "lanczos"
    if m == 2 and n % 2 == 0 and e1 - e0 < DEGENERACY_TOL:
        raise DegenerateGroundStateError(
            f"gap {e1 - e0:.3e} below tolerance at N={n}, M={m}"
        )
    vec = vec / np.linalg.norm(vec)
    # deterministic overall sign: majority-positive
    if vec.sum() < 0:
        vec = -vec
    residual = float(np.linalg.norm(h @ vec - e0 * vec))
    _check_residual("ground-state", residual, e0)
    return GroundStateSolution(
        n=n, m=m, e0=e0, emax=emax, amplitudes=vec, basis=basis, states=states,
        gauge=gauge, residual=residual, solver=solver, signs=signs,
    )


@dataclass
class ReducedDensityMatrix:
    """Density matrix of K adjacent sites over the full M^K product basis."""

    rho: np.ndarray
    k: int
    m: int


def reduced_density_matrix(gs: GroundStateSolution, k: int) -> ReducedDensityMatrix:
    """Trace out sites k..N-1 of |psi><psi|.  Built from the physical (ungauged)
    amplitudes; the diagonal is gauge-independent either way.

    Each code splits into a system part (sites 0..k-1) and an environment
    part; with A[system, environment] = psi, rho = A A^T.
    """
    if k > gs.n:
        raise ValueError(f"K={k} exceeds N={gs.n}")
    system, env = np.divmod(gs.codes, gs.m ** (gs.n - k))
    _, env_ids = np.unique(env, return_inverse=True)
    dim = gs.m**k
    a = sp.csr_matrix((gs.physical_amplitudes(), (system, env_ids)),
                      shape=(dim, int(env_ids.max()) + 1))
    rho = (a @ a.T).toarray()
    return ReducedDensityMatrix(rho=rho, k=k, m=gs.m)


def rdm_mev(rdm: ReducedDensityMatrix, scale: float = 1.0) -> dict[Motif, float]:
    """Diagonal of rho_K per motif (lexicographic order), times ``scale``."""
    diag = np.diag(rdm.rho).tolist()
    return {mo: p * scale for mo, p in zip(all_motifs(rdm.m, rdm.k), diag)}


def exact_mev(gs: GroundStateSolution, k: int, counts: bool = False) -> dict[Motif, float]:
    """Diagonal of rho_K per motif.  Probability convention by default; the
    count convention multiplies by N."""
    return rdm_mev(reduced_density_matrix(gs, k), gs.n if counts else 1.0)


def entanglement_spectrum(rho: np.ndarray | ReducedDensityMatrix,
                          cutoff: float = 1e-30) -> np.ndarray:
    """epsilon_alpha = -ln(eigenvalues of rho) above cutoff, ascending."""
    mat = rho.rho if isinstance(rho, ReducedDensityMatrix) else rho
    evals = np.linalg.eigvalsh(mat)
    evals = evals[evals > cutoff]
    return np.sort(-np.log(evals))


def truncation_size(weights: np.ndarray, fraction: float) -> int:
    """Smallest prefix of the descending-sorted weights whose mass reaches
    ``fraction`` of the total."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    w = np.sort(np.asarray(weights, dtype=float))[::-1]
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    cum = np.cumsum(w)
    return int(np.searchsorted(cum, fraction * cum[-1] - 1e-15) + 1)


def entanglement_hamiltonian(k: int, m: int = 2) -> np.ndarray:
    """H_K = sum over open-chain bonds of i(K-i)/K * P_{i,i+1} on the full
    M^K product space (parabolic bond weights)."""
    motifs = all_motifs(m, k)
    dim = m**k
    h = np.zeros((dim, dim))
    for col, s in enumerate(motifs):
        for i in range(k - 1):
            coef = (i + 1) * (k - i - 1) / k
            if s[i] == s[i + 1]:
                h[col, col] += coef
            else:
                t = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                h[motif_index(t, m), col] += coef
    return h


@lru_cache(maxsize=None)
def _entanglement_eigh(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (evals, evecs) of H_K, computed once per (K, M)."""
    evals, evecs = np.linalg.eigh(entanglement_hamiltonian(k, m))
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def cft_mev(k: int, beta: float, m: int = 2) -> dict[Motif, float]:
    """Diagonal of exp(-beta * H_K)/Z in the product basis."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    evals, evecs = _entanglement_eigh(k, m)
    w = np.exp(-beta * (evals - evals.min()))
    z = w.sum()
    diag = (evecs**2 @ w) / z
    return {mo: float(diag[motif_index(mo, m)]) for mo in all_motifs(m, k)}


def cft_thermal_weights(k: int, beta: float, m: int = 2) -> np.ndarray:
    evals, _ = _entanglement_eigh(k, m)
    w = np.exp(-beta * (evals - evals.min()))
    return w / w.sum()


def calibrate_beta(
    k: int,
    reference: dict[Motif, float],
    m: int = 2,
    lo: float = 1e-2,
    hi: float = 1e2,
    tol: float = 1e-9,
) -> float:
    """Beta minimizing the squared MEV mismatch against a reference (typically
    exact_mev at the largest feasible N).

    The mismatch plateaus at large beta (the thermal state saturates towards
    the H_K ground state), so a coarse log-spaced scan brackets the minimum
    before the bounded scalar refinement.
    """
    from scipy.optimize import minimize_scalar

    motifs = all_motifs(m, k)
    ref = np.array([reference[mo] for mo in motifs])

    def objective(beta: float) -> float:
        diag = cft_mev(k, beta, m)
        vals = np.array([diag[mo] for mo in motifs])
        return float(((vals - ref) ** 2).sum())

    grid = np.geomspace(lo, hi, 64)
    vals = np.array([objective(b) for b in grid])
    if vals.max() - vals.min() < 1e-14:
        raise NumericalCheckError("flat calibration objective on the bracket")
    best = int(vals.argmin())
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    res = minimize_scalar(objective, bounds=(a, b), method="bounded",
                          options={"xatol": tol})
    return float(res.x)


def cumulative_class_mass(
    gs: GroundStateSolution, partition: EquivalenceClassPartition, threshold: float
) -> int:
    """Number of equivalence classes (by descending psi^2 mass) needed to reach
    the threshold of the total probability."""
    if len(partition.class_ids) != len(gs.amplitudes):
        raise ValueError("partition is not over the ground state's basis")
    masses = np.bincount(partition.class_ids, weights=gs.amplitudes**2,
                         minlength=len(partition))
    if threshold >= 1.0:
        return int(np.sum(masses > 0))
    order = np.sort(masses)[::-1]
    cum = np.cumsum(order)
    return int(np.searchsorted(cum, threshold * cum[-1]) + 1)


def gap_estimate(gs: GroundStateSolution) -> float:
    """(E_max - E_0) / basis size, the cheap gap proxy used for error scaling."""
    return (gs.emax - gs.e0) / len(gs.amplitudes)
