"""Exact-diagonalization oracle for the periodic exchange chain.

Builds H = sum_i P_{i,i+1} on the zero-magnetization sector, solves for the
extremal eigenpairs, and derives reduced density matrices, entanglement
spectra, motif expectation values (MEVs), and the CFT thermal approximation.
An MEV table is a float array with one entry per K-motif, in motif-code order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .motif import motif_digits
from .spinchain import (
    EquivalenceClassPartition,
    canonical_codes,
    enumerate_basis,
    marshall_signs,
    partition_classes,
    state_codes,
)

#: Largest matrix diagonalized with dense ``eigh`` (the symmetric-sector matrix
#: for M=2, the full sector Hamiltonian for M >= 3); bigger ones go to Lanczos.
#: Dense is faster at 90 rows and Lanczos at 252 (one BLAS thread).
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


def build_hamiltonian(states: np.ndarray, gauge: bool = False) -> sp.csr_matrix:
    """Sparse H = sum of neighbor exchanges (periodic) on a lex-sorted
    ``(S, N)`` label basis that holds whole sectors.  With ``gauge`` the
    Marshall similarity transform is applied (M=2 and even N only), making
    all off-diagonal entries -1.

    Rows are paired without codes or search.  Among the states with labels
    (a, b) on a bond, the other sites decide the lex order, and swapping the
    bond to (b, a) leaves those sites alone: the k-th (a, b) state swaps into
    the k-th (b, a) state.  In the gauge each swap moves one label-1 site
    between an even and an odd site (for even N the wrap bond N-1 <-> 0 too),
    so it flips the sign (-1)^(label-1 sites on even sites) and every
    off-diagonal entry is -1 without a sign gather.

    The CSR arrays are written directly: row r holds its like-bond count on
    the diagonal (when nonzero), then one entry per unlike bond.  The final
    ``sum_duplicates`` sorts each row and sums N=2's double bond.
    """
    dim, n = states.shape
    m = int(states.max()) + 1
    if gauge and (m > 2 or n % 2):
        raise ValueError("Marshall gauge is only defined for M=2 and even N")
    sites = np.ascontiguousarray(states.T)  # (N, S): one contiguous row per site
    right = np.roll(sites, -1, axis=0)  # the other end of bond i: site i+1 (mod N)
    unlike = sites != right
    hops = unlike.sum(axis=0)
    diag = n - hops
    occupied = np.flatnonzero(diag)
    counts = hops + (diag > 0)
    index = np.int32 if n * dim < 2**31 else np.int64  # nnz <= N * S
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index)
    data = np.full(indptr[-1], -1.0 if gauge else 1.0)
    indices[indptr[occupied]] = occupied
    data[indptr[occupied]] = diag[occupied]
    slot = indptr[:-1] + (diag > 0)  # next free entry of each row
    for a, b, bond_unlike in zip(sites, right, unlike):
        for x in range(m):
            for y in range(x + 1, m):
                xy = np.flatnonzero((a == x) & (b == y))
                yx = np.flatnonzero((a == y) & (b == x))
                indices[slot[xy]] = yx
                indices[slot[yx]] = xy
        slot += bond_unlike
    h = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    h.sum_duplicates()
    return h


@dataclass
class GroundStateSolution:
    n: int
    m: int
    e0: float
    emax: float
    amplitudes: np.ndarray  # normalized, over the lex basis
    states: np.ndarray = field(repr=False)  # the basis as an (S, N) uint8 label array
    gauge: bool
    residual: float
    solver: str
    sector_size: int  # dimension of the matrix that was diagonalized
    signs: np.ndarray | None = field(default=None, repr=False)  # Marshall signs if gauged
    classes: EquivalenceClassPartition | None = field(default=None, repr=False)

    @cached_property
    def codes(self) -> np.ndarray:
        """Sorted base-M codes of the basis states: the partition's when the
        solve built one (M=2), else computed on first use."""
        if self.classes is not None:
            return self.classes.codes
        return state_codes(self.states, self.m)

    @property
    def partition(self) -> EquivalenceClassPartition:
        """The orbit partition of the basis: the one the M=2 solve used, or
        built on first use when M >= 3."""
        if self.classes is None:
            self.classes = partition_classes(self.states, self.m)
        return self.classes

    def physical_amplitudes(self) -> np.ndarray:
        """Amplitudes with the Marshall gauge removed (sign per basis state)."""
        if not self.gauge:
            return self.amplitudes
        return self.amplitudes * self.signs


def _check_residual(what: str, residual: float, scale: float) -> None:
    limit = RESIDUAL_TOL * max(1.0, abs(scale))
    if not residual <= limit:
        raise ResidualError(f"{what} residual {residual:.3e} exceeds {limit:.3e}")


def sector_hamiltonian(reps: np.ndarray, sizes: np.ndarray) -> sp.csr_matrix:
    """Gauged M=2 Hamiltonian on the fully symmetric sector.

    ``reps`` are the classes' lex-min representatives as a sorted ``(C, N)``
    label array and ``sizes`` the class sizes.  Basis vector c is
    |c|^(-1/2) sum_{a in c} |a>, so H_sym[c, c'] = sqrt(|c|/|c'|) *
    sum_{b in c'} H_g[r_c, b]: each swap from r_c into class c' (found by
    canonical code) adds -sqrt(|c|/|c'|), and r_c's like-pair count sits on
    the diagonal.  Entries are formed as -(swap count * |c|) / sqrt(|c| |c'|),
    whose numerator counts the bonds between the two classes, so the matrix
    is exactly symmetric.
    """
    n_classes, n = reps.shape
    class_codes = state_codes(reps, 2)
    sizes = sizes.astype(float)
    diag = np.zeros(n_classes)
    rows, cols = [], []
    for i in range(n):
        j = (i + 1) % n
        unlike = reps[:, i] != reps[:, j]
        diag += ~unlike
        swapped = reps[unlike]
        swapped[:, [i, j]] = swapped[:, [j, i]]
        rows.append(np.flatnonzero(unlike))
        cols.append(np.searchsorted(class_codes, canonical_codes(swapped, 2)))
    pairs, counts = np.unique(np.concatenate(rows) * n_classes + np.concatenate(cols),
                              return_counts=True)
    r, c = np.divmod(pairs, n_classes)
    hops = -counts * sizes[r] / np.sqrt(sizes[r] * sizes[c])
    ids = np.arange(n_classes)
    return sp.csr_matrix(
        (np.concatenate([hops, diag]), (np.concatenate([r, ids]), np.concatenate([c, ids]))),
        shape=(n_classes, n_classes),
    )


def _lowest_eigenpairs(h: sp.csr_matrix, dense_cap: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Ascending eigenvalues and the lowest eigenvector of a symmetric matrix.

    Dense ``eigh`` (every eigenvalue) up to ``dense_cap`` rows; above it
    restarted Lanczos (ARPACK) for the lowest two, from a fixed-seed start
    vector so that runs replay.  ARPACK needs more than two rows.
    """
    dim = h.shape[0]
    if dim <= max(dense_cap, 2):
        evals, evecs = np.linalg.eigh(h.toarray())
        return evals, evecs[:, 0], "dense"
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, dim)
    evals, evecs = spla.eigsh(h, k=2, which="SA", tol=0, v0=v0)
    order = np.argsort(evals)
    return evals[order], evecs[:, order[0]], "lanczos"


def _certified_emax(h: sp.csr_matrix, n: int, sym: np.ndarray) -> float:
    """E_max = N: ||sum_i P_i|| <= N, and ``sym`` (all ones, or the Marshall
    signs when gauged) has eigenvalue N, which one matvec certifies."""
    emax = float(n)
    residual = float(np.linalg.norm(h @ sym - emax * sym)) / np.sqrt(len(sym))
    _check_residual("E_max = N", residual, emax)
    return emax


def _perron_vector(y: np.ndarray, n: int) -> np.ndarray:
    """The positive sector ground state, or :class:`DegenerateGroundStateError`.

    The gauged H has off-diagonal entries -1 and a connected swap graph, so by
    Perron-Frobenius its ground state is unique, strictly positive and (being
    invariant under the symmetry group) in the symmetric sector.  Every other
    sector eigenvector is orthogonal to it and so changes sign.  The check
    allows rounding: at N=24 one amplitude of the Perron vector comes out at
    -4.6e-17 * max y, far inside the -1e-12 * max y it accepts.
    """
    if y.sum() < 0:
        y = -y
    if y.min() < -1e-12 * y.max():
        raise DegenerateGroundStateError(
            f"sector ground state changes sign (min {y.min():.3e}, max "
            f"{y.max():.3e}) at N={n}: not the Perron-Frobenius vector")
    return y


def ground_state(
    n: int, m: int, gauge: bool = False, dense_cap: int = DENSE_CAP
) -> GroundStateSolution:
    """Lowest eigenpair of the sector Hamiltonian, plus E_max.

    M=2 diagonalizes the gauged Hamiltonian on the fully symmetric sector (one
    basis vector per equivalence class, :func:`sector_hamiltonian`), where the
    Perron-Frobenius ground state lies, and the sign of the sector vector is
    checked.  M >= 3 solves in the full space and makes the first amplitude
    above 1e-6 of the largest positive.  Either way the matrix is solved with
    dense ``eigh`` up to ``dense_cap`` rows and with Lanczos above it, a gap
    below ``DEGENERACY_TOL`` raises :class:`DegenerateGroundStateError`,
    E_max = N is certified by one matvec, and the ground state's residual on
    the full Hamiltonian is checked; a failed residual raises
    :class:`ResidualError`.
    """
    states = enumerate_basis(n, m)
    h = build_hamiltonian(states, gauge=gauge)
    signs = classes = None
    if m == 2:
        classes = partition_classes(states, m)
        sizes = np.bincount(classes.class_ids)
        evals, vec, solver = _lowest_eigenpairs(
            sector_hamiltonian(states[classes.representatives], sizes), dense_cap)
    else:
        evals, vec, solver = _lowest_eigenpairs(h, dense_cap)
    if len(evals) > 1 and evals[1] - evals[0] < DEGENERACY_TOL:
        raise DegenerateGroundStateError(
            f"{'sector ' if m == 2 else ''}gap {evals[1] - evals[0]:.3e} below "
            f"tolerance at N={n}, M={m}")
    sym = np.ones(len(states))
    if m == 2:
        y = _perron_vector(vec, n)
        # positive in the gauge; the plain amplitudes carry the Marshall signs
        vec = y[classes.class_ids] / np.sqrt(sizes[classes.class_ids])
        if gauge:
            signs = sym = marshall_signs(states)
        else:
            vec = vec * marshall_signs(states)
        sector_size = len(sizes)
    else:
        vec = vec / np.linalg.norm(vec)
        # the amplitudes sum to ~0 (orthogonal to the all-ones E_max vector),
        # so the overall sign is fixed by the first clearly nonzero amplitude
        mags = np.abs(vec)
        if vec[np.argmax(mags > 1e-6 * mags.max())] < 0:
            vec = -vec
        sector_size = len(states)
    emax = _certified_emax(h, n, sym)
    e0 = float(evals[0])
    residual = float(np.linalg.norm(h @ vec - e0 * vec))
    _check_residual("ground-state", residual, e0)
    return GroundStateSolution(
        n=n, m=m, e0=e0, emax=emax, amplitudes=vec, states=states,
        gauge=gauge, residual=residual, solver=solver, sector_size=sector_size,
        signs=signs, classes=classes,
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


def partial_trace(rdm: ReducedDensityMatrix, k: int) -> ReducedDensityMatrix:
    """rho_k of the first k of rho_K's K sites, traced out of rho_K rather
    than rebuilt from the ground state: rho_K reshaped to (M^k, M^(K-k), M^k,
    M^(K-k)) has its axes 1 and 3 traced."""
    if not 1 <= k <= rdm.k:
        raise ValueError(f"k={k} outside 1..{rdm.k}")
    keep, rest = rdm.m**k, rdm.m ** (rdm.k - k)
    rho = np.trace(rdm.rho.reshape(keep, rest, keep, rest), axis1=1, axis2=3)
    return ReducedDensityMatrix(rho=rho, k=k, m=rdm.m)


def exact_mev(gs: GroundStateSolution, k: int) -> np.ndarray:
    """Diagonal of rho_K in motif-code order (probability convention; times N
    it is the count convention)."""
    return np.diag(reduced_density_matrix(gs, k).rho).copy()


def entanglement_spectrum(rdm: ReducedDensityMatrix, cutoff: float = 1e-30) -> np.ndarray:
    """epsilon_alpha = -ln(eigenvalues of rho) above cutoff, ascending."""
    evals = np.linalg.eigvalsh(rdm.rho)
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
    M^K product space (parabolic bond weights).

    Swapping the labels a, b of sites i, i+1 adds (b - a) * (M^(K-1-i) -
    M^(K-2-i)) to a motif's code, and leaves it alone when a == b (the
    diagonal); every (swapped, code) entry is added in bond order.
    """
    digits = motif_digits(m, k)
    codes = np.arange(m**k)
    bonds = np.arange(k - 1)
    place = m ** (k - 1 - bonds) - m ** (k - 2 - bonds)
    swapped = codes + (digits[:, 1:] - digits[:, :-1]).T * place[:, None]  # (K-1, M^K)
    coef = (bonds + 1) * (k - bonds - 1) / k
    h = np.zeros((m**k, m**k))
    np.add.at(h, (swapped, np.broadcast_to(codes, swapped.shape)),
              np.broadcast_to(coef[:, None], swapped.shape))
    return h


@lru_cache(maxsize=None)
def _entanglement_eigh(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (evals, evecs) of H_K, computed once per (K, M)."""
    evals, evecs = np.linalg.eigh(entanglement_hamiltonian(k, m))
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def cft_mev(k: int, beta: float, m: int = 2) -> np.ndarray:
    """Diagonal of exp(-beta * H_K)/Z in the product basis, in motif-code order."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    evals, evecs = _entanglement_eigh(k, m)
    w = np.exp(-beta * (evals - evals.min()))
    z = w.sum()
    return (evecs**2 @ w) / z


def calibrate_beta(
    k: int,
    reference: np.ndarray,
    m: int = 2,
    lo: float = 1e-2,
    hi: float = 1e2,
    tol: float = 1e-9,
) -> float:
    """Beta minimizing the squared MEV mismatch against a reference MEV array
    in motif-code order (typically exact_mev at the largest feasible N).

    The mismatch plateaus at large beta (the thermal state saturates towards
    the H_K ground state), so a coarse log-spaced scan brackets the minimum
    before the bounded scalar refinement.
    """
    from scipy.optimize import minimize_scalar

    ref = np.asarray(reference, dtype=float)

    def objective(beta: float) -> float:
        return float(((cft_mev(k, beta, m) - ref) ** 2).sum())

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


def cumulative_class_mass(gs: GroundStateSolution, threshold: float) -> int:
    """Number of equivalence classes of the ground state's basis (by
    descending psi^2 mass) needed to reach the threshold of the total
    probability, by :func:`truncation_size`; at threshold 1 the number of
    classes with nonzero mass."""
    partition = gs.partition
    masses = np.bincount(partition.class_ids, weights=gs.amplitudes**2,
                         minlength=len(partition))
    if threshold >= 1.0:
        return int(np.sum(masses > 0))
    return truncation_size(masses, threshold)


def gap_estimate(gs: GroundStateSolution) -> float:
    """(E_max - E_0) / basis size, the cheap gap proxy used for error scaling."""
    return (gs.emax - gs.e0) / len(gs.amplitudes)
