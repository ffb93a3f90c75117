"""Fixed reference values and the checks the benchmark applies to every output.

Ground energies are for H = sum_i P_{i,i+1} on the periodic M=2 chain.  They
match the literature Heisenberg energies through E = 2*E_Heis + N/2 (for
example N=20: E_Heis = -8.904386529876, -0.44521933 per site).
"""

from __future__ import annotations

import math
import statistics

E0 = {
    14: -5.52709906709408,
    16: -6.284592721233556,
    20: -7.80877305975287,
}
E0_TOL = 1e-9
RESIDUAL_MAX = 1e-8
MEV_SUM_TOL = 1e-9

# Exact integer ranks of the K-motif count matrix for K = 1, 2, ..., K*; K* is
# the first K whose rank reaches the number of equivalence classes.
RANKS = {
    8: (1, 2, 4, 7),
    10: (1, 2, 4, 8, 14),
    12: (1, 2, 4, 8, 16, 30, 52),
    14: (1, 2, 4, 8, 16, 32, 61, 113),
}
K_STAR = {8: 4, 10: 5, 12: 7, 14: 8}

# A batch energy this many standard errors below E0 breaks the variational bound.
BOUND_SIGMAS = 5.0
REL_ERR_WINDOW = 10


def check_exact(n: int, e0: float, residual: float, mev: list[float]) -> list[str]:
    """Problems with one ``spinmotif exact`` result; empty when it is right."""
    problems = []
    if not abs(e0 - E0[n]) <= E0_TOL:
        problems.append(f"E0 {e0!r} differs from {E0[n]!r} by more than {E0_TOL}")
    if not residual < RESIDUAL_MAX:
        problems.append(f"residual {residual!r} not below {RESIDUAL_MAX}")
    if not abs(math.fsum(mev) - 1.0) <= MEV_SUM_TOL:
        problems.append(f"MEVs sum to {math.fsum(mev)!r}, not 1")
    return problems


def check_regression(variables: list[str]) -> list[str]:
    """The regression table must name its regressors.  Its numbers are not
    parsed: the CLI writes them as ``np.float64(...)`` under numpy 2."""
    if not variables or not all(variables):
        return [f"regression table has no regressors: {variables}"]
    return []


def check_rank_scan(n: int, k_star: int, ranks: list[int]) -> list[str]:
    problems = []
    if k_star != K_STAR[n]:
        problems.append(f"K* = {k_star} at N={n}, expected {K_STAR[n]}")
    if tuple(ranks) != RANKS[n]:
        problems.append(f"ranks {tuple(ranks)} at N={n}, expected {RANKS[n]}")
    return problems


def training_failure(energies: list[float], stderrs: list[float],
                     diverged: bool, e0: float) -> str | None:
    """Why a training seed failed, or None when it did not."""
    if diverged:
        return "diverged"
    if not energies or not all(math.isfinite(e) for e in energies):
        return "non-finite energy"
    for it, (e, se) in enumerate(zip(energies, stderrs), start=1):
        if e < e0 - BOUND_SIGMAS * se:
            return f"variational bound breach at iteration {it}: {e!r} < E0 {e0!r}"
    return None


def relative_error(energies: list[float], e0: float) -> float:
    """(mean energy over the last iterations - E0) / |E0|."""
    return (statistics.fmean(energies[-REL_ERR_WINDOW:]) - e0) / abs(e0)
