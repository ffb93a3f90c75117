"""Acceptance gate: sixteen numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
CRITERION lines inline).  The end-to-end training criterion (10) dominates the
runtime at roughly eight minutes and carries the ``slow`` marker, so
``pytest -m "not slow"`` runs everything else in under a minute.
"""

import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spinmotif.analysis import feature_design, ols_regress
from spinmotif.ansatz import (
    CnnParams,
    cnn_logpsi,
    cnn_logpsi_batch,
    fit_maxent,
    grandsum,
    linear_activation_constant,
    linear_cnn_logpsi,
    project_grandsum,
)
from spinmotif.exact import (
    calibrate_beta,
    cft_mev,
    cumulative_class_mass,
    exact_mev,
    ground_state,
    reduced_density_matrix,
    truncation_size,
)
from spinmotif.motif import (
    ambiguous_pair,
    integer_rank,
    motif_count_matrix,
    motif_symmetry_classes,
    motif_vector,
)
from spinmotif.spinchain import (
    class_count_lower_bound,
    enumerate_basis,
    orbit,
    partition_classes,
)
from spinmotif.vmc import (
    SamplerConfig,
    TrainConfig,
    exact_energy,
    local_energies,
    metropolis_chain,
    train,
)


def _report(num: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} {verdict} - {label}", file=sys.stderr, flush=True)
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def gs_cache():
    return {n: ground_state(n, 2, gauge=True) for n in (8, 10, 12, 14, 16)}


def _spin_basis_oracle(n):
    """Dense Heisenberg diagonalization in the full 2^n spin basis, converted
    to the exchange model through E = 2*E_Heis + N/2."""
    dim = 2**n
    h = np.zeros((dim, dim))
    for state in range(dim):
        bits = [(state >> i) & 1 for i in range(n)]
        for i in range(n):
            j = (i + 1) % n
            if bits[i] == bits[j]:
                h[state, state] += 0.25
            else:
                h[state, state] -= 0.25
                h[state ^ (1 << i) ^ (1 << j), state] += 0.5
    return 2.0 * np.linalg.eigvalsh(h)[0] + n / 2.0


def test_criterion_01_basis_size():
    t0 = time.perf_counter()
    basis = enumerate_basis(8, 2)
    elapsed = time.perf_counter() - t0
    _report(1, f"basis(8,2) has {len(basis)} states in {elapsed * 1e3:.1f} ms",
            len(basis) == 70 and elapsed < 0.1)


def test_criterion_02_exact_oracle():
    ok = True
    worst = 0.0
    t12 = None
    for n in (4, 6, 8, 10, 12):
        t0 = time.perf_counter()
        gs = ground_state(n, 2)
        elapsed = time.perf_counter() - t0
        if n == 12:
            t12 = elapsed
        dev = abs(gs.e0 - _spin_basis_oracle(n))
        worst = max(worst, dev)
        ok &= dev < 1e-10 and gs.residual < 1e-9
    ok &= t12 < 60.0
    _report(2, f"E0 matches spin-basis oracle, worst dev {worst:.2e}, "
               f"N=12 in {t12:.2f} s", ok)


def test_criterion_03_theorem1_suite():
    rng = np.random.default_rng(20260823)
    basis = np.asarray(enumerate_basis(12, 2), dtype=np.intp)
    flipped = 1 - basis
    n_proj_ok = n_broken_ok = 0
    for _ in range(100):
        draw = {k: CnnParams(w=rng.uniform(-2, 2, (k, 2)),
                             b=float(rng.uniform(-2, 2)),
                             v=float(rng.uniform(0.5, 1.5)))
                for k in (2, 3, 4)}
        proj_dev = max(
            np.abs(cnn_logpsi_batch(q, basis) - cnn_logpsi_batch(q, flipped)).max()
            for q in map(project_grandsum, draw.values())
        )
        n_proj_ok += proj_dev < 1e-9
        broken_dev = max(
            np.abs(cnn_logpsi_batch(q, basis) - cnn_logpsi_batch(q, flipped)).max()
            for q in (replace(project_grandsum(p), b=project_grandsum(p).b + 1.0)
                      for p in draw.values())
        )
        n_broken_ok += broken_dev > 1e-3
    _report(3, f"projected symmetric {n_proj_ok}/100, broken asymmetric "
               f"{n_broken_ok}/100", n_proj_ok == 100 and n_broken_ok >= 95)


def test_criterion_04_rank_law():
    basis = enumerate_basis(12, 2)
    t0 = time.perf_counter()
    ranks = {k: integer_rank(motif_count_matrix(basis, k, 2)) for k in (2, 3, 4, 5)}
    elapsed = time.perf_counter() - t0
    ok = all(ranks[k] == 2 ** (k - 1) for k in ranks) and elapsed < 10.0
    _report(4, f"exact ranks {ranks} in {elapsed:.2f} s", ok)


def test_criterion_05_ambiguity_bound():
    ok = True
    rng = np.random.default_rng(5)
    for n in (9, 12, 15):
        k = n // 3 - 1
        m = 2 if n % 2 == 0 else 3
        s1, s2 = ambiguous_pair(n, k, m)
        ok &= np.array_equal(motif_vector(s1, k, m), motif_vector(s2, k, m))
        ok &= s2 not in orbit(s1, m)
        for _ in range(5):
            p = CnnParams(w=rng.uniform(-1, 1, (k, m)),
                          b=float(rng.uniform(-1, 1)), v=1.0)
            ok &= abs(cnn_logpsi(p, s1) - cnn_logpsi(p, s2)) < 1e-12
    _report(5, "ambiguous pairs found and CNN-indistinguishable at "
               "N=9,12,15", ok)


def test_criterion_06_class_count_bound():
    ok = True
    for n in (4, 6, 8, 10, 12):
        basis = enumerate_basis(n, 2)
        count = len(partition_classes(basis, 2))
        ok &= Fraction(count) >= class_count_lower_bound(n, 2)
    _report(6, "brute-force class counts respect the rational lower bound", ok)


def test_criterion_07_linear_constancy():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for n in (6, 8):
        for _ in range(20):
            k = int(rng.integers(2, 5))
            p = CnnParams(w=rng.uniform(-1, 1, (k, 2)),
                          b=float(rng.uniform(-1, 1)),
                          v=float(rng.uniform(0.5, 1.5)))
            const = linear_activation_constant(p, n)
            for s in enumerate_basis(n, 2):
                rel = abs(linear_cnn_logpsi(p, s) - const) / max(abs(const), 1e-30)
                worst = max(worst, rel)
    ok = worst < 1e-10
    _report(7, f"linear-activation outputs constant, worst rel dev {worst:.2e}", ok)


def test_criterion_08_invariant_dynamics():
    from spinmotif.vmc import invariant_dynamics_check

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        p = project_grandsum(CnnParams(w=rng.uniform(-1, 1, (3, 2)),
                                       b=float(rng.uniform(-1, 1)),
                                       v=float(rng.uniform(0.5, 1.5))))
        dev = invariant_dynamics_check(p, 8)
        worst = max(worst, dev["translate"], dev["relabel"])
    _report(8, f"orbit-pair update deviation {worst:.2e}", worst < 1e-9)


def test_criterion_09_estimator_soundness(gs_cache):
    from spinmotif.exact import build_hamiltonian

    basis = enumerate_basis(8, 2)
    rng = np.random.default_rng(9)
    p = CnnParams(w=rng.uniform(-0.5, 0.5, (3, 2)), b=0.1, v=1.0)
    h = build_hamiltonian(basis, gauge=True).toarray()
    logpsi = cnn_logpsi_batch(p, np.asarray(basis, dtype=np.intp))
    psi = np.exp(logpsi - logpsi.max())
    psi /= np.linalg.norm(psi)
    rayleigh = float(psi @ h @ psi)
    dev = abs(exact_energy(p, basis) - rayleigh)

    samples = metropolis_chain(p, SamplerConfig(n_samples=100_000, seed=9), 8)
    eloc = local_energies(p, samples)
    stderr = eloc.std(ddof=1) / np.sqrt(len(eloc))
    pull = abs(eloc.mean() - rayleigh) / stderr
    _report(9, f"full-basis dev {dev:.2e}, sampled pull {pull:.2f} sigma",
            dev < 1e-10 and pull < 4.0)


@pytest.mark.slow
def test_criterion_10_end_to_end_training(gs_cache):
    e0 = gs_cache[16].e0
    t0 = time.perf_counter()
    finals = []
    worst_gs = 0.0
    for seed in range(5):
        traj = train(
            TrainConfig(algorithm="symforce-traj", k=4, eta=0.02, n_opt=10,
                        max_iter=500, seed=seed),
            SamplerConfig(n_samples=1000, seed=seed),
            16, keep_history=False,
        )
        worst_gs = max(worst_gs, max(abs(g) for g in traj.grandsums))
        if not traj.diverged:
            finals.append(traj.energies[-1])
    elapsed = time.perf_counter() - t0
    best = min(finals)
    rel = (best - e0) / abs(e0)
    _report(10, f"best seed {best:.4f} vs E0 {e0:.4f} ({100 * rel:.2f}%), "
                f"grandsum max {worst_gs:.1e}, {elapsed / 60:.1f} min",
            rel < 0.05 and worst_gs < 1e-10 and elapsed < 1800)


def test_criterion_11_mev_symmetry_classes(gs_cache):
    worst = 0.0
    for n in (8, 12, 16):
        mev = exact_mev(gs_cache[n], 4)
        for cls in motif_symmetry_classes(4, 2):
            vals = [mev[mo] for mo in cls]
            worst = max(worst, max(vals) - min(vals))
    _report(11, f"MEV spread within symmetry classes {worst:.2e}", worst < 1e-10)


def test_criterion_12_cft_convergence(gs_cache):
    beta = calibrate_beta(4, exact_mev(gs_cache[16], 4))
    thermal = cft_mev(4, beta)
    classes = motif_symmetry_classes(4, 2)
    errs = []
    for n in (8, 12, 16):
        mev = exact_mev(gs_cache[n], 4)
        errs.append(max(
            abs(np.mean([thermal[mo] for mo in cls])
                - np.mean([mev[mo] for mo in cls]))
            for cls in classes
        ))
    ok = errs[0] > errs[1] > errs[2]
    _report(12, f"beta {beta:.3f}, class errors {[f'{e:.2e}' for e in errs]}", ok)


def test_criterion_13_truncation_scaling(gs_cache):
    counts = {}
    ok = True
    prev_frac = None
    for k in range(2, 9):
        rdm = reduced_density_matrix(gs_cache[16], k)
        w = np.clip(np.linalg.eigvalsh(rdm.rho), 0.0, None)
        c = truncation_size(w, 0.99)
        counts[k] = c
        frac = c / 2**k
        ok &= c <= 4 * k
        ok &= prev_frac is None or frac < prev_frac
        prev_frac = frac
    _report(13, f"99% truncation counts {counts}", ok)


def test_criterion_14_cumulative_class_mass(gs_cache):
    counts = []
    for n in (8, 10, 12, 14, 16):
        part = partition_classes(gs_cache[n].states, 2)
        counts.append(cumulative_class_mass(gs_cache[n], part, 0.99))
    increasing = all(a < b for a, b in zip(counts, counts[1:]))
    x = np.column_stack([np.ones(5), np.arange(8, 17, 2, dtype=float)])
    y = np.array(counts, dtype=float)
    r2_lin = ols_regress(x, y).r_squared
    r2_exp = ols_regress(x, np.log(y)).r_squared
    _report(14, f"99% class counts {counts}, R2 lin {r2_lin:.3f} "
                f"vs exp {r2_exp:.3f}",
            increasing and r2_exp > r2_lin)


def test_criterion_15_regression_harness(gs_cache):
    rng = np.random.default_rng(15)
    x = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
    planted = np.array([2.0, -1.0, 0.5])
    res = ols_regress(x, x @ planted)
    recovery = np.abs(res.coefficients - planted).max()
    resid = x @ planted - x @ res.coefficients
    sigma2 = float(resid @ resid) / (100 - 3)
    oracle_se = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
    se_dev = np.abs(res.std_errors - oracle_se).max()

    mev = exact_mev(gs_cache[16], 4)
    motifs = list(mev)
    design, names = feature_design(motifs)
    fit = ols_regress(design, 100 * np.array([mev[mo] for mo in motifs]), names)
    signs = tuple(np.sign(fit.coefficients[1:4]))
    _report(15, f"recovery {recovery:.2e}, SE dev {se_dev:.2e}, "
                f"signs {signs}",
            recovery < 1e-8 and se_dev < 1e-8 and signs == (-1.0, -1.0, 1.0))


def test_criterion_16_maxent_fit(gs_cache):
    ok = True
    for k in (2, 3):
        targets = exact_mev(gs_cache[8], k)
        mp = fit_maxent(targets, gs_cache[8].states, k, tol=1e-8)
        ok &= len(mp.motifs) == 2 ** (k - 1)
        # residual recheck against the fit targets
        from spinmotif.ansatz import maxent_state_probs

        probs = maxent_state_probs(mp, gs_cache[8].states)
        model = np.zeros(2**k)
        for s, pr in zip(gs_cache[8].states, probs):
            model += pr * motif_vector(s, k, 2) / 8.0
        resid = max(abs(model[sum(x * 2**i for i, x in enumerate(reversed(mo)))]
                        - targets[mo]) for mo in mp.motifs)
        ok &= resid < 1e-8
    _report(16, "MaxEnt dual Newton converged on the independent operator set",
            ok)
