"""Exact-diagonalization oracle, reduced density matrices, thermal MEVs."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import tuples

from spinmotif import exact
from spinmotif.exact import (
    DegenerateGroundStateError,
    NumericalCheckError,
    ResidualError,
    build_hamiltonian,
    calibrate_beta,
    cft_mev,
    cft_thermal_weights,
    cumulative_class_mass,
    entanglement_hamiltonian,
    entanglement_spectrum,
    exact_mev,
    gap_estimate,
    ground_state,
    reduced_density_matrix,
    sector_hamiltonian,
    truncation_size,
)
from spinmotif.motif import all_motifs, conjugate, motif_index, motif_vector
from spinmotif.spinchain import (
    enumerate_basis,
    marshall_sign,
    marshall_signs,
    partition_classes,
)


def heisenberg_e0(n):
    """Independent oracle: dense Sz-basis Heisenberg chain, converted through
    E = 2*E_Heis + N/2 for the exchange model."""
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
                flipped = state ^ (1 << i) ^ (1 << j)
                h[flipped, state] += 0.5
    e_heis = np.linalg.eigvalsh(h)[0]
    return 2.0 * e_heis + n / 2.0


@pytest.mark.parametrize("n", [4, 6, 8])
def test_ground_state_against_spin_basis_oracle(n):
    gs = ground_state(n, 2)
    assert gs.e0 == pytest.approx(heisenberg_e0(n), abs=1e-10)
    assert gs.residual < 1e-9


def test_known_small_energies():
    assert ground_state(4, 2).e0 == pytest.approx(-2.0, abs=1e-10)
    # three-species Sutherland point at N=6
    gs3 = ground_state(6, 3)
    assert gs3.e0 < 0


def test_gauge_invariance_of_spectrum():
    plain = ground_state(8, 2, gauge=False)
    gauged = ground_state(8, 2, gauge=True)
    assert gauged.e0 == pytest.approx(plain.e0, abs=1e-12)
    assert gauged.emax == pytest.approx(plain.emax, abs=1e-12)
    # gauged ground state is strictly positive (Perron-Frobenius)
    assert (gauged.amplitudes > 0).all()
    # physical amplitudes agree up to overall sign
    a, b = plain.amplitudes, gauged.physical_amplitudes()
    assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-9


def reference_hamiltonian(basis, gauge=False):
    """Tuple-loop build: one swap per unlike bond, looked up in a dict index."""
    n = len(basis[0])
    index = {s: i for i, s in enumerate(basis)}
    signs = [marshall_sign(s) for s in basis] if gauge else None
    rows, cols, vals = [], [], []
    for col, s in enumerate(basis):
        diag = 0.0
        for i in range(n):
            j = (i + 1) % n
            if s[i] == s[j]:
                diag += 1.0
            else:
                t = list(s)
                t[i], t[j] = t[j], t[i]
                row = index[tuple(t)]
                amp = 1.0
                if signs is not None:
                    amp *= signs[col] * signs[row]
                rows.append(row)
                cols.append(col)
                vals.append(amp)
        if diag:
            rows.append(col)
            cols.append(col)
            vals.append(diag)
    dim = len(basis)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def reference_rdm(gs, k):
    """Env-map build: group amplitudes by the environment string."""
    amps = gs.physical_amplitudes()
    env_map = {}
    for s, a in zip(tuples(gs.states), amps):
        env_map.setdefault(s[k:], []).append((motif_index(s[:k], gs.m), float(a)))
    rho = np.zeros((gs.m**k, gs.m**k))
    for entries in env_map.values():
        idx = np.array([e[0] for e in entries])
        vec = np.array([e[1] for e in entries])
        rho[np.ix_(idx, idx)] += np.outer(vec, vec)
    return rho


@pytest.mark.parametrize("n,m,gauge", [
    (n, m, gauge) for m in (2, 3) for n in range(2, 11) if n % m == 0 and n >= m
    for gauge in ((False, True) if m == 2 else (False,))
])
def test_hamiltonian_matches_tuple_reference(n, m, gauge):
    states = enumerate_basis(n, m)
    h = build_hamiltonian(states, gauge=gauge)
    ref = reference_hamiltonian(tuples(states), gauge=gauge)
    assert h.nnz == ref.nnz
    assert np.array_equal(h.toarray(), ref.toarray())


@pytest.mark.parametrize("n,m,gauge", [(8, 2, True), (8, 2, False), (6, 3, False)])
def test_rdm_matches_env_map_reference(n, m, gauge):
    gs = ground_state(n, m, gauge=gauge)
    for k in (1, 2, 3, 4):
        rho = reduced_density_matrix(gs, k).rho
        assert np.abs(rho - reference_rdm(gs, k)).max() < 1e-14


@pytest.mark.parametrize("n,m,gauge", [
    (8, 2, True), (8, 2, False), (10, 2, True), (10, 2, False),
    (12, 2, True), (12, 2, False), (9, 3, False),
])
def test_certified_emax_equals_dense_top_eigenvalue(n, m, gauge):
    gs = ground_state(n, m, gauge=gauge, dense_cap=0)
    assert gs.solver == "lanczos"
    top = np.linalg.eigvalsh(build_hamiltonian(gs.states, gauge=gauge).toarray())[-1]
    assert gs.emax == pytest.approx(top, abs=1e-10)


@pytest.mark.parametrize("dense_cap", [0, 10**6])
def test_residual_above_tolerance_raises(monkeypatch, dense_cap):
    monkeypatch.setattr(exact, "RESIDUAL_TOL", 0.0)
    with pytest.raises(ResidualError):
        ground_state(8, 2, gauge=True, dense_cap=dense_cap)
    assert issubclass(ResidualError, RuntimeError)


def test_emax_certificate_is_checked(monkeypatch):
    # the E_max residual is exactly 0, so only a negative tolerance fails it
    monkeypatch.setattr(exact, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ResidualError, match="E_max"):
        ground_state(8, 2, gauge=True, dense_cap=0)


def test_lanczos_path_matches_dense():
    dense = ground_state(10, 2, gauge=True, dense_cap=10**6)
    assert dense.solver == "dense"
    lanczos = ground_state(10, 2, gauge=True, dense_cap=10)
    assert lanczos.solver == "lanczos"
    assert lanczos.e0 == pytest.approx(dense.e0, abs=1e-10)
    assert lanczos.emax == pytest.approx(dense.emax, abs=1e-10)
    assert lanczos.residual < 1e-9


def full_space_ground_state(n, gauge):
    """Lowest eigenpair of the whole M=2 sector Hamiltonian: dense ``eigh`` up
    to N=12, ARPACK above.  The sign makes the gauged vector sum positive."""
    states = enumerate_basis(n, 2)
    h = build_hamiltonian(states, gauge=gauge)
    if len(states) <= 1000:
        evals, evecs = np.linalg.eigh(h.toarray())
    else:
        v0 = np.random.default_rng(1).uniform(-1.0, 1.0, len(states))
        evals, evecs = spla.eigsh(h, k=1, which="SA", tol=0, v0=v0)
    vec = evecs[:, 0]
    gauged = vec if gauge else vec * marshall_signs(states)
    return float(evals[0]), vec if gauged.sum() > 0 else -vec


@pytest.mark.parametrize("n", [
    *range(4, 17, 2),
    pytest.param(18, marks=pytest.mark.slow),
    pytest.param(20, marks=pytest.mark.slow),
])
@pytest.mark.parametrize("gauge", [True, False])
def test_sector_solve_matches_full_space(n, gauge):
    gs = ground_state(n, 2, gauge=gauge)
    e0, vec = full_space_ground_state(n, gauge)
    assert abs(gs.e0 - e0) < 1e-10
    assert np.abs(gs.amplitudes - vec).max() < 1e-12
    ref = dataclasses.replace(gs, amplitudes=vec)
    for k in range(1, 5):
        diff = reduced_density_matrix(gs, k).rho - reduced_density_matrix(ref, k).rho
        assert np.abs(diff).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_sector_hamiltonian_is_projected_gauged_hamiltonian(n):
    states = enumerate_basis(n, 2)
    part = partition_classes(states, 2)
    sizes = np.bincount(part.class_ids)
    first = np.unique(part.class_ids, return_index=True)[1]
    h_sym = sector_hamiltonian(states[first], sizes).toarray()
    # P: normalized class indicators, one column per class
    p = np.zeros((len(states), len(part)))
    p[np.arange(len(states)), part.class_ids] = 1.0 / np.sqrt(sizes[part.class_ids])
    h_g = build_hamiltonian(states, gauge=True).toarray()
    assert np.abs(h_sym - p.T @ h_g @ p).max() < 1e-14
    assert np.array_equal(h_sym, h_sym.T)


def test_sector_certificates_raise(monkeypatch):
    def second_eigenvector(h, dense_cap):
        evals, evecs = np.linalg.eigh(h.toarray())
        return evals, evecs[:, 1], "dense"

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_lowest_eigenpairs", second_eigenvector)
        with pytest.raises(DegenerateGroundStateError, match="sign"):
            ground_state(10, 2, gauge=True)
    monkeypatch.setattr(exact, "DEGENERACY_TOL", 1e3)
    with pytest.raises(DegenerateGroundStateError, match="gap"):
        ground_state(10, 2, gauge=True)
    with pytest.raises(DegenerateGroundStateError, match="gap"):
        ground_state(6, 3)


@pytest.mark.parametrize("n", [6, 9])
def test_m3_sign_does_not_follow_the_rounding_of_the_sum(monkeypatch, n):
    # the M=3 ground state sums to ~1e-15, so a shift of the solver's vector
    # by +-1e-13 along all-ones decides a sum-based sign rule
    solve = exact._lowest_eigenpairs
    amplitudes = []
    for shift in (1e-13, -1e-13):
        def shifted(h, dense_cap, shift=shift):
            evals, vec, solver = solve(h, dense_cap)
            return evals, vec + shift, solver

        monkeypatch.setattr(exact, "_lowest_eigenpairs", shifted)
        amplitudes.append(ground_state(n, 3).amplitudes)
    assert np.abs(amplitudes[0] - amplitudes[1]).max() < 1e-12


def test_hamiltonian_is_symmetric_and_row_sums():
    basis = enumerate_basis(8, 2)
    h = build_hamiltonian(basis).toarray()
    assert np.array_equal(h, h.T)
    # exchange model: every column sums to N (P is doubly stochastic per bond)
    assert np.allclose(h.sum(axis=0), 8.0)


def test_reduced_density_matrix_properties():
    gs = ground_state(8, 2, gauge=True)
    for k in (2, 3, 4):
        rdm = reduced_density_matrix(gs, k)
        assert np.trace(rdm.rho) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rdm.rho, rdm.rho.T, atol=1e-12)
        assert np.linalg.eigvalsh(rdm.rho).min() > -1e-12


def test_mev_probability_and_count_conventions():
    gs = ground_state(8, 2, gauge=True)
    prob = exact_mev(gs, 3)
    cnt = exact_mev(gs, 3, counts=True)
    assert sum(prob.values()) == pytest.approx(1.0, abs=1e-12)
    for mo in prob:
        assert cnt[mo] == pytest.approx(8 * prob[mo], abs=1e-12)
        # conjugation symmetry of the zero-magnetization ground state
        assert prob[conjugate(mo)] == pytest.approx(prob[mo], abs=1e-12)


def test_mev_matches_direct_window_average():
    gs = ground_state(8, 2, gauge=True)
    amps = gs.physical_amplitudes()
    mev = exact_mev(gs, 2)
    direct = np.zeros(4)
    for s, a in zip(tuples(gs.states), amps):
        direct += a * a * motif_vector(s, 2, 2) / 8.0
    for mo, val in mev.items():
        assert val == pytest.approx(direct[motif_index(mo, 2)], abs=1e-12)


def test_entanglement_spectrum_ascending_and_normalized():
    gs = ground_state(10, 2, gauge=True)
    spec = entanglement_spectrum(reduced_density_matrix(gs, 4))
    assert (np.diff(spec) >= 0).all()
    assert np.exp(-spec).sum() == pytest.approx(1.0, abs=1e-9)


def test_truncation_size_edges():
    w = np.array([0.5, 0.3, 0.15, 0.05])
    assert truncation_size(w, 0.5) == 1
    assert truncation_size(w, 0.8) == 2
    assert truncation_size(w, 1.0) == 4
    assert truncation_size(np.array([0.4, 0.3, 0.3]), 0.7) == 2
    with pytest.raises(ValueError):
        truncation_size(w, 0.0)
    with pytest.raises(ValueError):
        truncation_size(np.array([-0.1, 1.1]), 0.5)


def test_entanglement_hamiltonian_structure():
    h = entanglement_hamiltonian(3)
    assert np.array_equal(h, h.T)
    # bond weights i(K-i)/K for the open 3-site window: 2/3, 2/3
    assert h[motif_index((0, 0, 0), 2), motif_index((0, 0, 0), 2)] == pytest.approx(4 / 3)
    # relabeling symmetry of the thermal diagonal
    diag = cft_mev(3, 1.0)
    for mo in all_motifs(2, 3):
        assert diag[mo] == pytest.approx(diag[conjugate(mo)], abs=1e-12)
        assert diag[mo] == pytest.approx(diag[mo[::-1]], abs=1e-12)
    assert sum(diag.values()) == pytest.approx(1.0, abs=1e-12)


def test_thermal_weights_normalized():
    w = cft_thermal_weights(4, 2.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (w > 0).all()


def test_calibrate_beta_flat_objective_is_numerical_error():
    # a single-site window has no bonds, so the thermal MEVs ignore beta
    with pytest.raises(NumericalCheckError):
        calibrate_beta(1, {(0,): 0.5, (1,): 0.5})


def test_calibrate_beta_recovers_planted_value():
    for k in (3, 4, 6):
        target = cft_mev(k, 1.3)
        beta = calibrate_beta(k, target)
        assert beta == pytest.approx(1.3, abs=1e-6)
        # the thermal MEVs and weights share one cached H_K eigendecomposition
        evals, evecs = exact._entanglement_eigh(k, 2)
        assert not evals.flags.writeable and not evecs.flags.writeable
        w = np.exp(-2.0 * (evals - evals.min()))
        assert np.array_equal(cft_thermal_weights(k, 2.0), w / w.sum())


def test_cumulative_class_mass_bounds():
    gs = ground_state(8, 2, gauge=True)
    part = partition_classes(gs.states, 2)
    c50 = cumulative_class_mass(gs, part, 0.5)
    c99 = cumulative_class_mass(gs, part, 0.99)
    assert 1 <= c50 <= c99 <= len(part)


def test_gap_estimate_positive():
    gs = ground_state(8, 2)
    assert gap_estimate(gs) > 0
    assert gap_estimate(gs) == pytest.approx((gs.emax - gs.e0) / 70)
