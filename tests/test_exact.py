"""Exact-diagonalization oracle, reduced density matrices, thermal MEVs."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from conftest import (
    cft_thermal_weights,
    conjugate,
    entanglement_hamiltonian_by_tuples,
    marshall_sign,
    motif_index,
    tuples,
)

from spinmotif import exact
from spinmotif.exact import (
    DegenerateGroundStateError,
    NumericalCheckError,
    ReducedDensityMatrix,
    ResidualError,
    build_hamiltonian,
    calibrate_beta,
    cft_mev,
    cumulative_class_mass,
    entanglement_hamiltonian,
    entanglement_spectrum,
    exact_mev,
    gap_estimate,
    ground_state,
    partial_trace,
    reduced_density_matrix,
    sector_hamiltonian,
    truncation_size,
)
from spinmotif.motif import all_motifs, motif_count_matrix
from spinmotif.spinchain import (
    enumerate_basis,
    marshall_signs,
    partition_classes,
    state_codes,
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


def searchsorted_hamiltonian(states, gauge=False):
    """Code-search build: per bond, the unlike states' swapped codes by digit
    arithmetic, their rows by ``searchsorted``, then COO -> CSR."""
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


@pytest.mark.parametrize("n,m,gauge", [
    (n, m, gauge) for m in (2, 3, 4) for n in range(2, 11) if n % m == 0 and n >= m
    for gauge in ((False, True) if m == 2 else (False,))
])
def test_hamiltonian_matches_tuple_reference(n, m, gauge):
    states = enumerate_basis(n, m)
    h = build_hamiltonian(states, gauge=gauge)
    ref = reference_hamiltonian(tuples(states), gauge=gauge)
    assert h.nnz == ref.nnz
    assert np.array_equal(h.toarray(), ref.toarray())


@pytest.mark.parametrize("n,m,gauge", [
    *[(n, 2, gauge) for n in (12, 14, 16) for gauge in (False, True)],
    (9, 3, False), (12, 3, False),
])
def test_hamiltonian_csr_equals_searchsorted_build(n, m, gauge):
    states = enumerate_basis(n, m)
    h = build_hamiltonian(states, gauge=gauge)
    ref = searchsorted_hamiltonian(states, gauge=gauge)
    assert h.has_canonical_format
    assert np.array_equal(h.indptr, ref.indptr)
    assert np.array_equal(h.indices, ref.indices)
    assert np.array_equal(h.data, ref.data)


@pytest.mark.parametrize("states", [
    enumerate_basis(6, 3),
    np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.uint8),  # odd N
])
def test_gauge_needs_two_species_and_even_n(states):
    with pytest.raises(ValueError):
        build_hamiltonian(states, gauge=True)


@pytest.mark.parametrize("n,m,gauge", [(8, 2, True), (8, 2, False), (6, 3, False)])
def test_rdm_matches_env_map_reference(n, m, gauge):
    gs = ground_state(n, m, gauge=gauge)
    for k in (1, 2, 3, 4):
        rho = reduced_density_matrix(gs, k).rho
        assert np.abs(rho - reference_rdm(gs, k)).max() < 1e-14


def long_double_rdm(gs, k):
    """rho_k = A A^T with A[system, environment] = psi summed in long double,
    the reference against which float64 rounding is measured."""
    system, env = np.divmod(gs.codes, gs.m ** (gs.n - k))
    _, env_ids = np.unique(env, return_inverse=True)
    a = np.zeros((gs.m**k, env_ids.max() + 1), dtype=np.longdouble)
    a[system, env_ids] = gs.physical_amplitudes()
    return a @ a.T


@pytest.mark.parametrize("n,m,gauge", [
    *((n, 2, gauge) for n in range(4, 17, 2) for gauge in (True, False)),
    (6, 3, False), (9, 3, False),
])
def test_partial_trace_matches_direct_rdm(n, m, gauge):
    gs = ground_state(n, m, gauge=gauge)
    big = min(n, 8 if m == 2 else 6)  # M=3 stops at 729 rows per rho
    direct = {kk: reduced_density_matrix(gs, kk).rho for kk in range(1, big + 1)}
    for kk in range(1, big):
        reference = long_double_rdm(gs, kk)
        for k in range(kk + 1, big + 1):
            rho = partial_trace(ReducedDensityMatrix(direct[k], k, m), kk).rho
            assert rho.shape == (m**kk, m**kk)
            assert np.abs(rho - reference).max() < 1e-14
            # the direct build sums up to S/2 amplitudes one by one: at N=16
            # its rho_1 is 1.3e-14 off the long double sum, the trace 3e-15
            assert np.abs(rho - direct[kk]).max() < 2e-14
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(rho, rho.T)


@pytest.mark.parametrize("kk", [0, -1, 4, 5])
def test_partial_trace_rejects_sizes_outside_one_to_k(kk):
    rdm = reduced_density_matrix(ground_state(8, 2, gauge=True), 3)
    with pytest.raises(ValueError):
        partial_trace(rdm, kk)


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


@pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (5, 5), (6, 3), (6, 2)])
def test_dense_emax_is_certified_n(monkeypatch, n, m):
    # dense eigh puts the top eigenvalue a few ulps off N at M >= 3
    gs = ground_state(n, m)
    assert gs.solver == "dense" and gs.emax == float(n)
    top = np.linalg.eigvalsh(build_hamiltonian(gs.states).toarray())[-1]
    assert gs.emax == pytest.approx(top, abs=1e-10)
    monkeypatch.setattr(exact, "RESIDUAL_TOL", -1.0)
    with pytest.raises(ResidualError, match="E_max"):
        ground_state(n, m)


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
    h_sym = sector_hamiltonian(states[part.representatives], sizes).toarray()
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
    assert prob.shape == (8,) and prob.sum() == pytest.approx(1.0, abs=1e-12)
    # the count convention, N times the probability, is the mean motif count
    cnt = gs.physical_amplitudes() ** 2 @ motif_count_matrix(gs.states, 3, 2).T
    assert cnt == pytest.approx(8 * prob, abs=1e-12)
    for code, mo in enumerate(all_motifs(2, 3)):
        # conjugation symmetry of the zero-magnetization ground state
        assert prob[motif_index(conjugate(mo), 2)] == pytest.approx(prob[code], abs=1e-12)


def test_mev_matches_direct_window_average():
    gs = ground_state(8, 2, gauge=True)
    amps = gs.physical_amplitudes()
    mev = exact_mev(gs, 2)
    direct = np.zeros(4)
    for s, a in zip(gs.states, amps):
        direct += a * a * motif_count_matrix(s[None], 2, 2)[:, 0] / 8.0
    assert mev == pytest.approx(direct, abs=1e-12)


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
    for code, mo in enumerate(all_motifs(2, 3)):
        assert diag[code] == pytest.approx(diag[motif_index(conjugate(mo), 2)], abs=1e-12)
        assert diag[code] == pytest.approx(diag[motif_index(mo[::-1], 2)], abs=1e-12)
    assert diag.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m,k", [(2, k) for k in range(1, 9)] + [(3, k) for k in range(1, 6)])
def test_entanglement_hamiltonian_matches_tuple_loop(m, k):
    h = entanglement_hamiltonian(k, m)
    expected = entanglement_hamiltonian_by_tuples(k, m)
    assert h.dtype == expected.dtype and np.array_equal(h, expected)


def test_thermal_weights_normalized():
    w = cft_thermal_weights(4, 2.0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (w > 0).all()


def test_calibrate_beta_flat_objective_is_numerical_error():
    # a single-site window has no bonds, so the thermal MEVs ignore beta
    with pytest.raises(NumericalCheckError):
        calibrate_beta(1, np.array([0.5, 0.5]))


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
    # M=2 reads the partition of the sector solve, M=3 builds it on first use
    for gs in (ground_state(8, 2, gauge=True), ground_state(6, 3)):
        c50 = cumulative_class_mass(gs, 0.5)
        c99 = cumulative_class_mass(gs, 0.99)
        assert 1 <= c50 <= c99 <= len(partition_classes(gs.states, gs.m))
        assert cumulative_class_mass(gs, 1.0) == len(gs.partition)


def test_gap_estimate_positive():
    gs = ground_state(8, 2)
    assert gap_estimate(gs) > 0
    assert gap_estimate(gs) == pytest.approx((gs.emax - gs.e0) / 70)
