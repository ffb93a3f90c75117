"""CNN/CPS/MaxEnt ansatz equivalences, grand-sum symmetry, gradients."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import logpsi_gradient, tuples
from hypothesis import given, settings, strategies as st

from spinmotif.ansatz import (
    CnnParams,
    MaxEntParams,
    cnn_as_cps,
    cnn_logpsi_batch,
    cps_logpsi,
    fit_maxent,
    grandsum,
    linear_activation_constant,
    linear_cnn_logpsi,
    logpsi_gradient_batch,
    maxent_logpsi,
    maxent_state_probs,
    project_grandsum,
    unpack_gradient,
)
from spinmotif.exact import exact_mev, ground_state
from spinmotif.motif import all_motifs, integer_rank, motif_count_matrix, motif_count_rows
from spinmotif.spinchain import enumerate_basis


@st.composite
def cnn_params(draw, k_range=(2, 4), scale=1.0):
    k = draw(st.integers(*k_range))
    flat = draw(st.lists(st.floats(-scale, scale), min_size=2 * k + 1,
                         max_size=2 * k + 1))
    w = np.array(flat[:-1]).reshape(k, 2)
    return CnnParams(w=w, b=flat[-1], v=draw(st.floats(0.5, 1.5)))


STATES8 = enumerate_basis(8, 2)
BASIS8 = tuples(STATES8)


def test_params_json_roundtrip():
    p = CnnParams(w=np.arange(6.0).reshape(3, 2), b=-0.5, v=1.25)
    q = CnnParams.from_json(p.to_json(8))
    assert np.array_equal(p.w, q.w) and p.b == q.b and p.v == q.v


@given(cnn_params(), st.sampled_from(BASIS8))
def test_motif_form_matches_direct_evaluation(p, s):
    row = np.array([s], dtype=np.uint8)
    direct = cnn_logpsi_batch(p, row)[0]
    # motif form: v * sigma(w . motif + b), weighted by the motif counts
    acts = [max(sum(p.w[j, x] for j, x in enumerate(mo)) + p.b, 0.0)
            for mo in all_motifs(2, p.k)]
    counts = motif_count_matrix(row, p.k, 2)[:, 0]
    assert p.v * np.dot(acts, counts) == pytest.approx(direct, abs=1e-12)


@given(cnn_params(), st.sampled_from(BASIS8))
def test_cps_embedding_reproduces_cnn(p, s):
    row = np.array([s], dtype=np.uint8)
    coeffs = cnn_as_cps(p)
    assert cps_logpsi(coeffs, STATES8, 2) == pytest.approx(cnn_logpsi_batch(p, STATES8),
                                                           abs=1e-12)
    with pytest.raises(ValueError):
        cps_logpsi(coeffs[:-1], row, 2)


@given(cnn_params())
def test_batch_evaluation_matches_scalar(p):
    batch = cnn_logpsi_batch(p, STATES8[:10])
    for row, val in zip(STATES8[:10], batch):
        assert val == pytest.approx(cnn_logpsi_batch(p, row[None])[0], abs=1e-12)


@given(cnn_params(), st.sampled_from(BASIS8), st.integers(1, 7))
def test_translation_invariance(p, s, shift):
    vals = cnn_logpsi_batch(p, np.array([s, s[shift:] + s[:shift]], dtype=np.uint8))
    assert vals[1] == pytest.approx(vals[0], abs=1e-12)


@given(cnn_params(scale=2.0))
def test_projection_zeroes_grandsum_and_enforces_relabeling(p):
    q = project_grandsum(p)
    assert abs(grandsum(q)) < 1e-12
    arr = np.asarray(BASIS8, dtype=np.intp)
    flipped = 1 - arr
    dev = np.abs(cnn_logpsi_batch(q, arr) - cnn_logpsi_batch(q, flipped)).max()
    assert dev < 1e-9


def test_projection_leaves_window_differences_intact():
    rng = np.random.default_rng(7)
    p = CnnParams(w=rng.uniform(-1, 1, (3, 2)), b=0.3, v=1.0)
    q = project_grandsum(p)
    # the shift is uniform, so preactivation differences are preserved
    assert np.allclose(q.w - p.w, (q.w - p.w)[0, 0])


@given(cnn_params(scale=1.0))
def test_linear_activation_is_constant(p):
    const = linear_activation_constant(p, 8)
    assert linear_cnn_logpsi(p, STATES8[::7]) == pytest.approx(const, abs=1e-10)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = CnnParams(w=rng.uniform(-1, 1, (3, 2)), b=0.2, v=1.1)
    row = STATES8[17:18]
    dv, dw, db = unpack_gradient(p, logpsi_gradient_batch(p, row)[0])
    eps = 1e-6

    def fd(plus, minus):
        return (cnn_logpsi_batch(plus, row)[0] - cnn_logpsi_batch(minus, row)[0]) / (2 * eps)

    assert dv == pytest.approx(fd(replace(p, v=p.v + eps), replace(p, v=p.v - eps)), rel=1e-5)
    assert db == pytest.approx(fd(replace(p, b=p.b + eps), replace(p, b=p.b - eps)), rel=1e-5)
    for idx in np.ndindex(3, 2):
        e = np.zeros((3, 2))
        e[idx] = eps
        assert dw[idx] == pytest.approx(
            fd(replace(p, w=p.w + e), replace(p, w=p.w - e)), rel=1e-5, abs=1e-6
        )


@given(cnn_params())
def test_gradient_batch_matches_scalar(p):
    flat = logpsi_gradient_batch(p, STATES8[:6])
    for s, row in zip(BASIS8[:6], flat):
        dv, dw, db = logpsi_gradient(p, s)
        fv, fw, fb = unpack_gradient(p, row)
        assert fv == pytest.approx(dv, abs=1e-12)
        assert fb == pytest.approx(db, abs=1e-12)
        assert np.allclose(fw, dw, atol=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    # all preactivations exactly zero: gradient of w and b must vanish
    p = CnnParams(w=np.zeros((2, 2)), b=0.0, v=1.0)
    dv, dw, db = unpack_gradient(p, logpsi_gradient_batch(p, STATES8[:1])[0])
    assert dv == 0.0 and db == 0.0 and not dw.any()


class TestMaxEnt:
    def test_fit_reproduces_targets(self):
        # (N, K, M, tol): K > N/2 at (8, 6); M = 3 at (9, 3)
        for n, k, m, tol in [(8, 2, 2, 1e-8), (8, 3, 2, 1e-8), (8, 6, 2, 1e-10),
                             (16, 5, 2, 1e-10), (9, 3, 3, 1e-10)]:
            gs = ground_state(n, m, gauge=(m == 2))
            basis = gs.states
            targets = exact_mev(gs, k)
            mp = fit_maxent(targets, basis, k, m=m, tol=tol)
            probs = maxent_state_probs(mp, basis, m)
            model = probs @ motif_count_matrix(basis, k, m).T / n
            assert model == pytest.approx([targets[mo] for mo in all_motifs(m, k)], abs=1e-8)
            ops = motif_count_rows(basis, mp.motifs, m)
            assert (len(mp.motifs) == integer_rank(ops)
                    == integer_rank(motif_count_matrix(basis, k, m)))
            hessian = 2.0 * (ops * probs) @ ops.T
            assert np.linalg.eigvalsh(hessian)[0] > 0.0

    def test_full_k_limit_recovers_state_probabilities(self):
        gs = ground_state(6, 2, gauge=True)
        targets = exact_mev(gs, 6)
        mp = fit_maxent(targets, gs.states, 6)
        probs = maxent_state_probs(mp, gs.states)
        assert np.allclose(probs, gs.amplitudes**2, atol=1e-10)

    def test_logpsi_counts_only_the_model_motifs(self):
        # K = N = 26 is far past the size cap of the full motif count matrix
        rng = np.random.default_rng(3)
        basis = [tuple(int(x) for x in rng.permutation([0, 1] * 13)) for _ in range(4)]
        mp = MaxEntParams(motifs=(basis[0], basis[1][::-1]), lam=np.array([0.5, -1.25]),
                          ln_z=0.75)
        counts = [[sum((s + s)[i : i + 26] == mo for i in range(26)) for s in basis]
                  for mo in mp.motifs]
        assert np.allclose(maxent_logpsi(mp, np.array(basis, dtype=np.uint8)),
                           mp.lam @ np.array(counts) - mp.ln_z)

    def test_missing_targets_rejected(self):
        gs = ground_state(6, 2, gauge=True)
        targets = exact_mev(gs, 2)
        targets.pop((0, 1))
        with pytest.raises(ValueError):
            fit_maxent(targets, gs.states, 2)


@given(cnn_params(scale=2.0))
@settings(deadline=None)
def test_grandsum_relabel_theorem_any_relabeling(p):
    q = project_grandsum(p)
    states = STATES8[::11]
    assert cnn_logpsi_batch(q, 1 - states) == pytest.approx(cnn_logpsi_batch(q, states),
                                                            abs=1e-9)
