"""Motif features, OLS harness, outlier filter, motif classes by MEV."""

import numpy as np
import pytest

from spinmotif.analysis import (
    feature_design,
    motif_features,
    ols_regress,
    outlier_filter,
)
from spinmotif.exact import ground_state, partial_trace, reduced_density_matrix
from spinmotif.motif import motif_symmetry_classes


def test_motif_features_by_hand():
    f = motif_features((0, 1, 0, 1))
    assert f.n_like == 0 and f.d_neel == 0
    f = motif_features((0, 0, 0, 0))
    assert f.n_like == 3 and f.d_neel == 2
    f = motif_features((1, 0, 1, 1))
    assert f.n_like == 1 and f.d_neel == 1
    with pytest.raises(ValueError):
        motif_features((0, 2))


def test_feature_design_shape():
    design, names = feature_design([(0, 1, 0), (0, 0, 0)])
    assert design.shape == (2, 4)
    assert names == ["Intercept", "d_Neel", "n_like", "d_Neel*n_like"]
    assert (design[:, 0] == 1).all()
    assert design[1, 3] == design[1, 1] * design[1, 2]


class TestOls:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        beta = np.array([1.5, -2.0, 0.75])
        y = x @ beta  # noiseless
        res = ols_regress(x, y)
        assert np.abs(res.coefficients - beta).max() < 1e-8
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_standard_errors_match_normal_equations(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
        y = x @ np.array([0.3, 1.0, -0.5]) + rng.normal(scale=0.2, size=500)
        res = ols_regress(x, y)
        resid = y - x @ res.coefficients
        sigma2 = resid @ resid / (500 - 3)
        oracle = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
        assert np.allclose(res.std_errors, oracle, atol=1e-12)

    def test_condition_number_and_stars(self):
        x = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        y = 3.0 + 10.0 * x[:, 1] + np.random.default_rng(2).normal(scale=0.1, size=50)
        res = ols_regress(x, y)
        svals = np.linalg.svd(x, compute_uv=False)
        assert res.condition_number == pytest.approx(svals[0] / svals[-1])
        assert res.stars[1] == "***"  # overwhelming slope significance
        assert "R^2" in res.table()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ols_regress(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            ols_regress(np.array([[1.0, np.nan]]), np.array([1.0]))

    def test_rank_deficiency_flagged(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        res = ols_regress(x, np.arange(10.0))
        assert res.rank_deficient


def test_outlier_filter_inclusive_threshold():
    records = [{"delta_e_rel": v} for v in (0.5, 5.9, 6.0, 7.2)]
    kept, removed = outlier_filter(records)
    assert removed == 2
    assert [r["delta_e_rel"] for r in kept] == [0.5, 5.9]


@pytest.mark.parametrize("n", [8, 12, 16])
def test_motif_symmetry_classes_order_by_exact_mev(n):
    """Ordered by exact MEV, the symmetry orbits are the MEV classes: members
    of one orbit share their MEV, and the means of two orbits differ by more
    than 1e-9, so grouping equal MEVs within that tolerance gives the orbits."""
    gs = ground_state(n, 2, gauge=True)
    rho = reduced_density_matrix(gs, min(6, n // 2))
    for k in range(2, min(6, n // 2) + 1):
        truth = np.diag(partial_trace(rho, k).rho)
        classes = motif_symmetry_classes(k, 2)
        means = np.array([truth[cls].mean() for cls in classes])
        order = np.argsort(-means, kind="stable")
        for cls, mean in zip(classes, means):
            assert truth[cls] == pytest.approx(mean, abs=1e-12)
        gaps = np.abs(means[:, None] - means[None, :])
        assert gaps[~np.eye(len(classes), dtype=bool)].min() > 1e-9
        if k == 4:
            assert classes[order[0]].tolist() == [0b0101, 0b1010]
