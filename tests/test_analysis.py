"""Motif features, OLS harness, outlier filter, MEV class ordering."""

import numpy as np
import pytest

from spinmotif.analysis import (
    ErrorReport,
    error_report,
    feature_design,
    mev_class_ordering,
    motif_features,
    ols_regress,
    outlier_filter,
)
from spinmotif.exact import exact_mev, ground_state


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


def test_mev_class_ordering_groups_equal_values():
    gs = ground_state(12, 2, gauge=True)
    truth = exact_mev(gs, 4)
    table = mev_class_ordering(truth)
    # classes cover all motifs, descending MEV, Neel class first
    assert sum(len(c) for c in table.classes) == 16
    assert table.mevs == sorted(table.mevs, reverse=True)
    assert table.classes[0].tolist() == [0b0101, 0b1010]
    assert table.representatives.tolist() == [cls[0] for cls in table.classes]
    for cls, val in zip(table.classes, table.mevs):
        assert truth[cls] == pytest.approx(val, abs=1e-9)


def test_error_report_scaling():
    gs = ground_state(8, 2, gauge=True)
    truth = exact_mev(gs, 3)
    model = truth * 1.01  # uniform +1% bias
    rep = error_report(gs.e0 + 0.1, model, gs, truth)
    assert isinstance(rep, ErrorReport)
    assert rep.delta_e == pytest.approx(0.1)
    assert rep.delta_e_rel == pytest.approx(0.1 / ((gs.emax - gs.e0) / 70))
    for err in rep.class_errors:
        assert err == pytest.approx(0.01, abs=1e-12)
