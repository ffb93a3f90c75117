"""CLI subcommands: outputs, config echo/override, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from spinmotif import exact, motif, vmc
from spinmotif.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_basis_outputs(runner, tmp_path):
    out = tmp_path / "b"
    result = runner.invoke(main, ["basis", "-n", "8", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "basis.csv").read_text().strip().splitlines()
    assert lines[0] == "state,class_id"
    assert len(lines) == 71
    doc = json.loads((out / "classes.json").read_text())
    assert doc["n_states"] == 70 and doc["n_classes"] == 7
    echo = json.loads((out / "config.json").read_text())
    assert echo["command"] == "basis" and "hash" in echo


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("too large")


@pytest.mark.parametrize("args, target", [
    pytest.param(["basis", "-n", "7"], None, id="basis"),
    pytest.param(["motif-rank", "-n", "7"], None, id="motif-rank"),
    pytest.param(["exact", "-n", "7"], None, id="exact"),
    pytest.param(["mev", "-n", "7", "-k", "3"], None, id="mev"),
    pytest.param(["train", "-n", "7"], None, id="train"),
    pytest.param(["motif-rank", "-n", "8"], (motif, "motif_count_matrix"),
                 id="motif-rank-memory"),
    pytest.param(["exact", "-n", "8"], (exact, "ground_state"), id="exact-memory"),
    pytest.param(["basis", "-n", "8", "--config", "missing.json"], None, id="config-missing"),
    pytest.param(["basis", "-n", "8", "--config", "list.json"], None, id="config-not-object"),
    pytest.param(["regress", "--config", "mev.json"], None, id="regress-mev-csv-missing"),
    pytest.param(["regress", "--mev-csv", "columns.csv"], None, id="regress-mev-csv-columns"),
    pytest.param(["regress", "--mev-csv", "short.csv"], None, id="regress-mev-csv-short-row"),
    pytest.param(["regress", "--config", "runs.json"], None, id="regress-runs-missing"),
    pytest.param(["regress", "--runs", "list.json"], None, id="regress-runs-not-object"),
    pytest.param(["regress", "--runs", "bad-run.json"], None, id="regress-run-not-object"),
    pytest.param(["regress", "--runs", "delta-text.json"], None, id="regress-delta-text"),
    pytest.param(["regress", "--runs", "delta-null.json"], None, id="regress-delta-null"),
    pytest.param(["exact", "-n", "8", "-k", "-1"], None, id="exact-k-negative"),
    pytest.param(["exact", "-n", "8", "-k", "0"], None, id="exact-k-zero"),
    pytest.param(["mev", "-n", "8", "-k", "-2"], None, id="mev-k-negative"),
    pytest.param(["mev", "-n", "8", "-k", "0"], None, id="mev-k-zero"),
    pytest.param(["mev", "--config", "k-bool.json"], None, id="mev-k-bool"),
    pytest.param(["cft", "-k", "0", "--beta", "1"], None, id="cft-k-zero"),
    pytest.param(["train", "-n", "8", "-k", "0"], None, id="train-k-zero"),
    pytest.param(["train", "-n", "8", "-k", "12"], None, id="train-k-above-n"),
    pytest.param(["train", "--config", "seeds-scalar.json"], None, id="train-seeds-scalar"),
    pytest.param(["basis", "--config", "m-null.json"], None, id="basis-m-null"),
    pytest.param(["basis", "--config", "n-fraction.json"], None, id="basis-n-fraction"),
    pytest.param(["motif-rank", "-n", "8", "--k-max", "-3"], None, id="motif-rank-k-max-negative"),
    pytest.param(["train", "--config", "eta-null.json"], None, id="train-eta-null"),
    pytest.param(["train", "--config", "eta-nan-text.json"], None, id="train-eta-nan-text"),
    pytest.param(["train", "-n", "8", "--eta", "0"], None, id="train-eta-zero"),
    pytest.param(["cft", "--config", "beta-list.json"], None, id="cft-beta-list"),
    pytest.param(["cft", "-k", "3", "--beta", "nan"], None, id="cft-beta-nan"),
    pytest.param(["cft", "-k", "3", "--beta", "inf"], None, id="cft-beta-inf"),
])
def test_invalid_config_is_exit_2(runner, tmp_path, monkeypatch, args, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[8]")
    # a config file names input files that click's exists=True never sees
    (tmp_path / "mev.json").write_text(json.dumps({"mev_csv": "missing.csv"}))
    (tmp_path / "runs.json").write_text(json.dumps({"runs": ["missing.json"]}))
    (tmp_path / "bad-run.json").write_text(json.dumps({"runs": [1]}))
    (tmp_path / "columns.csv").write_text("a,b\n01,0.5\n")
    (tmp_path / "short.csv").write_text("motif,probability\n01,0.5\n10\n")
    (tmp_path / "delta-text.json").write_text(json.dumps({"runs": [{"delta_E_rel": "x"}]}))
    (tmp_path / "delta-null.json").write_text(json.dumps({"runs": [{"delta_E_rel": None}]}))
    (tmp_path / "k-bool.json").write_text(json.dumps({"N": 8, "K": True}))
    (tmp_path / "seeds-scalar.json").write_text(json.dumps({"N": 8, "seeds": 5}))
    (tmp_path / "m-null.json").write_text(json.dumps({"N": 8, "M": None}))
    (tmp_path / "n-fraction.json").write_text(json.dumps({"N": 8.5}))
    (tmp_path / "eta-null.json").write_text(json.dumps({"N": 8, "eta": None}))
    (tmp_path / "eta-nan-text.json").write_text(json.dumps({"N": 8, "eta": "nan"}))
    (tmp_path / "beta-list.json").write_text(json.dumps({"K": 3, "beta": [1]}))
    if target:
        monkeypatch.setattr(*target, _raise_memory_error)
    out = tmp_path / "x"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert json.loads((out / "error.json").read_text())["error"] == "invalid-config"


def test_success_removes_stale_error_json(runner, tmp_path):
    out = tmp_path / "b"
    assert runner.invoke(main, ["basis", "-n", "7", "--out", str(out)]).exit_code == 2
    assert (out / "error.json").exists()
    assert runner.invoke(main, ["basis", "-n", "8", "--out", str(out)]).exit_code == 0
    assert not (out / "error.json").exists()


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 6, "M": 2}))
    out = tmp_path / "o"
    # flag overrides the file's N
    result = runner.invoke(main, ["basis", "--config", str(cfg), "-n", "8",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "classes.json").read_text())
    assert doc["N"] == 8


def test_motif_rank(runner, tmp_path):
    out = tmp_path / "r"
    result = runner.invoke(main, ["motif-rank", "-n", "8", "--k-max", "4",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "rank_report.json").read_text())
    assert doc["K_star"] == 4
    # 2^(K-1) until K = N/2, where the rank saturates at the 7 classes
    assert [r["rank"] for r in doc["ranks"]] == [1, 2, 4, 7]


def test_exact_and_mev(runner, tmp_path):
    out = tmp_path / "e"
    result = runner.invoke(main, ["exact", "-n", "8", "-k", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "exact.json").read_text())
    assert doc["E0"] == pytest.approx(-3.3021868179, abs=1e-9)
    mev_lines = (out / "mev.csv").read_text().strip().splitlines()
    assert len(mev_lines) == 9  # header + 8 motifs
    total = sum(float(l.split(",")[1]) for l in mev_lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert doc["trace_check"] == pytest.approx(1.0, abs=1e-12)
    assert (doc["basis_size"], doc["sector_size"]) == (70, 7)


def test_exact_outputs_match_library_with_one_rdm_per_size(runner, tmp_path, monkeypatch):
    n, k = 10, 4
    calls = []
    build_rdm = exact.reduced_density_matrix
    monkeypatch.setattr(exact, "reduced_density_matrix",
                        lambda gs, kk: calls.append(kk) or build_rdm(gs, kk))
    out = tmp_path / "e"
    result = runner.invoke(main, ["exact", "-n", str(n), "-k", str(k), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert sorted(calls) == [1, 2, 3, 4]

    gs = exact.ground_state(n, 2, gauge=True)
    mev = exact.exact_mev(gs, k)
    assert (out / "mev.csv").read_text() == "motif,probability,count\n" + "".join(
        f"{''.join(map(str, mo))},{v!r},{v * n!r}\n" for mo, v in mev.items())
    spectrum = exact.entanglement_spectrum(build_rdm(gs, k))
    assert (out / "spectrum.json").read_text() == json.dumps(
        {"K": k, "epsilon": list(spectrum)}, indent=2) + "\n"
    counts = [exact.truncation_size(np.exp(-exact.entanglement_spectrum(build_rdm(gs, kk))),
                                    0.99) for kk in range(1, k + 1)]
    assert (out / "truncation.csv").read_text() == "K,count_99\n" + "".join(
        f"{kk},{c}\n" for kk, c in enumerate(counts, start=1))


def test_exact_replays_byte_for_byte(runner, tmp_path):
    # N=16 has 257 classes, so the sector solve takes the Lanczos path
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        result = runner.invoke(main, ["exact", "-n", "16", "-k", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert json.loads((outs[0] / "exact.json").read_text())["solver"] == "lanczos"
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cft_requires_beta_source(runner, tmp_path):
    result = runner.invoke(main, ["cft", "-k", "3", "--out", str(tmp_path / "c")])
    assert result.exit_code == 2


def test_cft_with_explicit_beta(runner, tmp_path):
    out = tmp_path / "c"
    result = runner.invoke(main, ["cft", "-k", "3", "--beta", "1.5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "beta.json").read_text())["beta"] == 1.5
    assert (out / "cft_mev.csv").exists()


def test_train_and_regress_pipeline(runner, tmp_path):
    tdir = tmp_path / "t"
    result = runner.invoke(main, [
        "train", "-n", "6", "-k", "2", "--max-iter", "10", "--n-samples", "100",
        "--seeds", "0,1", "--eta", "0.05", "--out", str(tdir),
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((tdir / "summary.json").read_text())
    assert len(summary["runs"]) == 2
    assert summary["best_energy"] <= summary["mean_energy"]
    assert (tdir / "trajectory_seed0.csv").exists()
    assert (tdir / "checkpoint_seed1.json").exists()

    edir = tmp_path / "e16"
    assert runner.invoke(main, ["exact", "-n", "12", "-k", "4",
                                "--out", str(edir)]).exit_code == 0
    gdir = tmp_path / "g"
    result = runner.invoke(main, [
        "regress", "--mev-csv", str(edir / "mev.csv"),
        "--runs", str(tdir / "summary.json"), "--out", str(gdir),
    ])
    assert result.exit_code == 0, result.output
    table = (gdir / "feature_regression.csv").read_text().strip().splitlines()
    assert table[0] == "variable,coefficient,std_error,stars"
    assert len(table) == 5
    for line in table[1:]:
        _, coefficient, std_error, _ = line.split(",")
        float(coefficient), float(std_error)


@pytest.mark.parametrize("args", [
    ["exact", "-n", "8", "-k", "3"],
    ["mev", "-n", "8", "-k", "3"],
    ["cft", "-k", "3", "--calibrate-n", "8"],
    ["train", "-n", "6", "-k", "2", "--max-iter", "2", "--n-samples", "50"],
])
def test_failed_residual_is_numerical_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.setattr(exact, "RESIDUAL_TOL", 0.0)
    out = tmp_path / "r"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 3, result.output
    assert json.loads((out / "error.json").read_text())["error"] == "numerical"


def test_sign_changing_sector_vector_is_numerical_error(runner, tmp_path, monkeypatch):
    def second_eigenvector(h, dense_cap):
        evals, evecs = np.linalg.eigh(h.toarray())
        return evals, evecs[:, 1], "dense"

    monkeypatch.setattr(exact, "_lowest_eigenpairs", second_eigenvector)
    out = tmp_path / "s"
    result = runner.invoke(main, ["exact", "-n", "10", "--out", str(out)])
    assert result.exit_code == 3, result.output
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "numerical" and "sign" in error["message"]


def test_diverged_seed_is_numerical_error(runner, tmp_path, monkeypatch):
    train = vmc.train

    def diverging(*args, **kwargs):
        traj = train(*args, **kwargs)
        traj.diverged = True
        return traj

    monkeypatch.setattr(vmc, "train", diverging)
    out = tmp_path / "t"
    result = runner.invoke(main, ["train", "-n", "6", "-k", "2", "--max-iter", "2",
                                  "--n-samples", "50", "--seeds", "0,1", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert json.loads((out / "error.json").read_text())["error"] == "numerical"
    assert len(json.loads((out / "summary.json").read_text())["runs"]) == 2


def test_cft_calibration_size_is_config_error(runner, tmp_path):
    result = runner.invoke(main, ["cft", "-k", "3", "--calibrate-n", "7",
                                  "--out", str(tmp_path / "c")])
    assert result.exit_code == 2, result.output


def test_cft_calibration_failures_are_numerical_errors(runner, tmp_path, monkeypatch):
    # K=1 windows have no bonds, so the calibration objective is flat in beta
    out = tmp_path / "flat"
    result = runner.invoke(main, ["cft", "-k", "1", "--calibrate-n", "8", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "flat" in json.loads((out / "error.json").read_text())["message"]

    monkeypatch.setattr(exact, "DEGENERACY_TOL", 1e3)
    out = tmp_path / "degenerate"
    result = runner.invoke(main, ["cft", "-k", "3", "--calibrate-n", "8", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "gap" in json.loads((out / "error.json").read_text())["message"]


def test_regress_with_nothing_is_config_error(runner, tmp_path):
    result = runner.invoke(main, ["regress", "--out", str(tmp_path / "g")])
    assert result.exit_code == 2
