"""Command-line front end.

Subcommands: basis, motif-rank, exact, mev, cft, train, regress.  Every run
writes a config echo with a content hash into the output directory so results
can be replayed exactly.  Exit codes: 0 success, 2 invalid config, 3 numerical
failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import analysis, exact, motif, spinchain, vmc
from .ansatz import CnnParams, grandsum

OUTPUT_ROOT_ENV = "SPINMOTIF_OUT"


class ConfigError(click.ClickException):
    exit_code = 2


class NumericalError(click.ClickException):
    exit_code = 3


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = []
    buf.append(",".join(header))
    for row in rows:
        buf.append(",".join(str(x) for x in row))
    _atomic_write(path, "\n".join(buf) + "\n")


def _resolve_out(out: str | None) -> Path:
    if out:
        return Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    return Path(root) / "spinmotif-run"


def _load_config(config_path: str | None, flags: dict) -> dict:
    """File keys form the base; explicitly passed flags override them."""
    cfg = {}
    if config_path:
        try:
            cfg.update(json.loads(Path(config_path).read_text()))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file: {err}")
    cfg.update({k: v for k, v in flags.items() if v is not None})
    return cfg


def _echo_config(out: Path, command: str, cfg: dict) -> str:
    doc = {"command": command, "config": cfg}
    payload = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    doc["hash"] = digest
    _atomic_write(out / "config.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return digest


def _error_json(out: Path, kind: str, message: str) -> None:
    try:
        _atomic_write(out / "error.json", json.dumps({"error": kind, "message": message}) + "\n")
    except OSError:
        pass


@contextmanager
def _solve_errors(out: Path):
    """Invalid sizes exit 2; a failed numerical check exits 3 with ``error.json``."""
    try:
        yield
    except exact.NumericalCheckError as err:
        _error_json(out, "numerical", str(err))
        raise NumericalError(str(err))
    except ValueError as err:  # includes BasisTooLargeError
        raise ConfigError(str(err))


def _state_str(s) -> str:
    return "".join(str(x) for x in s)


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required option: {key}")
    return cfg[key]


@click.group()
def main() -> None:
    """Motif-based CNN ansatz toolkit for 1D spin chains."""


def _common(fn):
    fn = click.option("--config", type=click.Path(), default=None,
                      help="JSON config file; flags override its keys")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="output directory")(fn)
    fn = click.option("--seed", type=int, default=None, help="root random seed")(fn)
    return fn


@main.command()
@click.option("-n", "--sites", type=int, default=None)
@click.option("-m", "--species", type=int, default=None)
@_common
def basis(sites, species, config, out, seed):
    """Export the zero-magnetization basis with equivalence-class ids."""
    cfg = _load_config(config, {"N": sites, "M": species, "seed": seed})
    n, m = int(_require(cfg, "N")), int(cfg.get("M", 2))
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "basis", {"N": n, "M": m})
    try:
        b = spinchain.enumerate_basis(n, m)
    except (ValueError, spinchain.BasisTooLargeError) as err:
        _error_json(out_dir, "invalid-config", str(err))
        raise ConfigError(str(err))
    part = spinchain.partition_classes(b, m)
    _write_csv(out_dir / "basis.csv", ["state", "class_id"],
               [[_state_str(s), c] for s, c in zip(b, part.class_ids.tolist())])
    bound = spinchain.class_count_lower_bound(n, m)
    _atomic_write(out_dir / "classes.json", json.dumps({
        "N": n, "M": m, "n_states": len(b), "n_classes": len(part),
        "lower_bound": f"{bound.numerator}/{bound.denominator}",
        "lower_bound_float": float(bound),
    }, indent=2) + "\n")
    click.echo(f"{len(b)} states, {len(part)} classes -> {out_dir}")


@main.command("motif-rank")
@click.option("-n", "--sites", type=int, default=None)
@click.option("-m", "--species", type=int, default=None)
@click.option("--k-max", type=int, default=None)
@_common
def motif_rank(sites, species, k_max, config, out, seed):
    """Rank of the motif count matrix per K, plus the critical kernel size."""
    cfg = _load_config(config, {"N": sites, "M": species, "k_max": k_max})
    n, m = int(_require(cfg, "N")), int(cfg.get("M", 2))
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "motif-rank", {"N": n, "M": m, "k_max": cfg.get("k_max")})
    try:
        b = spinchain.enumerate_basis(n, m)
    except (ValueError, spinchain.BasisTooLargeError) as err:
        raise ConfigError(str(err))
    part = spinchain.partition_classes(b, m)
    kmax = int(cfg.get("k_max") or n)
    rows = []
    k_star = None
    try:
        for k in range(1, kmax + 1):
            rank = motif.integer_rank(motif.motif_count_matrix(b, k, m))
            rows.append({"K": k, "rank": rank, "class_count": len(part)})
            if k_star is None and rank >= len(part):
                k_star = k
    except MemoryError as err:
        raise ConfigError(str(err))
    _atomic_write(out_dir / "rank_report.json", json.dumps({
        "N": n, "M": m, "class_count": len(part), "K_star": k_star, "ranks": rows,
    }, indent=2) + "\n")
    click.echo(f"K* = {k_star} -> {out_dir}")


@main.command("exact")
@click.option("-n", "--sites", type=int, default=None)
@click.option("-m", "--species", type=int, default=None)
@click.option("-k", "--kernel", type=int, default=None)
@_common
def exact_cmd(sites, species, kernel, config, out, seed):
    """Ground-state solve with MEVs, spectra, truncation and class-mass curves."""
    cfg = _load_config(config, {"N": sites, "M": species, "K": kernel})
    n, m = int(_require(cfg, "N")), int(cfg.get("M", 2))
    k = int(cfg.get("K") or min(4, n // 2))
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "exact", {"N": n, "M": m, "K": k})
    with _solve_errors(out_dir):
        gs = exact.ground_state(n, m, gauge=(m == 2))
    part = spinchain.partition_classes(gs.states, m)
    _atomic_write(out_dir / "exact.json", json.dumps({
        "N": n, "M": m, "K": k, "gauge": gs.gauge, "solver": gs.solver,
        "E0": gs.e0, "Emax": gs.emax, "gap_estimate": exact.gap_estimate(gs),
        "residual": gs.residual, "basis_size": len(gs.states),
        "trace_check": 1.0,
        "class_count_99": exact.cumulative_class_mass(gs, part, 0.99),
    }, indent=2) + "\n")
    trunc_ks = range(1, min(k, n // 2) + 1)
    rdms = {kk: exact.reduced_density_matrix(gs, kk) for kk in sorted({*trunc_ks, k})}
    mev = exact.rdm_mev(rdms[k])
    _write_csv(out_dir / "mev.csv", ["motif", "probability", "count"],
               [[_state_str(mo), f"{v!r}", f"{v * n!r}"] for mo, v in mev.items()])
    spectra = {kk: exact.entanglement_spectrum(rdm) for kk, rdm in rdms.items()}
    _atomic_write(out_dir / "spectrum.json",
                  json.dumps({"K": k, "epsilon": list(spectra[k])}, indent=2) + "\n")
    rows = [[kk, exact.truncation_size(np.exp(-spectra[kk]), 0.99)] for kk in trunc_ks]
    _write_csv(out_dir / "truncation.csv", ["K", "count_99"], rows)
    click.echo(f"E0 = {gs.e0:.10f} -> {out_dir}")


@main.command()
@click.option("-n", "--sites", type=int, default=None)
@click.option("-m", "--species", type=int, default=None)
@click.option("-k", "--kernel", type=int, default=None)
@_common
def mev(sites, species, kernel, config, out, seed):
    """Exact MEV table for one (N, K)."""
    cfg = _load_config(config, {"N": sites, "M": species, "K": kernel})
    n, m = int(_require(cfg, "N")), int(cfg.get("M", 2))
    k = int(_require(cfg, "K"))
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "mev", {"N": n, "M": m, "K": k})
    with _solve_errors(out_dir):
        gs = exact.ground_state(n, m, gauge=(m == 2))
        table = exact.exact_mev(gs, k)
    _write_csv(out_dir / "mev.csv", ["motif", "probability", "count"],
               [[_state_str(mo), f"{v!r}", f"{v * n!r}"] for mo, v in table.items()])
    click.echo(f"{len(table)} motifs -> {out_dir}")


@main.command()
@click.option("-k", "--kernel", type=int, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--calibrate-n", type=int, default=None,
              help="calibrate beta against exact MEVs at this N")
@_common
def cft(kernel, beta, calibrate_n, config, out, seed):
    """Thermal entanglement-Hamiltonian MEVs, optionally with beta calibration."""
    cfg = _load_config(config, {"K": kernel, "beta": beta, "calibrate_N": calibrate_n})
    k = int(_require(cfg, "K"))
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "cft", {"K": k, "beta": cfg.get("beta"),
                                  "calibrate_N": cfg.get("calibrate_N")})
    b = cfg.get("beta")
    if cfg.get("calibrate_N"):
        with _solve_errors(out_dir):
            ref_gs = exact.ground_state(int(cfg["calibrate_N"]), 2, gauge=True)
            b = exact.calibrate_beta(k, exact.exact_mev(ref_gs, k))
    if b is None:
        raise ConfigError("need --beta or --calibrate-n")
    try:
        table = exact.cft_mev(k, float(b))
    except ValueError as err:
        raise ConfigError(str(err))
    _atomic_write(out_dir / "beta.json", json.dumps({"K": k, "beta": float(b)}) + "\n")
    _write_csv(out_dir / "cft_mev.csv", ["motif", "probability"],
               [[_state_str(mo), f"{v!r}"] for mo, v in table.items()])
    click.echo(f"beta = {float(b):.6f} -> {out_dir}")


@main.command()
@click.option("-n", "--sites", type=int, default=None)
@click.option("-k", "--kernel", type=int, default=None)
@click.option("--algorithm", type=click.Choice(vmc.ALGORITHMS), default=None)
@click.option("--eta", type=float, default=None)
@click.option("--n-opt", type=int, default=None)
@click.option("--max-iter", type=int, default=None)
@click.option("--n-samples", type=int, default=None)
@click.option("--seeds", type=str, default=None, help="comma-separated seed list")
@_common
def train(sites, kernel, algorithm, eta, n_opt, max_iter, n_samples, seeds,
          config, out, seed):
    """Train the CNN across seeds; writes trajectories and a summary."""
    cfg = _load_config(config, {
        "N": sites, "K": kernel, "algorithm": algorithm, "eta": eta,
        "n_opt": n_opt, "max_iter": max_iter, "n_samples": n_samples,
        "seeds": seeds, "seed": seed,
    })
    n = int(_require(cfg, "N"))
    k = int(cfg.get("K", 4))
    algo = cfg.get("algorithm", "symforce-traj")
    if isinstance(cfg.get("seeds"), str):
        seed_list = [int(x) for x in cfg["seeds"].split(",") if x.strip()]
    else:
        seed_list = list(cfg.get("seeds") or [int(cfg.get("seed") or 0)])
    run_cfg = {
        "N": n, "K": k, "algorithm": algo,
        "eta": float(cfg.get("eta", 0.02)), "n_opt": int(cfg.get("n_opt", 10)),
        "max_iter": int(cfg.get("max_iter", 500)),
        "n_samples": int(cfg.get("n_samples", 1000)), "seeds": seed_list,
    }
    out_dir = _resolve_out(out)
    digest = _echo_config(out_dir, "train", run_cfg)

    e0 = gap = None
    with _solve_errors(out_dir):
        if spinchain.basis_size(n, 2) <= 100_000:
            gs = exact.ground_state(n, 2, gauge=True)
            e0, gap = gs.e0, exact.gap_estimate(gs)

    summaries = []
    for s in seed_list:
        try:
            tcfg = vmc.TrainConfig(algorithm=algo, k=k, eta=run_cfg["eta"],
                                   n_opt=run_cfg["n_opt"],
                                   max_iter=run_cfg["max_iter"], seed=s)
        except ValueError as err:
            raise ConfigError(str(err))
        scfg = vmc.SamplerConfig(n_samples=run_cfg["n_samples"], seed=s)
        traj = vmc.train(tcfg, scfg, n, keep_history=False)
        if traj.diverged:
            _error_json(out_dir, "numerical", f"seed {s} diverged")
        _write_csv(out_dir / f"trajectory_seed{s}.csv",
                   ["iteration", "energy", "stderr", "grandsum"],
                   [[i + 1, f"{e!r}", f"{se!r}", f"{g!r}"] for i, (e, se, g) in
                    enumerate(zip(traj.energies, traj.stderrs, traj.grandsums))])
        _atomic_write(out_dir / f"checkpoint_seed{s}.json",
                      traj.final_params.to_json(n) + "\n")
        summary = {
            "seed": s, "diverged": traj.diverged,
            "T_convergence": vmc.convergence_iteration(traj, run_cfg["max_iter"]),
            "final_energy": traj.energies[-1],
        }
        if e0 is not None:
            summary["delta_E"] = traj.energies[-1] - e0
            summary["delta_E_rel"] = (traj.energies[-1] - e0) / gap
        summaries.append(summary)
    finals = [s["final_energy"] for s in summaries]
    doc = {"config_hash": digest, "runs": summaries,
           "best_energy": min(finals), "mean_energy": float(np.mean(finals))}
    if e0 is not None:
        doc["E0"] = e0
        deltas = [s["delta_E_rel"] for s in summaries]
        doc["min_delta_E_rel"] = min(deltas)
        doc["mean_delta_E_rel"] = float(np.mean(deltas))
    _atomic_write(out_dir / "summary.json", json.dumps(doc, indent=2) + "\n")
    if any(s["diverged"] for s in summaries):
        raise NumericalError("one or more seeds diverged; partial results written")
    click.echo(f"best energy {min(finals):.6f} -> {out_dir}")


@main.command()
@click.option("--mev-csv", type=click.Path(exists=True), default=None,
              help="MEV table for the physical-feature model")
@click.option("--runs", type=click.Path(exists=True), multiple=True,
              help="training summary.json files for the error model")
@_common
def regress(mev_csv, runs, config, out, seed):
    """Fit the declared regression models and emit coefficient tables."""
    cfg = _load_config(config, {"mev_csv": mev_csv})
    out_dir = _resolve_out(out)
    _echo_config(out_dir, "regress",
                 {"mev_csv": cfg.get("mev_csv"), "runs": list(runs)})
    did_anything = False
    if cfg.get("mev_csv"):
        motifs, values = [], []
        with open(cfg["mev_csv"]) as fh:
            for row in csv.DictReader(fh):
                motifs.append(tuple(int(c) for c in row["motif"]))
                values.append(float(row["probability"]))
        design, names = analysis.feature_design(motifs)
        result = analysis.ols_regress(design, 100.0 * np.array(values), names)
        _write_csv(out_dir / "feature_regression.csv",
                   ["variable", "coefficient", "std_error", "stars"],
                   [[nm, repr(float(c)), repr(float(se)), st] for nm, c, se, st in
                    zip(result.names, result.coefficients, result.std_errors,
                        result.stars)])
        _atomic_write(out_dir / "feature_regression.txt", result.table() + "\n")
        if result.rank_deficient:
            click.echo(f"warning: rank-deficient design "
                       f"(cond {result.condition_number:.3g})", err=True)
        did_anything = True
    if runs:
        records = []
        for path in runs:
            doc = json.loads(Path(path).read_text())
            for run in doc.get("runs", []):
                if "delta_E_rel" in run:
                    records.append(run)
        kept, removed = analysis.outlier_filter(records, key="delta_E_rel")
        click.echo(f"outlier filter removed {removed} of {len(records)} runs")
        _atomic_write(out_dir / "error_observations.json",
                      json.dumps({"kept": kept, "removed": removed}, indent=2) + "\n")
        did_anything = True
    if not did_anything:
        raise ConfigError("nothing to regress: pass --mev-csv and/or --runs")


if __name__ == "__main__":
    main()
