"""Command-line front end.

Subcommands: basis, motif-rank, exact, mev, cft, train, regress.  Every run
writes a config echo with a content hash into the output directory so results
can be replayed exactly.  Exit codes, the same for every subcommand:

- 0: success.
- 2: invalid configuration (a ``ValueError`` such as a bad size, an integer
  option that is not a whole number or is out of range, a real option that
  is not a finite positive number, a missing option or an unreadable config
  file, or a ``MemoryError``); writes
  ``error.json`` with ``{"error": "invalid-config"}``.
- 3: numerical failure (``exact.NumericalCheckError``, or a diverged training
  seed); writes ``error.json`` with ``{"error": "numerical"}``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from pathlib import Path

import click
import numpy as np

from . import analysis, exact, motif, spinchain, vmc

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


def _read_input(path: str) -> str:
    """The text of an input file; one that cannot be read is a configuration
    error, also when a config file rather than a flag names it."""
    try:
        return Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read input file: {err}")


def _load_config(config_path: str | None, flags: dict) -> dict:
    """File keys form the base; explicitly passed flags override them."""
    cfg = {}
    if config_path:
        try:
            cfg = json.loads(_read_input(config_path))
        except json.JSONDecodeError as err:
            raise ValueError(f"cannot read config file: {err}")
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    cfg.update({k: v for k, v in flags.items() if v is not None and v != ()})
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


def _state_str(s) -> str:
    return "".join(str(x) for x in s)


def _write_mev(out: Path, table: dict, n: int) -> None:
    _write_csv(out / "mev.csv", ["motif", "probability", "count"],
               [[_state_str(mo), f"{v!r}", f"{v * n!r}"] for mo, v in table.items()])


def _int(value, name: str, lo: float = -np.inf, hi: float = np.inf) -> int:
    """The config value of option ``name`` as an int in [lo, hi].  An integral
    float counts as a whole number; null is a missing option, and anything
    else that is not a whole number, bools included, or a value out of range
    raises ``ValueError``."""
    if value is None:
        raise ValueError(f"missing required option: {name}")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name} = {value} outside [{lo}, {hi}]")
    return value


def _float(value, name: str) -> float:
    """The config value of option ``name`` as a finite float above 0.  Null is
    a missing option; anything else that is not a number, bools and numeric
    text included, or a value that is not finite and positive raises
    ``ValueError``."""
    if value is None:
        raise ValueError(f"missing required option: {name}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0 < value <= np.finfo(float).max:
        raise ValueError(f"{name} = {value} must be finite and positive")
    return float(value)


@click.group()
def main() -> None:
    """Motif-based CNN ansatz toolkit for 1D spin chains."""


CONFIG = click.option("--config", type=click.Path(), default=None,
                      help="JSON config file; flags override its keys")
OUT = click.option("--out", type=click.Path(), default=None, help="output directory")
SITES = click.option("-n", "--sites", "N", type=int, default=None)
SPECIES = click.option("-m", "--species", "M", type=int, default=None)
KERNEL = click.option("-k", "--kernel", "K", type=int, default=None)


def command(name: str, *options):
    """Register ``body(cfg, out_dir)`` as the subcommand ``name``.

    Adds ``--config`` and ``--out`` to ``options``.  Each option's parameter
    name is its config key, so the flags passed override the file's keys with
    no renaming.  Failures map to the exit codes of the module docstring.
    """
    def register(body):
        def run(config, out, **flags):
            out_dir = _resolve_out(out)
            (out_dir / "error.json").unlink(missing_ok=True)  # left by an earlier run
            try:
                body(_load_config(config, flags), out_dir)
            except exact.NumericalCheckError as err:
                _error_json(out_dir, "numerical", str(err))
                raise NumericalError(str(err))
            except (ValueError, MemoryError) as err:  # includes BasisTooLargeError
                _error_json(out_dir, "invalid-config", str(err))
                raise ConfigError(str(err))

        for opt in reversed((*options, CONFIG, OUT)):
            run = opt(run)
        main.command(name, help=body.__doc__)(run)
        return body
    return register


@command("basis", SITES, SPECIES)
def basis(cfg: dict, out_dir: Path) -> None:
    """Export the zero-magnetization basis with equivalence-class ids."""
    n, m = _int(cfg.get("N"), "N"), _int(cfg.get("M", 2), "M")
    _echo_config(out_dir, "basis", {"N": n, "M": m})
    states = spinchain.enumerate_basis(n, m)
    part = spinchain.partition_classes(states, m)
    _write_csv(out_dir / "basis.csv", ["state", "class_id"],
               [[_state_str(s), c] for s, c in zip(states.tolist(), part.class_ids.tolist())])
    bound = spinchain.class_count_lower_bound(n, m)
    _atomic_write(out_dir / "classes.json", json.dumps({
        "N": n, "M": m, "n_states": len(states), "n_classes": len(part),
        "lower_bound": f"{bound.numerator}/{bound.denominator}",
        "lower_bound_float": float(bound),
    }, indent=2) + "\n")
    click.echo(f"{len(states)} states, {len(part)} classes -> {out_dir}")


@command("motif-rank", SITES, SPECIES, click.option("--k-max", type=int, default=None))
def motif_rank(cfg: dict, out_dir: Path) -> None:
    """Rank of the motif count matrix per K, plus the critical kernel size."""
    n, m = _int(cfg.get("N"), "N"), _int(cfg.get("M", 2), "M")
    k_max = _int(cfg.get("k_max", n), "k_max", 1, n)
    _echo_config(out_dir, "motif-rank", {"N": n, "M": m, "k_max": cfg.get("k_max")})
    n_classes, ranks, k_star = motif.rank_scan(n, m, k_max)
    rows = [{"K": k, "rank": rank, "class_count": n_classes}
            for k, rank in enumerate(ranks, start=1)]
    _atomic_write(out_dir / "rank_report.json", json.dumps({
        "N": n, "M": m, "class_count": n_classes, "K_star": k_star, "ranks": rows,
    }, indent=2) + "\n")
    click.echo(f"K* = {k_star} -> {out_dir}")


@command("exact", SITES, SPECIES, KERNEL)
def exact_cmd(cfg: dict, out_dir: Path) -> None:
    """Ground-state solve with MEVs, spectra, truncation and class-mass curves."""
    n, m = _int(cfg.get("N"), "N"), _int(cfg.get("M", 2), "M")
    k = _int(cfg.get("K", min(4, n // 2)), "K", 1, n)
    _echo_config(out_dir, "exact", {"N": n, "M": m, "K": k})
    gs = exact.ground_state(n, m, gauge=(m == 2))
    trunc_ks = range(1, min(k, n // 2) + 1)
    rdms = {kk: exact.reduced_density_matrix(gs, kk) for kk in sorted({*trunc_ks, k})}
    _atomic_write(out_dir / "exact.json", json.dumps({
        "N": n, "M": m, "K": k, "gauge": gs.gauge, "solver": gs.solver,
        "E0": gs.e0, "Emax": gs.emax, "gap_estimate": exact.gap_estimate(gs),
        "residual": gs.residual, "basis_size": len(gs.states),
        "sector_size": gs.sector_size, "trace_check": float(np.trace(rdms[k].rho)),
        "class_count_99": exact.cumulative_class_mass(gs, gs.partition, 0.99),
    }, indent=2) + "\n")
    _write_mev(out_dir, exact.rdm_mev(rdms[k]), n)
    spectra = {kk: exact.entanglement_spectrum(rdm) for kk, rdm in rdms.items()}
    _atomic_write(out_dir / "spectrum.json",
                  json.dumps({"K": k, "epsilon": list(spectra[k])}, indent=2) + "\n")
    rows = [[kk, exact.truncation_size(np.exp(-spectra[kk]), 0.99)] for kk in trunc_ks]
    _write_csv(out_dir / "truncation.csv", ["K", "count_99"], rows)
    click.echo(f"E0 = {gs.e0:.10f} -> {out_dir}")


@command("mev", SITES, SPECIES, KERNEL)
def mev(cfg: dict, out_dir: Path) -> None:
    """Exact MEV table for one (N, K)."""
    n, m = _int(cfg.get("N"), "N"), _int(cfg.get("M", 2), "M")
    k = _int(cfg.get("K"), "K", 1, n)
    _echo_config(out_dir, "mev", {"N": n, "M": m, "K": k})
    table = exact.exact_mev(exact.ground_state(n, m, gauge=(m == 2)), k)
    _write_mev(out_dir, table, n)
    click.echo(f"{len(table)} motifs -> {out_dir}")


@command("cft", KERNEL, click.option("--beta", type=float, default=None),
         click.option("--calibrate-n", "calibrate_N", type=int, default=None,
                      help="calibrate beta against exact MEVs at this N"))
def cft(cfg: dict, out_dir: Path) -> None:
    """Thermal entanglement-Hamiltonian MEVs, optionally with beta calibration."""
    k = _int(cfg.get("K"), "K", 1)
    if cfg.get("beta") is None and not cfg.get("calibrate_N"):
        raise ValueError("need --beta or --calibrate-n")
    b = None if cfg.get("beta") is None else _float(cfg["beta"], "beta")
    _echo_config(out_dir, "cft", {"K": k, "beta": cfg.get("beta"),
                                  "calibrate_N": cfg.get("calibrate_N")})
    if cfg.get("calibrate_N"):
        ref_gs = exact.ground_state(_int(cfg["calibrate_N"], "calibrate_N"), 2, gauge=True)
        b = exact.calibrate_beta(k, exact.exact_mev(ref_gs, k))
    table = exact.cft_mev(k, b)
    _atomic_write(out_dir / "beta.json", json.dumps({"K": k, "beta": b}) + "\n")
    _write_csv(out_dir / "cft_mev.csv", ["motif", "probability"],
               [[_state_str(mo), f"{v!r}"] for mo, v in table.items()])
    click.echo(f"beta = {b:.6f} -> {out_dir}")


@command("train", SITES, KERNEL,
         click.option("--algorithm", type=click.Choice(vmc.ALGORITHMS), default=None),
         click.option("--eta", type=float, default=None),
         click.option("--n-opt", type=int, default=None),
         click.option("--max-iter", type=int, default=None),
         click.option("--n-samples", type=int, default=None),
         click.option("--seeds", type=str, default=None, help="comma-separated seed list"),
         click.option("--seed", type=int, default=None,
                      help="single seed, used when --seeds is not given"))
def train(cfg: dict, out_dir: Path) -> None:
    """Train the CNN across seeds; writes trajectories and a summary."""
    n = _int(cfg.get("N"), "N")
    k = _int(cfg.get("K", 4), "K", 1, n)
    algo = cfg.get("algorithm", "symforce-traj")
    seeds = cfg.get("seeds") or [cfg.get("seed") or 0]
    if isinstance(seeds, str):
        seeds = [int(x) for x in seeds.split(",") if x.strip()]
    if not isinstance(seeds, list):
        raise ValueError(f"seeds must be a list or comma-separated text, got {seeds!r}")
    seed_list = [_int(x, "seed") for x in seeds]
    run_cfg = {
        "N": n, "K": k, "algorithm": algo,
        "eta": _float(cfg.get("eta", 0.02), "eta"),
        "n_opt": _int(cfg.get("n_opt", 10), "n_opt"),
        "max_iter": _int(cfg.get("max_iter", 500), "max_iter"),
        "n_samples": _int(cfg.get("n_samples", 1000), "n_samples"), "seeds": seed_list,
    }
    digest = _echo_config(out_dir, "train", run_cfg)

    e0 = gap = None
    if spinchain.basis_size(n, 2) <= 100_000:
        gs = exact.ground_state(n, 2, gauge=True)
        e0, gap = gs.e0, exact.gap_estimate(gs)

    summaries = []
    for s in seed_list:
        tcfg = vmc.TrainConfig(algorithm=algo, k=k, eta=run_cfg["eta"],
                               n_opt=run_cfg["n_opt"],
                               max_iter=run_cfg["max_iter"], seed=s)
        scfg = vmc.SamplerConfig(n_samples=run_cfg["n_samples"], seed=s)
        traj = vmc.train(tcfg, scfg, n, keep_history=False)
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
    diverged = [s["seed"] for s in summaries if s["diverged"]]
    if diverged:
        raise exact.NumericalCheckError(f"seeds {diverged} diverged; partial results written")
    click.echo(f"best energy {min(finals):.6f} -> {out_dir}")


@command("regress",
         click.option("--mev-csv", type=click.Path(exists=True), default=None,
                      help="MEV table for the physical-feature model"),
         click.option("--runs", type=click.Path(exists=True), multiple=True,
                      help="training summary.json files for the error model"))
def regress(cfg: dict, out_dir: Path) -> None:
    """Fit the declared regression models and emit coefficient tables."""
    runs = list(cfg.get("runs", ()))
    _echo_config(out_dir, "regress", {"mev_csv": cfg.get("mev_csv"), "runs": runs})
    did_anything = False
    if cfg.get("mev_csv"):
        motifs, values = [], []
        rows = csv.DictReader(_read_input(cfg["mev_csv"]).splitlines())
        missing = {"motif", "probability"} - set(rows.fieldnames or ())
        if missing:
            raise ValueError(f"MEV table has no {', '.join(sorted(missing))} column")
        for row in rows:
            if None in (row["motif"], row["probability"]):
                raise ValueError(f"MEV table line {rows.line_num} has too few fields")
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
            doc = json.loads(_read_input(path))
            entries = doc.get("runs", []) if isinstance(doc, dict) else None
            if not isinstance(entries, list) or not all(isinstance(r, dict) for r in entries):
                raise ValueError(f"{path}: need a JSON object whose 'runs' is a list of objects")
            for run in entries:
                if "delta_E_rel" in run:
                    value = run["delta_E_rel"]
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ValueError(f"{path}: delta_E_rel must be a number, got {value!r}")
                    records.append(run)
        kept, removed = analysis.outlier_filter(records, key="delta_E_rel")
        click.echo(f"outlier filter removed {removed} of {len(records)} runs")
        _atomic_write(out_dir / "error_observations.json",
                      json.dumps({"kept": kept, "removed": removed}, indent=2) + "\n")
        did_anything = True
    if not did_anything:
        raise ValueError("nothing to regress: pass --mev-csv and/or --runs")


if __name__ == "__main__":
    main()
