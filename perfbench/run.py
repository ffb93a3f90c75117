#!/usr/bin/env python3
"""spinmotif benchmark: times the package on fixed workloads and checks every
output against the reference values in ``oracle.py``.

    python3 perfbench/run.py --workload vmc-train --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  Each
workload is a closed loop (one caller; the next call starts when the previous
one returns) that repeats its unit of work until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced units and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"  # CLI outputs and span dumps; removed or ignored

LAYERS = ("spinchain", "motif", "ansatz", "exact", "vmc", "analysis", "cli")

# The dense eigensolver's time depends on the BLAS thread count, so it is fixed
# here rather than taken from the environment.  One thread is at most nproc on
# any machine and is the least disturbed by other load on a small box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3

# Criterion-10 training configuration with a 15-iteration budget.
TRAIN_N = 16
TRAIN_SEEDS_PER_RUN = 5
TRAIN_CONFIG = dict(algorithm="symforce-traj", k=4, eta=0.02, n_opt=10, max_iter=15)
TRAIN_SAMPLES = 1000
ED_K = 4
RANK_SIZES = (8, 10, 12, 14)


@dataclass
class Op:
    """One operation: a training seed, an ED command pair, or one K* search."""

    wall: float
    failed: bool = False
    wrong: bool = False  # a completed output disagreed with the oracle
    iters: int = 0
    rel_err: float | None = None


def load_program() -> SimpleNamespace:
    """Pin the BLAS threads, then import the package from this checkout."""
    if not (SRC / "spinmotif" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinmotif package under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"spinmotif.{name}") for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit("perfbench: spinmotif was not imported from this checkout")
    return SimpleNamespace(**mods)


def training_seeds(seed: int) -> list[int]:
    """Workload seed s trains seeds 5s .. 5s+4 (seed 0 is the criterion-10 set)."""
    return [TRAIN_SEEDS_PER_RUN * seed + i for i in range(TRAIN_SEEDS_PER_RUN)]


def _fail(op: Op, what: str, wrong: bool) -> Op:
    print(f"perfbench: FAILED {what}", file=sys.stderr)
    op.failed = True
    op.wrong = op.wrong or wrong
    return op


def vmc_train_unit(pkg, seeds: list[int], tracer) -> list[Op]:
    ops = []
    for s in seeds:
        if tracer:
            tracer.next_op()
        t0 = time.perf_counter()
        try:
            traj = pkg.vmc.train(pkg.vmc.TrainConfig(seed=s, **TRAIN_CONFIG),
                                 pkg.vmc.SamplerConfig(n_samples=TRAIN_SAMPLES, seed=s),
                                 TRAIN_N, keep_history=False)
        except Exception:
            traceback.print_exc()
            ops.append(_fail(Op(time.perf_counter() - t0), f"training seed {s}", True))
            continue
        op = Op(time.perf_counter() - t0, iters=len(traj.energies))
        why = oracle.training_failure(traj.energies, traj.stderrs, traj.diverged,
                                      oracle.E0[TRAIN_N])
        if why:
            _fail(op, f"training seed {s}: {why}", False)
        else:
            op.rel_err = oracle.relative_error(traj.energies, oracle.E0[TRAIN_N])
        ops.append(op)
    return ops


def ed_unit(pkg, n: int, tracer) -> list[Op]:
    """``spinmotif exact -n N -k 4``, then ``spinmotif regress`` on its MEV table."""
    if tracer:
        tracer.next_op()
    out = Path(tempfile.mkdtemp(dir=WORK_DIR))
    op = Op(0.0)
    try:
        t0 = time.perf_counter()
        with tracer.span("cli") if tracer else nullcontext():
            pkg.cli.main(["exact", "-n", str(n), "-k", str(ED_K), "--out", str(out)],
                         standalone_mode=False)
        with tracer.span("cli") if tracer else nullcontext():
            pkg.cli.main(["regress", "--mev-csv", str(out / "mev.csv"),
                          "--out", str(out / "regress")], standalone_mode=False)
        op.wall = time.perf_counter() - t0
        doc = json.loads((out / "exact.json").read_text())
        with open(out / "mev.csv") as fh:
            mev = [float(row["probability"]) for row in csv.DictReader(fh)]
        with open(out / "regress" / "feature_regression.csv") as fh:
            variables = [row["variable"] for row in csv.DictReader(fh)]
        problems = (oracle.check_exact(n, doc["E0"], doc["residual"], mev)
                    + oracle.check_regression(variables))
    except Exception:
        traceback.print_exc()
        op.wall = op.wall or time.perf_counter() - t0
        problems = ["command or output check raised"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if problems:
        _fail(op, f"ED N={n}: {'; '.join(problems)}", True)
    return [op]


def rank_scan_unit(pkg, sizes, tracer) -> list[Op]:
    motif = pkg.motif
    inner = motif.integer_rank
    ranks: list[int] = []

    def recording_rank(matrix):
        ranks.append(inner(matrix))
        return ranks[-1]

    ops = []
    motif.integer_rank = recording_rank  # critical_kernel_size looks it up per call
    try:
        for n in sizes:
            if tracer:
                tracer.next_op()
            ranks.clear()
            t0 = time.perf_counter()
            try:
                k_star = motif.critical_kernel_size(n, 2)
            except Exception:
                traceback.print_exc()
                k_star = None
            op = Op(time.perf_counter() - t0)
            problems = oracle.check_rank_scan(n, k_star, ranks)
            if problems:
                _fail(op, "; ".join(problems), True)
            ops.append(op)
    finally:
        motif.integer_rank = inner
    return ops


@dataclass
class Workload:
    name: str
    inputs: Callable[[int], object]  # workload seed -> unit inputs
    unit: Callable  # (pkg, inputs, tracer) -> list[Op]
    op_times: Callable[[list[Op]], list[float]]  # one unit's ops -> op_s samples
    summary_name: str  # the name the op_s figure goes by in the README


WORKLOADS = {w.name: w for w in (
    Workload("vmc-train", training_seeds, vmc_train_unit,
             lambda ops: [op.wall / op.iters for op in ops if op.iters], "train_iter_s"),
    Workload("ed-n14", lambda seed: 14, ed_unit,
             lambda ops: [op.wall for op in ops], "ed_s.N14"),
    Workload("ed-n20", lambda seed: 20, ed_unit,
             lambda ops: [op.wall for op in ops], "ed_s.N20"),
    Workload("rank-scan", lambda seed: RANK_SIZES, rank_scan_unit,
             lambda ops: [sum(op.wall for op in ops)], "rank_scan_s"),
)}


def setup(workload: str, seed: int):
    """Set-up as one fresh process pays it: imports, BLAS init, input generation."""
    load_program()
    import numpy as np

    a = np.random.default_rng(seed).standard_normal((64, 64))
    np.linalg.eigh(a + a.T)
    return WORKLOADS[workload].inputs(seed)


def measure_setup(workload: str, seed: int) -> float:
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.setup({workload!r}, {seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def trace_targets(pkg) -> list[tuple]:
    """(module, function, hook) for every public function the trace wraps."""

    def iterations(tracer, idx, args, traj):
        tracer.counts["vmc.iterations"] += len(traj.energies)

    def moves(tracer, idx, args, samples):
        # proposed moves, with metropolis_chain's defaults for burn-in and stride
        cfg, n = args["cfg"], args["n"]
        burn_in = 10 * n if cfg.burn_in is None else cfg.burn_in
        stride = n if cfg.thinning is None else cfg.thinning
        tracer.counts["vmc.moves"] += burn_in + cfg.n_samples * stride

    def states(tracer, idx, args, basis):
        tracer.counts["spinchain.states"] += len(basis)

    def nnz(tracer, idx, args, h):
        tracer.counts["exact.hamiltonian_nnz"] += h.nnz

    def solver(tracer, idx, args, gs):
        tracer.spans[idx].name = f"exact.ground_state.{gs.solver}"

    def entries(tracer, idx, args, rank):
        mat = getattr(args["matrix"], "entries", args["matrix"])
        tracer.counts["motif.integer_rank.entries"] += mat.shape[0] * mat.shape[1]

    return [
        (pkg.vmc, "train", iterations),
        (pkg.vmc, "metropolis_chain", moves),
        (pkg.vmc, "local_energies", None),
        (pkg.vmc, "energy_gradient", None),
        (pkg.ansatz, "cnn_logpsi_batch", None),
        (pkg.ansatz, "logpsi_gradient_batch", None),
        (pkg.spinchain, "enumerate_basis", states),
        (pkg.spinchain, "partition_classes", None),
        (pkg.exact, "build_hamiltonian", nnz),
        (pkg.exact, "ground_state", solver),
        (pkg.exact, "reduced_density_matrix", None),
        (pkg.exact, "exact_mev", None),
        (pkg.exact, "entanglement_spectrum", None),
        (pkg.exact, "truncation_size", None),
        (pkg.exact, "cumulative_class_mass", None),
        (pkg.motif, "motif_count_matrix", None),
        (pkg.motif, "integer_rank", entries),
        (pkg.motif, "critical_kernel_size", None),
        (pkg.analysis, "feature_design", None),
        (pkg.analysis, "ols_regress", None),
    ]


def layer_metrics(tracer: spans.Tracer, units: int, ops: list[Op],
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per unit of work; 0 for layers the workload never calls."""
    totals = spans.by_name(tracer.spans)
    counts = tracer.counts

    def self_s(name):
        return totals.get(name, (0.0, 0))[0] / units

    def calls(name):
        return totals.get(name, (0.0, 0))[1] / units

    def ratio(a, b):
        return a / b if b else 0.0

    rel_errs = [op.rel_err for op in ops if op.rel_err is not None]
    return {
        "vmc.metropolis_chain.s": self_s("vmc.metropolis_chain"),
        "vmc.moves_per_s": ratio(counts["vmc.moves"] / units, self_s("vmc.metropolis_chain")),
        "vmc.local_energies.s": self_s("vmc.local_energies"),
        "vmc.local_energies.calls_per_iter": ratio(calls("vmc.local_energies"),
                                                   counts["vmc.iterations"] / units),
        "vmc.energy_gradient.s": self_s("vmc.energy_gradient"),
        "vmc.train.s": self_s("vmc.train"),
        "vmc.train_rel_err": statistics.median(rel_errs) if rel_errs else 0.0,
        "ansatz.cnn_logpsi_batch.s": self_s("ansatz.cnn_logpsi_batch"),
        "ansatz.cnn_logpsi_batch.calls": calls("ansatz.cnn_logpsi_batch"),
        "ansatz.logpsi_gradient_batch.s": self_s("ansatz.logpsi_gradient_batch"),
        "spinchain.enumerate_basis.s": self_s("spinchain.enumerate_basis"),
        "spinchain.partition_classes.s": self_s("spinchain.partition_classes"),
        "spinchain.states": counts["spinchain.states"] / units,
        "exact.build_hamiltonian.s": self_s("exact.build_hamiltonian"),
        "exact.hamiltonian_nnz": counts["exact.hamiltonian_nnz"] / units,
        "exact.ground_state.dense.s": self_s("exact.ground_state.dense"),
        "exact.ground_state.lanczos.s": self_s("exact.ground_state.lanczos"),
        "exact.reduced_density_matrix.s": self_s("exact.reduced_density_matrix"),
        "exact.reduced_density_matrix.calls": calls("exact.reduced_density_matrix"),
        "motif.integer_rank.s": self_s("motif.integer_rank"),
        "motif.integer_rank.entries": counts["motif.integer_rank.entries"] / units,
        "motif.motif_count_matrix.s": self_s("motif.motif_count_matrix"),
        "analysis.ols_regress.s": self_s("analysis.ols_regress"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": overhead_s,
    }


def end_to_end_metrics(op_times: list[float], setup_s: float) -> dict[str, float]:
    return {
        "op_s": statistics.median(op_times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_plain(w: Workload, pkg, inputs, seconds: float) -> tuple[list[Op], list[float]]:
    ops, times = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        unit = w.unit(pkg, inputs, None)
        ops += unit
        times += w.op_times(unit)
    return ops, times


def run_traced(w: Workload, pkg, inputs, seconds: float):
    """Pairs of one untraced and one traced unit, alternating which runs first;
    the overhead is the median traced-minus-untraced wall time of a pair."""
    tracer = spans.Tracer()
    ops, traced_ops, overheads = [], [], []
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        walls = {}
        for traced in ((False, True) if len(overheads) % 2 == 0 else (True, False)):
            with spans.instrument(tracer, trace_targets(pkg)) if traced else nullcontext():
                t0 = time.perf_counter()
                unit = w.unit(pkg, inputs, tracer if traced else None)
                walls[traced] = time.perf_counter() - t0
            ops += unit
            if traced:
                traced_ops += unit
        overheads.append(walls[True] - walls[False])
    metrics = layer_metrics(tracer, len(overheads), traced_ops, statistics.median(overheads))
    return ops, metrics, tracer


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": git_commit(),
    }


def load_metric_units() -> dict[str, dict[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in doc[key]}
            for key in ("end_to_end", "per_layer")}


def result_line(ops: list[Op], values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metric names {sorted(values)} != {sorted(units)}")
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pkg = load_program()
    units = load_metric_units()
    w = WORKLOADS[args.workload]
    print("header:", json.dumps(run_header(args)), flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    inputs = w.inputs(args.seed)

    if args.trace:
        ops, values, tracer = run_traced(w, pkg, inputs, args.seconds)
        tracer.dump(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        result = result_line(ops, values, units["per_layer"])
    else:
        setup_s = measure_setup(args.workload, args.seed)
        ops, times = run_plain(w, pkg, inputs, args.seconds)
        values = end_to_end_metrics(times, setup_s)
        result = result_line(ops, values, units["end_to_end"])
        failed = sum(op.failed for op in ops)
        rel_errs = [op.rel_err for op in ops if op.rel_err is not None]
        quality = f" train_rel_err={statistics.median(rel_errs)!r}" if rel_errs else ""
        print(f"summary: {w.summary_name}={values['op_s']!r} s over {len(times)} samples,"
              f"{quality} failed_frac={failed / len(ops)!r} ({failed}/{len(ops)})", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
