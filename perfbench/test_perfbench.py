"""Tests of the benchmark itself: span arithmetic, oracle, seeds, metric names.

    python3 -m pytest perfbench -q
"""

import json

import numpy as np
import pytest

import oracle
import run
import spans
from spans import Span


def _bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pkg():
    return run.load_program()


def test_self_time_on_synthetic_tree():
    tree = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("leaf", 6.0, 7.0, 2, 1),
        Span("a", 3.0, 6.0, 0, 1),  # overlaps both siblings: covered once
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 3.0, 1.0, 3.0])
    totals = spans.by_name(tree)
    assert totals["a"] == pytest.approx((6.0, 2))
    assert totals["root"] == pytest.approx((2.0, 1))


def test_oracle_accepts_reference_and_rejects_perturbed_e0():
    mev = [1.0 / 16] * 16
    for n, e0 in oracle.E0.items():
        assert oracle.check_exact(n, e0, 1e-14, mev) == []
        assert oracle.check_exact(n, e0 + 1e-8, 1e-14, mev)
    assert oracle.check_exact(20, oracle.E0[20], 1e-6, mev)
    assert oracle.check_exact(20, oracle.E0[20], 1e-14, mev[:-1])


def test_oracle_rejects_wrong_k_star_and_ranks():
    for n, ranks in oracle.RANKS.items():
        assert oracle.check_rank_scan(n, oracle.K_STAR[n], list(ranks)) == []
        assert oracle.check_rank_scan(n, oracle.K_STAR[n] - 1, list(ranks))
        assert oracle.check_rank_scan(n, oracle.K_STAR[n], list(ranks[:-1]) + [0])
    assert [oracle.K_STAR[n] for n in (8, 10, 12, 14)] == [4, 5, 7, 8]


def test_training_failures():
    e0 = oracle.E0[16]
    ok = [e0 + 1.0, e0 + 0.5]
    assert oracle.training_failure(ok, [0.1, 0.1], False, e0) is None
    assert oracle.training_failure(ok, [0.1, 0.1], True, e0) == "diverged"
    assert oracle.training_failure([e0, float("nan")], [0.1, 0.1], False, e0)
    assert "breach" in oracle.training_failure([e0 - 0.6], [0.1], False, e0)
    assert oracle.training_failure([e0 - 0.4], [0.1], False, e0) is None


def test_training_seeds_are_deterministic_and_disjoint():
    assert run.training_seeds(0) == [0, 1, 2, 3, 4]
    assert run.training_seeds(3) == run.training_seeds(3) == [15, 16, 17, 18, 19]
    assert not set(run.training_seeds(1)) & set(run.training_seeds(2))


def test_metric_and_workload_names_match_benchmark_json():
    bench = _bench()
    names = {key: [m["name"] for m in bench[key]] for key in ("end_to_end", "per_layer")}
    assert sorted(run.end_to_end_metrics([1.0], 1.0)) == sorted(names["end_to_end"])
    layer = run.layer_metrics(spans.Tracer(), 1, [], 0.0)
    assert sorted(layer) == sorted(names["per_layer"])
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in bench["workloads"])
    units = run.load_metric_units()
    line = run.result_line([run.Op(1.0)], run.end_to_end_metrics([1.0], 1.0),
                           units["end_to_end"])
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    with pytest.raises(SystemExit):
        run.result_line([run.Op(1.0)], {"op_s": 1.0}, units["end_to_end"])


def test_e0_reference_matches_package(pkg):
    gs = pkg.exact.ground_state(16, 2, gauge=True)
    assert abs(gs.e0 - oracle.E0[16]) < oracle.E0_TOL


def test_instrument_wraps_every_binding_and_restores(pkg):
    original = pkg.spinchain.enumerate_basis
    tracer = spans.Tracer()
    with spans.instrument(tracer, run.trace_targets(pkg)):
        assert pkg.exact.enumerate_basis is not original
        pkg.exact.ground_state(8, 2)
        p = pkg.ansatz.CnnParams(w=np.zeros((4, 2)), b=0.1, v=1.0)
        pkg.vmc.local_energies(p, np.array([[0, 1] * 4, [0, 0, 1, 1] * 2]))
    assert pkg.exact.enumerate_basis is original is pkg.spinchain.enumerate_basis
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    parents = {(s.name, by_index[s.parent].name if s.parent >= 0 else None)
               for s in tracer.spans}
    assert ("spinchain.enumerate_basis", "exact.ground_state.dense") in parents
    assert ("exact.build_hamiltonian", "exact.ground_state.dense") in parents
    assert ("ansatz.cnn_logpsi_batch", "vmc.local_energies") in parents
    assert tracer.counts["spinchain.states"] == 70
    assert tracer.counts["exact.hamiltonian_nnz"] > 0


def test_rank_scan_unit_checks_small_sizes(pkg):
    ops = run.rank_scan_unit(pkg, (8, 10), None)
    assert len(ops) == 2 and not any(op.failed for op in ops)
