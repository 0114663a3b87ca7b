"""Tests for the benchmark harness itself: latency rules, span arithmetic,
tracer installation, checks and the metric lists in BENCHMARK.json.

Run from the repository root with ``python -m pytest benchmarks``.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import latency
import spans
import worker
from workloads import Runner, Workload, check, generate, warmup_instance, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TINY = Workload("tiny", n=3, m=8, l=1, k=3, pool=2)
# Eleven instances: enough requests in one pass for a tail latency.
TINY_CLI = Workload("tiny-cli", n=3, m=7, l=1, k=3, pool=11, via_cli=True)


# -- latency rules ---------------------------------------------------------


def test_tail_needs_ten_requests_beyond_it():
    assert latency.tail([1.0] * 10) == (None, None, 10)
    assert latency.tail([5.0] + [1.0] * 10) == (1.0, 100.0 / 11, 11)
    values = [float(v) for v in range(1, 101)]
    assert latency.tail(values) == (90.0, 90.0, 100)
    assert latency.tail(list(reversed(values[:20]))) == (10.0, 50.0, 20)


def test_failures_rank_above_every_success():
    # 20 requests, 5 failed: the tail rank (10) still holds a success.
    lat = [float(v) for v in range(1, 16)] + [None] * 5
    assert latency.tail(lat) == (10.0, 50.0, 20)
    # A failure counts as slower than the slowest success, so it moves the median.
    assert latency.median([1.0, 2.0, 3.0, None]) == 2.5
    assert latency.median([1.0, 2.0, 3.0]) == 2.0


def test_percentile_on_a_failure_reads_null():
    lat = [1.0] * 10 + [None] * 11
    value, pct, n = latency.tail(lat)
    assert value is None and n == 21 and pct == pytest.approx(100 * 11 / 21)
    assert latency.median([1.0, None]) is None
    assert latency.median([None, None, None]) is None
    assert latency.median([]) is None


# -- span arithmetic -------------------------------------------------------


def test_self_time_of_nested_spans():
    #   0 root [0, 10]
    #   1 +- a [1, 4]
    #   2 |  +- c [2, 3]
    #   3 +- b [5, 9]
    #   4    +- d [8, 12]  (runs past its parent: clipped to [8, 9])
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, 3]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 3.0, 4.0]
    assert own[:4].sum() + 1.0 == pytest.approx(10.0)  # d counts 1 s inside the root


def test_self_time_of_a_lone_span_is_its_duration():
    assert spans.self_times([2.0], [5.5], [-1]).tolist() == [3.5]


# -- tracer ------------------------------------------------------------------


def _bindings(colsel) -> dict:
    mods = [colsel.package] + [getattr(colsel, m) for m in worker.MODULES]
    out = {(id(mod), key): value for mod in mods for key, value in vars(mod).items()}
    for mod, cls, meth in spans.METHODS + spans.COUNTED:
        owner = getattr(getattr(colsel, mod), cls)
        out[(id(owner), meth)] = vars(owner)[meth]
    return out


def _tracer(colsel) -> spans.Tracer:
    modules = {"colsel": colsel.package, **{m: getattr(colsel, m) for m in worker.MODULES}}
    return spans.Tracer(modules, colsel.oracle.companion_smallest_root)


def test_tracer_wraps_each_binding_and_restores_it(tmp_path):
    colsel = worker.import_colsel(SRC)
    before = _bindings(colsel)
    tracer = _tracer(colsel)
    tracer.install()
    try:
        for mod, name in [
            (colsel.selector, "smallest_root"),
            (colsel.poly, "smallest_root"),
            (colsel.package, "smallest_root"),
            (colsel.expected_charpoly, "charpoly_psd"),
            (colsel.poly, "count_roots_leq"),
            (colsel.oracle, "pseudoinverse"),
            (colsel.cli, "greedy_select"),
        ]:
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod.__name__, name)
    finally:
        tracer.uninstall()
    assert _bindings(colsel) == before


def test_traced_request_self_times_add_up_to_its_wall_time(tmp_path):
    colsel = worker.import_colsel(SRC)
    runner = Runner(TINY, generate(TINY, 0), colsel, tmp_path)
    tracer = _tracer(colsel)
    tracer.install()
    try:
        t0 = tracer.now()
        with tracer.request_span(0):
            runner.request(0)
        wall = tracer.now() - t0
    finally:
        tracer.uninstall()
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    assert own.min() >= 0.0
    root = tracer.end[0] - tracer.start[0]
    assert own.sum() == pytest.approx(root, rel=1e-9)
    # The rest of the wall time is the root span's own entry and exit.
    assert own.sum() == pytest.approx(wall, rel=1e-2)
    names = {tracer.names[i] for i in tracer.name}
    assert {"request", "selector.greedy_select", "poly.count_roots_leq",
            "expected_charpoly.expected_poly_from_gram", "selector.SelectionProblem"} <= names
    assert tracer.counts["linalg.DenseMatrix"] > 0
    assert len(tracer.root_gaps) == TINY.k * TINY.m - TINY.k * (TINY.k - 1) // 2


def test_span_records_exception_type(tmp_path):
    colsel = worker.import_colsel(SRC)
    tracer = _tracer(colsel)
    tracer.install()
    try:
        with pytest.raises(colsel.package.InvalidInput):
            with tracer.request_span(0):
                colsel.package.gamma(1, 2, 3, 4)
    finally:
        tracer.uninstall()
    errors = {tracer.names[n]: tracer.names[e] for n, e in zip(tracer.name, tracer.error) if e >= 0}
    assert errors == {"selector.gamma": "InvalidInput", "request": "InvalidInput"}


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def no_tracer(*args, **kwargs):
        raise AssertionError("an untraced run built a tracer")

    seen = []
    original_request = Runner.request

    def checked_request(self, idx):
        mods = [self.colsel.package] + [getattr(self.colsel, m) for m in worker.MODULES]
        seen.append(any(hasattr(v, "__wrapped__") for m in mods for v in vars(m).values()))
        return original_request(self, idx)

    monkeypatch.setattr(spans, "Tracer", no_tracer)
    monkeypatch.setattr(Runner, "request", checked_request)
    result = worker.run(TINY, 0, 0.0, False, SRC, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert seen and not any(seen)


# -- checks and determinism ------------------------------------------------


@pytest.mark.parametrize("w", [TINY, TINY_CLI], ids=lambda w: w.name)
def test_check_accepts_real_output_and_rejects_tampering(tmp_path, w):
    colsel = worker.import_colsel(SRC)
    instances = generate(w, 3)
    write_inputs(w, instances, tmp_path)
    out = Runner(w, instances, colsel, tmp_path).request(0)
    assert check(w, *instances[0], out).ok
    payload = json.loads(out)
    key_subset, key_frob = ("greedy_subset", "greedy_frob_sq") if w.via_cli else ("subset", "frob_sq")
    dup = dict(payload, **{key_subset: [payload[key_subset][0]] * w.k})
    assert not check(w, *instances[0], json.dumps(dup).encode()).ok
    off = dict(payload, **{key_frob: payload[key_frob] * 1.01})
    assert not check(w, *instances[0], json.dumps(off).encode()).ok
    assert not check(w, *instances[1], out).ok  # someone else's report
    if w.via_cli:
        worse = dict(payload, best_frob_sq=payload["best_frob_sq"] * 1.5)
        assert not check(w, *instances[0], json.dumps(worse).encode()).ok


def test_nondeterministic_report_counts_as_failure(tmp_path):
    instances = generate(TINY, 0)
    colsel = worker.import_colsel(SRC)
    out = Runner(TINY, instances, colsel, tmp_path).request(1)
    records = [worker.Record(1, 0.1, out, None), worker.Record(1, 0.1, out + b" ", None),
               worker.Record(0, 0.1, None, "AlgorithmFailure: x")]
    store = worker.DigestStore(tmp_path / "d.json")
    passed, good, wrong, failures, _ = worker.evaluate(TINY, instances, records, [], store)
    assert passed == [False, False, False] and wrong and not good
    assert failures == {"nondeterministic report": 2, "AlgorithmFailure": 1}


def test_digest_from_an_earlier_run_must_match(tmp_path):
    instances = generate(TINY, 0)
    colsel = worker.import_colsel(SRC)
    out = Runner(TINY, instances, colsel, tmp_path).request(1)
    records = [worker.Record(1, 0.1, out, None)]
    path = tmp_path / "d.json"
    assert worker.evaluate(TINY, instances, records, [], worker.DigestStore(path))[0] == [True]
    assert worker.evaluate(TINY, instances, records, [], worker.DigestStore(path))[0] == [True]
    path.write_text(json.dumps({"1": "0" * 64}))
    assert worker.evaluate(TINY, instances, records, [], worker.DigestStore(path))[0] == [False]


def test_generation_is_seeded():
    a = generate(TINY, 5)
    b = generate(TINY, 5)
    c = generate(TINY, 6)
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][1], c[0][1])
    # The warm-up instance is the same for every seed and is none of the pool's.
    warm = warmup_instance(TINY)
    assert np.array_equal(warm[1], warmup_instance(TINY)[1])
    assert not any(np.array_equal(warm[1], x[1]) for x in a + c)


def test_warmup_output_is_checked_but_counts_in_no_metric(tmp_path):
    instances = generate(TINY, 0) + [warmup_instance(TINY)]
    runner = Runner(TINY, instances, worker.import_colsel(SRC), tmp_path)
    warm = worker.Record(TINY.pool, 0.1, runner.request(TINY.pool), None)
    records = [worker.Record(0, 0.1, runner.request(0), None)]
    store = worker.DigestStore(tmp_path / "d.json")
    passed, good, wrong, _, _ = worker.evaluate(TINY, instances, records, [warm, warm], store)
    assert passed == [True] and not wrong and set(good) == {0}
    bad = worker.Record(TINY.pool, 0.1, warm.output + b" ", None)
    store = worker.DigestStore(tmp_path / "e.json")
    assert worker.evaluate(TINY, instances, records, [warm, bad], store)[2]


# -- metric lists ----------------------------------------------------------


def test_runs_report_every_metric_benchmark_json_lists(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = results[key] = worker.run(TINY_CLI, 0, 0.0, trace, SRC, tmp_path)
        assert result["correct"] and result["failed"] == 0
        for m in spec[key]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and isinstance(got["value"], float), m["name"]
    assert results["end_to_end"]["attempted"] == TINY_CLI.pool  # one whole pass
    assert results["per_layer"]["metrics"]["oracle.subsets"]["value"] == 35.0  # C(7, 3)


def test_speed_factor_uses_the_median_slice_around_each_request():
    ref = worker.CALIBRATION_REF_S
    slices = [ref, ref, 4 * ref, ref / 2, ref / 2, ref / 2, ref / 2]
    # Window of two either side: one slow outlier does not move the factor.
    assert worker.speed_factors(slices) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]


def test_times_are_scaled_by_the_calibration_factor(tmp_path, monkeypatch):
    # A machine running at exactly half the reference speed.
    monkeypatch.setattr(worker, "calibration_slice", lambda: 2 * worker.CALIBRATION_REF_S)
    result = worker.run(TINY, 0, 0.0, False, SRC, tmp_path)
    raw, metrics = result["raw"], result["metrics"]
    assert result["speed"]["factor"] == 0.5
    assert metrics["setup_s"]["value"] == pytest.approx(raw["setup_s"] / 2)
    assert metrics["ok_req_per_s"]["value"] == pytest.approx(raw["ok_req_per_s"] * 2)
    assert metrics["req_ms_p50"]["value"] == pytest.approx(raw["req_ms_p50"] / 2)
