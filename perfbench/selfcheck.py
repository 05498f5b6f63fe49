"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these tests out of the repository's default pytest
collection (test_*.py); they take about a minute.
"""

from __future__ import annotations

import statistics
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SEEDS = (1, 2)


def statuses(workload, requests):
    return [(req.label, workload.check(req, workload.execute(req))) for req in requests]


@pytest.fixture(scope="module")
def cert_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cert")
    W.prepare_inputs(W.CertReplay.name, ROOT, workdir)
    return workdir


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_instances_are_refuted_or_undecided(seed):
    pg = W.PgSearch(seed, None, ROOT)
    planted = [req for req in pg.round(0) if req.label == "planted"]
    assert len(planted) == len(W.PLANTED)
    got = statuses(pg, planted)
    assert all(s in (W.OK, W.UNDECIDED) for _, s in got), got


def test_small_order_catalog_verdicts_match_the_tests():
    pg = W.PgSearch(SEEDS[0], None, ROOT)
    small = [req for req in pg.round(0) if req.label != "planted" and req.call[1] <= 3]
    got = statuses(pg, small)
    assert all(s in (W.OK, W.UNDECIDED) for _, s in got), got
    decided = {label for label, s in got if s == W.OK}
    assert {"fano", "warm-up", "line-count-2", "hexagon", "desargues", "nine-gon"} <= decided


def test_known_answers_are_sourced_not_solved():
    assert W.search_answer("fano", 2) == (W.COUNTEREXAMPLE,)
    assert W.search_answer("fano", 5) == (W.TRUE,)
    assert W.search_answer("line-count-2", 4) == (W.COUNTEREXAMPLE,)
    assert W.search_answer("nine-gon", 4) == (W.COUNTEREXAMPLE,)
    assert W.search_answer("non-grope", 5) == (W.COUNTEREXAMPLE,)
    assert W.search_answer("would-be-hexagon", 3) is None


@pytest.mark.parametrize("seed", SEEDS)
def test_cert_replay_answers_hold(seed, cert_dir):
    cert = W.CertReplay(seed, cert_dir, ROOT)
    for r in (0, 1):
        got = statuses(cert, cert.round(r))
        assert [s for _, s in got] == [W.OK] * len(W.CERT_MIX), got


@pytest.mark.parametrize("seed", SEEDS)
def test_grope_excision_answers_hold(seed):
    gx = W.GropeExcision(seed, None, ROOT)
    requests = gx.round(0)
    got = statuses(gx, requests)
    assert [s for _, s in got] == [W.OK] * len(W.GROPE_MIX), got
    for req, slot in zip(requests, W.GROPE_MIX):
        K = gx._build(slot, req.call[1], req.call[3], req.call[4])
        assert len(K.faces) == slot.faces


def test_wrong_answers_are_caught(cert_dir):
    from tilingcalc.excision import Cochain

    gx = W.GropeExcision(SEEDS[0], None, ROOT)
    sharp = next(req for req in gx.round(0) if req.expect == "sharp")
    K, first, second, (face, cochain) = gx.execute(sharp)
    forged = Cochain(cochain.modulus, tuple(0 for _ in cochain.values))
    assert gx.check(sharp, (K, first, second, (face, forged))) == W.WRONG
    assert gx.check(sharp, (K, first, [True] * len(second), None)) == W.WRONG

    cert = W.CertReplay(SEEDS[0], cert_dir, ROOT)
    req = cert.round(0)[0]
    code, text = cert.execute(req)
    assert cert.check(req, (1, text)) == W.WRONG
    assert cert.check(req, (3, text)) == W.EXIT_CONTRACT

    pg = W.PgSearch(SEEDS[0], None, ROOT)
    req = next(r for r in pg.round(0) if r.label == "fano" and r.call[1] == 2)
    verdict = pg.execute(req)
    assert pg.check(req, verdict) == W.OK
    from dataclasses import replace

    assert pg.check(req, replace(verdict, outcome=W.TRUE, counterexample=None)) == W.WRONG


def traced(workload, requests):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        results = []
        for i, req in enumerate(requests):
            tracer.request = i
            results.append(workload.execute(req))
    finally:
        tracer.uninstall()
    return tracer, results


def test_tracer_restores_every_patched_name():
    import importlib

    before = []
    for module, path, _, _ in tracing.PATCHES:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        before.append((owner, attr, owner.__dict__[attr]))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


def test_search_counters_are_consistent():
    pg = W.PgSearch(SEEDS[0], None, ROOT)
    picked = [r for r in pg.round(0) if r.call[1] in (2, 3)][:30]
    tracer, verdicts = traced(pg, picked)
    totals = tracing.layer_totals(tracer.spans)
    undecided = sum(v.outcome == W.RESOURCE_EXCEEDED for v in verdicts)
    assert undecided > 0
    assert totals["search.undecided"] == undecided
    assert totals["search.nodes"] == sum(v.stats.nodes_expanded for v in verdicts)
    assert totals["search.check.calls"] == len(picked)
    assert "excision.decide.calls" not in totals and "ternary.propagate.calls" not in totals
    metrics = tracing.per_layer_metrics(totals, len(picked))
    assert metrics["search.nodes"][0] == pytest.approx(totals["search.nodes"] / len(picked))
    assert metrics["excision.decisions"][0] == 0


def test_excision_counters_are_consistent(cert_dir):
    gx = W.GropeExcision(SEEDS[1], None, ROOT)
    tracer, _ = traced(gx, gx.round(0))
    t = tracing.layer_totals(tracer.spans)
    assert t["excision.snf.calls"] <= t["excision.decide.calls"] + t["excision.witness.calls"]
    assert t["excision.cache_hits"] >= t["excision.decide.calls"] / 2  # the second group
    assert "search.check.calls" not in t and "ternary.pattern.calls" not in t
    assert t["gropes.grope_glue.calls"] > 0

    cert = W.CertReplay(SEEDS[1], cert_dir, ROOT)
    tracer, _ = traced(cert, cert.round(5))  # a round no other test replays
    t = tracing.layer_totals(tracer.spans)
    assert t["excision.snf.calls"] <= t["excision.decide.calls"] + t["excision.witness.calls"]
    assert t.get("excision.cache_hits", 0) == 0  # every complex is new
    assert t["certificates.walk.calls"] == 13  # the prove-validate requests
    assert t["ternary.pattern_in_propagate"] <= t["ternary.pattern.calls"]
    assert "search.check.calls" not in t


def test_spans_nest_and_self_time_is_not_negative(cert_dir):
    cert = W.CertReplay(SEEDS[0], cert_dir, ROOT)
    tracer, _ = traced(cert, cert.round(1)[:4])
    spans = tracer.spans
    for span in spans:
        parent = span[tracing.PARENT]
        if parent >= 0:
            assert spans[parent][tracing.START] <= span[tracing.START]
            assert span[tracing.END] <= spans[parent][tracing.END]
            assert spans[parent][tracing.REQUEST] == span[tracing.REQUEST]
    t = tracing.layer_totals(spans)
    assert all(v >= 0 for k, v in t.items() if k.endswith(".self"))


def test_every_run_has_ten_samples_beyond_p90(cert_dir):
    import worker

    cert = W.CertReplay(SEEDS[0], cert_dir, ROOT)
    args = Namespace(seconds=0.0, deadline=120.0)
    result = worker.run_loop(cert, args, None)
    result.update(peak_rss_mb=1.0)
    n = len(result["latencies_ms"])
    assert n >= worker.MIN_REQUESTS
    assert len(result["calibrations_ms"]) == n
    summary = run.summarize(result)
    assert summary["correct"]
    metrics = run.end_to_end(result, [{"setup_s": 0.1, "calibration_ms": 2.0}], summary)
    lat = run.scaled_latencies(result)
    p90 = metrics["latency_p90_ms"][0]
    assert sum(x > p90 for x in lat) >= 10
    assert metrics["decided_ratio"][0] == 1.0
    assert metrics["throughput_rps"][0] == pytest.approx(1000.0 * n / sum(lat))
    assert metrics["latency_p50_ms"][0] == statistics.median(lat)
    assert metrics["setup_s"][0] == pytest.approx(0.1 * run.CALIBRATION_REF_MS / 2.0)


def test_speed_scaling_cancels_a_uniformly_slower_machine():
    result = {
        "latencies_ms": [float(1 + i % 17) for i in range(200)],
        "calibrations_ms": [1.0 + 0.01 * (i % 5) for i in range(200)],
        "peak_rss_mb": 1.0,
    }
    slow = dict(result)
    slow["latencies_ms"] = [1.3 * x for x in result["latencies_ms"]]
    slow["calibrations_ms"] = [1.3 * x for x in result["calibrations_ms"]]
    summary = {"counts": {W.OK: 200}}
    setups = [{"setup_s": 0.1, "calibration_ms": 1.0}]
    fast_m = run.end_to_end(result, setups, summary)
    slow_m = run.end_to_end(slow, setups, summary)
    for key in ("throughput_rps", "latency_p50_ms", "latency_p90_ms"):
        assert slow_m[key][0] == pytest.approx(fast_m[key][0])
    assert run.speed_factors([2.0] * 5) == [run.CALIBRATION_REF_MS / 2.0] * 5


def test_traced_run_alternates_rounds(cert_dir, tmp_path):
    import json

    import worker

    cert = W.CertReplay(SEEDS[1], cert_dir, ROOT)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = worker.run_loop(cert, Namespace(seconds=0.0, deadline=120.0), tracer)
    finally:
        tracer.uninstall()
    assert result["rounds"] % 2 == 0
    traced = result["traced"]
    assert 2 * sum(traced) == len(traced)
    assert {span[tracing.REQUEST] for span in tracer.spans} <= {
        i for i, t in enumerate(traced) if t
    }
    spans_file = tmp_path / "spans.json"
    spans_file.write_text(json.dumps(tracer.spans))
    result.update(spans_file=str(spans_file), peak_rss_mb=1.0)
    setups = [{"import_ms": 50.0, "setup_s": 0.1, "calibration_ms": run.CALIBRATION_REF_MS}]
    metrics = run.per_layer(result, setups)
    assert metrics["cli.import_ms"][0] == pytest.approx(50.0)
    assert metrics["certificates.leaves"][0] > 0
    assert metrics["search.nodes"][0] == 0
    assert -0.5 < metrics["trace.overhead_ratio"][0] < 0.5


def test_raising_and_wrong_requests_fail_the_run():
    import worker

    class Flaky:
        def round(self, r):
            return [W.Request(f"r{r}-{i}", i, None) for i in range(60)]

        def execute(self, req):
            if req.call == 7:
                raise ValueError("boom")
            return req.call

        def check(self, req, raw):
            return W.WRONG if raw == 8 else W.OK

    result = worker.run_loop(Flaky(), Namespace(seconds=0.0, deadline=120.0), None)
    summary = run.summarize(result)
    assert summary["attempted"] == 120
    assert summary["counts"] == {W.OK: 116, W.RAISED: 2, W.WRONG: 2}
    assert summary["failed"] == 4 and not summary["correct"]
    assert any("boom" in e for e in result["errors"])
