"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench
"""
import json
import multiprocessing
import os
import random
import time

import pytest

import run
import workloads
from metrics import layer_metrics, self_time, sha256_bytes, sha256_file, strip_timings, tail
from probe import NOMINAL_S, Probe, nominal_seconds
from tracer import Tracer, install
from workloads import BATTERY, Workload

workloads._import_grothpoly()
from grothpoly import cache, cli  # noqa: E402

SMALL = Workload("sweep-n4-battery", 4, BATTERY, 1, True, 24 * len(BATTERY), 2)


def test_tail_is_eleventh_slowest():
    for size in (11, 720, 5040):
        samples = list(range(size))
        random.Random(size).shuffle(samples)
        assert tail(samples) == size - 11
        assert sum(1 for s in samples if s > tail(samples)) == 10
    with pytest.raises(ValueError):
        tail(range(10))


def _span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "run": "r"}


def test_self_time_subtracts_only_child_coverage():
    parent = _span("p", 0.0, 10.0)
    # Overlapping children (two workers) count once; the gaps stay.
    children = [_span("a", 1.0, 3.0), _span("b", 2.0, 5.0), _span("c", 7.0, 8.0)]
    assert self_time(parent, children) == pytest.approx(5.0)
    # A child running past the parent's end counts only inside it.
    assert self_time(parent, [_span("d", 9.0, 12.0)]) == pytest.approx(9.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_sweep_time_removes_only_cache_and_oracle_children():
    run_span = dict(_span("r", 0.0, 10.0, name="cli.run"), attrs={"jobs": 2, "pass": 1, "fail": 0, "skip": 0})
    spans = [
        run_span,
        dict(_span("l", 0.0, 2.0, "r", "cache.load_or_build"), attrs={"hit": True}),
        dict(_span("o", 2.0, 3.0, "r", "pipedreams.pd_polynomial_all"), attrs={"tag": "schubert", "subsets": 8}),
        _span("w1", 3.0, 9.0, "r", "cli._check_one"),
        _span("w2", 3.0, 9.0, "r", "cli._check_one"),
    ]
    metrics = layer_metrics(spans, {})
    assert metrics["cli.sweep.s"][0] == pytest.approx(7.0)
    assert metrics["cli.parallel_efficiency"][0] == pytest.approx(12.0 / (2 * 7.0))
    assert metrics["cache.hits"][0] == 1
    assert metrics["pipedreams.subsets"][0] == 8


def _steady(start, end, ref, step=0.1):
    """Probe samples every `step` s over [start, end), each taking `ref`."""
    count = int((end - start) / step)
    return [(start + k * step, ref) for k in range(count)]


def test_nominal_seconds_rescales_by_reference_speed():
    assert nominal_seconds(0.0, 10.0, _steady(0.0, 10.0, NOMINAL_S)) == pytest.approx(10.0)
    # Half speed: the interval would take half as long at nominal speed.
    assert nominal_seconds(0.0, 10.0, _steady(0.0, 10.0, 2 * NOMINAL_S)) == pytest.approx(5.0)
    # Slow first half, nominal second half.
    samples = _steady(0.0, 5.0, 2 * NOMINAL_S) + _steady(5.0, 10.0, NOMINAL_S)
    assert nominal_seconds(0.0, 10.0, samples) == pytest.approx(7.5)
    # No sample at all: the wall time stands.
    assert nominal_seconds(0.0, 0.04, []) == pytest.approx(0.04)


def test_nominal_seconds_prefers_workers_and_carries_gaps():
    main = _steady(0.0, 10.0, 4 * NOMINAL_S)
    # Two workers over [2, 8): one at nominal speed, one at half speed.
    workers = [_steady(2.0, 8.0, NOMINAL_S), _steady(2.0, 8.0, 2 * NOMINAL_S)]
    expected = 4 * 0.25 + 6 * 0.75
    assert nominal_seconds(0.0, 10.0, main, workers) == pytest.approx(expected)
    # A gap in the samples keeps the factor of the bin before it.
    gappy = _steady(0.0, 2.0, 2 * NOMINAL_S) + _steady(6.0, 10.0, NOMINAL_S)
    assert nominal_seconds(0.0, 10.0, gappy) == pytest.approx(6 * 0.5 + 4 * 1.0)


def _spin(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_probe_samples_forked_workers(tmp_path):
    probe = Probe(str(tmp_path / "sink"))

    def work():
        child = multiprocessing.get_context("fork").Process(target=_spin, args=(0.5,))
        child.start()
        _spin(0.3)
        child.join(timeout=30)
        assert not child.is_alive()
        return child.exitcode

    exitcode, wall, nominal, samples = probe.measure(work)
    workers = probe.worker_samples()
    assert exitcode == 0
    assert len(workers) == 1 and len(workers[0]) >= 3
    assert len(probe.samples) >= 2
    assert samples == len(probe.samples) + len(workers[0])
    assert 0 < nominal and wall >= 0.5


@pytest.fixture
def warm(tmp_path):
    """An n=4 warm cache and the digests of its files and battery report."""
    work = str(tmp_path)
    assert cli.main(["--n", "4", "--mode", "cache", "--cache-dir", work]) == 0
    report, status = cli.run(cli.RunConfig(n=4, checks=BATTERY))
    assert status == 0
    digests = {f"n4_{f}": sha256_file(cache.cache_path(work, 4, f)) for f in "SG"}
    digests[SMALL.name] = sha256_bytes(cli.render(report, "json").encode())
    return work, digests


def test_gate_passes_on_the_untouched_program(warm):
    work, digests = warm
    assert workloads._cache_ok(4, work, digests)
    out = workloads.timed(SMALL, work, digests)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == SMALL.operations
    assert len(out["perm_seconds"]) == 24
    assert out["nominal_s"] > 0


def test_corrupted_cache_line_trips_gate(warm):
    work, digests = warm
    path = cache.cache_path(work, 4, "G")
    with open(path) as fh:
        lines = fh.read().splitlines()
    # Flip one coefficient's sign: the file still parses, but the bytes,
    # the polynomials and hence the report all change.
    lines[5] = lines[5].replace("|1:", "|-1:", 1) if "|1:" in lines[5] else lines[5].replace("|-1:", "|1:", 1)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert not workloads._cache_ok(4, work, digests)
    out = workloads.timed(SMALL, work, digests)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == SMALL.operations


def test_corrupted_report_byte_trips_gate(warm, monkeypatch):
    work, digests = warm
    render = cli.render

    def corrupt(report, fmt):
        text = render(report, fmt)
        return text[:100] + ("x" if text[100] != "x" else "y") + text[101:]

    monkeypatch.setattr(cli, "render", corrupt)
    out = workloads.timed(SMALL, work, digests)
    assert not out["correct"]
    assert out["failed"] == out["attempted"]


def test_failed_phase_fails_every_operation(monkeypatch, capsys):
    def fail(self, phase, data_dir, trace_id=None):
        raise run.PhaseFailed("boom")

    monkeypatch.setattr(run.Runner, "phase", fail)
    status = run.main(["--workload", "sweep-n6-all", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 720 * 12


def _traced_sweep(work, jobs):
    tracer = Tracer("test")
    install(tracer)
    try:
        report, status = cli.run(cli.RunConfig(n=4, checks=("conj1", "mobius"), jobs=jobs, cache_dir=work))
        text = cli.render(report, "json")
    finally:
        tracer.uninstall()
    return tracer, text


def test_tracer_collects_worker_spans_and_keeps_report(warm):
    work, _ = warm
    plain, _ = cli.run(cli.RunConfig(n=4, checks=("conj1", "mobius"), jobs=2, cache_dir=work))
    tracer, text = _traced_sweep(work, jobs=2)
    assert text == cli.render(plain, "json")
    assert "_spans" not in text
    run_span = next(s for s in tracer.spans if s["name"] == "cli.run")
    per_perm = [s for s in tracer.spans if s["name"] == "cli._check_one"]
    assert len(per_perm) == 24
    assert all(s["parent"] == run_span["id"] for s in per_perm)
    assert {s["id"].split(".")[0] for s in per_perm} - {str(os.getpid())}
    metrics = layer_metrics(tracer.spans, {})
    assert metrics["cli.check_pairs.pass"][0] + metrics["cli.check_pairs.skip"][0] == 48
    assert metrics["cache.hits"][0] == 2


def test_counts_repeat_exactly(warm):
    work, _ = warm
    counts = []
    for _ in range(2):
        tracer, _ = _traced_sweep(work, jobs=1)
        metrics = layer_metrics(tracer.spans, {})
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["posets.Pw_elements"] > 0


def test_strip_timings_matches_untimed_report(warm):
    work, digests = warm
    timed_report, _ = cli.run(cli.RunConfig(n=4, checks=BATTERY, cache_dir=work, timings=True))
    gated = cli.render(strip_timings(timed_report), "json").encode()
    assert sha256_bytes(gated) == digests[SMALL.name]
