"""Tests of the benchmark itself: its checks, its tracer and its contract.

    python3 -m pytest -q bench/test_bench.py

They start fdblock CLI processes and a traced pass of every workload, so
they take about a minute; they are not part of the package's test suite.
"""

import json
import os
import shutil
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

FAST_TABLE_JOBS = [job for job in run.TABLES_JOBS if job.name in ("export-wave-d2-n30", "sweep-laplace-d2")]


@pytest.fixture(scope="module")
def env():
    return run.child_env(run.REFERENCE_BLAS_THREADS)


def test_intact_references_pass(env, tmp_path):
    got = run.measure_cli(FAST_TABLE_JOBS, seed=1, seconds=0, trace=0, env=env, work=tmp_path)
    assert got.failures == []
    assert got.attempted == len(FAST_TABLE_JOBS)


def test_corrupted_reference_counts_as_failed(env, tmp_path):
    reference = tmp_path / "reference"
    shutil.copytree(run.REFERENCE_DIR, reference)
    corrupted = reference / "export-wave-d2-n30.txt"
    data = bytearray(corrupted.read_bytes())
    data[len(data) // 2] ^= 1
    corrupted.write_bytes(bytes(data))

    got = run.measure_cli(FAST_TABLE_JOBS, 1, 0, 0, env, tmp_path / "work", reference_dir=reference)
    assert len(got.failures) / got.attempted > 0
    assert got.failures == ["export-wave-d2-n30: output differs from the reference bytes"]


def _job(name):
    return next(job for job in run.TABLES_JOBS + run.VERIFY_JOBS if job.name == name)


def test_table_checks_reject_wrong_tables():
    job = _job("resources-laplace-d2")
    text = (run.REFERENCE_DIR / job.output_name).read_text()
    assert run.check_resources(job, text) is None
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[4] = str(int(fields[4]) + 7)
    lines[5] = ",".join(fields)
    assert "first differences" in run.check_resources(job, "\n".join(lines) + "\n")

    job = _job("sweep-laplace-d1")
    text = (run.REFERENCE_DIR / job.output_name).read_text()
    assert run.check_sweep(job, text) is None
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) * 0.9)  # p_success at the finest n
    lines[-1] = ",".join(fields)
    assert "moves away from 1" in run.check_sweep(job, "\n".join(lines) + "\n")


def test_verify_and_probability_checks():
    job = _job("verify-wave-d2-n4")
    ok = "PASS wave_2d n=4: block deviation 5.551e-17, unitarity residual 4.441e-16, tolerance 1.0e-12\n"
    assert run.check_verify(job, ok) is None
    assert run.check_verify(job, ok.replace("PASS", "FAIL")) is not None
    assert run.check_verify(job, ok.replace("5.551e-17", "2.000e-12")) is not None
    assert run.check_verify(job, ok.replace("n=4", "n=3")) is not None
    assert run.check_probabilities("case", 0.25, 0.25 + 4e-16) is None
    assert run.check_probabilities("case", 0.25, 0.25 + 1e-11) is not None


def test_tracer_wraps_every_lookup_site_and_restores_it():
    import fdblock.analysis
    import fdblock.circuit

    original = fdblock.analysis.unitary
    enc = fdblock.encode_gradient_2d(2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fdblock.analysis.unitary is not original
        fdblock.analysis.verify_pattern(enc, 1e-12)
    finally:
        tracer.uninstall()
    assert fdblock.analysis.unitary is original is fdblock.circuit.unitary
    sites = {span[0] for span in tracer.spans}
    for site in ("apply_to_columns", "unitary", "unitarity_residual", "max_abs_diff", "extract_block"):
        assert f"analysis.{site}" in sites
    window = max(s[4] for s in tracer.spans) - min(s[3] for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans, window, tracer.counters)
    assert metrics["analysis.useful_col_frac"] == 0.5  # gradient: blocks (0,0) and (1,0)
    assert metrics["linalg.residual_flops"] == 8 * 64**3
    assert metrics["unattributed_s"] == pytest.approx(0.0, abs=1e-9)


def test_layer_metrics_account_for_the_window():
    spans = [
        ["cli.main", "cli.main", "cli", 0.0, 4.0, None, None],
        ["analysis.extract_block", "analysis.extract_block", "analysis", 1.0, 3.0, 0, {"col": "a"}],
        ["analysis.apply_to_columns", "circuit.apply_to_columns", "circuit", 1.5, 2.5, 1, {"columns": 4, "updates": 40}],
    ]
    m = tracing.layer_metrics(spans, 5.0, {})
    assert (m["cli.self_s"], m["analysis.self_s"], m["circuit.self_s"]) == (2.0, 1.0, 1.0)
    assert m["unattributed_s"] == 1.0
    assert m["circuit.updates_per_s"] == 40.0
    with pytest.raises(tracing.AccountingError):
        tracing.layer_metrics(spans, 3.0, {})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_fires_every_expected_site(workload, tmp_path):
    threads = run.blas_threads(workload, len(os.sched_getaffinity(0)))
    got = run.measure(workload, seed=3, seconds=0, trace=1, env=run.child_env(threads), work=tmp_path / "w")
    assert got.failures == []
    assert got.layers, "no traced pass"
    metrics = run.per_layer(workload, got)
    assert metrics["trace.missed_sites"]["value"] == 0
    values = {name: metric["value"] for name, metric in metrics.items()}
    if workload == "verify-11q":
        assert values["linalg.residual_s"] > values["circuit.unitary_s"] > values["analysis.extract_s"]
        assert values["analysis.useful_col_frac"] == pytest.approx(11 / 18)
    if workload == "tables-64q":
        layer_times = {name: v for name, v in values.items() if name.endswith("self_s") or name == "setup.import_s"}
        assert max(layer_times, key=layer_times.get) == "setup.import_s"
    else:
        assert values["resources.lower_s"] == 0.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "tables-64q", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
