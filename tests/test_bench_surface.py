"""The fdblock surface that the benchmark in ``bench/`` calls.

The benchmark's worker builds grid functions with the three-argument
``GridFunction``, runs ``success_probability`` by both routes, and its
tracer imports every layer module (``fdblock.linalg`` among them) and
patches ``resources._Lowering.lower``.  These tests run the worker in
process, so a change to that surface fails here and not only in the
benchmark.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's worker and tracing modules, imported from bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as checked in
    return importlib.import_module("worker"), importlib.import_module("tracing")


def _patchable(tracing):
    """Every attribute a Tracer may replace, with the object it holds now."""
    held = {}
    for name in tracing.NAMESPACES:
        namespace = importlib.import_module(name)
        held.update({(name, attr): value for attr, value in vars(namespace).items()})
    lowering = importlib.import_module("fdblock.resources")._Lowering
    held["_Lowering", "lower"] = vars(lowering)["lower"]
    return held


def test_traced_simulate_pass_agrees_and_restores_every_attribute(bench):
    import fdblock

    worker, tracing = bench
    # A package name read for the first time inside a traced section
    # would be cached as the tracer's wrapper, which uninstall does not
    # know of; resolving every name first keeps the comparison whole.
    for name in fdblock.__all__:
        getattr(fdblock, name)
    before = _patchable(tracing)
    result = worker.simulate_pass(np.random.default_rng(1), tracing.Tracer())
    pairs = result["pairs"]
    assert len(pairs) == len(worker.SIM_CASES) * worker.VECTORS_PER_CASE == 36
    for label, p_circuit, p_matrix in pairs:
        assert abs(p_circuit - p_matrix) <= 1e-12, label
    assert result["spans"]
    after = _patchable(tracing)
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def test_cli_job_runs_resources_under_the_tracer(bench, tmp_path, capsys):
    worker, _ = bench
    spans = tmp_path / "spans.json"
    assert worker.cli_job(spans, ["resources", "--op", "wave", "--n", "2..4"]) == 0
    reference = (BENCH / "reference" / "resources-wave-d2.csv").read_text()
    assert capsys.readouterr().out == "".join(reference.splitlines(True)[:4])
    assert json.loads(spans.read_text())["spans"]
