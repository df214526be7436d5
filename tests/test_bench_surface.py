"""The fdblock surface that the benchmark in ``bench/`` calls.

The benchmark's worker builds grid functions with the three-argument
``GridFunction``, runs ``success_probability`` by both routes, and its
tracer imports every layer module (``fdblock.linalg`` among them) and
patches ``resources._Lowering.lower``.  These tests run the worker in
process, so a change to that surface fails here and not only in the
benchmark.  The benchmark's tables-64q jobs, ``run.TABLES_JOBS``, are
the paper's tables: one test reruns them and compares every output
with its file in ``bench/reference/``, byte for byte.  The sizes that
the benchmark writes by hand, its simulate cases and the tops of its
resources ranges, must be the widest builds under the caps.
"""

import importlib
import json
import subprocess
import sys

import numpy as np

from fdblock.encodings import MAX_BUILD_QUBITS
from fdblock.operators import VECTOR_DIM_CAP

from .oracles import EXHAUSTIVE_QUBITS, widest_builds

# Runs each argv of the JSON list in argv[1] through the CLI, in order,
# and exits nonzero naming every job that did not exit 0.
RUN_JOBS = """
import json, sys
from fdblock.cli import main
failed = [(argv, code) for argv in json.loads(sys.argv[1]) if (code := main(argv)) != 0]
sys.exit(f"jobs that did not exit 0: {failed}" if failed else 0)
"""


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

    worker, tracing, _ = bench
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
    worker, _, run = bench
    spans = tmp_path / "spans.json"
    assert worker.cli_job(spans, ["resources", "--op", "wave", "--n", "2..4"]) == 0
    reference = (run.REFERENCE_DIR / "resources-wave-d2.csv").read_text()
    assert capsys.readouterr().out == "".join(reference.splitlines(True)[:4])
    assert json.loads(spans.read_text())["spans"]


def test_tables_jobs_reproduce_every_reference_output(bench, tmp_path):
    _, _, run = bench
    names = [job.output_name for job in run.TABLES_JOBS]
    # one job per reference file, and no file without its job
    assert sorted(names) == sorted(path.name for path in run.REFERENCE_DIR.iterdir())
    # The sweeps' last digits hold only at the BLAS thread count that the
    # references were captured with, so the jobs run in one child pinned
    # to it, as the benchmark's tables-64q runs them.
    argvs = [job.argv(tmp_path / name) for job, name in zip(run.TABLES_JOBS, names)]
    env = run.child_env(run.REFERENCE_BLAS_THREADS) | {"PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, "-c", RUN_JOBS, json.dumps(argvs)], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0, child.stderr
    differ = [
        name
        for name in names
        if (tmp_path / name).read_bytes() != (run.REFERENCE_DIR / name).read_bytes()
    ]
    assert differ == []


def test_bench_sizes_are_the_widest_builds(bench):
    worker, _, run = bench
    # simulate-18q: every build at its widest grid function within the 18-qubit cap
    assert sorted(worker.SIM_CASES) == sorted(widest_builds(EXHAUSTIVE_QUBITS, VECTOR_DIM_CAP))
    # the resources tables run every build up to the 64-qubit build cap
    resources = [job for job in run.TABLES_JOBS if job.command == "resources"]
    tops = [(job.op, job.dim, job.n_values[-1]) for job in resources]
    assert sorted(tops) == sorted(widest_builds(MAX_BUILD_QUBITS))
