"""Child processes of the benchmark; bench/run.py starts them.

    worker.py probe
        print the environment block as JSON
    worker.py cli-job SPANS_JSON -- ARGV...
        run ``fdblock.cli.main(ARGV)`` in this process under the tracer,
        with the exit code and standard output of the CLI, and write the
        spans to SPANS_JSON
    worker.py simulate SEED SECONDS TRACE RESULT_JSON
        run simulate-18q passes for SECONDS (at least one), drawing the
        input vectors from SEED; with TRACE=1 untraced and traced passes
        alternate

Every mode imports fdblock first, so the time from spawn to the end of
that import is the set-up the traced run charges to the ``setup`` layer.
"""

import time
import sys

import fdblock  # noqa: E402  (timed: set-up ends here)

IMPORT_END = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

# simulate-18q cases: (op, D, n), each 16-18 qubits and at most 2**16 grid points.
SIM_CASES = (
    ("laplace", 1, 16),
    ("laplace", 2, 7),
    ("laplace", 3, 4),
    ("laplace", 4, 3),
    ("lcu", 1, 15),
    ("derivative", 1, 16),
    ("gradient", 2, 8),
    ("divergence", 2, 8),
    ("wave", 2, 7),
)
VECTORS_PER_CASE = 4

_BUILDERS = {
    "lcu": "encode_laplace_1d_lcu",
    "derivative": "encode_derivative_1d",
    "gradient": "encode_gradient_2d",
    "divergence": "encode_divergence_2d",
    "wave": "encode_wave_2d",
}


def _build(op, dim, n):
    # Looked up on the package at call time, so the tracer's wrappers see it.
    if op == "laplace":
        return fdblock.encode_laplace_dd(dim, n)
    return getattr(fdblock, _BUILDERS[op])(n)


def _unit_vectors(rng, size):
    vectors = []
    for _ in range(VECTORS_PER_CASE):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        vectors.append(z / np.linalg.norm(z))
    return vectors


def simulate_pass(rng, tracer=None):
    """One pass over SIM_CASES; only fdblock calls fall in the timed sections."""
    result = {"wall": 0.0, "latencies": [], "pairs": []}
    for op, dim, n in SIM_CASES:
        spec = fdblock.GridSpec(dim, n)
        vectors = _unit_vectors(rng, spec.npoints)
        if tracer is not None:
            tracer.install()
        start = time.monotonic()
        enc = _build(op, dim, n)
        for values in vectors:
            grid = fdblock.GridFunction(spec, values, 1.0)
            t0 = time.monotonic()
            p_circuit = fdblock.success_probability(enc, grid, route="circuit")
            result["latencies"].append(time.monotonic() - t0)
            p_matrix = fdblock.success_probability(enc, grid, route="matrix")
            result["pairs"].append([f"{op} D={dim} n={n}", p_circuit, p_matrix])
        result["wall"] += time.monotonic() - start
        if tracer is not None:
            tracer.uninstall()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    return result


def simulate(seed, seconds, trace, out_path):
    import tracing

    rng = np.random.default_rng(seed)
    passes = []
    start = time.monotonic()
    traced = False
    while len(passes) < 1 + trace or time.monotonic() - start < seconds:
        passes.append(simulate_pass(rng, tracing.Tracer() if traced else None))
        traced = bool(trace) and not traced
    with open(out_path, "w") as handle:
        json.dump({"import_end": IMPORT_END, "passes": passes}, handle)


def cli_job(spans_path, argv):
    import contextlib
    import io

    import fdblock.cli

    import_end = time.monotonic()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = fdblock.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as handle:
        json.dump({"import_end": import_end, "spans": tracer.spans, "counters": tracer.counters}, handle)
    sys.stdout.write(captured.getvalue())
    return code


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def probe():
    import os
    import platform

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": blas.get("name"),
                "blas_version": blas.get("version"),
                "blas_threads": _blas_threads(),
                "nproc": len(os.sched_getaffinity(0)),
                "fdblock_file": fdblock.__file__,
            }
        )
    )


def main(argv):
    mode = argv[0]
    if mode == "probe":
        probe()
        return 0
    if mode == "cli-job":
        return cli_job(argv[1], argv[3:])
    if mode == "simulate":
        simulate(int(argv[1]), float(argv[2]), int(argv[3]), argv[4])
        return 0
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
