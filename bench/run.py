#!/usr/bin/env python3
"""fdblock benchmark: workloads verify-11q, simulate-18q and tables-64q.

Each workload drives fdblock through its public surface -- the CLI in
subprocesses, or public functions in one worker process -- checks every
output, and prints its metrics by name with their units.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload verify-11q --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --out base.json
    python3 bench/run.py --workload all --seed 1 --compare base.json

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).
With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones from the traced passes (see tracing.py).  The
load is a closed loop: one client runs one job at a time.  See
bench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORKER = BENCH_DIR / "worker.py"

COLD_STARTS = 9
JOB_TIMEOUT_S = 150.0
TOL = 1e-12
# |p_success/p_predicted - 1| at the finest n of each sweep; measured 0.0254 at most.
SWEEP_FINEST_DEV = 0.03
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Sweep CSV bytes depend on the BLAS thread count (the norm of a 2**16-point
# grid is reduced per thread), so tables-64q runs with the single thread its
# reference outputs were captured with.  The other workloads use every core:
# the verify-11q unitarity residual is a BLAS matmul.
REFERENCE_BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed worker)."""


@dataclass(frozen=True)
class Job:
    """One fdblock CLI invocation and what its output must satisfy."""

    name: str
    command: str  # verify | resources | sweep | export
    op: str
    dim: int
    n_values: tuple[int, ...]
    family: str | None = None

    @property
    def output_name(self) -> str | None:
        if self.command == "verify":
            return None
        return f"{self.name}.{'txt' if self.command == 'export' else 'csv'}"

    def argv(self, out_path: Path | None) -> list[str]:
        argv = [self.command, "--op", self.op]
        if self.op == "laplace":
            argv += ["--dim", str(self.dim)]
        lo, hi = self.n_values[0], self.n_values[-1]
        argv += ["--n", str(lo) if lo == hi else f"{lo}..{hi}"]
        if self.family:
            argv += ["--family", self.family]
        if self.command == "verify":
            argv += ["--tol", repr(TOL)]
        if out_path is not None:
            argv += ["--out", str(out_path)]
        return argv


def _ns(lo, hi):
    return tuple(range(lo, hi + 1))


# Largest size of each op whose verify job stays under about 2 s: 10-11 qubits.
VERIFY_JOBS = tuple(
    Job(f"verify-{op}-d{dim}-n{n}", "verify", op, dim, (n,))
    for op, dim, n in (
        ("laplace", 1, 9),
        ("laplace", 2, 4),
        ("laplace", 3, 2),
        ("lcu", 1, 8),
        ("derivative", 1, 10),
        ("gradient", 2, 4),
        ("divergence", 2, 4),
        ("wave", 2, 4),
    )
)

# The paper's tables: resources up to the 64-qubit build cap, sweeps, exports.
TABLES_JOBS = (
    *(
        Job(f"resources-{op}-d{dim}", "resources", op, dim, _ns(2, hi))
        for op, dim, hi in (
            ("laplace", 1, 62),
            ("laplace", 2, 30),
            ("laplace", 3, 20),
            ("laplace", 4, 15),
            ("lcu", 1, 61),
            ("derivative", 1, 63),
            ("gradient", 2, 31),
            ("divergence", 2, 31),
            ("wave", 2, 30),
        )
    ),
    *(
        Job(f"sweep-laplace-d{dim}", "sweep", "laplace", dim, _ns(lo, hi))
        for dim, lo, hi in ((1, 3, 16), (2, 1, 8), (3, 1, 5), (4, 1, 4))
    ),
    Job("sweep-lcu-d1", "sweep", "lcu", 1, _ns(3, 16), family="cos3"),
    Job("export-laplace-d3-n20", "export", "laplace", 3, (20,)),
    Job("export-wave-d2-n30", "export", "wave", 2, (30,)),
)

CLI_WORKLOADS = {"verify-11q": VERIFY_JOBS, "tables-64q": TABLES_JOBS}
WORKLOADS = ("verify-11q", "simulate-18q", "tables-64q")

# Shifted grid axes per op: each adds 42 T per extra qubit of n.
_SHIFTED_AXES = {"lcu": 1, "derivative": 1, "gradient": 2, "divergence": 2, "wave": 2}

_PASS_LINE = re.compile(
    r"PASS (?P<label>.+): block deviation (?P<dev>\S+), "
    r"unitarity residual (?P<res>\S+), tolerance (?P<tol>\S+)"
)


# ----------------------------------------------------------------- checks


def check_verify(job: Job, stdout: str) -> str | None:
    match = _PASS_LINE.fullmatch(stdout.strip())
    if match is None:
        return f"no PASS line in {stdout.strip()[:200]!r}"
    if f"n={job.n_values[0]}" not in match["label"].split():
        return f"label {match['label']!r} does not name n={job.n_values[0]}"
    dev, res = float(match["dev"]), float(match["res"])
    if not (dev <= TOL and res <= TOL):
        return f"deviation {dev:.3e} / residual {res:.3e} above {TOL:.0e}"
    return None


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_resources(job: Job, text: str) -> str | None:
    rows = _csv_rows(text)
    if tuple(int(r["n"]) for r in rows) != job.n_values:
        return "n column does not match the requested range"
    if any(r["builder"] != job.op or int(r["D"]) != job.dim for r in rows):
        return "builder/D columns do not match the job"
    step = 42 * (job.dim if job.op == "laplace" else _SHIFTED_AXES[job.op])
    t_counts = [int(r["t_count"]) for r in rows]
    steps = {b - a for a, b in zip(t_counts, t_counts[1:])}
    if steps != {step}:
        return f"t_count first differences {sorted(steps)} != {{{step}}}"
    return None


def check_sweep(job: Job, text: str) -> str | None:
    rows = _csv_rows(text)
    if tuple(int(r["n"]) for r in rows) != job.n_values:
        return "n column does not match the requested range"
    devs = [abs(float(r["p_success"]) / float(r["p_predicted"]) - 1.0) for r in rows]
    for n, before, after in zip(job.n_values[1:], devs, devs[1:]):
        if after > before + 1e-9:
            return f"p_success/p_predicted moves away from 1 at n={n}"
    if devs[-1] > SWEEP_FINEST_DEV:
        return f"p_success/p_predicted is {1 - devs[-1]:.4f} at the finest n"
    return None


TABLE_CHECKS = {"resources": check_resources, "sweep": check_sweep}


@dataclass
class JobRun:
    job: Job
    t_spawn: float
    t_exit: float
    code: int
    rss_kb: int
    stdout: str
    stderr: str
    out_path: Path | None
    spans_path: Path | None

    @property
    def wall(self) -> float:
        return self.t_exit - self.t_spawn


def check_job(run: JobRun, reference_dir: Path) -> str | None:
    """Why the job's output is wrong, or None when every check passes."""
    job = run.job
    if run.code != 0:
        return f"exit code {run.code}: {run.stderr.strip()[-300:]}"
    if job.command == "verify":
        return check_verify(job, run.stdout)
    try:
        data = run.out_path.read_bytes()
    except OSError as exc:
        return f"no output file: {exc}"
    try:
        reference = (reference_dir / job.output_name).read_bytes()
    except OSError as exc:
        return f"no reference output: {exc}"
    if data != reference:
        return "output differs from the reference bytes"
    table_check = TABLE_CHECKS.get(job.command)
    return table_check(job, data.decode()) if table_check else None


def check_probabilities(case: str, p_circuit: float, p_matrix: float) -> str | None:
    if abs(p_circuit - p_matrix) > TOL:
        return f"{case}: circuit {p_circuit!r} vs matrix {p_matrix!r}"
    if not 0.0 <= p_circuit <= 1.0 + TOL:
        return f"{case}: probability {p_circuit!r} outside [0, 1]"
    return None


# --------------------------------------------------------------- processes


def _wait(proc: subprocess.Popen) -> tuple[int, int]:
    """Reap proc with its own rusage; (exit code, max RSS in KB)."""
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def spawn(cmd: list[str], env: dict[str, str], log_stem: Path):
    """Run cmd to completion: (t_spawn, t_exit, code, rss_kb, stdout, stderr).

    Output goes to files, not pipes, so a chatty child cannot block.
    """
    out_log, err_log = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_log, "wb") as out, open(err_log, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        code, rss_kb = _wait(proc)
        t_exit = time.monotonic()
    return t_spawn, t_exit, code, rss_kb, out_log.read_text(), err_log.read_text()


def blas_threads(workload: str, nproc: int) -> int:
    return REFERENCE_BLAS_THREADS if workload == "tables-64q" else nproc


def child_env(blas_threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads)
    return env


def cold_starts(env: dict[str, str], count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until `import fdblock` returns."""
    code = "import time, fdblock; print(time.monotonic())"
    samples = []
    for _ in range(count):
        t_spawn = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise BenchError(f"import fdblock failed: {done.stderr.strip()[-300:]}")
        samples.append(float(done.stdout) - t_spawn)
    return samples


# ------------------------------------------------------------------ passes


@dataclass
class Measured:
    """Everything one workload run observed."""

    walls: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # per untraced pass
    rss_kb: list[int] = field(default_factory=list)  # per untraced pass
    peak_rss_kb: int = 0  # largest max-RSS of any single process
    traced_walls: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)  # per traced pass
    sites: set[str] = field(default_factory=set)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def run_cli_pass(order, env, pass_dir: Path, traced: bool) -> list[JobRun]:
    pass_dir.mkdir(parents=True)
    runs = []
    for job in order:
        out_path = pass_dir / job.output_name if job.output_name else None
        spans_path = pass_dir / f"{job.name}.spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(WORKER), "cli-job", str(spans_path), "--", *job.argv(out_path)]
        else:
            cmd = [sys.executable, "-m", "fdblock.cli", *job.argv(out_path)]
        runs.append(JobRun(job, *spawn(cmd, env, pass_dir / job.name), out_path, spans_path))
    return runs


def _merge_job_spans(runs: list[JobRun]):
    """Spans of a traced CLI pass, with a set-up span opening each job."""
    spans, counters = [], {}
    for job_run in runs:
        data = json.loads(job_run.spans_path.read_text())
        spans.append(["setup", "setup.import", "setup", job_run.t_spawn, data["import_end"], None, None])
        base = len(spans)
        for span in data["spans"]:
            if span[5] is not None:
                span[5] += base
            spans.append(span)
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def measure_cli(jobs, seed, seconds, trace, env, work, reference_dir=REFERENCE_DIR) -> Measured:
    rng = random.Random(seed)
    got = Measured()
    start = time.monotonic()
    traced = False
    index = 0
    while index < 1 + trace or time.monotonic() - start < seconds:
        order = list(jobs)
        rng.shuffle(order)
        pass_dir = work / f"pass-{index}"
        runs = run_cli_pass(order, env, pass_dir, traced)
        wall = runs[-1].t_exit - runs[0].t_spawn
        got.attempted += len(runs)
        failed = [(r.job.name, check_job(r, reference_dir)) for r in runs]
        got.failures += [f"{name}: {why}" for name, why in failed if why]
        if traced:
            if not all(r.spans_path.exists() for r in runs):
                raise BenchError("a traced job wrote no spans: " + "; ".join(f"{n}: {w}" for n, w in failed if w))
            spans, counters = _merge_job_spans(runs)
            got.layers.append(tracing.layer_metrics(spans, wall, counters))
            got.sites.update(span[0] for span in spans)
            got.traced_walls.append(wall)
        else:
            got.walls.append(wall)
            got.latencies.append([r.wall for r in runs])
            got.rss_kb.append(max(r.rss_kb for r in runs))
            got.peak_rss_kb = max(got.peak_rss_kb, got.rss_kb[-1])
        shutil.rmtree(pass_dir)
        index += 1
        traced = bool(trace) and not traced
    return got


def measure_simulate(seed, seconds, trace, env, work) -> Measured:
    result_path = work / "simulate.json"
    cmd = [sys.executable, str(WORKER), "simulate", str(seed), repr(seconds), str(trace), str(result_path)]
    t_spawn, _, code, rss_kb, _, stderr = spawn(cmd, env, work / "simulate")
    if code != 0:
        raise BenchError(f"simulate worker exited {code}: {stderr.strip()[-300:]}")
    data = json.loads(result_path.read_text())
    got = Measured()
    for sim_pass in data["passes"]:
        got.attempted += len(sim_pass["latencies"])
        for pair in sim_pass["pairs"]:
            why = check_probabilities(*pair)
            if why:
                got.failures.append(why)
        if "spans" in sim_pass:
            metrics = tracing.layer_metrics(sim_pass["spans"], sim_pass["wall"], sim_pass["counters"])
            # One worker set-up serves the whole run; it lies outside the pass windows.
            metrics["setup.import_s"] = data["import_end"] - t_spawn
            got.layers.append(metrics)
            got.sites.update(span[0] for span in sim_pass["spans"])
            got.traced_walls.append(sim_pass["wall"])
        else:
            got.walls.append(sim_pass["wall"])
            got.latencies.append(sim_pass["latencies"])
            got.rss_kb.append(sim_pass["rss_kb"])
    got.peak_rss_kb = rss_kb
    return got


def measure(workload, seed, seconds, trace, env, work) -> Measured:
    work.mkdir(parents=True)
    if workload == "simulate-18q":
        return measure_simulate(seed, seconds, trace, env, work)
    return measure_cli(CLI_WORKLOADS[workload], seed, seconds, trace, env, work)


# ----------------------------------------------------------------- metrics


def spread(samples) -> float | None:
    """Interquartile range as a share of the median; None below two samples."""
    if len(samples) < 2:
        return None
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median if median else None


def end_to_end(got: Measured) -> dict[str, dict]:
    latencies = [x for per_pass in got.latencies for x in per_pass]
    per_pass_p50 = [statistics.median(per_pass) for per_pass in got.latencies]
    values = {
        "setup_s": (statistics.median(got.setup), got.setup),
        "wall_s": (statistics.median(got.walls), got.walls),
        "job_p50_s": (statistics.median(latencies), per_pass_p50),
        "peak_rss_mb": (got.peak_rss_kb / 1024.0, got.rss_kb),
    }
    return {
        name: {"value": value, "unit": END_TO_END[name], "samples": len(samples), "spread": spread(samples)}
        for name, (value, samples) in values.items()
    }


def job_p90(got: Measured) -> tuple[float | None, int]:
    """p90 job latency by nearest rank, when at least 10 samples lie beyond it."""
    latencies = sorted(x for per_pass in got.latencies for x in per_pass)
    rank = -(-9 * len(latencies) // 10)
    if len(latencies) - rank < 10:
        return None, len(latencies)
    return latencies[rank - 1], len(latencies)


def per_layer(workload: str, got: Measured) -> dict[str, dict]:
    missed = set(tracing.EXPECTED_SITES[workload]) - got.sites
    values = {name: statistics.median(m[name] for m in got.layers) for name in tracing.METRICS}
    values["trace_overhead_frac"] = statistics.median(got.traced_walls) / statistics.median(got.walls) - 1.0
    values["trace.missed_sites"] = len(missed)
    for site in sorted(missed):
        print(f"# trace: {workload} never called through {site}", file=sys.stderr)
    return {name: {"value": value, "unit": tracing.METRICS[name]} for name, value in values.items()}


# ------------------------------------------------------------- environment


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fdblock").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(nproc: int, seed: int) -> dict:
    env = child_env(nproc)
    done = subprocess.run(
        [sys.executable, str(WORKER), "probe"], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise BenchError(f"environment probe failed: {done.stderr.strip()[-300:]}")
    info = json.loads(done.stdout)
    if not Path(info.pop("fdblock_file")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"fdblock is not imported from {SRC}")
    if info["blas_threads"] is not None and info["blas_threads"] > nproc:
        raise BenchError(f"BLAS runs {info['blas_threads']} threads on {nproc} cores")
    info.update(nproc=nproc, seed=seed, commit=_git_commit(), source_sha256=_source_digest())
    return info


# ------------------------------------------------------------------ output


def _bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def compare(old: dict, new: dict):
    """Print base, new and new/base for each shared workload and end-to-end metric."""
    bounds = _bounds()
    print(f"# compare: {'workload':<13} {'metric':<12} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for workload, result in new["workloads"].items():
        base = old["workloads"].get(workload)
        if base is None:
            continue
        print(
            f"# compare: {workload:<13} {'failed':<12} {base['failed']:>12} {result['failed']:>12}"
            f" {'':>9}  of {base['attempted']} / {result['attempted']} jobs"
        )
        for name, metric in result["metrics"].items():
            before, after = base["metrics"][name], metric
            bound = bounds[name]["bound"]
            ratio = after["value"] / before["value"]
            spreads = [before["spread"], after["spread"]]
            if None in spreads or max(spreads) > bound:
                verdict = "unresolved"
            elif abs(ratio - 1.0) <= bound:
                verdict = "unchanged"
            else:
                lower_is_better = bounds[name]["better"] == "lower"
                verdict = "better" if (ratio < 1.0) == lower_is_better else "worse"
            print(
                f"# compare: {workload:<13} {name:<12} {before['value']:>12.6g} {after['value']:>12.6g}"
                f" {ratio:>9.4f}  {verdict} (bound {bound}, spreads {_fmt_spread(spreads[0])}"
                f" / {_fmt_spread(spreads[1])})"
            )


def _fmt_spread(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def report(workload: str, got: Measured, metrics: dict[str, dict], trace: int):
    for name, metric in metrics.items():
        extra = ""
        if "samples" in metric:
            extra = f"  ({metric['samples']} samples, spread {_fmt_spread(metric['spread'])})"
        print(f"{workload:<13} {name:<29} {metric['value']:.6g} {metric['unit']}{extra}")
    failed = len(got.failures)
    print(f"{workload:<13} {'failed_frac':<29} {failed / got.attempted:.6g} ratio  ({failed} of {got.attempted} jobs)")
    if not trace:
        p90, jobs = job_p90(got)
        text = "n/a (needs >= 100 jobs)" if p90 is None else f"{p90:.6g} s"
        print(f"{workload:<13} {'job_p90_s':<29} {text}  (jobs {jobs})")
    for why in got.failures[:10]:
        print(f"# FAILED {workload}: {why}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result document here")
    parser.add_argument("--compare", type=Path, metavar="OLD.json", help="compare with a result written by --out")
    args = parser.parse_args(argv)

    if not (SRC / "fdblock" / "__init__.py").is_file():
        print(f"error: no fdblock sources under {SRC}", file=sys.stderr)
        return 2
    old = json.loads(args.compare.read_text()) if args.compare else None
    if old is not None and (old["trace"] or args.trace):
        parser.error("--compare needs untraced (--trace 0) results on both sides")

    nproc = len(os.sched_getaffinity(0))
    work = ROOT / ".bench-work" / f"run-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    document = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    try:
        document["env"] = environment(nproc, args.seed)
        print("# env " + " ".join(f"{k}={v}" for k, v in document["env"].items()))
        for workload in workloads:
            threads = blas_threads(workload, nproc)
            print(f"# env {workload} blas_thread_setting={threads}")
            env = child_env(threads)
            setup = [] if args.trace else cold_starts(env, COLD_STARTS)
            got = measure(workload, args.seed, args.seconds, args.trace, env, work / workload)
            got.setup = setup
            metrics = per_layer(workload, got) if args.trace else end_to_end(got)
            report(workload, got, metrics, args.trace)
            document["workloads"][workload] = {
                "blas_thread_setting": threads,
                "correct": not got.failures,
                "attempted": got.attempted,
                "failed": len(got.failures),
                "metrics": metrics,
            }
    except (BenchError, tracing.AccountingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    if old is not None:
        compare(old, document)
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    results = document["workloads"].values()
    if len(workloads) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in document["workloads"][workloads[0]]["metrics"].items()}
    else:
        metrics = {
            f"{w}.{k}": {"value": v["value"], "unit": v["unit"]}
            for w, result in document["workloads"].items()
            for k, v in result["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
