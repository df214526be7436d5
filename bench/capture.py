"""Write the tables-64q reference outputs into bench/reference/.

    python3 bench/capture.py

The benchmark byte-compares every later tables-64q output with these
files, so capture them only from a commit whose outputs are known to be
right.  Each output must pass the independent table checks first.
"""

import subprocess
import sys

import run


def main() -> int:
    env = run.child_env(run.REFERENCE_BLAS_THREADS)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for job in run.TABLES_JOBS:
        out_path = run.REFERENCE_DIR / job.output_name
        subprocess.run(
            [sys.executable, "-m", "fdblock.cli", *job.argv(out_path)], env=env, cwd=run.ROOT, check=True, timeout=120
        )
        table_check = run.TABLE_CHECKS.get(job.command)
        why = table_check(job, out_path.read_text()) if table_check else None
        if why:
            out_path.unlink()
            print(f"{job.name}: {why}", file=sys.stderr)
            return 1
        print(f"{out_path.relative_to(run.ROOT)}: {out_path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
