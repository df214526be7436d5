"""The executable lines of src/fdblock that the test suite never runs.

Run from the repository root, with pytest's arguments if any:

    python tests/line_coverage.py -q --continue-on-collection-errors

It runs pytest in a child process and exits 1 when the child fails, or
when a line of src/fdblock ran in no process of the run, apart from the
lines in NOT_RUN.  Every Python process of the run is traced: this file,
copied as ``sitecustomize.py`` into a temporary directory that leads
PYTHONPATH, starts a ``sys.settrace`` line collector in each interpreter
that starts, and each writes the lines of src/fdblock that it ran to
that directory at exit.  Child processes started with an ``env`` whose
PYTHONPATH drops the directory, as the benchmark's jobs set it, get it
put back in front.  The executable lines are those of the compiled
modules' code objects.  Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import atexit
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(os.path.abspath(__file__)).parents[1] / "src" / "fdblock"
TRACED = "FDBLOCK_LINE_COVERAGE_SRC"  # the traced directory, for every process of a run

# (module, the line before, the line) of the lines that no run reaches
# by design: the numpy imports for type checkers, and the CLI's exit
# when run as a script, which the suite calls in process instead.
NOT_RUN = {
    ("linalg.py", "if TYPE_CHECKING:", "import numpy as np"),
    ("operators.py", "if TYPE_CHECKING:", "import numpy as np"),
    ("cli.py", 'if __name__ == "__main__":', "sys.exit(main())"),
}


def _trace(out_dir: str, src: str) -> None:
    """Record the lines of src that this process runs, and write them to out_dir at exit."""
    prefix = src + os.sep
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    def write() -> None:
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".lines", dir=out_dir)
        with os.fdopen(fd, "w") as f:
            f.writelines(f"{name}\t{line}\n" for name, line in ran)

    atexit.register(write)
    threading.settrace(calls)
    sys.settrace(calls)
    _keep_in_children(out_dir)


def _keep_in_children(site_dir: str) -> None:
    """Put site_dir back in front of a child's PYTHONPATH when its env drops it."""
    init = subprocess.Popen.__init__

    def popen(self, *args, env=None, **kwargs):
        if env is not None:
            path = env.get("PYTHONPATH", "")
            if site_dir not in path.split(os.pathsep):
                env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [site_dir, path])))
        init(self, *args, env=env, **kwargs)

    subprocess.Popen.__init__ = popen


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from the module at path."""
    found = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line)  # a module starts at 0
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return found


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        shutil.copyfile(__file__, Path(out_dir) / "sitecustomize.py")
        path = os.environ.get("PYTHONPATH", "")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [out_dir, path])))
        env[TRACED] = str(SRC)
        status = subprocess.run([sys.executable, "-m", "pytest", *pytest_args], env=env).returncode
        ran: dict[str, set[int]] = {}
        records = list(Path(out_dir).glob("*.lines"))
        for record in records:
            for row in record.read_text().splitlines():
                name, line = row.split("\t")
                ran.setdefault(name, set()).add(int(line))
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            if (path.name, text[line - 2].strip(), text[line - 1].strip()) not in NOT_RUN:
                unrun.append(f"{path.relative_to(SRC.parents[1])}:{line}: {text[line - 1].strip()}")
    print(
        f"{len(records)} processes traced, {len(ran)} modules of src/fdblock run;"
        f" {len(unrun)} executable lines never ran"
    )
    print("\n".join(unrun))
    if status:
        print(f"pytest exited {status}")
    return 1 if status or unrun else 0


if __name__ == "sitecustomize" and TRACED in os.environ:
    _trace(os.path.dirname(__file__), os.environ[TRACED])
elif __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
