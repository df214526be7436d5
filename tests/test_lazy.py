import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdblock
from fdblock import analysis, circuit, linalg, operators
from fdblock._lazy import lazy_import
from fdblock.encodings import OPS

SRC = Path(fdblock.__file__).resolve().parents[1]

# Runs the CLI commands given as a JSON list of argv lists in a fresh
# interpreter and prints the numpy submodules loaded afterwards.
SCRIPT = """
import contextlib, io, json, sys
import fdblock, fdblock.cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if fdblock.cli.main(argv) != 0:
            sys.exit(f"{argv} failed")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("numpy."))))
"""


def numpy_modules_after(commands):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def test_resources_and_export_never_load_numpy():
    # verify too: its cube simulator and comparison run on Python ints
    commands = [["resources", "--op", "laplace", "--dim", "1..4", "--n", "2..5"]]
    commands += [["resources", "--op", op, "--n", "2..5"] for op in OPS if op != "laplace"]
    commands += [["export", "--op", op, "--n", "3"] for op in OPS]
    commands += [["verify", "--op", "laplace", "--dim", str(dim), "--n", "2"] for dim in (1, 2, 3)]
    commands += [["verify", "--op", op, "--n", "3"] for op in OPS if op != "laplace"]
    assert numpy_modules_after(commands) == []


# verify runs without numpy (see above); both cases are sweeps, in 2-D and 1-D
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--op", "laplace", "--dim", "2", "--n", "2", "--family", "sinprod"],
        ["sweep", "--op", "laplace", "--n", "2..3"],
    ],
)
def test_verify_and_sweep_load_numpy(argv):
    assert numpy_modules_after([argv]) != []


def test_lazy_import_returns_the_loaded_module():
    assert lazy_import("numpy") is sys.modules["numpy"] is np
    for module in (analysis, circuit, linalg, operators):
        assert module.np is np


def test_lazy_import_of_a_missing_module_fails_at_once():
    with pytest.raises(ModuleNotFoundError):
        lazy_import("fdblock_no_such_module")
    assert "fdblock_no_such_module" not in sys.modules
