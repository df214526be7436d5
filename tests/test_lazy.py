import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdblock
from fdblock import analysis, circuit, linalg, operators
from fdblock.encodings import OPS

SRC = Path(fdblock.__file__).resolve().parents[1]

# Runs the CLI commands given as a JSON list of argv lists in a fresh
# interpreter and prints the modules that importing the CLI and running
# them added.
SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
import fdblock, fdblock.cli

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if fdblock.cli.main(argv) != 0:
            sys.exit(f"{argv} failed")
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Runs the CLI commands given as a JSON list of argv lists in a fresh
# interpreter, where with "refuse" a finder first makes numpy
# unimportable, and prints each command's exit code and stdout, then the
# numpy modules loaded.  Every fdblock module is imported first.
REFUSE_SCRIPT = """
import contextlib, io, json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseNumpy())
import fdblock.analysis, fdblock.cli, fdblock.resources

runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([fdblock.cli.main(argv), out.getvalue()])
numpy = [name for name in sys.modules if name.partition(".")[0] == "numpy"]
print(json.dumps({"runs": runs, "numpy": numpy}))
"""

# Imports fdblock in a fresh interpreter, reads every public name through
# the package and through a star import, and prints what it saw.
NAMES_SCRIPT = """
import importlib, json, sys
import fdblock

loaded = sorted(name for name in sys.modules if name.startswith("fdblock."))
star = {}
exec("from fdblock import *", star)
home = {name: getattr(importlib.import_module(f"fdblock.{module}"), name)
        for name, module in fdblock._EXPORTS.items()}
print(json.dumps({
    "loaded": loaded,
    "star": sorted(name for name in star if not name.startswith("__")),
    "star_same": sorted(name for name in fdblock.__all__ if star[name] is home[name]),
    "cached": sorted(name for name in fdblock.__all__ if vars(fdblock).get(name) is home[name]),
    "attr_same": sorted(name for name in fdblock.__all__ if getattr(fdblock, name) is home[name]),
}))
"""

# Every command of every op, on small grids.
RESOURCES_AND_EXPORT = [["resources", "--op", "laplace", "--dim", "1..4", "--n", "2..5"]]
RESOURCES_AND_EXPORT += [["resources", "--op", op, "--n", "2..5"] for op in OPS if op != "laplace"]
RESOURCES_AND_EXPORT += [["export", "--op", op, "--n", "3"] for op in OPS]
VERIFY = [["verify", "--op", "laplace", "--dim", str(dim), "--n", "2"] for dim in (1, 2, 3)]
VERIFY += [["verify", "--op", op, "--n", "3"] for op in OPS if op != "laplace"]


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def modules_added(commands):
    return run_fresh(SCRIPT, json.dumps(commands))


def numpy_modules(modules):
    """The numpy modules among modules, numpy itself included."""
    return [name for name in modules if name.partition(".")[0] == "numpy"]


def test_resources_and_export_never_load_numpy():
    added = modules_added(RESOURCES_AND_EXPORT)
    assert numpy_modules(added) == []
    assert "fdblock.analysis" not in added
    assert "dataclasses" not in added


def test_verify_loads_neither_numpy_nor_resources_nor_dataclasses():
    # verify's cube simulator and comparison run on Python ints
    added = modules_added(VERIFY)
    assert numpy_modules(added) == []
    assert "fdblock.analysis" in added
    assert "fdblock.resources" not in added
    assert "dataclasses" not in added


# verify runs without numpy (see above); both cases are sweeps, in 2-D and 1-D
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--op", "laplace", "--dim", "2", "--n", "2", "--family", "sinprod"],
        ["sweep", "--op", "laplace", "--n", "2..3"],
    ],
)
def test_verify_and_sweep_load_numpy(argv):
    assert numpy_modules(modules_added([argv])) != []


def test_public_names_resolve_on_first_access():
    seen = run_fresh(NAMES_SCRIPT)
    assert seen["loaded"] == []  # import fdblock loads no submodule
    names = sorted(fdblock.__all__)
    assert seen["star"] == seen["star_same"] == names
    assert seen["cached"] == seen["attr_same"] == names


def test_no_module_binds_numpy():
    # each function that computes on arrays imports numpy when it runs;
    # the cube simulator runs on Python ints
    for module in (analysis, circuit, linalg, operators):
        assert "np" not in vars(module)


def test_verify_resources_and_export_run_without_numpy():
    commands = json.dumps(VERIFY + RESOURCES_AND_EXPORT)
    refused = run_fresh(REFUSE_SCRIPT, "refuse", commands)
    assert refused["numpy"] == []
    assert [code for code, _ in refused["runs"]] == [0] * len(VERIFY + RESOURCES_AND_EXPORT)
    assert refused["runs"] == run_fresh(REFUSE_SCRIPT, "allow", commands)["runs"]
