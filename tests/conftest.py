import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's worker, tracing and run modules, imported from bench/.

    ``run.TABLES_JOBS`` is the one list of the jobs whose outputs are
    the files in ``bench/reference/``.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays as checked in
    return tuple(importlib.import_module(name) for name in ("worker", "tracing", "run"))
