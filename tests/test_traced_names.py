"""Every function the perfbench tracer wraps still exists.

``perfbench/tracing.install`` replaces each ``(module, attribute path)`` of
``TIMED`` by ``getattr``, so a traced name that is deleted or renamed would
break ``perfbench/run.py --trace 1``.  The tracer is loaded from its file
and not installed.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _timed():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.TIMED


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in _timed()], ids=str)
def test_timed_name_resolves(module_name, attr):
    owner = importlib.import_module(f"nessgeom.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
