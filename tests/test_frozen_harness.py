"""The benchmark harness in perfbench/ changes only with the benchmark: its
traced run looks every traced function up by name in its owner's
``__dict__``, so deleting or renaming one in src breaks the traced benchmark
step.  This guard reads the harness, without editing it, and fails first."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{name}: {owner.__name__}.{attr}"
               for name, owner, attr, *_ in tracing.TRACED if attr not in owner.__dict__]
    assert not missing
