"""Every layer the benchmark traces still exists in the program.

`perfbench/spans.py` names the functions it wraps as (module, attribute)
pairs and reports a missing one as absent rather than failing, so a
deletion in `hokdv` could silently drop a layer from `--trace 1` runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for _, module, attr in spans.TRACED]


def test_every_traced_layer_resolves():
    pairs = traced_pairs()
    assert pairs
    missing = []
    for module, attr in pairs:
        target = getattr(importlib.import_module(f"hokdv.{module}"), attr, None)
        if isinstance(target, type):
            target = vars(target).get("__init__")  # the tracer wraps a class's own __init__
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []
