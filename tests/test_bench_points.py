"""The traced benchmark pass (perfbench/spans.py) wraps the entry points in
its ``POINTS`` table by name; each must exist, or the traced run breaks."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.POINTS
    for module_name, cls_name, attr, *_ in spans.POINTS:
        module = importlib.import_module("steinerkit." + module_name)
        if cls_name:
            assert attr in vars(getattr(module, cls_name)), (module_name, cls_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
