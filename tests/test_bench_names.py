"""The benchmark's tracer patches package functions by name; every name must resolve.

`bench/spans.py` is read, not changed: removing or renaming a function it
traces fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans_module()
    names = [(module, name) for table in (spans.SPANNED, spans.COUNTED)
             for module, fnames in table.items() for name in fnames]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(f"turntaking.{module}"),
                                       name, None))]
    assert not missing
