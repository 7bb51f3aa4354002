"""Every span name the benchmark's tracer patches must exist in the library.

`bench/tracing.py` wraps the functions and methods listed in `SELF_TIME` for
`--trace 1`.  A name that no longer resolves breaks the traced run, so a
rename or deletion in `balanced` must update the tracer in the same change.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_self_time_name_resolves():
    tracing = load_tracing()
    names = [name for names in tracing.SELF_TIME.values() for name in names]
    assert names
    for name in names:
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"balanced.{module_name}")
        if len(attrs) == 2:  # a method, patched through the class's own __dict__
            owner = getattr(owner, attrs[0])
            assert attrs[1] in vars(owner), name
        target = getattr(owner, attrs[-1])
        assert callable(target), name
