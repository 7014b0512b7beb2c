"""Every name the benchmark tracer wraps still exists in the package.

``bench/tracing.py`` wraps each entry of its ``TARGETS`` table and raises
on a missing one, so deleting or renaming a traced function breaks a
traced benchmark run.  This test resolves each entry the way the tracer
does, a function with ``getattr`` and a method through its class's
``__dict__``, without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_tracer_target_resolves():
    targets = load_targets()
    assert targets
    for name, module_name, attr in targets:
        module = importlib.import_module(f"gammalab.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name
