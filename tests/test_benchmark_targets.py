"""The benchmark tracer patches library functions by name: every target it
lists must exist in the package, so that removing or renaming one fails here
rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("randmark_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for module_name, attribute, _, _ in targets:
        module = importlib.import_module(f"randmark.{module_name}")
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(module, cls_name)
            assert isinstance(cls.__dict__.get(method), classmethod), attribute
        else:
            assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
