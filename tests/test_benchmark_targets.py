"""The benchmark reaches into the package by name: the tracer patches library
functions, and the workloads call library functions and classes. Every name
either uses must exist in the package, so that removing or renaming one fails
here rather than in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _targets():
    spec = importlib.util.spec_from_file_location("randmark_bench_tracer", BENCHMARKS / "tracer.py")
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


def _library_reference(node, imported):
    """(dotted name, object) of an attribute chain such as
    harness.verify_suspect or ModelBundle.load that starts at a name
    imported from randmark; None for any other expression. A link missing
    from the package fails the test."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not (isinstance(node, ast.Name) and node.id in imported):
        return None
    obj, name = imported[node.id], node.id
    for attribute in reversed(chain):
        name += f".{attribute}"
        assert hasattr(obj, attribute), f"benchmarks/workloads.py uses {name}"
        obj = getattr(obj, attribute)
    return name, obj


def test_every_workload_library_call_resolves():
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "randmark":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule not imported yet
                    importlib.import_module(f"{node.module}.{alias.name}")
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"attacks", "harness", "nnengine", "synth", "watermark"} <= set(imported)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _library_reference(node, imported)  # e.g. attacks.FUNCTIONALITY_LIMIT

    calls = 0
    for call in ast.walk(tree):
        reference = isinstance(call, ast.Call) and _library_reference(call.func, imported)
        if not reference:
            continue
        # the call's positional count and keyword names must fit the signature
        name, obj = reference
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), name
        assert all(keyword.arg for keyword in call.keywords), name  # no **mapping
        try:
            inspect.signature(obj).bind(
                *[None] * len(call.args), **{keyword.arg: None for keyword in call.keywords}
            )
        except TypeError as exc:
            raise AssertionError(f"benchmarks/workloads.py calls {name}: {exc}") from None
        calls += 1
    assert calls >= 10
