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


def _target_function(module_name, attribute):
    """The function a tracer target wraps: a module function, or the
    function of a classmethod named Class.method."""
    module = importlib.import_module(f"randmark.{module_name}")
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(module, cls_name)
        assert isinstance(cls.__dict__.get(method), classmethod), attribute
        return cls.__dict__[method].__func__
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
    return getattr(module, attribute)


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for module_name, attribute, _, _ in targets:
        _target_function(module_name, attribute)


def test_every_tracer_hook_argument_resolves():
    # a hook reads an argument with _arg(args, kwargs, position, name): the
    # target must take that name at that position, or the hook reads another
    # argument or fails, and the span's quantities are lost
    reads = {}
    for hook in ast.parse((BENCHMARKS / "tracer.py").read_text()).body:
        if not isinstance(hook, ast.FunctionDef):
            continue
        for call in ast.walk(hook):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                position, name = (ast.literal_eval(arg) for arg in call.args[2:])
                reads.setdefault(hook.name, []).append((position, name))
    checked = set()
    for module_name, attribute, _, hook in _targets():
        if hook is None:
            continue
        target = _target_function(module_name, attribute)
        parameters = list(inspect.signature(target).parameters.values())
        for position, name in reads.get(hook.__name__, []):
            where = f"{hook.__name__} reads {module_name}.{attribute} argument {position}"
            assert position < len(parameters), where
            assert parameters[position].name == name, f"{where}: {parameters[position].name}"
            assert parameters[position].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD, where
        checked.add(hook.__name__)
    assert set(reads) <= checked  # every hook that reads an argument is checked
    assert len(reads) >= 5


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
