"""Every setting a user can give must change something: each field of
ExperimentConfig and AttackSpec is read as an attribute somewhere in the
package, so that a setting no code reads fails here instead of being
accepted and silently ignored. The parameters with defaults of the public
functions and methods, the defaulted fields of the public dataclasses, and
the flags of each CLI subcommand, are pinned, so that an added or dropped
option shows here. A run setting that the config declares has no second
default in the library: a call without it fails."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import randmark
from randmark import attacks as atk
from randmark import cli
from randmark.attacks import AttackSpec
from randmark.harness import ExperimentConfig
from randmark.nnengine import OptimizerState, init_network
from randmark.watermark import HyperParams, ModelBundle

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randmark"

# module.function.parameter, module.Class.method.parameter or, for a
# dataclass, module.Class.field
OPTIONS = {
    "attacks.make_blob_task.n_classes",
    "attacks.make_blob_task.n_samples",
    "attacks.distill_attack.n_inputs",
    "attacks.PopulationResult.excluded",
    "bounds.LemmaBounds.minus_reason",
    "bounds.LemmaBounds.plus_reason",
    "cli.main.argv",
    "harness.json_field.name",
    "harness.RunManifest.failures",
    "nnengine.forward_batch.into",
    "nnengine.ForwardTrace.spent",
    "nnengine.Gradients.empty.wrt_input",
    "nnengine.Gradients.scratch",
    "nnengine.Gradients.wrt_input",
    "nnengine.backward.wrt_input",
    "nnengine.backward.into",
    "oracles.OracleResult.standard_error",
    "oracles.OracleResult.trials",
    "oracles.coverage_simulation.side",
    "watermark.TrainingLog.epochs",
}

# The run settings, each given by ExperimentConfig or an AttackSpec, that
# each library function or class takes with no default of its own.
RUN_SETTINGS = {
    "HyperParams": ("lam", "k_train", "epochs", "learning_rate", "delta_scale"),
    "make_independent": ("epochs", "n_images"),
    "ModelBundle.create": ("encoder_hidden", "decoder_hidden", "hyper", "seed"),
    "OptimizerState.fresh": ("lr",),
    "finetune_attack": ("seed",),
    "distill_attack": ("lr", "seed"),
    "make_blob_task": ("seed",),
}

# Each CLI subcommand's option strings, -h and --help aside.
FLAGS = {
    "gen-data": {"--config", "--out", "--seed"},
    "embed": {"--config", "--out", "--seed", "--triggers"},
    "attack": {"--bundle", "--config", "--name", "--out"},
    "verify": {"--bundle", "--config", "--out", "--seed", "--suspect", "--triggers"},
    "population": {"--bundle", "--config", "--kind", "--out", "--seed"},
    "bounds": {
        "--bundle", "--config", "--estimates", "--out", "--population-omega",
        "--population-xi", "--seed", "--triggers",
    },
    "oracle binomial-tail": {"--n", "--r", "--tau"},
    "oracle poisson-binomial": {"--d", "--probs", "--tail"},
    "oracle mc-bernoulli": {"--d", "--probs", "--seed", "--trials"},
    "oracle coverage": {"--level", "--p", "--reps", "--seed", "--side", "--trials"},
    "oracle lemma-sim": {"--delta", "--probs", "--r-bar", "--reps", "--seed"},
    "pipeline": {"--config", "--out", "--seed"},
    "report": {"--run"},
}


def _attributes_read() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("settings", [ExperimentConfig, AttackSpec], ids=lambda cls: cls.__name__)
def test_every_setting_is_read(settings):
    read = _attributes_read()
    unread = [field.name for field in dataclasses.fields(settings) if field.name not in read]
    assert unread == [], f"{settings.__name__} fields no code reads: {unread}"


def _public_callables():
    """(qualified name, callable) of every public function of a randmark
    module, every public method, class- and static methods included, of
    its public classes, and every public dataclass but the two settings
    classes that test_every_setting_is_read covers, whose constructor takes
    its fields."""
    for info in pkgutil.iter_modules(randmark.__path__):
        module = importlib.import_module(f"randmark.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj) and obj not in (ExperimentConfig, AttackSpec):
                    yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                    ):
                        yield f"{info.name}.{name}.{attr}", getattr(obj, attr)


def test_option_inventory_pinned():
    found = {
        f"{qualified}.{parameter.name}"
        for qualified, function in _public_callables()
        for parameter in inspect.signature(function).parameters.values()
        if parameter.default is not parameter.empty
    }
    assert sorted(found - OPTIONS) == [], "options added: pin them in OPTIONS"
    assert sorted(OPTIONS - found) == [], "options removed: drop them from OPTIONS"


def _complete_call(owner: str):
    """(callable, keyword arguments) of a call of owner that passes every
    argument, each setting at the default config's value, on a tiny network
    and no training epoch."""
    config = ExperimentConfig()
    net = init_network([4, 3, 2], ["tanh", "identity"], 0)
    calls = {
        "HyperParams": (HyperParams, dataclasses.asdict(config.hyper())),
        "make_independent": (atk.make_independent, dict(
            dims=[4, 3, 2], seed=0, pretrain_data_seed=1, epochs=0, n_images=1,
        )),
        "ModelBundle.create": (ModelBundle.create, dict(
            source_f=net, n=3, encoder_hidden=config.encoder_hidden,
            decoder_hidden=config.decoder_hidden, hyper=config.hyper(), seed=0,
        )),
        "OptimizerState.fresh": (OptimizerState.fresh, dict(net=net, lr=config.learning_rate)),
        "finetune_attack": (atk.finetune_attack, dict(
            backbone=net, task=atk.make_blob_task(4, n_samples=8, seed=0), epochs=0, lr=1e-3,
            seed=0,
        )),
        "distill_attack": (atk.distill_attack, dict(
            teacher=net, student_hidden=(3,), data_seed=0, epochs=0, lr=1e-3, n_inputs=8, seed=0,
        )),
        "make_blob_task": (atk.make_blob_task, dict(s=4, n_samples=8, seed=0)),
    }
    return calls[owner]


@pytest.mark.parametrize("owner, setting", [
    pytest.param(owner, setting, id=f"{owner}.{setting}")
    for owner, settings in RUN_SETTINGS.items() for setting in settings
])
def test_run_setting_has_no_library_default(owner, setting):
    function, arguments = _complete_call(owner)
    function(**arguments)
    del arguments[setting]
    with pytest.raises(TypeError, match=f"'{setting}'"):
        function(**arguments)


def _subcommand_flags(parser, command=""):
    """(command, option strings) of each subcommand of parser that has no
    subcommands of its own, its name prefixed by its parents'."""
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        yield command, {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
    for action in nested:
        for name, sub in action.choices.items():
            yield from _subcommand_flags(sub, f"{command} {name}".strip())


def test_cli_flag_inventory_pinned():
    assert dict(_subcommand_flags(cli._build_parser())) == FLAGS, (
        "flags added or dropped: pin them in FLAGS"
    )
