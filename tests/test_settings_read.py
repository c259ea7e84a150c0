"""Every setting a user can give must change something: each field of
ExperimentConfig and AttackSpec is read as an attribute somewhere in the
package, so that a setting no code reads fails here instead of being
accepted and silently ignored. The parameters with defaults of the public
functions and methods, and the flags of each CLI subcommand, are pinned, so
that an added or dropped option shows here."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import randmark
from randmark import cli
from randmark.attacks import AttackSpec
from randmark.harness import ExperimentConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randmark"

# module.function.parameter or module.Class.method.parameter
OPTIONS = {
    "attacks.make_blob_task.n_classes",
    "attacks.make_blob_task.n_samples",
    "attacks.make_blob_task.seed",
    "attacks.finetune_attack.seed",
    "attacks.distill_attack.lr",
    "attacks.distill_attack.n_inputs",
    "attacks.distill_attack.seed",
    "attacks.make_independent.epochs",
    "attacks.make_independent.n_images",
    "attacks.sample_model_population.pretrain_epochs",
    "attacks.sample_model_population.pretrain_images",
    "cli.main.argv",
    "harness.json_field.name",
    "nnengine.forward_batch.into",
    "nnengine.Gradients.empty.wrt_input",
    "nnengine.backward.wrt_input",
    "nnengine.backward.into",
    "nnengine.OptimizerState.fresh.lr",
    "nnengine.OptimizerState.fresh.weight_decay",
    "oracles.coverage_simulation.side",
    "watermark.ModelBundle.create.encoder_hidden",
    "watermark.ModelBundle.create.decoder_hidden",
    "watermark.ModelBundle.create.hyper",
    "watermark.ModelBundle.create.seed",
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
    module and every public method, class- and static methods included, of
    its public classes."""
    for info in pkgutil.iter_modules(randmark.__path__):
        module = importlib.import_module(f"randmark.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
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
