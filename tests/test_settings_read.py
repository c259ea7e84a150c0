"""Every setting a user can give must change something: each field of
ExperimentConfig and AttackSpec is read as an attribute somewhere in the
package, so that a setting no code reads fails here instead of being
accepted and silently ignored."""

import ast
import dataclasses
from pathlib import Path

import pytest

from randmark.attacks import AttackSpec
from randmark.harness import ExperimentConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "randmark"


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
