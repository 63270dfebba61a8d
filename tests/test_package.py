"""The package's shape: what it exports is what it uses, and README's
contract names what the CLI and the config hold."""

import ast
import re
from pathlib import Path

import gsmspdc
from gsmspdc.cli import EXPERIMENTS
from gsmspdc.config import KEYS, RETIRED_KEYS

SRC = Path(gsmspdc.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    """(name, syntax tree) of each package module but __init__."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_has_a_caller_in_the_package():
    # a name only the tests call belongs in tests/shared.py
    loaded = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    unused = [f"{module}.{name}" for module, tree in _modules()
              for name in _exports(tree) if name not in loaded]
    assert unused == []


def _readme():
    return README.read_text(encoding="utf-8")


def test_readme_lists_the_cli_experiments():
    listing = _readme().split("Experiments:\n\n", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^- `([\w-]+)`", listing, re.MULTILINE) == list(
        EXPERIMENTS)


def test_readme_names_only_config_keys():
    named = re.findall(r"`\[(\w+)\] (\w+)", _readme())
    assert named
    for section, key in named:
        key = key.lower()  # configparser lower-cases keys
        assert (key in KEYS.get(section, {})
                or key in RETIRED_KEYS.get(section, ())), (section, key)
