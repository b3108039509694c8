"""README's "Concepts to code" table names only members the package has.

Every backticked ``module.name`` (or ``Class.member``) path in the table,
alone or called (``jet.build_jet(op_A)``), is resolved against the
installed ``passivebc``, so a member that is deleted or renamed cannot
stay documented; ``name.py`` names a module.
"""

import importlib
import re

import pytest

import passivebc

from conftest import ROOT

PATH = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def concept_paths() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\n## Concepts to code\n", 1)[1].split("\n## ", 1)[0]
    found = (PATH.fullmatch(span) for span in re.findall(r"`([^`]+)`", table))
    return sorted({m.group(1) for m in found if m})


def resolve(path: str):
    if path.endswith(".py"):
        return importlib.import_module(f"passivebc.{path[:-3]}")
    obj = passivebc
    for part in path.split("."):
        fields = getattr(obj, "__dataclass_fields__", {})
        obj = fields[part] if part in fields else getattr(obj, part)
    return obj


def test_table_names_many_paths():
    assert len(concept_paths()) >= 40


@pytest.mark.parametrize("path", concept_paths())
def test_concept_path_resolves(path):
    resolve(path)
