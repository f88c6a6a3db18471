"""Modules of the package reach one another only through public names.

A name with a leading underscore belongs to the module that defines it.
The one exception is ``_num``: it holds the numerical helpers that every
module shares, so its names may be used anywhere in the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "soapcert"
SHARED = "_num"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: "" for the package itself,
    None for imports from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and \
            (node.module + ".").startswith("soapcert."):
        return node.module[len("soapcert"):].lstrip(".")
    return None


def private_uses(source: str, module: str) -> list[str]:
    """Each import or attribute access in `source` (the text of package
    module `module`) that reaches another module's private name."""
    tree = ast.parse(source)
    found = []
    modules = {}  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = _source_module(node)
        if origin is None:
            continue
        for alias in node.names:
            if origin == "":
                modules[alias.asname or alias.name] = alias.name
                owner, name = "soapcert", alias.name
            else:
                owner, name = origin, alias.name
            if _private(name) and owner not in (module, SHARED) \
                    and name != SHARED:
                found.append(f"line {node.lineno}: imports {owner}.{name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = modules.get(node.value.id)
            if owner not in (None, module, SHARED) and _private(node.attr):
                found.append(f"line {node.lineno}: uses {owner}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text(encoding="utf-8"), path.stem) == []


def test_detector_flags_imports_and_attribute_uses():
    source = (
        "from . import _num, cone as cone_mod\n"
        "from .certify import _row, Mode\n"
        "from soapcert.graph import _subdivide\n"
        "from .cli import _own_helper\n"
        "cone_mod._check(1)\n"
        "cone_mod.check_apex(1)\n"
        "_num._column(1)\n"
    )
    assert private_uses(source, "cli") == [
        "line 2: imports certify._row",
        "line 3: imports graph._subdivide",
        "line 5: uses cone._check",
    ]
