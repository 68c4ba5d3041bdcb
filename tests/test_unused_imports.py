"""No module of the package, script or test imports a name it never uses.

When code is deleted or an API changes, its imports tend to stay behind
in the package and in the scripts and tests that call it; this finds
them with the standard library's ``ast``, so no linter is needed. The
package's ``__init__.py`` exists to re-export names and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "treekeys", ROOT / "scripts", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in line order."""
    module = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in read), key=imported.get)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_leftover_import_is_found():
    source = "from typing import Any, Mapping\nimport os.path\n\ndef f(m: Mapping) -> None: ...\n"
    assert unused_imports(source) == ["Any", "os"]
