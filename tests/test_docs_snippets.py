"""Every ``repro`` import in the documentation's Python snippets resolves.

Parses each ```python fence of ``docs/*.md``, ``README.md`` and
``SCENARIOS.md`` and imports what its ``from repro… import …`` and
``import repro…`` statements name, so a renamed or deleted name fails
here rather than in a reader's session.  Fences that are not complete
Python (fragments such as a lone ``if`` line) are skipped.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [*sorted((ROOT / "docs").glob("*.md")), ROOT / "README.md", ROOT / "SCENARIOS.md"]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _complete_fences() -> list:
    fences = []
    for path in DOCUMENTS:
        for index, block in enumerate(_FENCE.findall(path.read_text())):
            try:
                tree = ast.parse(block)
            except SyntaxError:
                continue
            fences.append(pytest.param(tree, id=f"{path.relative_to(ROOT).as_posix()}-{index}"))
    return fences


FENCES = _complete_fences()


def _is_repro(module: "str | None") -> bool:
    return module is not None and (module == "repro" or module.startswith("repro."))


def test_documents_have_complete_fences():
    assert len(FENCES) >= 30


@pytest.mark.parametrize("tree", FENCES)
def test_snippet_imports_resolve(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_repro(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if alias.name == "*" or hasattr(module, alias.name):
                    continue
                try:
                    importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    pytest.fail(f"{node.module} has no {alias.name!r}: {ast.unparse(node)}")
