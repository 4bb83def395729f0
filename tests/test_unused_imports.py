"""Every import in ``src/repro`` is used.

A name a module imports and never reads is dead code that still costs an
import at start-up and misleads a reader about what the module depends
on.  The check is an AST walk per module: an imported name counts as
used when the module reads it anywhere, names it in ``__all__`` (a
re-export), or names it in an annotation, string annotations included
(``TYPE_CHECKING`` imports are read only there).  Docstrings and other
strings do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Name bound by each import (``__future__`` aside) → its line."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations: List[ast.expr] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            )
        for annotation in annotations:
            used.update(_annotation_names(annotation))
    return used


def unused_imports(source: str) -> List[str]:
    """``"<line>: <name>"`` for each import *source* never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_every_import_is_used():
    findings = {
        str(module.relative_to(SRC.parent)): unused
        for module in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(module.read_text(encoding="utf-8")))
    }
    assert findings == {}


class TestTheCheck:
    def test_flags_an_unused_import(self):
        assert unused_imports("from typing import Dict, List\nx: List = []\n") == [
            "1: Dict"
        ]

    def test_docstrings_do_not_count(self):
        source = '"""Uses Dict."""\nfrom typing import Dict\n'
        assert unused_imports(source) == ["2: Dict"]

    def test_exports_and_string_annotations_count(self):
        source = (
            "from typing import TYPE_CHECKING, Optional\n"
            "from a import b\n"
            "if TYPE_CHECKING:\n"
            "    from c import Tracer\n"
            "__all__ = ['b']\n"
            "def f(t: 'Optional[Tracer]') -> None: ...\n"
        )
        assert unused_imports(source) == []

    def test_dotted_import_binds_its_root(self):
        assert unused_imports("import xml.etree.ElementTree\nxml.etree\n") == []
        assert unused_imports("import a.b as c\n") == ["1: c"]
