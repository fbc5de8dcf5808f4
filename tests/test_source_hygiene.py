"""Source hygiene of the package: no module imports a name it never uses,
and no module defines a private module-level function that nothing in the
package refers to (a helper left behind, or one kept only for tests).

Exempt: the re-exports of ``__init__``, and import lines marked
``# noqa: F401``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "homok"


def _modules():
    """File name -> (source lines, syntax tree), for every module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        out[path.name] = (text.splitlines(), ast.parse(text, filename=str(path)))
    return out


def _referenced(node) -> set[str]:
    """Every name that ``node`` looks up, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_import_is_used():
    unused = []
    for name, (lines, tree) in _modules().items():
        if name == "__init__.py":
            continue
        used = set()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _referenced(node)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if "# noqa: F401" in lines[alias.lineno - 1] or bound in used:
                    continue
                unused.append(f"{name}:{alias.lineno} {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    defined, references = [], []
    for name, (_, tree) in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((name, node.name))
                # a function that only calls itself is still unreferenced
                references.append(_referenced(node) - {node.name})
            else:
                references.append(_referenced(node))
    seen = set().union(*references)
    assert [f"{m} {f}" for m, f in defined if f not in seen] == []
