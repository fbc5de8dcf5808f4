"""Source hygiene of the package: no module imports a name it never uses,
no module defines a private module-level function that nothing in the
package refers to (a helper left behind, or one kept only for tests), and
every public module-level function or class has a caller in the package
or is exported. The suite's own warning filters fail a test that leaves a
file open.

Exempt: the re-exports of ``__init__``, import lines marked
``# noqa: F401``, and the public names in ``UNCALLED_PUBLIC``.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homok"

# public names that nothing in the package calls, kept on purpose
UNCALLED_PUBLIC = {
    "snf.py determinant": "the unimodularity check of acceptance criterion 11",
    "snf.py smith_diagonal": "timed by name in perfbench/ (ROADMAP item 1)",
    "snf.py subgroup_basis": "timed by name in perfbench/ (ROADMAP item 1)",
}


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


def _exported(tree) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _definitions(modules):
    """Module-level functions and classes as (module, node) pairs, and
    every name referred to outside the definition that binds it."""
    defined, references = [], []
    for name, (_, tree) in modules.items():
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defined.append((name, node))
                # a definition that only refers to itself is still unreferenced
                references.append(_referenced(node) - {node.name})
            else:
                references.append(_referenced(node))
    return defined, set().union(*references)


def test_every_private_function_is_referenced():
    defined, seen = _definitions(_modules())
    assert [
        f"{m} {node.name}"
        for m, node in defined
        if not isinstance(node, ast.ClassDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in seen
    ] == []


def test_every_public_name_has_a_caller():
    """Referred to elsewhere in the package, listed in ``homok.__all__`` or
    its module's ``__all__``, or a ``cli.cmd_*`` handler (dispatched by
    name)."""
    modules = _modules()
    defined, seen = _definitions(modules)
    package_all = _exported(modules["__init__.py"][1])
    uncalled = [
        f"{m} {node.name}"
        for m, node in defined
        if not node.name.startswith("_")
        and node.name not in seen | package_all | _exported(modules[m][1])
        and not (m == "cli.py" and node.name.startswith("cmd_"))
    ]
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC)


def test_a_file_left_open_fails_its_test(tmp_path):
    (tmp_path / "test_leak.py").write_text(
        "def test_leak(tmp_path):\n"
        "    path = tmp_path / 'x'\n"
        "    path.write_text('1')\n"
        "    assert open(path).read() == '1'\n"
    )
    config = ROOT / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(config), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout
    assert "ResourceWarning: unclosed file" in proc.stdout
