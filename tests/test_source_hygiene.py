"""Source hygiene of the package: no module imports a name it never uses,
no module defines a private module-level function that nothing in the
package refers to (a helper left behind, or one kept only for tests), and
every public module-level function or class has a caller in the package,
and every public method or property of a package class is named by some
attribute access in the package. ``homok/__init__`` binds ``__version__``
and nothing else, so each name is imported from the module that defines
it, and the README's Library example runs and shows the values it
computes. No module uses an ``assert`` statement, which ``python -O``
strips. The suite's own warning filters fail a test that leaves a file open.

Exempt: import lines marked ``# noqa: F401``, the public names in
``UNCALLED_PUBLIC`` and the class members in ``UNREAD_MEMBERS``.
"""

import ast
import re
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
    "snf.py invert_unimodular": "timed by name in perfbench/ (ROADMAP item 1)",
    "snf.py subgroup_invariants": "timed by name in perfbench/",
    "bracket.py project_element": "timed by name in perfbench/",
    "groups.py generated_record_index": "timed by name in perfbench/; the "
    "package projects by the index that a check already gave",
    "oracles.py count_homogeneous_tables_product": "the brute-force product "
    "that checks the backtracking count of verify's prop29 on tiny cells",
    "oracles.py span_in_ambient": "the explicit element closure that checks "
    "the cocyclic rows and lattice_invariants in the tests",
    "oracles.py order_profile": "the kill census that pins a subgroup's "
    "type independently of snf in the tests",
    "oracles.py invariants_match_profile": "reads an invariant chain "
    "against order_profile's census in the tests",
}

# public methods and properties that no attribute access in the package
# names, kept on purpose: "module.py Class.member" -> the reason
UNREAD_MEMBERS: dict[str, str] = {}


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


def test_package_binds_only_its_version():
    """``homok/__init__`` imports nothing and re-exports nothing, so
    ``import homok`` loads no submodule."""
    _, tree = _modules()["__init__.py"]
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.Assign):
            bound += [ast.unparse(t) for t in node.targets]
        else:
            bound.append(ast.unparse(node).splitlines()[0])
    assert bound == ["__version__"]


def test_readme_library_example_runs_as_shown():
    """The README's Library block imports each name from its module, and
    each value it shows in a comment is the one it computes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    shown = [
        (expr, ast.literal_eval(value))
        for expr, value in re.findall(r"^(\S.*?)\s+#\s*(\([^)]*\))", block, re.M)
    ]
    assert [(expr, eval(expr, namespace)) for expr, _ in shown] == shown
    assert [value for _, value in shown] == [(), (3, 3, 3)]


def test_every_import_is_used():
    unused = []
    for name, (lines, tree) in _modules().items():
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
    """Referred to elsewhere in the package, or a ``cli.cmd_*`` handler
    (dispatched by name). An ``__all__`` exempts nothing: it would hide a
    helper only tests call."""
    defined, seen = _definitions(_modules())
    uncalled = [
        f"{m} {node.name}"
        for m, node in defined
        if not node.name.startswith("_")
        and node.name not in seen
        and not (m == "cli.py" and node.name.startswith("cmd_"))
    ]
    assert sorted(uncalled) == sorted(UNCALLED_PUBLIC)


def test_every_public_member_is_read():
    """Every public method or property of a package class is named as an
    attribute (``x.name``) somewhere in the package. The check goes by name
    alone, so a member that shares its name with another one read
    elsewhere passes."""
    modules = _modules()
    read = {
        sub.attr
        for _, tree in modules.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute)
    }
    unread = [
        f"{m} {cls.name}.{node.name}"
        for m, (_, tree) in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert sorted(unread) == sorted(UNREAD_MEMBERS)


def test_no_assert_statements():
    """Internal checks raise, so that ``python -O`` cannot strip them."""
    asserts = [
        f"{name}:{node.lineno}"
        for name, (_, tree) in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


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
