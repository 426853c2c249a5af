"""`src/beamloc` holds only what the program runs.

Every top-level function and class in the package must be referenced by
code in `src/`, in `perfbench/` or by a console-script entry point in
`pyproject.toml`. A helper that only tests call belongs in `tests/oracles.py`,
and a second implementation of a job belongs nowhere. Code references are
names, attributes and imported names, matched by bare name; strings and
comments do not count, and neither does a definition's reference to itself.

Every name a file in `tests/` imports must be read by an expression in that
file, or be imported from that file by another one, and each
`tests/test_<name>.py` other than the acceptance and surface checks holds
the tests of `src/beamloc/<name>.py`, so each module has one test module.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _referenced_names(tree: ast.Module) -> set[str]:
    found = set()
    for statement in tree.body:
        own = statement.name if isinstance(statement, DEFINITIONS) else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                found.add(name)
    return found


def unreferenced_definitions(root: Path) -> list[str]:
    """`module.name` of each top-level definition in `root`'s package that no
    program code references."""
    modules = {path: _parse(path) for path in sorted((root / "src" / "beamloc").glob("*.py"))}
    program = [*modules.values(), *map(_parse, sorted((root / "perfbench").glob("*.py")))]
    references = set().union(*map(_referenced_names, program))
    # console scripts: name = "module:function"
    references |= set(re.findall(r'=\s*"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    return [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name not in references
    ]


def test_every_src_definition_is_used_by_the_program():
    unused = unreferenced_definitions(ROOT)
    assert not unused, f"no program code references {', '.join(unused)}"


def unread_test_imports(root: Path) -> list[str]:
    """`file:line: name` of each name a test file imports and nothing reads."""
    modules = {path.stem: _parse(path) for path in sorted((root / "tests").glob("*.py"))}
    # a name another test file imports from this one counts as read there
    reexported = {
        (node.module, alias.name)
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in modules
        for alias in node.names
    }
    unread = []
    for stem, tree in modules.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and (stem, name) not in reexported:
                    unread.append(f"tests/{stem}.py:{node.lineno}: {name}")
    return unread


def test_every_test_import_is_read():
    unread = unread_test_imports(ROOT)
    assert not unread, "imported and never read: " + ", ".join(unread)


def test_every_test_module_names_a_src_module():
    """`test_<module>.py`, or `test_<module>_<part>.py` for one part of a module."""
    modules = {path.stem for path in (ROOT / "src" / "beamloc").glob("*.py")}
    strays = [
        path.name
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        if path.name not in ("test_acceptance.py", "test_src_surface.py")
        and not any(f"{path.stem}_".startswith(f"test_{module}_") for module in modules)
    ]
    assert not strays, "no src/beamloc module of that name: " + ", ".join(strays)
