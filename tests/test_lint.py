"""Lint gates.

No module imports a name it never uses. A name counts as used when it
appears as an identifier anywhere in the module (a bare name, or the base of
an attribute chain); text inside string literals does not count.
``src/misa/__init__.py`` is skipped, since its imports are the package's
re-exports.

No module-level UPPER_CASE constant in ``src/misa`` goes unread: each is
read (a bare name or an attribute, not an assignment or an import)
somewhere in ``src/misa`` or ``tests``.

README.md names no stale code: every backticked snake_case or CamelCase
identifier in its prose is defined in ``src/misa`` (a function, class,
field, assigned name or attribute, or a module) or appears there as a
string constant. File names such as ``records.csv`` and the words in
``NOT_CODE`` are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*(ROOT / "src" / "misa").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_unused_and_ignores_strings():
    src = "import json\nimport os\nfrom a import b as c\nos.sep\nx = 'json c'\n"
    assert unused_imports(src) == [(1, "json"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(defining: dict, reading: list) -> list:
    """(module, name) for each module-level UPPER_CASE name assigned in the
    modules {stem: source} of ``defining`` and read in none of the sources
    ``reading``."""
    read = set()
    for source in reading:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    unread = []
    for stem, source in defining.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [(stem, t.id) for t in targets if isinstance(t, ast.Name)
                       and CONSTANT.fullmatch(t.id) and t.id not in read]
    return sorted(unread)


def test_constant_scan():
    mod = "A = 1\nB = 2\n_C: int = 3\nD = 4\nlower = 5\nclass K:\n    E = 6\n"
    use = "from mod import B\nx = A + mod.D\ny = 'B _C'\n"
    assert unread_constants({"mod": mod}, [mod, use]) == [("mod", "B"), ("mod", "_C")]


def test_no_unread_constants():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    reading = [p.read_text() for p in FILES]
    assert unread_constants(sources, reading) == []


FILE_SUFFIXES = {"csv", "json", "jsonl", "md", "misa", "py", "toml"}
DOTTED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")
CAMEL_CASE = re.compile(r"[A-Z][A-Za-z0-9]+")
# CamelCase words the README uses that name no code
NOT_CODE = {"NaN", "MISA"}


def defined_names(sources: dict) -> set:
    """Names the modules {stem: source} define or hold as string constants."""
    names = set(sources)
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def readme_names(text: str) -> set:
    """Backticked snake_case or CamelCase identifiers outside fenced code
    blocks; a dotted span such as ``harness.solve_instance`` or
    ``objective.ObjectiveContext`` yields each of its parts."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose):
        parts = span.split(".")
        snake = span.islower() and "_" in span
        camel = any(CAMEL_CASE.fullmatch(part) for part in parts)
        if (DOTTED_NAME.fullmatch(span) and (snake or camel)
                and not (len(parts) > 1 and parts[-1] in FILE_SUFFIXES)):
            names.update(parts)
    return names - NOT_CODE


def test_readme_scan():
    text = ("`run_x` and `mod.sub_y`, not `records.csv`, `plain`, `a b_c`\n"
            "`mod.Klass`, not `NaN`, `MISA`, `T`, `C_m`\n"
            "```\n`in_fence`\n```\n")
    assert readme_names(text) == {"run_x", "mod", "sub_y", "Klass"}
    src = {"mod": "class Klass:\n    f_x: int = 0\ndef run_x(): return 'sub_y'\n"}
    assert {"mod", "Klass", "f_x", "run_x", "sub_y"} <= defined_names(src)


def test_readme_names_defined():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    names = readme_names((ROOT / "README.md").read_text())
    assert sorted(names - defined_names(sources)) == []
