"""Lint gates.

No module imports a name it never uses. A name counts as used when it
appears as an identifier anywhere in the module (a bare name, or the base of
an attribute chain); text inside string literals does not count.
``src/misa/__init__.py`` is skipped, since its imports are the package's
re-exports.

No module-level UPPER_CASE constant in ``src/misa`` goes unread: each is
read (a bare name or an attribute, not an assignment or an import)
somewhere in ``src/misa`` or ``tests``.

No parameter with a default, of a function in ``src/misa``, goes unpassed:
some call in ``src/misa``, ``tests`` or ``perfbench`` passes it, by keyword
or by position.

No function or class in ``src/misa`` is an orphan: each is referred to in
``src/misa`` outside its own definition and ``__init__.py``, or in
``perfbench``. A helper only tests call is deleted, not kept for them.

No call in ``src/misa`` restates a default: it passes no keyword whose
source text is that parameter's default, or that dataclass field's default,
for a function or dataclass defined in ``src/misa``.

No field declared in a class body in ``src/misa`` goes unread: each is read
as an attribute somewhere in ``src/misa`` or ``perfbench``. A result field
only tests read is deleted, with the code that fills it.

Every ```json block in README.md is a config that ``config_from_dict``
accepts, so the documented format cannot drift from the parser.

Every name a ```python block in README.md imports ``from misa`` is an
attribute of ``misa``, so the documented API cannot name a removed export.

README.md names no stale code: every backticked snake_case or CamelCase
identifier in its prose is defined in ``src/misa`` (a function, class,
field, assigned name or attribute, or a module) or appears there as a
string constant. File names such as ``records.csv`` and the words in
``NOT_CODE`` are exempt. A dotted span whose first part is a module of
``src/misa``, such as ``harness.solve_instance``, names something that module
defines or imports at its top level, so a helper moved to another module
cannot be named under its old one.
"""

import ast
import json
import re
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import misa
from misa import harness
from misa.harness import ExperimentConfig
from misa.simgen import SimSpec

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


def readme_spans(text: str) -> list:
    """Backticked spans outside fenced code blocks."""
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", prose)


def readme_names(text: str) -> set:
    """Backticked snake_case or CamelCase identifiers outside fenced code
    blocks; a dotted span such as ``harness.solve_instance`` or
    ``objective.ObjectiveContext`` yields each of its parts."""
    names = set()
    for span in readme_spans(text):
        parts = span.split(".")
        snake = span.islower() and "_" in span
        camel = any(CAMEL_CASE.fullmatch(part) for part in parts)
        if (DOTTED_NAME.fullmatch(span) and (snake or camel)
                and not (len(parts) > 1 and parts[-1] in FILE_SUFFIXES)):
            names.update(parts)
    return names - NOT_CODE


def unresolved_qualified(text: str, sources: dict) -> list:
    """Dotted README spans whose first part is a module of ``sources``
    {stem: source} and whose second part that module neither defines nor
    imports at its top level. File names such as ``model.py`` are exempt."""
    top = {}
    for stem, source in sources.items():
        names = top[stem] = set()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).split(".")[0] for a in node.names)
    unresolved = []
    for span in readme_spans(text):
        parts = span.split(".")
        if (DOTTED_NAME.fullmatch(span) and len(parts) > 1 and parts[0] in top
                and parts[-1] not in FILE_SUFFIXES and parts[1] not in top[parts[0]]):
            unresolved.append(span)
    return sorted(unresolved)


def test_readme_scan():
    text = ("`run_x` and `mod.sub_y`, not `records.csv`, `plain`, `a b_c`\n"
            "`mod.Klass`, not `NaN`, `MISA`, `T`, `C_m`\n"
            "```\n`in_fence`\n```\n")
    assert readme_names(text) == {"run_x", "mod", "sub_y", "Klass"}
    src = {"mod": "class Klass:\n    f_x: int = 0\ndef run_x(): return 'sub_y'\n"}
    assert {"mod", "Klass", "f_x", "run_x", "sub_y"} <= defined_names(src)
    # a part defined anywhere passes readme_names, but a module-qualified
    # span must resolve in its own module: sub_y is only a string in mod,
    # f_x a class field, and run_x is defined in mod, not in other
    src["other"] = "from mod import Klass\nLIMIT = 3\n"
    text = ("`mod.run_x`, `mod.Klass.f_x`, `mod.sub_y`, `mod.f_x`, `other.Klass`,\n"
            "`other.LIMIT`, `other.run_x`, `other.py`, `elsewhere.run_x`\n"
            "```\n`other.in_fence`\n```\n")
    assert unresolved_qualified(text, src) == ["mod.f_x", "mod.sub_y", "other.run_x"]


def test_readme_names_defined():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    text = (ROOT / "README.md").read_text()
    assert sorted(readme_names(text) - defined_names(sources)) == []
    assert unresolved_qualified(text, sources) == []


def test_readme_json_configs_load():
    blocks = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    assert blocks
    for block in blocks:
        harness.config_from_dict(json.loads(block))


def misa_imports(source: str) -> set:
    """Names imported ``from misa`` by the source."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "misa"
            for a in node.names}


def test_misa_imports_scan():
    src = "import misa\nfrom misa import (a,\n    b as c)\nfrom misa.io import d\n"
    assert misa_imports(src) == {"a", "b"}


def test_readme_python_imports_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.M | re.S)
    names = set().union(*map(misa_imports, blocks))
    assert names
    assert sorted(n for n in names if not hasattr(misa, n)) == []


def unpassed_defaults(defining: dict, calling: list) -> list:
    """(module, function, parameter) for each parameter with a default, of a
    function in the modules {stem: source} of ``defining``, that no call in
    the sources ``calling`` passes by keyword or by position. Calls match
    definitions by name: an import alias resolves to the imported name, and
    a class name to its ``__init__``. A call with ``*args`` passes every
    positional parameter, and one with ``**kwargs`` every keyword."""
    positional, keywords = {}, {}
    for source in calling:
        tree = ast.parse(source)
        alias = _aliases(tree)
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = _call_name(call, alias)
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            positional[name] = max(positional.get(name, 0), n_pos)
            kws = keywords.setdefault(name, set())
            kws.update(k.arg for k in call.keywords)  # None for **kwargs
    unpassed = []
    for stem, source in defining.items():
        tree = ast.parse(source)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            params = fn.args.posonlyargs + fn.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if id(fn) in owner and not static:
                params = params[1:]
            n_req = len(params) - len(fn.args.defaults)
            kws = keywords.get(name, set())
            for i, p in enumerate(params[n_req:], start=n_req):
                if positional.get(name, 0) <= i and p.arg not in kws and None not in kws:
                    unpassed.append((stem, name, p.arg))
            for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if d is not None and p.arg not in kws and None not in kws:
                    unpassed.append((stem, name, p.arg))
    return sorted(unpassed)


def test_default_scan():
    mod = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
           "def g(x=0): pass\n"
           "class K:\n    def __init__(self, u, v=1): pass\n"
           "    def m(self, w=1): pass\n"
           "    @staticmethod\n    def s(z=1): pass\n")
    use = ("from mod import g as h\nf(0, 1, e=5)\nh(*xs)\nK(0)\nk.m(2)\n"
           "k.s()\n'f(0, 1, 2, d=1)'\n")
    assert unpassed_defaults({"mod": mod}, [mod, use]) == [
        ("mod", "K", "v"), ("mod", "f", "c"), ("mod", "f", "d"), ("mod", "s", "z")]
    assert unpassed_defaults({"mod": "def f(a=1): pass\n"}, ["f(**kw)\n"]) == []


def test_no_unpassed_defaults():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    calling = [p.read_text() for p in [*FILES, *(ROOT / "perfbench").glob("*.py")]]
    assert unpassed_defaults(sources, calling) == []


def _call_name(call, alias) -> str:
    """The name a call resolves to: the called name or attribute, with an
    import alias mapped to the imported name."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    return alias.get(name, name)


def _aliases(tree) -> dict:
    return {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            for a in n.names if a.asname}


def restated_defaults(defining: dict, calling: dict) -> list:
    """(module, line, callee, keyword) for each call in the sources
    {stem: source} of ``calling`` that passes a keyword whose ``ast.unparse``
    text equals the default of that parameter, or of that dataclass field,
    of a function or dataclass defined in the modules of ``defining``. Calls
    match definitions by name, as in ``unpassed_defaults``; a class name
    matches its ``__init__`` and its dataclass fields. A field set by a call,
    such as ``field(default_factory=...)``, is skipped."""
    defaults = {}
    for source in defining.values():
        tree = ast.parse(source)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defaults.setdefault(node.name, {}).update(
                    (f.target.id, ast.unparse(f.value)) for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                    and f.value is not None and not isinstance(f.value, ast.Call))
            elif isinstance(node, ast.FunctionDef):
                a = node.args
                params = a.posonlyargs + a.args
                pairs = [*zip(params[len(params) - len(a.defaults):], a.defaults),
                         *((p, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d)]
                name = owner[id(node)] if node.name == "__init__" else node.name
                defaults.setdefault(name, {}).update((p.arg, ast.unparse(d)) for p, d in pairs)
    restated = []
    for stem, source in calling.items():
        tree = ast.parse(source)
        alias = _aliases(tree)
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = _call_name(call, alias)
            given = defaults.get(name, {})
            restated += [(stem, call.lineno, name, k.arg) for k in call.keywords
                         if k.arg in given and ast.unparse(k.value) == given[k.arg]]
    return sorted(restated)


def test_restated_default_scan():
    mod = ("from dataclasses import dataclass, field\n"
           "def f(a, b=1, *, c='x', d=None): pass\n"
           "@dataclass\nclass D:\n    u: int\n    v: float = 0.5\n"
           "    w: list = field(default_factory=list)\n"
           "class K:\n    def __init__(self, z=np.inf): pass\n"
           "    def m(self, y=2): pass\n")
    use = ("from mod import f as g\n"
           "f(0, b=1, c='y', d=None)\n"
           "g(0, c='x')\n"
           "D(u=0, v=0.5, w=field(default_factory=list))\n"
           "D(u=1, v=0.25)\n"
           "K(z=np.inf).m(y=2)\n"
           "K(z=np.nan)\n"
           "h(b=1)\n"
           "'f(b=1)'\n")
    assert restated_defaults({"mod": mod}, {"use": use}) == [
        ("use", 2, "f", "b"), ("use", 2, "f", "d"), ("use", 3, "f", "c"),
        ("use", 4, "D", "v"), ("use", 6, "K", "z"), ("use", 6, "m", "y")]


def test_no_restated_defaults():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    assert restated_defaults(sources, sources) == []


def test_presets_restate_no_default():
    # the preset table lists only what each protocol changes
    defaults = {cls: {f.name: f.default for f in fields(cls) if f.default is not MISSING}
                for cls in (SimSpec, ExperimentConfig)}
    restated = [(name, key) for name, entry in harness._PRESETS.items()
                for cls, given in zip((SimSpec, ExperimentConfig), entry)
                for key, value in given.items()
                if key in defaults[cls] and value == defaults[cls][key]]
    assert restated == []


def names_read(tree) -> Counter:
    """How often each name is read in tree, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def orphan_defs(defining: dict, referring: list, exempt=frozenset()) -> list:
    """(module, name) for each function or class defined in the modules
    {stem: source} of ``defining`` that nothing refers to: its name is read
    nowhere in ``defining`` outside its own definition, and is neither read
    nor a whole string constant in the sources ``referring`` (the perfbench
    tracer patches functions by name). Dunder methods, which Python calls
    itself, and the names in ``exempt`` are skipped."""
    trees = {stem: ast.parse(source) for stem, source in defining.items()}
    reads = sum((names_read(t) for t in trees.values()), Counter())
    for source in referring:
        tree = ast.parse(source)
        reads += names_read(tree)
        reads.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                     and isinstance(n.value, str) and n.value.isidentifier())
    orphans = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name) and node.name not in exempt
                    and reads[node.name] == names_read(node)[node.name]):
                orphans.append((stem, node.name))
    return sorted(orphans)


def test_orphan_scan():
    mod = ("def run(): return _helper()\n"
           "def _helper(): return 1\n"
           "def _orphan(n): return _orphan(n - 1) if n else 'run'\n"
           "def patched(): pass\n"
           "def kept(): pass\n"
           "class K:\n    def __init__(self): pass\n    def m(self): return self.m\n")
    bench = "from mod import run\nrun()\nwrap(mod, 'patched')\nK()\n"
    # recursion and a mention inside its own body do not keep _orphan
    assert orphan_defs({"mod": mod}, [bench], exempt={"kept"}) == [
        ("mod", "_orphan"), ("mod", "m")]
    assert orphan_defs({"mod": mod}, []) == [
        ("mod", "K"), ("mod", "_orphan"), ("mod", "kept"), ("mod", "m"),
        ("mod", "patched"), ("mod", "run")]


def test_no_orphan_defs():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")
               if p.name != "__init__.py"}
    bench = [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    # the closed-form Kotz log-density is the reference the criterion-3
    # checks need, though no solver calls it
    assert orphan_defs(sources, bench, exempt={"kotz_log_pdf"}) == []


def unread_fields(defining: dict, reading: list, exempt=frozenset()) -> list:
    """(module, class, field) for each field declared in a class body (an
    annotated name, as a dataclass declares it) in the modules {stem: source}
    of ``defining`` whose name no source in ``reading`` reads as an
    attribute. Fields match reads by name alone, whatever the object read.
    The names in ``exempt`` are classes or ``Class.field`` pairs."""
    reads = set()
    for source in reading:
        reads.update(n.attr for n in ast.walk(ast.parse(source))
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = []
    for stem, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or cls.name in exempt:
                continue
            unread += [(stem, cls.name, f.target.id) for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and f.target.id not in reads
                       and f"{cls.name}.{f.target.id}" not in exempt]
    return sorted(unread)


def test_unread_field_scan():
    mod = ("@dataclass\nclass R:\n    value: float\n    planted: int = 0\n"
           "    rows: list = field(default_factory=list)\n"
           "    def f(self): return self.value\n"
           "class Columns:\n    a: int\n"
           "class K:\n    nu: float\n    mu: float\n    X = 1\n")
    use = "r.rows.append(1)\nr.planted = 2\n'planted'\nK().mu\n"
    # a write, or the name in a string, is no read
    assert unread_fields({"mod": mod}, [mod, use]) == [
        ("mod", "Columns", "a"), ("mod", "K", "nu"), ("mod", "R", "planted")]
    assert unread_fields({"mod": mod}, [mod, use], exempt={"Columns", "K.nu"}) == [
        ("mod", "R", "planted")]


def test_no_unread_fields():
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "misa").glob("*.py")}
    reading = [*sources.values(), *(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))]
    # RunRecord's fields are the records.csv columns, written through
    # dataclasses.fields; KotzParams.nu is the Kotz nu the README documents
    # and the closed-form tests pin. The scan matches names only, so a read
    # of an unrelated attribute of the same name keeps a field: np.trace
    # would hide an unread field named trace.
    assert unread_fields(sources, reading, exempt={"RunRecord", "KotzParams.nu"}) == []
