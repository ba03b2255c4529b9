"""The package defines no function that its own code leaves unused.

Every module-level function of the package is either used by a module of
the package (a name loaded, an attribute read or a name imported, outside
`__init__.py` and outside the function's own body) or an exported,
documented entry point that no module calls. A function that only tests
reach belongs in `tests/oracles.py` or nowhere. Every parameter of a
function is read by its body.
Every module-level UPPER_CASE constant is read by some module, every
exported error type is raised by some module, and no module but
`__init__.py` imports a name it never uses, and no function body compiles a
regular expression. The README's Python example runs as written.
"""

import ast
import inspect
import re
from pathlib import Path

import nacent
from nacent.cli import REPORT_FIELDS

# exported for users, named in the README, called by no module of the package
DOCUMENTED_ENTRY_POINTS = ("save_group", "semidirect_product")

SRC = Path(nacent.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def package_modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def names_used_by_the_package() -> set[str]:
    """Names the modules other than `__init__.py` refer to; a function's own
    definition, and its calls to itself, are no reference to it."""
    used: set[str] = set()
    for name, tree in package_modules():
        if name == "__init__.py":
            continue
        for top in tree.body:
            refs = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            if isinstance(top, ast.FunctionDef):
                refs.discard(top.name)
            used |= refs
    return used


def test_every_exported_function_is_used_or_documented():
    exported = {name for name, obj in vars(nacent).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    unused = exported - names_used_by_the_package() - set(DOCUMENTED_ENTRY_POINTS)
    assert sorted(unused) == []


def test_every_unexported_function_is_used():
    """A module-level function, private or not, that `nacent` does not
    export has no caller but the package, so a helper fails here once its
    last caller goes."""
    used = names_used_by_the_package()
    unused = [f"{name}: {node.name}" for name, tree in package_modules() for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name not in vars(nacent) and node.name not in used]
    assert unused == []


def test_every_constant_is_read():
    """A knob goes once its last reader does: each module-level UPPER_CASE
    name is loaded, or read as an attribute, by some module."""
    constants = [(name, target.id) for name, tree in package_modules() for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)]
    read = set()
    for _, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert constants and [f"{m}: {c}" for m, c in constants if c not in read] == []


def test_every_exported_error_is_raised():
    exported = {name for name, obj in vars(nacent).items()
                if inspect.isclass(obj) and issubclass(obj, nacent.NacentError)
                and obj is not nacent.NacentError}
    raised: set[str] = set()
    for _, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(exported - raised) == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in package_modules():
        if name == "__init__.py":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {imp}" for imp in sorted(imported - loaded)]
    assert unused == []


def test_every_parameter_is_read():
    """A parameter goes once its function stops reading it: every parameter
    of every function or method of the package, nested ones included, is
    loaded somewhere in that function's body (`self` and `cls` excepted)."""
    dead = []
    for name, tree in package_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [f"{name}: {fn.name}({p})" for p in params
                     if p not in read and p not in ("self", "cls")]
    assert dead == []


def test_no_regex_is_compiled_in_a_function_body():
    """A pattern compiles once, at import, as a module-level constant; a
    `re.compile` in a function body compiles on every call."""
    inside = [f"{name}:{node.lineno}" for name, tree in package_modules()
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "re"]
    assert inside == []


def test_documented_entry_points_are_exported_and_documented():
    readme = README.read_text(encoding="utf-8")
    for name in DOCUMENTED_ENTRY_POINTS:
        assert inspect.isfunction(getattr(nacent, name, None)), name
        assert f"`{name}`" in readme, name


def test_readme_lists_the_report_fields():
    """The README's CLI section names the report fields in schema order."""
    cli_section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    listed = re.search(r"with fields\s+`([^`]*)`", cli_section).group(1)
    assert tuple(name.strip() for name in listed.split(",")) == REPORT_FIELDS


def test_readme_library_example_runs(capsys):
    """The README's Python example runs as written against the package."""
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("{'a': True,"), printed
