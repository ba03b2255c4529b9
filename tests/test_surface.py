"""The package exports no function that its own code leaves unused.

Every function `nacent` exports is either used by a module of the package
(a name loaded, an attribute read or a name imported, outside
`__init__.py`) or a documented entry point that no module calls. A
function that only tests reach belongs in `tests/oracles.py` or nowhere.
"""

import ast
import inspect
import re
from pathlib import Path

import nacent
from nacent.cli import REPORT_FIELDS

# exported for users, named in the README, called by no module of the package
DOCUMENTED_ENTRY_POINTS = ("save_group",)

SRC = Path(nacent.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def names_used_by_the_package() -> set[str]:
    """Names the modules other than `__init__.py` refer to; a function's own
    definition is not a reference to it."""
    used: set[str] = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_exported_function_is_used_or_documented():
    exported = {name for name, obj in vars(nacent).items()
                if inspect.isfunction(obj) and not name.startswith("_")}
    unused = exported - names_used_by_the_package() - set(DOCUMENTED_ENTRY_POINTS)
    assert sorted(unused) == []


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
