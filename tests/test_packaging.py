"""The library stays pure standard-library Python: nothing to install but itself."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rasesim"


def test_every_library_import_is_the_package_or_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is the package's own
                names = [node.module]
            else:
                continue
            foreign += [f"{module.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in {"rasesim", *sys.stdlib_module_names}]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # the [project] table runs to the next table header; read without tomllib, which Python 3.10 lacks
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.MULTILINE | re.DOTALL)
    assert project is not None
    assert re.findall(r"^dependencies\s*=.*$", project.group(1), re.MULTILINE) == ["dependencies = []"]
