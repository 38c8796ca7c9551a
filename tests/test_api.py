"""The public names are exactly those the README sketch and the demos import."""
import ast
import pathlib
import re

import threecolor

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _library_sketch() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _names_imported_from_threecolor(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "threecolor"
        for alias in node.names
    }


def test_all_is_what_the_readme_and_demos_import():
    sources = [_library_sketch()] + [
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))
    ]
    used = set().union(*map(_names_imported_from_threecolor, sources))
    assert set(threecolor.__all__) == used
    assert len(threecolor.__all__) == len(used)


def test_every_public_name_resolves():
    for name in threecolor.__all__:
        assert getattr(threecolor, name) is not None
