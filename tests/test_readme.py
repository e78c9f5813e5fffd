"""The README's library-layout table stays in step with the package."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "imbalanced_ssl"


def _layout_table_modules() -> list[str]:
    """The first cell of every row of the table under "## Library layout"."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_layout_table_names_every_module_once():
    named = _layout_table_modules()
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert len(named) == len(set(named)), named
    assert set(named) == modules
