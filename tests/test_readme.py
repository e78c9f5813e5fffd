"""The README's library-layout and run-artifacts tables stay in step with
the package."""

import pathlib
import re

from imbalanced_ssl.control import VIEWS
from imbalanced_ssl.network import HEAD_NAMES
from imbalanced_ssl.trainer import metrics_columns

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


def test_run_artifacts_table_names_every_metrics_column():
    """The backquoted names of the metrics.csv row, each <view>, <head> and
    <c> spelled out, are the columns of metrics_columns, each once."""
    section = (ROOT / "README.md").read_text().split("## Run artifacts", 1)[1]
    row = re.search(r"^\| `metrics\.csv` \|(.*)\|$", section, flags=re.MULTILINE).group(1)
    k = 3
    named = []
    for pattern in re.findall(r"`([^`]+)`", row):
        names = [pattern]
        for token, values in (("<view>", VIEWS), ("<head>", HEAD_NAMES),
                              ("<c>", [str(c) for c in range(k)])):
            if token in pattern:
                names = [name.replace(token, v) for name in names for v in values]
        named += names
    assert sorted(named) == sorted(metrics_columns(k))
