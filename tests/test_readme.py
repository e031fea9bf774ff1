"""README's start-up table states the size of what each subcommand compiles.

Each row's count is ``wc -l`` of ``__init__.py``, ``cli.py`` (run as
``__main__``) and the modules that ``test_startup.MODULES`` finds the
subcommand loading; the sentence under the table states the size of all of
``src/rwre_lab``.
"""

import re
from pathlib import Path

import pytest

from test_startup import MODULES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwre_lab"
README = (ROOT / "README.md").read_text()
ROW = re.compile(r"^\| `([a-z-]+)` \| [^|]+ \| (\d+) \|$", re.MULTILINE)


def lines(path: Path) -> int:
    """What ``wc -l`` prints for ``path``."""
    return path.read_bytes().count(b"\n")


def module_file(name: str) -> Path:
    return PACKAGE / ("__init__.py" if name == "rwre_lab" else name.split(".")[-1] + ".py")


def test_the_table_has_a_row_per_subcommand():
    assert sorted(command for command, _ in ROW.findall(README)) == sorted(MODULES)


@pytest.mark.parametrize("command, stated", ROW.findall(README))
def test_each_row_counts_what_its_subcommand_loads(command, stated):
    files = {PACKAGE / "cli.py"} | {module_file(name) for name in MODULES[command]}
    assert int(stated) == sum(lines(path) for path in files)


def test_the_total_is_all_of_src():
    stated = re.search(r"`src/` holds (\d+)\s+lines", README)
    assert stated and int(stated.group(1)) == sum(map(lines, PACKAGE.glob("*.py")))
