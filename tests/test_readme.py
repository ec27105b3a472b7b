"""README.md and the package namespace describe each other."""

import re
from pathlib import Path
from types import ModuleType

import oddcover

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def capability_entry_points():
    """The code names in the entry-point column of README's capability table."""
    table = README.split("| capability | entry point | guarantee |", 1)[1]
    rows = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(line.split("|")[2])
    return [name for cell in rows for name in re.findall(r"`(\w+)", cell)]


def test_every_export_is_in_the_readme():
    exported = [
        name
        for name, value in vars(oddcover).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert len(exported) >= 20
    assert [name for name in exported if not re.search(rf"`{name}\b", README)] == []


def test_every_capability_imports_from_the_package():
    names = capability_entry_points()
    assert len(names) >= 16
    assert [name for name in names if not callable(getattr(oddcover, name, None))] == []
