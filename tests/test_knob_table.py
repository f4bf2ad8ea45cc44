"""The README's knob table lists exactly the ``REPRO_*`` variables the
package reads: adding or removing one means editing the table."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _table_knobs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return {KNOB.search(line).group() for line in section.splitlines()
            if line.startswith("| `REPRO_")}


def test_readme_knob_table_matches_the_source():
    used = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        used |= set(KNOB.findall(path.read_text()))
    assert _table_knobs() == used
    assert len(used) == 8
