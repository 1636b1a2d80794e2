"""The design record: every citation of it leads to a section it has."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "docs" / "DECISIONS.md"
# A citation is the record's path, a comma and a "## " heading in double
# quotes.  Line breaks and the comment marks that continue a line are
# read as one space, so a heading may wrap.
CITATION = re.compile(re.escape("docs/" + RECORD.name) + r'`?(?:,\s*"([^"]+)")?')


def _citations():
    for path in (ROOT / "README.md", *sorted((ROOT / "src").rglob("*.py")),
                 *sorted((ROOT / "tests").rglob("*.py"))):
        text = re.sub(r"\s*\n\s*#?\s*", " ", path.read_text(encoding="utf-8"))
        for match in CITATION.finditer(text):
            yield path.relative_to(ROOT).as_posix(), match.group(1)


def test_every_citation_names_a_section_of_the_record():
    sections = set(re.findall(r"^## (.+)$",
                              RECORD.read_text(encoding="utf-8"), re.M))
    cited = list(_citations())
    assert cited
    unknown = [(path, heading) for path, heading in cited
               if heading not in sections]
    assert not unknown, f"citations naming no section: {unknown}"
