"""Every file the guides point at exists.

Scans ``docs/*.md`` and ``.claude/skills/verify/SKILL.md`` for two kinds of
reference and fails on any that does not resolve:

* relative Markdown links ``[text](target)`` — resolved against the
  directory of the file that contains them (web links, mail links and
  in-page ``#anchors`` are skipped; a ``#fragment`` on a file link is
  dropped before resolving);
* backticked repository paths — a code span mentioning ``src/…``,
  ``tests/…``, ``examples/…``, ``benchmarks/…``, ``docs/…`` or
  ``perfbench/…`` ending in ``.py``, ``.md`` or ``.json`` — resolved
  against the repository root.

Deleting or renaming a module, test, example or guide therefore has to
update the prose that names it.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

GUIDES = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
]

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|examples|benchmarks|docs|perfbench)/[\w./-]*?\.(?:py|md|json))"
    r"(?![\w/-])"
)
EXTERNAL = ("http://", "https://", "mailto:", "#")


def relative_links(text):
    """The relative link targets of Markdown *text*, fragments dropped."""
    targets = []
    for target in LINK.findall(text):
        if target.startswith(EXTERNAL):
            continue
        target = target.split("#", 1)[0]
        if target:
            targets.append(target)
    return targets


def repo_paths(text):
    """The repository paths named inside the code spans of *text*."""
    return [
        path for span in CODE_SPAN.findall(text) for path in REPO_PATH.findall(span)
    ]


def test_scanners_find_links_and_paths():
    text = (
        "See [the guide](datalog.md#storage), [site](https://example.org), "
        "[top](#top) and `tests/test_obs.py::test_x` or `src/repro/a.py`; "
        "not `PYTHONPATH=/x/src/b.py` nor plain src/c.py."
    )
    assert relative_links(text) == ["datalog.md"]
    assert repo_paths(text) == ["tests/test_obs.py", "src/repro/a.py"]


@pytest.mark.parametrize("guide", GUIDES, ids=lambda path: path.name)
def test_guide_references_resolve(guide):
    text = guide.read_text(encoding="utf-8")
    missing = [
        f"link {target}" for target in relative_links(text)
        if not (guide.parent / target).exists()
    ] + [
        f"path {path}" for path in repo_paths(text) if not (ROOT / path).exists()
    ]
    assert not missing, f"{guide.relative_to(ROOT)} points at missing files: {missing}"
