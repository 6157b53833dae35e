"""Docs health: links resolve, named CLI subcommands exist.

Docs rot in two characteristic ways: a relative link keeps pointing at a
file that moved, or prose keeps naming a ``repro-experiments`` subcommand
that was renamed.  Both are cheap to machine-check, so CI does (the
``docs`` job runs exactly this module); it is plain pytest so the tier-1
suite catches the same rot locally.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DOC_FILES = sorted([REPO / "README.md", *(REPO / "docs").glob("*.md")])

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_PROGRAM = re.compile(r"(?:repro-experiments|python -m repro\.cli)\s+([^\n`]*)")

# Flags of the repro-experiments CLI and whether they consume the next token.
_VALUE_FLAGS = {
    "--episodes", "--layout", "--workers", "--fleet-size",
    "--profile", "--slots", "--cache-dir", "--max-entries", "--demos",
    "--epochs", "--result-cache-dir",
}
_BARE_FLAGS = {"--list", "--save", "--no-cache", "--result-cache", "--deep"}
_ID_TOKEN = re.compile(r"^[a-z][a-z0-9-]*$")


def _cli_names() -> set[str]:
    from repro.experiments import EXPERIMENTS

    return set(EXPERIMENTS) | {"all", "suite", "serve", "lint"}


def _subcommand_mentions(text: str, known: set[str]) -> list[str]:
    """Tokens used in subcommand position after a CLI program name."""
    mentions = []
    for match in _PROGRAM.finditer(text):
        tokens = match.group(1).split()
        index = 0
        while index < len(tokens):
            token = tokens[index].rstrip(".,;:`\"')")
            if token in _BARE_FLAGS:
                index += 1
            elif token in _VALUE_FLAGS:
                index += 2
            elif token.startswith("-"):
                index += 1  # unknown flag: be conservative, skip it alone
            elif _ID_TOKEN.match(token):
                mentions.append(token)
                index += 1
            else:
                break  # paths, redirects, prose -- end of the command
    return mentions


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = path.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name} has broken relative links: {broken}"


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_named_subcommands_exist(path):
    known = _cli_names()
    unknown = [
        token
        for token in _subcommand_mentions(path.read_text(), known)
        if token not in known
    ]
    assert not unknown, (
        f"{path.name} names CLI subcommands that do not exist: {unknown} "
        f"(known: {sorted(known)})"
    )


def test_checker_catches_a_broken_command():
    """The subcommand scanner must actually flag nonsense, or the doc tests
    are vacuous."""
    known = _cli_names()
    assert _subcommand_mentions("run `repro-experiments tbl99` now", known) == ["tbl99"]
    assert _subcommand_mentions(
        "repro-experiments --fleet-size 64 tbl1", known
    ) == ["tbl1"]
    assert _subcommand_mentions(
        "repro-experiments suite --episodes 1 --layout seen --workers 2", known
    ) == ["suite"]
    assert _subcommand_mentions(
        "repro-experiments --result-cache tbl1", known
    ) == ["tbl1"]
    assert _subcommand_mentions("repro-experiments lint --deep", known) == ["lint"]
    assert "bench" not in known
