"""README and docstrings: each module describes its own internals in its
docstring, and README lists every module once and every CLI command.

README keeps the user contract (install, data layout, the CLI, file
formats, profiles); its package map gives one line per file, so a new,
renamed or deleted module shows up here rather than as a stale README.
"""

import ast
import os
import re

import pytest

from meshtkg.cli import COMMANDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
README_MAX_LINES = 220
DOCUMENTED_DIRS = ("src/meshtkg", "tools")


def python_files():
    """(directory, file name) of every Python file under DOCUMENTED_DIRS."""
    return sorted((d, name) for d in DOCUMENTED_DIRS
                  for name in os.listdir(os.path.join(ROOT, d)) if name.endswith(".py"))


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def fenced_block(heading):
    """The first fenced code block under the README section `## heading`."""
    section = readme().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```\n")[1]


def package_map():
    """(directory, file name) per file line of the package map, in order:
    an unindented line names a directory, an indented one a file in it."""
    entries, directory = [], None
    for line in fenced_block("Package map").splitlines():
        if not line.startswith(" "):
            directory = line.rstrip("/")
        elif line.strip():
            entries.append((directory, line.split()[0]))
    return entries


@pytest.mark.parametrize("directory, name", python_files())
def test_every_file_has_a_module_docstring(directory, name):
    with open(os.path.join(ROOT, directory, name), encoding="utf-8") as fh:
        assert ast.get_docstring(ast.parse(fh.read())), f"{directory}/{name} has no docstring"


def test_package_map_lists_every_file_exactly_once():
    assert sorted(package_map()) == python_files()


def test_cli_block_names_every_command():
    named = set(re.findall(r"^meshtkg (\S+)", fenced_block("CLI"), flags=re.M))
    assert named == set(COMMANDS)


def test_readme_stays_short():
    assert len(readme().splitlines()) < README_MAX_LINES
