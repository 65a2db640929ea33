"""README's documented API against the package."""
import argparse
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_runs():
    """The import block under "## Library surface" names only what the package has."""
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_section_flags_are_parsed():
    """Every --flag named under "## CLI" is one a subcommand takes, or the top-level --version."""
    from motifx.cli import build_parser
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {"--version"}.union(*(p._option_string_actions for p in commands.choices.values()))
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    assert named and named <= known, sorted(named - known)
