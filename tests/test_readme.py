"""README's documented API against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_runs():
    """The import block under "## Library surface" names only what the package has."""
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
