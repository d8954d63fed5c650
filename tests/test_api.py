"""The public surface: package exports and the README's library example."""

import re
from pathlib import Path

import lrpostcov

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in lrpostcov.__all__ if not hasattr(lrpostcov, name)]
    assert missing == []
    assert len(set(lrpostcov.__all__)) == len(lrpostcov.__all__)


def _library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(_library_use_block(), "README.md (Library use)", "exec"), namespace)
    assert len(namespace["summary"].eigenvalues) > 0
    assert namespace["Y"].r >= 1
