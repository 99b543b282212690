"""Every Python file of the checkout parses under the oldest grammar the
package supports (requires-python >= 3.10), so a newer construct such as
`except*` or a `type` statement fails here on any interpreter, not only
on a 3.10 one.  The files are only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_the_checkout_has_sources():
    assert any(path.name == "polyring.py" for path in SOURCES)
    assert any(path.name == "run.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
