"""Every example script imports cleanly against the current package.

The examples are not collected by pytest, so an example importing a removed
name would otherwise only fail when someone runs it.  ``run_path`` with a
non-``__main__`` run name executes the imports and definitions but not
``main()``.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
