"""Every example under ``examples/`` still imports.

An example is product code's only caller for some helpers, so deleting
such a helper must fail here. Each example keeps its work under a
``__main__`` guard: importing one runs no simulation.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert 'if __name__ == "__main__":' in path.read_text()
    spec = importlib.util.spec_from_file_location("example_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
