"""The package layout: each submodule imports as itself, and the README's
python examples run as written."""

import pathlib
import re

import pytest

SUBMODULES = ("cdcheck", "cli", "distortion", "errors", "geodesics1d", "ikrw",
              "measure", "mmspace", "transport")

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_as_itself(name):
    # `import cdknlab.<name> as x` binds the package attribute <name>, so a
    # package-level name of that spelling would shadow the module
    ns = {}
    exec(f"import cdknlab.{name} as x", ns)
    assert ns["x"].__name__ == f"cdknlab.{name}"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _python_blocks(README.read_text())
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
