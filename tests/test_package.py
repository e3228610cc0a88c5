"""The package surface: exported names and the README example."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import anisospec

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(anisospec.__path__, "anisospec.") if not m.name.endswith("__main__")
)


@pytest.mark.parametrize("module", ["anisospec"] + MODULES)
def test_exported_names_resolve(module):
    # the lazy FEM names of the package resolve through its module __getattr__
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert getattr(mod, name) is not None, f"{module}.{name}"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    assert first == f"{math.pi**2} {1.0 / 48.0}"
