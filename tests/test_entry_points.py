import importlib
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _scripts():
    with open(PYPROJECT, "rb") as fh:
        return sorted(tomllib.load(fh)["project"]["scripts"].items())


@pytest.mark.parametrize("name, target", _scripts())
def test_console_script_imports_to_a_callable(name, target):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), name
