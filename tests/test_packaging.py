"""The declared runtime dependencies import, and the public names resolve."""

import importlib
import os
import re
import sys

import pytest

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_import():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for spec in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_public_names_resolve():
    import tatkit

    missing = [name for name in tatkit.__all__ if not hasattr(tatkit, name)]
    assert not missing, f"names in tatkit.__all__ are gone: {missing}"
