import os

import pytest

import slh2


@pytest.fixture
def child_env():
    """The environment for a child interpreter, with the directory of the
    imported slh2 first on its PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slh2.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
