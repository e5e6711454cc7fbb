"""The environment of a child Python process that a test starts."""

import os

import qsim

SRC = os.path.dirname(os.path.dirname(qsim.__file__))


def child_env(**extra) -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    child imports the qsim under test whether or not it is installed and
    whether or not PYTHONPATH is set; `extra` entries are added."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}
