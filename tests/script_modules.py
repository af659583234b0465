"""The one loader of the scripts under tools/ and bench/ that tests import:
neither directory is a package, so each script is loaded from its file."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path, name: str):
    """The module of the file at path, registered in sys.modules as name
    before it runs (dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
