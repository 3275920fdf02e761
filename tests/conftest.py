import functools
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def _load(relative_path: str):
    path = REPO_ROOT / relative_path
    name = f"_by_path_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def load_by_path():
    """Loader of a repository file as a module, by its path from the repo root.

    `scripts/` and `perfbench/` are not packages, and the fixture oracle must
    import nothing from this one. Each file is loaded once per session,
    under a private module name that no import statement uses."""
    return _load
