import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def oracles():
    """tools/oracles.py, the package-free brute-force module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "tools" / "oracles.py"
    spec = importlib.util.spec_from_file_location("parhiggs_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
