"""Self-tests of the benchmark: ``python -m pytest perfbench/tests``."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture(scope="session")
def constants():
    """Op constants harvested from the smoke-scale lake."""
    from repro.datasets import build_lslod_lake

    from perfbench.ops import harvest
    from perfbench.system import LAKE_SEED, SMOKE_SCALE

    return harvest(build_lslod_lake(scale=SMOKE_SCALE, seed=LAKE_SEED))
