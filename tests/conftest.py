import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kleinfour.verify import VerifyContext


@pytest.fixture(scope="session")
def ctx():
    """Shared E6 context: tables and searches are expensive, build them once."""
    return VerifyContext()


@pytest.fixture(scope="session")
def e6_rs(ctx):
    return ctx.rs


@pytest.fixture(scope="session")
def e6(ctx):
    return ctx.table


@pytest.fixture(scope="session")
def e6_compact(ctx):
    return ctx.cb


@pytest.fixture(scope="session")
def census(ctx):
    return ctx.census


@pytest.fixture(scope="session")
def rank3(ctx):
    return ctx.rank3
