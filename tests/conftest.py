import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def slow_clock(monkeypatch):
    """The solver's clock advances a second per read, so every search
    outlives a budget of a few milliseconds and stops on the clock."""
    import coinlever.blp as blp

    ticks = itertools.count()
    monkeypatch.setattr(blp, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
