import os
import sys
import time

import pytest

from regula.suites import SUITE_NAMES, run_suite

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session")
def reports():
    """Every suite's report, run once per session, with its time printed."""
    out = {}
    for name in SUITE_NAMES:
        t0 = time.monotonic()
        out[name] = run_suite(name)
        print(f"suite {name}: {time.monotonic() - t0:.1f}s")
    return out
