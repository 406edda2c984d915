import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# the value the session started with; an in-process `cli.main` call sets it to "1"
SESSION_OPENBLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")


@pytest.fixture(autouse=True)
def _restore_openblas_threads(monkeypatch):
    """Teardown puts OPENBLAS_NUM_THREADS back as the test found it, so
    that what a test's in-process `main` call set does not reach a later
    test's child processes.  The setenv records the value (or its absence)
    for teardown to restore."""
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", value or "")
    if value is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
