"""Every test starts and ends with no Monte-Carlo worker alive."""

import os

import pytest

from wienerdr import mc


@pytest.fixture(autouse=True)
def no_child_left():
    """Close the worker pool after each test and fail the test that leaves
    a child process behind, so no test inherits another's workers."""
    yield
    mc._close_pool()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
