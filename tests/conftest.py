"""Checks that span the whole test session."""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """At the end of the session the test process has no child left: every
    process a test started, such as the CSV reader's workers, was reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test process has a child left (pid {pid or 'still running'})")
