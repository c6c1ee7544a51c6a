"""Helpers shared by the test modules."""

import contextlib
import sys

# Hypothesis raises the recursion limit while a property test runs, by about
# 2,000 frames; a command parses its corpus under the limit the interpreter
# started with.
STARTUP_RECURSION_LIMIT = sys.getrecursionlimit()


@contextlib.contextmanager
def startup_recursion_limit():
    """Run the body under the interpreter's startup recursion limit."""
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(STARTUP_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(raised)
