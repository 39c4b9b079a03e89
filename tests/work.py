"""Exact work counts: the Python lines a call runs in the package's own frames.

Wall time drifts from run to run; the number of line events a call runs is
exact, so a test can pin it. Only frames whose code lives in the
package's directory are counted: the test's own frames, the standard
library and C functions add nothing.
"""

from __future__ import annotations

import os
import sys

import debilandia

PACKAGE = os.path.dirname(debilandia.__file__) + os.sep  # the directory the package was imported from


def lines(fn, *args) -> int:
    """The number of line events fn(*args) runs in package frames, counted with sys.settrace."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def called(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(called)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count
