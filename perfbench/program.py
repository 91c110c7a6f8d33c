"""Locate the curvcalc sources of this checkout and import them.

The benchmark measures the library as it stands in the checkout it was
started from, never an installed copy, so the import path is pinned to
``<checkout>/src`` and checked after import.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def import_curvcalc():
    """Import curvcalc and curvcalc.cli from <checkout>/src."""
    package_dir = os.path.join(SRC, "curvcalc")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise BenchmarkError(f"no curvcalc sources at {package_dir}")
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import curvcalc
    import curvcalc.cli

    loaded = os.path.dirname(os.path.abspath(curvcalc.__file__))
    if loaded != package_dir:
        raise BenchmarkError(f"curvcalc was imported from {loaded}, not {package_dir}")
    return curvcalc
