"""Wiring for the differential suite.

pytest runs with ``--import-mode=importlib``, so the shared harness
module (:mod:`oracle_matrix`) is not importable from test modules
unless this directory is on ``sys.path`` — put it there before
collection imports the tests.
"""

import pathlib
import sys

_HERE = str(pathlib.Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
