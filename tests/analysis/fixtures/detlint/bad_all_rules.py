"""Known-bad fixture: at least one finding per rule family (linted
under a synthetic ``simulate/`` path so the layer-scoped rules apply).
"""

import os
import random
import time

FAST_PATH = True


def set_fast_path(enabled):
    # ORC001: module-level setter writing a global, not allowlisted
    global FAST_PATH
    prev = FAST_PATH
    FAST_PATH = bool(enabled)
    return prev


def consume(items):
    pending = set(items)
    ordered = list(pending)            # DET001: list() over a set
    first = pending.pop()              # DET001: set.pop()
    ranked = sorted(items, key=id)     # DET002: id as sort key
    token = hash(object())             # DET002: object hash
    draw = random.random()             # DET003: unseeded global rng
    t0 = time.perf_counter()           # DET003: wall clock
    debug = os.environ.get("DEBUG")    # ENV001: raw environ read
    return ordered, first, ranked, token, draw, t0, debug
