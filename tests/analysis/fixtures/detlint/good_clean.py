"""Known-good fixture: every set/rng/clock use follows the repo's
determinism discipline — detlint must report zero findings here."""

import random


def aggregate(groups):
    seen = set()
    for name in sorted(groups):               # sorted(): order-free
        if name in seen:                      # membership: order-free
            continue
        seen.add(name)
    labels = {g for g in groups if g}         # set -> set: order-free
    count = len(labels)                       # len(): order-free
    lowest = min(labels) if labels else None  # min(): order-free
    return sorted(x * 2 for x in labels), count, lowest


def draw_victims(candidates, seed, k):
    rng = random.Random(seed)                 # seeded instance: fine
    pool = sorted(set(candidates))            # canonical order first
    return [pool[rng.randrange(len(pool))] for _ in range(k)]


BACKEND = "file"


def set_cache_backend(name):
    """A deployment setting: the one allowlisted global setter."""
    global BACKEND
    prev, BACKEND = BACKEND, name
    return prev
