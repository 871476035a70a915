"""detlint — the repo's determinism & oracle-discipline linter.

The reproduction's whole value rests on bit-determinism: scenario
hashes are cache keys, fast paths are proven against oracles by
byte-identity, and failure schedules must replay exactly from seed.
PR 8's differential harness caught a real run-to-run nondeterminism —
kill-order iteration over ``set()``\\ s of identity-hashed ``Process``
objects — *at runtime, by fuzzing*.  That defect class is statically
detectable; this package encodes the repo's invariants as lint rules
so the next one never lands:

``DET001``
    Ordering-sensitive consumption (iteration, ``list()``/``tuple()``,
    ``.pop()``, ``*`` unpacking, ``.join()``, ``sum()``) of a
    ``set``/``frozenset`` value.  Set iteration order depends on the
    process hash seed; wrap the consumption in ``sorted(...)`` or use
    an insertion-ordered ``dict`` instead.
``DET002``
    Identity-dependent logic — ``id()`` calls and object-``hash()``
    — in the simulate / replication / mpi / intra layers, where
    per-process object addresses must never influence event order.
``DET003``
    Unseeded randomness (module-level ``random.*``, ``numpy.random``
    global state) and wall-clock reads (``time.time`` /
    ``perf_counter`` / ``monotonic``, ``datetime.now``) outside
    ``repro.perf`` timing code and ``benchmarks/``.
``ENV001``
    Raw ``os.environ`` / ``os.getenv`` reads outside
    :mod:`repro._envflags` — every env toggle goes through the
    defensive parsers so garbage values warn instead of diverging.
``ORC001``
    A module-level ``set_*`` function that writes a ``global`` — a
    process-wide switch — unless it is on a short allowlist of
    deployment settings (``set_cache_backend``).  ROADMAP's discipline:
    one execution path, no runtime toggles.

Findings can be suppressed in place with a *justified* comment::

    for p in procs:  # detlint: ignore[DET001] -- procs is a sorted tuple here

and pre-existing accepted findings live in a checked-in baseline
(``tools/detlint_baseline.json``) so new findings block while old ones
do not.  See ``docs/static-analysis.md`` for the full catalog and the
policy for adding rules.

Run it as ``python -m repro.analysis.lint`` (or ``make lint``).
"""

from .baseline import Baseline, load_baseline, write_baseline
from .rules import ALL_RULES, Finding, lint_file, lint_source
from .cli import lint_paths, main

__all__ = [
    "ALL_RULES", "Baseline", "Finding", "lint_file", "lint_paths",
    "lint_source", "load_baseline", "main", "write_baseline",
]
