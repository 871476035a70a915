"""Runtime statistics for intra-parallel sections.

These counters produce the measurements the paper reports: section wall
time (the "sections" bars of Figure 6), the *exposed* update-transfer
time (the dashed "intra updates" area of Figure 5a — time a replica
spends finishing update transfers after its last local task), and the
extra-copy overhead of `inout` variables (the 6% figure quoted for GTC).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class IntraStats:
    """Cumulative per-replica counters across all sections."""

    sections: int = 0
    tasks_launched: int = 0
    tasks_executed: int = 0
    tasks_reexecuted: int = 0
    #: wall-clock time spent inside section_end (compute + updates)
    section_time: float = 0.0
    #: roofline compute time charged for task execution
    task_compute_time: float = 0.0
    #: wall time from "my last local task finished" to "all update
    #: transfers of the section complete" — the non-overlapped update
    #: transfer cost (Figure 5a, dashed)
    exposed_update_time: float = 0.0
    #: update traffic posted by this replica
    update_msgs_sent: int = 0
    update_bytes_sent: int = 0
    #: update traffic applied by this replica
    update_msgs_applied: int = 0
    update_bytes_applied: int = 0
    #: `inout` protection copies
    copy_count: int = 0
    copy_bytes: int = 0
    copy_time: float = 0.0
    #: recoveries triggered by replica failures
    recoveries: int = 0

    def merge(self, other: "IntraStats") -> "IntraStats":
        """Element-wise sum (for aggregating replicas/ranks)."""
        out = IntraStats()
        for f in dataclasses.fields(IntraStats):
            setattr(out, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return out
