"""Memory and CPU of this process or a child, read from ``/proc``."""

from __future__ import annotations

import os

_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def _status_kb(field: str, pid: int | None) -> int:
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc status")


def peak_rss_mb(pid: int | None = None) -> float:
    """High-water resident set size (``VmHWM``) in MB."""
    return _status_kb("VmHWM:", pid) / 1024.0


def rss_mb(pid: int | None = None) -> float:
    """Current resident set size (``VmRSS``) in MB."""
    return _status_kb("VmRSS:", pid) / 1024.0


def child_cpu_ns(pid: int) -> int:
    """User + system CPU of process *pid* (all its threads), in ns at clock
    tick (10 ms) resolution — callers read it around a whole pass, never
    around one op."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # Fields after the parenthesized command name; utime and stime are
        # fields 14 and 15 of the full line.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_NS
