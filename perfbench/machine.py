"""The machine's state and speed, as a run records them.

The VM this benchmark was built on changes speed by up to 40% over
minutes as its neighbours come and go.  Every timed unit is therefore
bracketed by ``probe()``, a fixed pure-Python loop, and CPU-bound times
are reported rescaled to the speed at which the probe takes
``PROBE_REF_S``: ``time * PROBE_REF_S / probe_s``.  The probe is
benchmark code, so a change to the program moves the rescaled time
exactly as it moves the wall time; only the machine's drift cancels.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

#: Probe duration at the reference speed.
PROBE_REF_S = 0.005


def probe() -> float:
    """Seconds one fixed loop of integer and dict work takes now."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(50_000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


def machine_state() -> Dict[str, Any]:
    """CPUs this process may use, 1-minute load, and ``/proc/stat`` ticks."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "steal_ticks": ticks[7] if len(ticks) > 7 else 0,
        "cpu_ticks": sum(ticks),
    }
