"""Host steal: the share of the guest's work time that the host took away.

On a shared host the hypervisor can hold a vCPU back while the guest has
work for it.  The guest counts that time as `steal` in /proc/stat, and it
shows up in a unit's wall time but not in its CPU time.  The benchmark
reports wall times with that share taken out, so that they measure the
program rather than the host's other tenants.

Between two readings, each vCPU's steal is counted in proportion to how
busy the vCPU was: a vCPU that idles also collects a little steal each
time it wakes, and none of that delays the unit.  For a unit that keeps
one vCPU busy the result is its wall time less the time stolen from that
vCPU; for one that keeps two busy, less half the steal of both.  Where
/proc/stat cannot be read the share is 0 and wall times stay as measured.
"""

from __future__ import annotations

FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
BUSY = ("user", "nice", "system", "irq", "softirq")


def jiffies() -> dict[str, dict[str, int]]:
    """The per-vCPU `cpuN` lines of /proc/stat, or {} where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = [line.split() for line in fh if line.startswith("cpu")]
    except OSError:
        return {}
    return {f[0]: dict(zip(FIELDS, map(int, f[1:9]))) for f in lines if f[0] != "cpu"}


def stolen_share(before: dict, after: dict) -> float:
    """Steal as a share of work time between two readings of jiffies()."""
    stolen = work = 0.0
    for cpu, a in after.items():
        b = before.get(cpu)
        if b is None:
            continue
        d = {k: a[k] - b[k] for k in FIELDS}
        busy = sum(d[k] for k in BUSY)
        total = busy + d["idle"] + d["iowait"]
        if total > 0:
            stolen += d["steal"] * busy / total
            work += busy
    return stolen / (work + stolen) if work > 0 else 0.0


def unstolen(wall: float, before: dict, after: dict) -> float:
    """`wall` less the share of it the host stole."""
    return wall * (1.0 - stolen_share(before, after))
