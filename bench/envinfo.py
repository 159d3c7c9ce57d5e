"""The environment block attached to every benchmark result.

It records what decides the numbers besides the code: numpy and its BLAS,
every thread-count variable (``*_THREADS``), the CPUs it may use, the machine
load around the run, and which sources were measured.
"""
from __future__ import annotations

import hashlib
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

# Other processes using more than this many CPUs on average, or the
# hypervisor stealing more than this share of CPU time, marks a run contended.
CONTENDED_OTHER_CPUS = 0.25
CONTENDED_STEAL_SHARE = 0.05


def _cpu_jiffies() -> tuple[int, int, int] | None:
    """(busy, total, steal) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    total = sum(fields[:8])
    return total - idle - steal, total, steal


def _own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the measured code
    where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((src / "ctcseq").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class EnvironmentProbe:
    """Snapshots taken when created and when ``finish`` is called."""

    def __init__(self, root: Path):
        self.root = root
        self.loadavg_before = os.getloadavg()
        self._wall0 = time.monotonic()
        self._cpu0 = _own_cpu_seconds()
        self._jiffies0 = _cpu_jiffies()

    def finish(self) -> dict:
        wall = time.monotonic() - self._wall0
        own = _own_cpu_seconds() - self._cpu0
        jiffies1 = _cpu_jiffies()
        other_cpus = steal_share = None
        if self._jiffies0 is not None and jiffies1 is not None and wall > 0:
            hz = os.sysconf("SC_CLK_TCK")
            busy = (jiffies1[0] - self._jiffies0[0]) / hz
            total = jiffies1[1] - self._jiffies0[1]
            other_cpus = max(0.0, busy - own) / wall
            steal_share = (jiffies1[2] - self._jiffies0[2]) / total if total else 0.0
        contended = other_cpus is not None and (
            other_cpus > CONTENDED_OTHER_CPUS or steal_share > CONTENDED_STEAL_SHARE
        )
        return {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
            "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_before": list(self.loadavg_before),
            "loadavg_after": list(os.getloadavg()),
            "other_busy_cpus": other_cpus,
            "steal_share": steal_share,
            "contended": contended,
            "git_commit": _git_commit(self.root),
            "source_sha256": _source_digest(self.root / "src"),
        }
