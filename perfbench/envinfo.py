"""Environment record stored with every result, so that numbers from
different machines are never compared.

Hardware facts are read, never written, from /proc and /sys.  Every workload
is cache-resident on the machine the baseline was taken on (the largest
array, about 4.6 MB on the finest probe-3d-t2 grid, sits far inside its
300 MiB L3), so the benchmark reports no memory-bandwidth metric.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(root, child_env):
    """Machine, versions, commit and the thread settings the passes ran with."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(Path(root)),
        "thread_env": {k: child_env.get(k) for k in THREAD_VARS},
        "bandwidth_metric": "none: every workload is cache-resident",
    }
