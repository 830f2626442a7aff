"""Read-only record of the machine and libraries a benchmark run used."""

import os
import platform
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def cpu_model() -> str:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    """Unified/data cache size per level as the kernel reports it for cpu0."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        level, size = _read(index / "level"), _read(index / "size")
        if level and size:
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int, n_samples: int) -> dict:
    largest = n_samples * np.dtype(np.complex128).itemsize
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches_cpu0": cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_workers_default": scipy.fft.get_workers(),
        "seed": seed,
        "n_samples": n_samples,
        "largest_live_array_bytes": largest,
        "largest_live_array_note": f"one complex128 grid array, N={n_samples}",
    }
