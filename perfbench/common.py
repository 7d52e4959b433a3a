"""Shared helpers: program import, statistics, resources, host fingerprint.

Everything here is benchmark-side; nothing touches the program's own
configuration.  The program is imported from ``<checkout>/src``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Everything a run writes (model cache, orchestrator run dirs, registries,
# span dumps, run records) stays under this ignored directory.
OUT = BENCH_DIR / "out"

# Program knobs that change what is measured.  A run with any of these set
# is flagged: every number the benchmark reports is meant to be the
# program's default configuration.
NON_DEFAULT_PREFIXES = ("REPRO_ENGINE_", "REPRO_ORCH_FAULT_")
NON_DEFAULT_NAMES = ("REPRO_DISABLE_FAST_PATH",)
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def import_program() -> None:
    """Make ``repro`` importable from the checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """Hash of the program and the benchmark code: keys stored digests."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass
class Timing:
    """A sample set summarised as median plus the deepest honest tail.

    The tail is the highest nearest-rank percentile that still has at
    least ten samples beyond it; with fewer than eleven samples it is the
    maximum.
    """

    samples: List[float]

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def tail(self) -> Tuple[float, str]:
        ordered = sorted(self.samples)
        if len(ordered) < 11:
            return ordered[-1], "max"
        rank = len(ordered) - 10  # 1-based rank with ten samples above it
        return ordered[rank - 1], f"p{100.0 * rank / len(ordered):.4g}"


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------
SHM_DIR = Path("/dev/shm")


def shm_entries() -> set:
    """Names of the shared-memory segments currently in ``/dev/shm``."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


# prctl option: orphaned descendants are re-parented to this process, not init.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of every descendant whose parent exits first.

    The program starts processes of its own (the engine's tile workers,
    orchestrator pool workers, multiprocessing's resource tracker); with
    this set, :func:`stop_children` finds every one of them, however deep.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children only
        pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so cleanup still runs.

    Forked children inherit the handler; in them it falls back to the
    default action, so they die at once instead of unwinding the parent's
    frames they carry.
    """
    owner = os.getpid()

    def handler(signum, frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _children() -> List[int]:
    """Pids whose parent is this process, exited-but-unreaped ones included."""
    own, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == own:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 3.0, limit_s: float = 15.0) -> List[int]:
    """Stop and reap every child process; return the pids that would not go.

    The multiprocessing resource tracker is closed first, the way it
    expects (it exits when its pipe closes).  Children still running after
    ``grace_s`` get SIGTERM, then SIGKILL; every exited child is reaped, so
    none outlives the run, not even as a zombie.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except Exception:  # noqa: BLE001 — not running, or already stopped
        pass
    multiprocessing.active_children()  # joins the finished Process objects
    start = time.monotonic()
    signalled = {}
    while True:
        kids = _children()
        for pid in kids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        kids = _children()
        elapsed = time.monotonic() - start
        if not kids or elapsed > limit_s:
            return kids
        sig = signal.SIGTERM if elapsed < grace_s + 2.0 else signal.SIGKILL
        for pid in kids:
            if elapsed >= grace_s and signalled.get(pid) != sig:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                signalled[pid] = sig
        time.sleep(0.02)


def peak_rss_mb() -> Tuple[float, float]:
    """(self, reaped children) peak resident set size in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")), "version": str(blas.get("version"))}
    except Exception as exc:  # noqa: BLE001 — fingerprint is best effort
        return {"name": "unknown", "version": f"unavailable ({type(exc).__name__})"}


def non_default_env() -> Dict[str, str]:
    """Set program knobs that move a run off the default configuration."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith(NON_DEFAULT_PREFIXES) or key in NON_DEFAULT_NAMES
    }


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_fingerprint() -> Dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "non_default": non_default_env(),
    }


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Named:
    """One named metric as printed in the report."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    # Workload-specific named metrics (the report's vocabulary).
    named: Dict[str, Named] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    info: Dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def remember_digest(workload: str, seed: int, digest: str, extra: Dict) -> Optional[str]:
    """Store this run's outcome digest; return the earlier one for the same inputs.

    Keyed by workload, seed and the hash of the program and benchmark
    code, so a repeat run of the same code on the same seed must
    reproduce it exactly.
    """
    path = OUT / "digests.json"
    key = f"{workload}:{seed}:{source_digest()}"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    previous = table.get(key, {}).get("digest")
    if previous is None:
        table[key] = {"digest": digest, **extra}
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return previous


def quantile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
