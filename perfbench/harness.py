"""Shared plumbing for the benchmark: paths, child processes, statistics.

The benchmark process (``run.py``) imports only the standard library and
this module, so its own memory and CPU never mix into the figures it
reports; every timed piece of work runs in a child process that is
waited for with ``os.wait4``, which returns that child's own resource
usage (its reaped pool workers included).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
KERNEL_DIR = OUT / "kernel"
CHILD = BENCH_DIR / "child.py"

#: Environment switches of the program that would change the measured
#: path; the benchmark always measures the defaults.
_PROGRAM_ENV_PREFIX = "REPRO_"


def load_spec() -> Dict:
    """Workload parameters, goldens and tolerances (``spec.json``)."""
    return json.loads((BENCH_DIR / "spec.json").read_text())


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scratch_dir(prefix: str) -> pathlib.Path:
    """A fresh directory for one run's caches, stores and temp files."""
    OUT.mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))


def child_env(tmp: pathlib.Path,
              kernel_dir: pathlib.Path = KERNEL_DIR) -> Dict[str, str]:
    """Environment for program processes.

    ``REPRO_CACHE_DIR`` points at the benchmark-owned kernel directory,
    which is built once before anything is timed (the kernel ``.so``
    and the default result cache share that variable; result caches
    are always passed explicitly, per run).
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(_PROGRAM_ENV_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(kernel_dir)
    env["TMPDIR"] = str(tmp)
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """One program process, timed from spawn to exit."""

    def __init__(self, args: Sequence[str], env: Dict[str, str],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE) -> None:
        self.args = list(args)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(self.args, env=env, cwd=str(ROOT),
                                     stdout=stdout, stderr=stderr,
                                     text=True)
        self.wall_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.maxrss_mb: Optional[float] = None

    def reap(self, timeout: Optional[float] = None) -> int:
        """Wait for exit; record wall, CPU and peak RSS of the tree.

        With ``timeout`` the child is killed if it has not exited by
        then.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(
                self.proc.pid, 0 if deadline is None else os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.send_signal(signal.SIGKILL)
                deadline = None
            else:
                time.sleep(0.01)
        self.wall_s = time.perf_counter() - self.started
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode

    def communicate(self, timeout: float) -> Tuple[str, str]:
        """Collect output, then reap; kills the child on timeout."""
        try:
            out, err = _read_all(self.proc, timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        self.reap()
        return out, err

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.reap()


def _read_all(proc: subprocess.Popen, timeout: float) -> Tuple[str, str]:
    """Read both pipes to EOF without reaping (``wait4`` does that)."""
    import threading
    chunks = {"out": [], "err": []}

    def pump(stream, key):
        for line in stream:
            chunks[key].append(line)

    threads = [threading.Thread(target=pump, args=(proc.stdout, "out")),
               threading.Thread(target=pump, args=(proc.stderr, "err"))]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            raise subprocess.TimeoutExpired(proc.args, timeout)
    return "".join(chunks["out"]), "".join(chunks["err"])


def run_child(args: Sequence[str], env: Dict[str, str],
              timeout: float = 170.0) -> Tuple[Child, str, str]:
    child = Child(args, env)
    out, err = child.communicate(timeout)
    if child.proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:4])} exited "
                           f"{child.proc.returncode}: {err[-2000:]}")
    return child, out, err


def python(*args: str) -> List[str]:
    return [sys.executable, *args]


def build_kernel() -> Dict:
    """Compile the C kernel into the benchmark's kernel directory.

    Runs before anything is timed.  Returns the host block (backend
    flavor and flags, numpy/scipy versions, usable CPUs), which is kept
    next to the kernel so later runs of the same code skip the probe.
    """
    KERNEL_DIR.mkdir(parents=True, exist_ok=True)
    key = f"{sys.executable}:{source_digest()}"
    cached = KERNEL_DIR / "host.json"
    try:
        doc = json.loads(cached.read_text())
        if doc.get("key") == key and any(KERNEL_DIR.rglob("*.so")):
            return doc["host"]
    except (OSError, ValueError):
        pass
    tmp = scratch_dir("build-")
    try:
        _, out, _ = run_child(python(str(CHILD), "setup", "host"),
                              child_env(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host = json.loads(out.strip().splitlines()[-1])
    cached.write_text(json.dumps({"key": key, "host": host}))
    return host


# -- statistics -----------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(values: Sequence[float], beyond: int = 10
                    ) -> Tuple[Optional[float], Optional[float]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percent, value)``; ``(None, None)`` for too few samples.
    p95 needs 200 samples, p90 100.
    """
    n = len(values)
    if n <= beyond:
        return None, None
    percent = 100.0 * (1.0 - beyond / n)
    for standard in (99.0, 95.0, 90.0, 75.0, 50.0):
        if percent >= standard:
            percent = standard
            break
    ordered = sorted(values)
    index = min(n - 1, max(0, int(round(percent / 100.0 * (n - 1)))))
    return percent, float(ordered[index])


def quantile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = q * (len(ordered) - 1)
    lo = int(index)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (index - lo))


# -- provenance -----------------------------------------------------------

def _digest(files: Iterable[pathlib.Path]) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def source_digest() -> str:
    """SHA-256 over the program's source tree (works without git)."""
    files = sorted(p for p in SRC.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts
                   and p.suffix in (".py", ".c", ".h"))
    return _digest(files + [ROOT / extra
                            for extra in ("setup.py", "pyproject.toml")
                            if (ROOT / extra).is_file()])


def bench_digest() -> str:
    """SHA-256 over the benchmark's own code and parameters."""
    return _digest(sorted(BENCH_DIR.glob("*.py"))
                   + [BENCH_DIR / "spec.json"])


def git_state() -> Dict[str, Optional[object]]:
    """Git revision and dirty flag; ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no",
             "--", "src", "setup.py", "pyproject.toml"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def provenance(host: Dict) -> Dict:
    """Who measured what: revision, CPUs, kernel flavor, versions."""
    return {
        "git": git_state(),
        "source_digest": source_digest(),
        "bench_digest": bench_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": host.get("usable_cpus"),
        "backend": host.get("backend"),
        "python": platform.python_version(),
        "numpy": host.get("numpy"),
        "scipy": host.get("scipy"),
        "machine": platform.machine(),
    }


# -- work-counter determinism ---------------------------------------------

def check_counters(workload: str, seed: int, digest: str,
                   counters: Dict[str, int]) -> List[str]:
    """Compare this run's work counters with the last run of this code.

    The store lives in the benchmark's output directory and is keyed by
    workload, seed and ``digest`` (program and benchmark), so only runs
    of identical code and inputs are compared.  Returns the names that
    differ.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "counters.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    key = f"{workload}:{seed}:{digest}"
    previous = store.get(key)
    store[key] = counters
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    if previous is None:
        return []
    names = set(previous) | set(counters)
    return sorted(n for n in names if previous.get(n) != counters.get(n))
