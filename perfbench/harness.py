"""Shared pieces of the benchmark: paths, workload table, child processes,
aggregation and the machine fingerprint.

The benchmark never imports ``rwre_lab`` in its own process. Every measured
run is a fresh ``python -m rwre_lab.cli`` child, because every real user pays
interpreter start-up, imports and set-up on every run.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_ROOT = ROOT / ".perfbench_out"

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    """How one workload invokes the CLI. Its config is configs/<name>.json."""

    command: str
    threads: int


# per command: the result files that must be byte-identical on replay
ARTIFACTS = {"gap": ("gap_report.json", "gap_trace.csv"),
             "rate": ("rate_grid.csv", "rate_report.json"),
             "verify": ("verify_report.json",)}

WORKLOADS = {
    "gap-iid": Workload("gap", 2),
    "rate-dp-2d": Workload("rate", 1),
    "verify-2d": Workload("verify", 1),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, stale reference, ...)."""


def check_checkout():
    if not (SRC / "rwre_lab" / "cli.py").is_file():
        raise BenchError(f"no rwre_lab sources under {SRC}; run from a full checkout")


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def load_spec() -> dict:
    return load_json(SPEC)


def config_path(name: str) -> Path:
    return CONFIGS / f"{name}.json"


def load_config(name: str) -> dict:
    return load_json(config_path(name))


def config_hash(raw: dict) -> str:
    """Hash of the workload config file's content, independent of the seed."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    killed: bool
    stdout: str


def run_child(argv: list, cwd: Path, log_stem: Path, timeout_s: float) -> ChildResult:
    """Run one child to completion and read its own rusage through wait4.

    Wall time runs from spawn to reaping. Output goes to files, never to
    pipes, so the blocking wait cannot deadlock on a full pipe.
    """
    out_path = log_stem.with_suffix(".out")
    err_path = log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0, killed=os.WIFSIGNALED(status),
        stdout=out_path.read_text(errors="replace"))


def cli_argv(name: str, seed: int, threads: int, out_dir: Path,
             spans_path: Path | None = None) -> list:
    """The CLI command line of one run, under traced_cli.py when spans_path is set."""
    args = ["--config", str(config_path(name)), "--seed", str(seed), "--threads", str(threads),
            "--out", str(out_dir), WORKLOADS[name].command]
    if spans_path is None:
        return [sys.executable, "-m", "rwre_lab.cli", *args]
    return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path), *args]


def summarize(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read(str(index / "level")).strip()
        size = _read(str(index / "size")).strip()
        if level.isdigit() and size and int(level) >= best[0]:
            best = (int(level), f"L{level} {size}")
    return best[1]


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash() -> str:
    """Hash of every source file, a build fingerprint that needs no git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(workloads) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_hash": source_hash(),
        "config_hash": {name: config_hash(load_config(name)) for name in workloads},
    }
