"""Runs each row of ``tests/limits.py`` as a child process and holds it to the row's limits.

A small launcher, ``LAUNCH``, forks each row's child and reaps it with
``os.wait4``, whose resource usage is that child's alone: ``RUSAGE_CHILDREN``
would report the largest child its parent has ever run. The launcher, not
pytest, forks the child because exec keeps the peak RSS of the memory it
replaces: a child forked from a pytest process of 200 MiB reports at least
200 MiB. The launcher sets ``RLIMIT_AS`` in the child before exec and kills
the child at its wall cap. The streams go to files, so no pipe can fill and
stall a child.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import rwre_lab
from limits import ROWS, Row

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(rwre_lab.__file__))
BY_NAME = {row.name: row for row in ROWS}


class Run(NamedTuple):
    code: int  # the exit code, or minus the signal that ended the child
    killed: bool  # at the wall cap
    wall: float
    rss_mb: float
    stdout: str
    stderr: str
    out: Path


def write_config(row: Row, path: Path):
    """Write the row's config: its base's, each section the row sets merged over the base's."""
    config = json.loads((ROOT / "perfbench" / "configs" / f"{row.base}.json").read_text()
                        ) if row.base else {}
    for key, value in (row.config or {}).items():
        merged = isinstance(value, dict) and isinstance(config.get(key), dict)
        config[key] = {**config[key], **value} if merged else value
    path.write_text(json.dumps(config))


# It runs without site (-S), which halves its start-up. Its argv: the report
# path, the address limit in bytes (0: none), the wall cap in seconds, then the
# child's argv. It reports the child's exit code (minus the signal that ended
# it), whether it was killed at the cap, its wall in seconds and its peak RSS
# in KiB.
LAUNCH = """\
import json, os, resource, signal, sys, time
report, limit, wall, argv = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        if limit:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
killed = False
while not (reaped := os.wait4(pid, os.WNOHANG))[0]:
    if not killed and time.perf_counter() - start >= wall:
        os.kill(pid, signal.SIGKILL)
        killed = True
    time.sleep(0.002)
with open(report, "w") as fh:
    json.dump([os.waitstatus_to_exitcode(reaped[1]), killed, time.perf_counter() - start,
               reaped[2].ru_maxrss], fh)
"""


def run(row: Row, work: Path) -> Run:
    """Run ``row``'s child in ``work``, which it shares with no other row."""
    work.mkdir()
    config, out, report = work / "config.json", work / "out", work / "report.json"
    if row.config is not None or row.base:
        write_config(row, config)
    argv = [sys.executable] + [{"{config}": str(config), "{out}": str(out)}.get(arg, arg)
                               for arg in row.argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p), **row.env)
    with open(work / "stdout", "w") as stdout, open(work / "stderr", "w") as stderr:
        subprocess.run([sys.executable, "-S", "-c", LAUNCH, str(report),
                        str((row.as_kib or 0) * 1024), str(row.wall), *argv],
                       cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=stdout,
                       stderr=stderr, check=True, timeout=row.wall + 60)
    code, killed, wall, rss_kib = json.loads(report.read_text())
    return Run(code, killed, wall, rss_kib / 1024, (work / "stdout").read_text(),
               (work / "stderr").read_text(), out)


def artifacts(out: Path, drop) -> dict:
    """Name -> bytes of each artifact in ``out``, lines that hold ``drop`` left out."""
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {path.name: b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                                if drop is None or drop.encode() not in line)
            for path in files}


def failures(row: Row, done: Run, earlier: Run | None = None) -> list:
    """What ``done`` breaks of ``row``'s limits, one line each; empty when it keeps them all."""
    found = []
    if done.killed:
        found.append(f"killed at the {row.wall} s wall cap")
    elif done.wall >= row.wall:
        found.append(f"took {done.wall:.2f} s, over the {row.wall} s wall cap")
    if done.code != row.exit:
        found.append(f"exit {done.code}, not {row.exit}")
    if row.rss_mb is not None and done.rss_mb >= row.rss_mb:
        found.append(f"peak RSS {done.rss_mb:.0f} MiB, over the {row.rss_mb} MiB cap")
    for stream, text, patterns in (("stdout", done.stdout, row.stdout),
                                   ("stderr", done.stderr, row.stderr)):
        found += [f"{stream} lacks {p!r}" for p in patterns if not re.search(p, text, re.M)]
    found += [f"{stream} holds a traceback" for stream, text in
              (("stdout", done.stdout), ("stderr", done.stderr)) if "Traceback" in text]
    for name, patterns in row.files.items():
        path = done.out / name
        text = path.read_text() if path.is_file() else ""
        found += [f"{name} lacks {p!r}" for p in patterns if not re.search(p, text, re.M)]
    if row.no_out and done.out.exists():
        found.append(f"{done.out.name} exists after a refusal")
    written = artifacts(done.out, row.drop)
    found += [f"{name} holds a carriage return" for name, data in written.items()
              if name.endswith(".csv") and b"\r" in data]
    if earlier is not None:
        before = artifacts(earlier.out, row.drop)
        if sorted(written) != sorted(before):
            found.append(f"artifacts {sorted(written)}, not {row.same_as}'s {sorted(before)}")
        found += [f"{name} differs from {row.same_as}'s" for name in sorted(written)
                  if name in before and written[name] != before[name]]
    if found:
        found.append(f"stdout: {done.stdout[-1000:]!r} stderr: {done.stderr[-2000:]!r}")
    return found


@pytest.fixture(scope="session")
def ran(tmp_path_factory):
    """The run of a row by name, each row run once; a row runs its ``same_as`` row first."""
    work = tmp_path_factory.mktemp("limits")
    done = {}

    def get(name: str) -> Run:
        if name not in done:
            done[name] = run(BY_NAME[name], work / name)
        return done[name]

    return get


@pytest.mark.parametrize("row", [
    pytest.param(row, id=row.name, marks=[pytest.mark.slow] if row.slow else [])
    for row in ROWS])
def test_row_keeps_its_limits(ran, row):
    earlier = ran(row.same_as) if row.same_as else None
    assert failures(row, ran(row.name), earlier) == []


def test_rows_are_named_once_and_no_fast_row_compares_with_a_slow_one():
    assert len(BY_NAME) == len(ROWS)
    for row in ROWS:
        assert not row.same_as or BY_NAME[row.same_as].slow <= row.slow, row.name


# ---------------------------------------------------------------------------
# the runner itself: each synthetic child breaks one limit, and is reported
# ---------------------------------------------------------------------------

def writes(name: str, text: str) -> tuple:
    """The argv of a child that writes ``text`` to the artifact ``name`` in {out}."""
    return ("-c", "import pathlib, sys; out = pathlib.Path(sys.argv[1]); out.mkdir(); "
                  f"(out / {name!r}).write_text({text!r})", "{out}")


@pytest.mark.parametrize("row, reported", [
    (Row("exit", ("-c", "import sys; sys.exit(3)")), "exit 3, not 0"),
    (Row("traceback", ("-c", "print('a Traceback')")), "stdout holds a traceback"),
    (Row("missing", ("-c", "print('nothing')"), stderr=("^error",)), "stderr lacks '^error'"),
    (Row("rss", ("-c", "b = bytearray(b'x') * (100 << 20)"), rss_mb=64),
     "MiB, over the 64 MiB cap"),
    (Row("address", ("-c", "b = bytearray(b'x') * (100 << 20)"), as_kib=80000),
     "exit 1, not 0"),
    (Row("wall", ("-c", "import time; time.sleep(30)"), wall=0.5), "killed at the 0.5 s"),
    (Row("out", writes("a.txt", "1"), no_out=True), "exists after a refusal"),
    (Row("carriage", writes("a.csv", "1\r\n")), "a.csv holds a carriage return"),
], ids=lambda value: value.name if isinstance(value, Row) else None)
def test_the_runner_reports_a_broken_limit(tmp_path, row, reported):
    found = failures(row, run(row, tmp_path / row.name))
    assert any(reported in line for line in found), found


def test_the_runner_reports_an_artifact_that_differs(tmp_path):
    first = Row("first", writes("a.txt", "1"))
    second = Row("second", writes("a.txt", "2"), same_as="first")
    earlier = run(first, tmp_path / "first")
    assert failures(first, earlier) == []
    assert failures(second, run(second, tmp_path / "second"), earlier) == [
        "a.txt differs from first's", "stdout: '' stderr: ''"]
    same = Row("same", writes("a.txt", "1"), same_as="first")
    assert failures(same, run(same, tmp_path / "same"), earlier) == []


def test_the_runner_measures_its_own_child(tmp_path):
    # neither a large child run earlier nor a large parent counts against a small child
    big = Row("big", ("-c", "b = bytearray(b'x') * (100 << 20)"))
    assert run(big, tmp_path / "big").rss_mb > 100
    ballast = bytearray(b"x") * (100 << 20)  # this process's peak RSS passes 100 MiB
    small = run(Row("small", ("-c", "pass")), tmp_path / "small")
    del ballast
    assert small.rss_mb < 64 and failures(Row("small", (), rss_mb=64), small) == []
