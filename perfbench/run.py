"""rwre-lab benchmark: end-to-end CLI runs with correctness checks, plus a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gap-iid --seed 7 --seconds 38 --trace 0
    python3 perfbench/run.py --all                  # every workload, one table

Each workload is a closed loop with one client: a fresh ``python -m
rwre_lab.cli`` child per run, the next started when the previous one exits,
for ``--seconds``: no round of runs starts that would, taking as long as the
last round, end after that. Every run at one seed must pass the checks in
``checks.py`` and write byte-identical artifacts.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the median
over runs, with one set-up probe per run for ``setup_s``. ``--trace 1``
alternates untraced runs with runs under ``traced_cli.py`` and reports the
per-layer metrics of the traced run with the median wall time; the gap
workload adds traced runs at the other thread count for
``certify_gap.speedup_t2``.
Layers a workload never calls report 0.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record with the machine
fingerprint and every sample goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import checks
import harness
from spans import layer_metrics


class WorkloadRun:
    """One workload at one seed: spawns children, checks them, keeps samples."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.seed = name, seed
        self.wl = harness.WORKLOADS[name]
        self.cfg = harness.load_config(name)
        reference = harness.load_json(harness.REFERENCE)["workloads"][name]
        if reference["config_hash"] != harness.config_hash(self.cfg):
            raise harness.BenchError(f"reference.json was recorded for another {name} config; "
                                     "run perfbench/record_reference.py")
        self.reference = reference
        self.work = harness.OUT_ROOT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.t_start = time.perf_counter()
        self.children = []
        self.failures = []
        self.digest = None

    def remaining(self) -> float:
        return harness.RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def probe(self) -> float:
        """One set-up probe in a fresh interpreter; returns its setup_s."""
        stem = self.work / f"probe-{len(self.children)}"
        res = harness.run_child(
            [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"),
             str(harness.config_path(self.name)), self.wl.command],
            harness.ROOT, stem, self.remaining())
        if res.exit_code != 0:
            raise harness.BenchError(f"set-up probe exited with {res.exit_code}; see {stem}.err")
        return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]

    def cli(self, threads: int, traced: bool = False) -> dict:
        """One CLI run: measure it, check it, and return its sample."""
        idx = len(self.children)
        out_dir = self.work / f"run-{idx}"
        spans_path = self.work / f"run-{idx}.spans.json" if traced else None
        argv = harness.cli_argv(self.name, self.seed, threads, out_dir, spans_path)
        res = harness.run_child(argv, harness.ROOT, self.work / f"run-{idx}", self.remaining())
        fails = checks.check_run(self.wl.command, self.cfg, self.reference, res.exit_code,
                                 out_dir)
        if res.killed:
            fails.append("killed by a signal")
        digest = checks.artifact_digest(out_dir, harness.ARTIFACTS[self.wl.command])
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            fails.append("artifacts differ from the first run at this seed")
        sample = {"threads": threads, "traced": traced, "exit_code": res.exit_code,
                  "wall_s": res.wall_s, "cpu_s": res.cpu_s, "peak_rss_mb": res.peak_rss_mb,
                  "failures": fails}
        if traced:
            try:
                trace = harness.load_json(spans_path)
            except (OSError, ValueError) as exc:
                fails.append(f"no span file: {exc!r}")
                trace = {"spans": [], "counts": {}}
            sample["layers"] = layer_metrics(trace["spans"], trace["counts"], res.wall_s)
            sample["layers"]["cli.artifact_bytes"] = sum(
                p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
        if fails:
            self.failures.append({"run": idx, "failures": fails})
        self.children.append(sample)
        shutil.rmtree(out_dir, ignore_errors=True)
        return sample


def _median_sample(samples: list) -> dict:
    ordered = sorted(samples, key=lambda s: s["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return its full result record."""
    run = WorkloadRun(name, seed, trace)
    deadline = run.t_start + seconds
    try:
        run.probe()  # untimed warm-up: byte-compiles the sources once
        setup = []
        other_threads = 1 if run.wl.threads > 1 else 2
        while True:
            round_start = time.perf_counter()
            if trace:
                run.cli(run.wl.threads)
                run.cli(run.wl.threads, traced=True)
                if run.wl.command == "gap":
                    run.cli(other_threads, traced=True)
            else:
                setup.append(run.probe())
                run.cli(run.wl.threads)
            # stop before a round that, as long as the last one, would overrun
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    plain = [c for c in run.children if not c["traced"]]
    summaries = {key: harness.summarize([c[key] for c in plain])
                 for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": len(run.children), "failed": len(run.failures),
              "failures": run.failures, "samples": run.children}
    if not trace:
        summaries["setup_s"] = harness.summarize(setup)
        record["setup_samples"] = setup
        record["summaries"] = summaries
        return record

    traced = [c for c in run.children if c["traced"] and c["threads"] == run.wl.threads]
    layers = dict(_median_sample(traced)["layers"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - summaries["wall_s"]["median"]
    if run.wl.command == "gap":
        gap_s = {t: statistics.median(c["layers"]["estimators.certify_gap.s"]
                                      for c in run.children if c["traced"] and c["threads"] == t)
                 for t in (1, 2)}
        layers["estimators.certify_gap.speedup_t2"] = gap_s[1] / gap_s[2]
    record["summaries"] = summaries
    record["layers"] = layers
    return record


def metrics_of(record: dict, spec: dict) -> dict:
    """The metrics the contract asks for, in BENCHMARK.json's order and units."""
    if record["trace"]:
        return {m["name"]: {"value": float(record["layers"].get(m["name"], 0.0)), "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": record["summaries"][m["name"]]["median"], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def describe(record: dict, spec: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    fail_rate = record["failed"] / record["attempted"]
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"fail_rate {fail_rate:.3g} ({record['failed']} of {record['attempted']} runs failed)"]
    if record["trace"]:
        top = max(((k[:-len(".self_s")], v) for k, v in record["layers"].items()
                   if k.endswith(".self_s")), key=lambda kv: kv[1], default=("none", 0.0))
        lines.append(f"  dominant layer by self time: {top[0]} ({top[1]:.3f} s of "
                     f"{record['layers']['trace.wall_s']:.3f} s traced wall)")
        for m in spec["per_layer"]:
            value = record["layers"].get(m["name"], 0.0)
            lines.append(f"  {m['name']:<48} {value:>14.6g} {m['unit']}")
    else:
        for m in spec["end_to_end"]:
            s = record["summaries"][m["name"]]
            lines.append(f"  {m['name']:<12} {s['median']:>10.4f} {m['unit']:<6} n={s['n']:<3} "
                         f"q1={s['q1']:.4f} q3={s['q3']:.4f}")
    for f in record["failures"][:5]:
        lines.append(f"  FAILED run {f['run']}: {'; '.join(f['failures'])}")
    return lines


def save(record: dict, fingerprint: dict):
    out = harness.OUT_ROOT / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump(dict(record, fingerprint=fingerprint), fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_checkout()
        spec = harness.load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
        fingerprint = harness.fingerprint(names)
        print(json.dumps(fingerprint), file=sys.stderr)
        records = [measure(name, args.seed, seconds, bool(args.trace)) for name in names]
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        save(record, fingerprint)
        print("\n".join(describe(record, spec)))
    if args.all:
        return 0 if all(r["failed"] == 0 for r in records) else 1
    record = records[0]
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics_of(record, spec)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
