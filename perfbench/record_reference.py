"""Record the reference values that checks.py compares every run against.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's CLI once per reference seed and stores, per workload,
the seed-independent exact fields, the mean and seed-to-seed standard
deviation of each Monte Carlo field, and the verdict. Re-run it whenever a
workload config changes; the config hash stored here must match.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys

import checks
import harness

SEEDS = list(range(1001, 1021))

# per workload: Monte Carlo fields, seed-independent exact fields, verdict?
FIELDS = {
    "gap-iid": (("quenched_side", "gap"), (), True),
    "rate-dp-2d": (("I_a", "I_q"), ("horizon", "method"), False),
    "verify-2d": ((), ("passed", "families", "families_failed"), False),
}


def record(name: str) -> dict:
    wl = harness.WORKLOADS[name]
    mc_keys, exact_keys, has_verdict = FIELDS[name]
    work = harness.OUT_ROOT / f"reference-{name}"
    work.mkdir(parents=True, exist_ok=True)
    values = []
    try:
        for seed in SEEDS:
            out_dir = work / f"seed-{seed}"
            res = harness.run_child(harness.cli_argv(name, seed, wl.threads, out_dir),
                                    harness.ROOT, work / f"seed-{seed}", 600.0)
            if res.exit_code != checks.EXPECTED_EXIT:
                raise harness.BenchError(f"{name} seed {seed} exited with {res.exit_code}")
            values.append(checks.report_values(wl.command, out_dir))
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={values[-1][k]!r}" for k in mc_keys),
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    exact = {k: values[0][k] for k in exact_keys}
    for v in values:
        if any(v[k] != exact[k] for k in exact_keys):
            raise harness.BenchError(f"{name}: exact fields differ across seeds")
    entry = {"config_hash": harness.config_hash(harness.load_config(name)), "seeds": SEEDS,
             "exact": exact,
             "mc": {k: {"mean": statistics.fmean(v[k] for v in values),
                        "sd": statistics.stdev(v[k] for v in values)} for k in mc_keys}}
    if has_verdict:
        verdicts = {v["verdict"] for v in values}
        if len(verdicts) != 1:
            raise harness.BenchError(f"{name}: verdict differs across seeds: {verdicts}")
        entry["verdict"] = verdicts.pop()
    return entry


def main(argv) -> int:
    harness.check_checkout()
    names = argv or sorted(harness.WORKLOADS)
    try:
        ref = harness.load_json(harness.REFERENCE)
    except FileNotFoundError:
        ref = {"workloads": {}}
    for name in names:
        ref["workloads"][name] = record(name)
    with open(harness.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
