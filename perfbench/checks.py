"""Correctness checks on one CLI run's exit code and artifacts.

Exact quantities are compared at 1e-12 relative: for 1-D i.i.d. gap runs they
are recomputed here from closed forms, written independently of ``rwre_lab``;
otherwise they come from the recorded reference. Monte Carlo quantities must
lie within ``K_SIGMA`` combined standard errors of the recorded reference,
where the combined error is sqrt(sd^2 + sd^2 / n_seeds) and sd is the
seed-to-seed standard deviation recorded with the reference mean.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_EXIT = 0  # every workload must pass or certify
EXACT_REL = 1e-12
K_SIGMA = 6.0
DEFAULT_TAIL = 1e-4  # certify_gap chooses its horizon at this tail


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def expected_tau(kbar: float, L: int) -> float:
    """E[tau] for the first run of L successes of probability kbar."""
    return (kbar ** -L - 1.0) / (1.0 - kbar)


def tau_horizon(kbar: float, L: int, tail: float = DEFAULT_TAIL) -> int:
    """Smallest H with P(tau > H) < tail, from the run-length chain."""
    v = [1.0] + [0.0] * (L - 1)
    t = 0
    while sum(v) >= tail:
        v = [sum(v) * (1.0 - kbar)] + [x * kbar for x in v[:-1]]
        t += 1
    return t


def ray_inner(w: float, kbar: float, L: int, horizon: int) -> float:
    """Inner block value with the same free-symbol factor w at every site."""
    v = [1.0] + [0.0] * (L - 1)
    out = 0.0
    for _ in range(horizon):
        out += v[L - 1] * kbar
        v = [sum(v) * w] + [x * kbar for x in v[:-1]]
    return out


def gap_exact_iid_1d(cfg: dict) -> dict:
    """Exact fields of a 1-D i.i.d. gap report from the raw config.

    In 1-D the tilt has the closed form u(+e1) = (1+z)/2, u(-e1) = (1-z)/2,
    so W = log(u(ell) / E[omega(0, ell)]); the annealed free factor is
    u(ell) - kbar because E[xi] = 1.
    """
    law, z, L = cfg["law"], cfg["z"][0], int(cfg["L"])
    ell = 0 if cfg["ell"][0] > 0 else 1
    u = [(1.0 + z) / 2.0, (1.0 - z) / 2.0]
    mean_ell = sum(w * atom[ell] for w, atom in zip(law["weights"], law["atoms"]))
    kbar = cfg.get("kbar")
    kbar = min(0.25, min(u) / 2.0) if kbar is None else float(kbar)
    horizon = cfg["gap"].get("horizon") or tau_horizon(kbar, L)
    et = expected_tau(kbar, L)
    return {"kbar": kbar, "horizon": horizon, "expected_block": et,
            "W": math.log(u[ell] / mean_ell),
            "annealed_side": math.log(ray_inner(u[ell] - kbar, kbar, L, horizon)) / et}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def rel_close(got, want, rel: float = EXACT_REL) -> bool:
    if not isinstance(want, float):
        return got == want
    return isinstance(got, (int, float)) and abs(got - want) <= rel * abs(want)


def mc_close(got: float, ref: dict, n_seeds: int, k: float = K_SIGMA) -> bool:
    combined = ref["sd"] * math.sqrt(1.0 + 1.0 / n_seeds)
    return abs(got - ref["mean"]) <= k * combined


def compare(values: dict, reference: dict, exact: dict) -> list:
    """Failure messages for exact fields, Monte Carlo fields and the verdict."""
    failures = []
    for key, want in exact.items():
        if key not in values or not rel_close(values[key], want):
            failures.append(f"{key}={values.get(key)!r}, exact {want!r}")
    n = len(reference["seeds"])
    for key, ref in reference.get("mc", {}).items():
        if key not in values or not mc_close(values[key], ref, n):
            failures.append(f"{key}={values.get(key)!r}, reference {ref['mean']!r} "
                            f"+- {K_SIGMA} x {ref['sd']!r}")
    if "verdict" in reference and values.get("verdict") != reference["verdict"]:
        failures.append(f"verdict {values.get('verdict')!r}, reference {reference['verdict']!r}")
    return failures


def exact_fields(command: str, cfg: dict, reference: dict) -> dict:
    """Recorded exact fields, plus the closed forms a gap config admits."""
    exact = dict(reference.get("exact", {}))
    if command != "gap":
        return exact
    exact["replicas"] = int(cfg["gap"]["replicas"])
    law = cfg["law"]
    if law["kind"] == "iid-product" and law["dimension"] == 1:
        exact.update(gap_exact_iid_1d(cfg))
    return exact


def report_values(command: str, out_dir: Path) -> dict:
    """The checked quantities of a run, read from its artifacts."""
    if command == "gap":
        return json.loads((out_dir / "gap_report.json").read_text())
    if command == "rate":
        point = json.loads((out_dir / "rate_report.json").read_text())["points"][0]
        return {k: point[k] for k in ("I_a", "I_q", "horizon", "method")}
    if command == "verify":
        report = json.loads((out_dir / "verify_report.json").read_text())
        failed = [f["family"] for f in report["families"] if not f["passed"]]
        return {"passed": report["passed"], "families_failed": failed,
                "families": len(report["families"])}
    raise ValueError(f"unknown command {command!r}")


def check_run(command: str, cfg: dict, reference: dict, exit_code: int, out_dir: Path) -> list:
    """All failure messages for one run; an empty list means the run passed."""
    failures = []
    if exit_code != EXPECTED_EXIT:
        failures.append(f"exit code {exit_code}, expected {EXPECTED_EXIT}")
    try:
        values = report_values(command, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return failures + [f"unreadable artifacts: {exc!r}"]
    return failures + compare(values, reference, exact_fields(command, cfg, reference))


def artifact_digest(out_dir: Path, names) -> str:
    """One digest over the named artifacts, for byte-identical replay checks."""
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()
