"""Command line front end: declarative configs, verification and estimation runs.

Subcommands
-----------
verify      run the exact-oracle identity suite; exit 0 iff all families pass
gap         certify the quenched/annealed block gap; writes JSON + CSV trace
rate        evaluate rate-function points on a velocity grid; writes CSV
env-sample  realize an environment and export it as CSV
tau-stats   sample run-completion times and compare with the closed form

Exit codes: 0 pass/certified, 1 falsification (an identity or ordering failed),
2 budget exceeded, 3 inconclusive (statistics too weak to certify), 64 usage or
config error.

Config schema (JSON object; unknown keys rejected):

    law        {"kind": "iid-product", "dimension": d, "kappa": k,
                "atoms": [[...2d probs...], ...], "weights": [...]}
               or {"kind": "markov-field", "dimension": d, "kappa": k,
                "range": r, "beta": b, "states": [[...2d probs...], ...],
                "sweeps": s, "smx": {...optional metadata...}}
               Direction order within a probability vector is
               [+e1, -e1, +e2, -e2, ...].
    z          target velocity, list of d floats, 0 < |z|_1 < 1
    ell        forced direction as a signed unit vector, <z, ell> > 0
    L          block length (int >= 2 for gap runs)
    kbar       optional forcing-symbol probability override
    seed       64-bit integer root seed
    gap        {"replicas": int, "horizon": int or null, "tail": float}
    rate       {"velocities": [[...], ...], "method": "enumeration"|"tilted-mc",
                "horizon": int, "env_replicas": int, "boundary_sites": int,
                "mc_replicas": int, "mc_horizon": int}
    verify     {"n_max": int, "theta_count": int, "theta_scale": float,
                "psi_n_max": int, "tau_draws": int}
    tau        {"draws": int, "configs": [[kbar, L], ...]}
    env_sample {"lo": [...], "hi": [...]}
    tolerances {"tilt_residual", "identity_rel", "onestep_abs",
                "coincidence_abs", "tau_sigmas"}

Every output artifact embeds the config hash and root seed; fixed seeds give
byte-identical outputs for any thread count.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from .decomposition import (EpsilonLaw, StoppingConfig, conditional_step_probs,
                            expected_tau, make_epsilon_law, psi_factor, sample_tau_batch,
                            qz_endpoint_distribution, decomposed_endpoint_distribution,
                            verify_psi_identity)
from .environments import (Box, IIDProductLaw, MarkovFieldLaw, centered_box,
                           sample_environment)
from .estimators import certify_gap, rate_point
from .numutil import BudgetError, derive_seed
from .tilting import (TiltParams, solve_tilt, tilt_invariant_residuals,
                      verify_identity_annealed, verify_identity_quenched)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_BUDGET = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
            "atoms": [[0.4, 0.6], [0.6, 0.4]], "weights": [0.5, 0.5]},
    "z": [0.5],
    "ell": [1],
    "L": 3,
    "kbar": None,
    "seed": 20260808,
    "gap": {"replicas": 20000, "horizon": None, "tail": 1e-4},
    "rate": {"velocities": [[0.5]], "method": "enumeration", "horizon": 400,
             "env_replicas": 8, "boundary_sites": 10000, "mc_replicas": 4000,
             "mc_horizon": 200},
    "verify": {"n_max": 6, "theta_count": 5, "theta_scale": 0.5, "psi_n_max": 4,
               "tau_draws": 200000},
    "tau": {"draws": 1000000, "configs": [[0.125, 1], [0.125, 2], [0.25, 2]]},
    "env_sample": {"lo": [-10], "hi": [10]},
    "tolerances": {"tilt_residual": 1e-10, "identity_rel": 1e-10,
                   "onestep_abs": 1e-12, "coincidence_abs": 1e-10,
                   "tau_sigmas": 4.0},
}


def normalize_config(raw: dict) -> dict:
    """Apply defaults and reject unknown keys; the result round-trips losslessly."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    out = copy.deepcopy(DEFAULT_CONFIG)
    for key, val in raw.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(out[key], dict) and key != "law":
            if not isinstance(val, dict):
                raise ConfigError(f"config key {key!r} must be an object")
            for k2, v2 in val.items():
                if k2 not in out[key]:
                    raise ConfigError(f"unknown config key {key}.{k2}")
                out[key][k2] = v2
        else:
            out[key] = copy.deepcopy(val)
    return out


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


def load_config(path: str) -> dict:
    with open(path) as fh:
        return normalize_config(json.load(fh))


def build_law(cfg: dict):
    law_cfg = cfg["law"]
    kind = law_cfg.get("kind")
    if kind == "iid-product":
        return IIDProductLaw(law_cfg["dimension"], law_cfg["atoms"], law_cfg["weights"],
                             law_cfg["kappa"])
    if kind == "markov-field":
        return MarkovFieldLaw(law_cfg["dimension"], law_cfg["states"], law_cfg["kappa"],
                              range_r=law_cfg.get("range", 1), beta=law_cfg.get("beta", 0.0),
                              sweeps=law_cfg.get("sweeps", 64),
                              smx_constants=law_cfg.get("smx"))
    raise ConfigError(f"unknown law kind {kind!r}")


def build_problem(cfg: dict):
    """law, tilt parameters, symbol law and stopping config from one config."""
    law = build_law(cfg)
    tp = solve_tilt(law, np.asarray(cfg["z"], dtype=np.float64))
    eps = make_epsilon_law(tp, cfg["kbar"])
    stop = StoppingConfig.from_vector(cfg["L"], cfg["ell"])
    return law, tp, eps, stop


def _write_json(path: str, payload: dict):
    # NaN and infinities are not JSON; refuse them before the file is opened
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, cfg: dict, header: list, rows):
    """A CSV artifact: the config-hash meta line, then the header, then the rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_verify(cfg: dict, corrupt_theta: bool = False):
    """Run the six identity families; returns (rows, all_pass)."""
    tol = cfg["tolerances"]
    law, tp, eps, stop = build_problem(cfg)
    if corrupt_theta:
        theta = np.asarray(tp.theta) + 0.05
        tp = TiltParams(tp.z, tp.C, tp.u, tuple(float(v) for v in theta), tp.D,
                        tp.c_z, tp.residual, tp.means)
    d = tp.dimension
    seed = cfg["seed"]
    rng = np.random.default_rng(derive_seed(seed, 100))
    n_max = int(cfg["verify"]["n_max"]) if d == 1 else min(int(cfg["verify"]["n_max"]), 6)
    thetas = rng.uniform(-cfg["verify"]["theta_scale"], cfg["verify"]["theta_scale"],
                         size=(int(cfg["verify"]["theta_count"]), d))
    rows = []

    def add(family, metric, tolerance):
        rows.append({"family": family, "metric": float(metric),
                     "tolerance": float(tolerance), "passed": bool(metric <= tolerance)})

    res = tilt_invariant_residuals(tp)
    worst = max(res.items(), key=lambda kv: kv[1])
    rows.append({"family": "tilt-invariants", "metric": float(worst[1]),
                 "tolerance": float(tol["tilt_residual"]),
                 "passed": bool(worst[1] <= tol["tilt_residual"]),
                 "detail": worst[0]})

    worst_a = 0.0
    for n in range(1, n_max + 1):
        for th in thetas:
            lhs, rhs = verify_identity_annealed(law, tp, th, n)
            worst_a = max(worst_a, abs(lhs - rhs) / abs(rhs))
    add("identity-annealed", worst_a, tol["identity_rel"])

    env = sample_environment(law, derive_seed(seed, 101), centered_box(d, n_max + 1))
    worst_q = 0.0
    for n in range(1, n_max + 1):
        for th in thetas:
            lhs, rhs = verify_identity_quenched(env, tp, th, n)
            worst_q = max(worst_q, abs(lhs - rhs) / abs(rhs))
    add("identity-quenched", worst_q, tol["identity_rel"])

    worst_c = 0.0
    for n in range(1, min(n_max, 5 if d == 1 else 3) + 1):
        ref = qz_endpoint_distribution(tp, n)
        dec = decomposed_endpoint_distribution(tp, eps, n)
        keys = set(ref) | set(dec)
        worst_c = max(worst_c, max(abs(ref.get(k, 0.0) - dec.get(k, 0.0)) for k in keys))
    # one-step marginal identity kbar + (1 - 2d kbar) * leftover = u
    marg = eps.kbar + eps.free_prob * conditional_step_probs(tp, eps, eps.free_symbol)
    worst_c = max(worst_c, float(np.max(np.abs(marg - tp.u_array))))
    add("decomposition-coincidence", worst_c, tol["coincidence_abs"])

    # one-step reweighting algebra for randomized xi, then small-n enumeration;
    # both checks live in one family
    xi = np.random.default_rng(derive_seed(seed, 102)).uniform(0.5, 1.5, size=(64, 1))
    u = tp.u_array
    total = eps.kbar + (u - eps.kbar) * psi_factor(tp, eps, xi, np.arange(2 * d))
    worst_p = float(np.max(np.abs(total - u * xi)))
    worst_n = 0.0
    env2 = sample_environment(law, derive_seed(seed, 103), centered_box(d, int(cfg["verify"]["psi_n_max"]) + 1))
    for n in range(1, int(cfg["verify"]["psi_n_max"]) + 1):
        lhs, rhs = verify_psi_identity(tp, eps, env2, thetas[0], n)
        worst_n = max(worst_n, abs(lhs - rhs) / abs(rhs))
    rows.append({"family": "psi-identity", "metric": float(max(worst_n, worst_p)),
                 "tolerance": float(tol["identity_rel"]),
                 "passed": bool(worst_n <= tol["identity_rel"]
                                and worst_p <= tol["onestep_abs"])})

    draws = int(cfg["verify"]["tau_draws"])
    taus = sample_tau_batch(eps, stop, draws, np.random.default_rng(derive_seed(seed, 104)))
    expect = expected_tau(eps, stop)
    z = abs(taus.mean() - expect) / (taus.std(ddof=1) / math.sqrt(draws))
    add("tau-waiting-time", z, tol["tau_sigmas"])

    return rows, all(r["passed"] for r in rows)


def cmd_verify(cfg: dict, out_dir: str, threads: int, corrupt_theta: bool = False) -> int:
    rows, ok = _run_verify(cfg, corrupt_theta)
    width = max(len(r["family"]) for r in rows)
    print(f"{'family':<{width}}  {'metric':>12}  {'tolerance':>10}  result")
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        detail = f" ({r['detail']})" if "detail" in r and not r["passed"] else ""
        print(f"{r['family']:<{width}}  {r['metric']:>12.3e}  {r['tolerance']:>10.1e}  {status}{detail}")
    if out_dir:
        _write_json(os.path.join(out_dir, "verify_report.json"),
                    {"config_hash": config_hash(cfg), "seed": cfg["seed"], "families": rows,
                     "passed": ok})
    return EXIT_OK if ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def cmd_gap(cfg: dict, out_dir: str, threads: int) -> int:
    law, tp, eps, stop = build_problem(cfg)
    report = certify_gap(tp, eps, stop, law, int(cfg["gap"]["replicas"]),
                         horizon=cfg["gap"]["horizon"], tail=float(cfg["gap"]["tail"]),
                         seed=cfg["seed"], threads=threads)
    payload = report.to_dict()
    payload["config_hash"] = config_hash(cfg)
    payload["tilt"] = solve_tilt(law, np.asarray(cfg["z"])).to_dict()
    print(f"gap = {report.gap:.6e} +- {report.stderr:.2e} "
          f"(significance {report.significance:.2f}, verdict {report.verdict})")
    if out_dir:
        _write_json(os.path.join(out_dir, "gap_report.json"), payload)
        _write_csv(os.path.join(out_dir, "gap_trace.csv"), cfg, ["replica", "log_inner"],
                   ([i, repr(float(v))] for i, v in enumerate(report.trace)))
    return {"certified": EXIT_OK, "falsified": EXIT_FALSIFIED,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def cmd_rate(cfg: dict, out_dir: str, threads: int) -> int:
    velocities = cfg["rate"]["velocities"]
    if not velocities:
        print("error: empty velocity grid", file=sys.stderr)
        return EXIT_USAGE
    law = build_law(cfg)
    for x in velocities:
        if len(x) != law.dimension or sum(abs(float(v)) for v in x) > 1.0 + 1e-12:
            print(f"error: velocity {x} outside the unit l1 ball", file=sys.stderr)
            return EXIT_USAGE
    r = cfg["rate"]
    rows = []
    for x in velocities:
        est = rate_point(law, np.asarray(x, dtype=np.float64), r["method"], seed=cfg["seed"],
                         horizon=int(r["horizon"]), env_replicas=int(r["env_replicas"]),
                         boundary_sites=int(r["boundary_sites"]),
                         mc_replicas=int(r["mc_replicas"]), mc_horizon=int(r["mc_horizon"]))
        rows.append(est)
        print(f"x={x} I_a={est.I_a:.6f}+-{est.stderr_a:.1e} I_q={est.I_q:.6f}+-{est.stderr_q:.1e}")
    if out_dir:
        _write_csv(os.path.join(out_dir, "rate_grid.csv"), cfg,
                   [f"x{a + 1}" for a in range(law.dimension)]
                   + ["I_a", "I_q", "stderr_a", "stderr_q", "method", "horizon"],
                   ([repr(float(v)) for v in est.x]
                    + [repr(est.I_a), repr(est.I_q), repr(est.stderr_a),
                       repr(est.stderr_q), est.method, est.horizon] for est in rows))
        _write_json(os.path.join(out_dir, "rate_report.json"),
                    {"config_hash": config_hash(cfg), "seed": cfg["seed"],
                     "points": [{"x": list(est.x), "I_a": est.I_a, "I_q": est.I_q,
                                 "stderr_a": est.stderr_a, "stderr_q": est.stderr_q,
                                 "method": est.method, "horizon": est.horizon}
                                for est in rows]})
    return EXIT_OK


# ---------------------------------------------------------------------------
# env-sample / tau-stats
# ---------------------------------------------------------------------------

def cmd_env_sample(cfg: dict, out_dir: str, threads: int) -> int:
    law = build_law(cfg)
    box = Box(tuple(cfg["env_sample"]["lo"]), tuple(cfg["env_sample"]["hi"]))
    env = sample_environment(law, cfg["seed"], box)
    path = os.path.join(out_dir or ".", "env.csv")
    d = law.dimension
    sites = box.all_sites()
    _write_csv(path, cfg,
               [f"x{a + 1}" for a in range(d)]
               + [lbl for a in range(d) for lbl in (f"p_plus_e{a + 1}", f"p_minus_e{a + 1}")],
               ([int(c) for c in s] + [repr(float(p)) for p in v]
                for s, v in zip(sites, env.omega_many(sites))))
    print(f"wrote {box.n_sites} sites to {path}")
    return EXIT_OK


def cmd_tau_stats(cfg: dict, out_dir: str, threads: int) -> int:
    law, tp, eps, stop = build_problem(cfg)
    draws = int(cfg["tau"]["draws"])
    rows = []
    for i, (kb, lval) in enumerate(cfg["tau"]["configs"]):
        e = EpsilonLaw(float(kb), law.dimension)
        c = StoppingConfig(int(lval), stop.ell)
        taus = sample_tau_batch(e, c, draws, np.random.default_rng(derive_seed(cfg["seed"], 300 + i)))
        expect = expected_tau(e, c)
        se = taus.std(ddof=1) / math.sqrt(draws)
        rows.append([float(kb), int(lval), draws, float(taus.mean()), float(se), expect,
                     float((taus.mean() - expect) / se)])
        print(f"kbar={kb} L={lval}: mean={taus.mean():.4f} expected={expect:.4f} z={rows[-1][-1]:+.2f}")
    if out_dir:
        _write_csv(os.path.join(out_dir, "tau_stats.csv"), cfg,
                   ["kbar", "L", "draws", "mean", "stderr", "expected", "z"],
                   ([repr(v) if isinstance(v, float) else v for v in row] for row in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rwre-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads; results never depend on this. gap samples "
                             "the next replica chunks on them while the main thread runs "
                             "the exact recursion")
    parser.add_argument("--out", default="", help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="run the exact identity suite")
    p_verify.add_argument("--corrupt-theta", action="store_true", help=argparse.SUPPRESS)
    sub.add_parser("gap", help="certify the quenched/annealed block gap")
    sub.add_parser("rate", help="rate-function grid")
    sub.add_parser("env-sample", help="realize an environment as CSV")
    sub.add_parser("tau-stats", help="run-completion time statistics")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config) if args.config else normalize_config({})
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        kwargs = {}
        if args.command == "verify":
            kwargs["corrupt_theta"] = args.corrupt_theta
        dispatch = {"verify": cmd_verify, "gap": cmd_gap, "rate": cmd_rate,
                    "env-sample": cmd_env_sample, "tau-stats": cmd_tau_stats}
        return dispatch[args.command](cfg, args.out, max(1, args.threads), **kwargs)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
