"""Command line front end: declarative configs, verification and estimation runs.

``COMMANDS`` lists the subcommands, and the ``EXIT_*`` constants their exit
codes. README states what each subcommand computes, refuses and writes.

Config: one JSON object. ``SCHEMA`` below holds the rule of every key, and
README ("Config") shows each key with its default. Omitted keys take
``DEFAULT_CONFIG``; an unknown key, or a value against its rule, exits 64
and the refusal names the key.
Every output artifact embeds the config hash and root seed; fixed seeds give
byte-identical outputs. Every subcommand runs on one thread.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys

import numpy as np

from .environments import (HASH_BLOCK, Box, IIDProductLaw, MarkovFieldLaw, centered_box,
                           check_sites, direction_index, sample_environment)
from .numutil import (BudgetError, check_memory, deferred_names, derive_seed,
                      lattice_denominator, site_uniforms)

# A subcommand loads only the modules it runs (README, "Start-up"). Each name
# below loads its module on first use, and is read as an attribute of this
# module, where perfbench/spans.py and the tests rebind it.
__getattr__ = deferred_names(globals(), {
    "tilting": ("solve_tilt", "tilt_invariant_residuals"),
    "decomposition": ("StoppingConfig", "check_tau_memory", "choose_horizon",
                      "conditional_step_probs", "expected_tau", "make_epsilon_law",
                      "sample_tau_batch", "tau_sd"),
    "estimators": ("certify_gap", "rate_point"),
    "identities": ("annealed_identity_bytes", "check_folds", "check_joint_pairs", "check_paths",
                   "decomposed_endpoint_distribution", "psi_factor", "qz_endpoint_distribution",
                   "verify_identity_annealed", "verify_identity_quenched", "verify_psi_identity"),
})
_cli = sys.modules[__name__]

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
    "seed": 20260808,
    "gap": {"replicas": 20000, "horizon": None},
    "rate": {"velocities": [[0.5]], "method": "enumeration", "horizon": 400,
             "env_replicas": 8},
    "verify": {"n_max": 6, "theta_count": 5, "tau_draws": 200000},
    "tau": {"configs": [[0.125, 1], [0.125, 2], [0.25, 2]]},
    "env_sample": {"lo": [-10], "hi": [10]},
}
LAW_KEYS = {"iid-product": {"kind", "dimension", "kappa", "atoms", "weights"},
            "markov-field": {"kind", "dimension", "kappa", "range", "beta", "states", "sweeps"}}
LAW_OPTIONAL = {"range", "beta", "sweeps"}  # MarkovFieldLaw defaults them


def _at_least(rule, low):
    phrase, ok = rule
    return f"{phrase} >= {low}", lambda v: ok(v) and v >= low


def _one_of(*choices):
    return f"one of {list(choices)}", lambda v: v in choices


def _integer_from(low):
    return f"an integer >= {low} and < 2**63", lambda v: INTEGER[1](v) and v >= low


# A rule is (the phrase a refusal prints, its test of one value). JSON true
# and false load as bools, which are neither integers nor numbers here. An
# integer stays within int64, where numpy and float() take it.
INTEGER = ("an integer in (-2**63, 2**63)", lambda v: type(v) is int and abs(v) < 2**63)
NUMBER = ("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
PROBABILITY = ("a probability in (0, 1)", lambda v: NUMBER[1](v) and 0 < v < 1)
KBAR = ("a kbar in (0, 1)", PROBABILITY[1])
SEED = ("an integer in [0, 2**64)", lambda v: type(v) is int and 0 <= v < 2**64)
POSITIVE, COUNT, NON_NEGATIVE = _integer_from(1), _integer_from(2), _at_least(NUMBER, 0)
D, D2, ANY = "law.dimension", "2 * law.dimension", None

# One entry per leaf key: (rule, shape). The shape gives the entry count of
# each level of list nesting, outermost first: () is a single value, D and
# D2 count d and 2d entries, ANY one or more. A list of rules gives the rule
# of each column. NULLABLE keys also take null.
SCHEMA = {
    "law.kind": (_one_of(*LAW_KEYS), ()),
    "law.dimension": (POSITIVE, ()),
    "law.kappa": (PROBABILITY, ()),
    "law.atoms": (PROBABILITY, (ANY, D2)),
    "law.weights": (NON_NEGATIVE, (ANY,)),
    "law.states": (PROBABILITY, (ANY, D2)),
    "law.range": (POSITIVE, ()),
    "law.beta": (NON_NEGATIVE, ()),
    "law.sweeps": (POSITIVE, ()),
    "z": (NUMBER, (D,)),
    "ell": (INTEGER, (D,)),
    "L": (POSITIVE, ()),
    "seed": (SEED, ()),
    "gap.replicas": (INTEGER, ()),  # certify_gap refuses < 2 and counts over the memory budget
    "gap.horizon": (POSITIVE, ()),
    "rate.velocities": (NUMBER, (ANY, D)),
    "rate.method": (_one_of("enumeration"), ()),  # the exact forward DP
    "rate.horizon": (POSITIVE, ()),
    "rate.env_replicas": (COUNT, ()),  # a standard error needs two draws
    "verify.n_max": (POSITIVE, ()),
    "verify.theta_count": (POSITIVE, ()),
    "verify.tau_draws": (COUNT, ()),
    "tau.configs": ([KBAR, POSITIVE], (ANY, 2)),  # [kbar, L] pairs
    "env_sample.lo": (INTEGER, (D,)),
    "env_sample.hi": (INTEGER, (D,)),
}
NULLABLE = {"gap.horizon"}  # null: the horizon decomposition.choose_horizon picks


def _check(key: str, val, rule, shape: tuple, d: int):
    """Refuse ``val`` unless its lists nest as ``shape`` and each entry obeys ``rule``."""
    if not shape:
        if not rule[1](val):
            raise ConfigError(f"{key} must be {rule[0]}, got {val!r}")
        return
    count = {D: d, D2: 2 * d}.get(shape[0], shape[0])
    if not isinstance(val, list) or not val or count not in (ANY, len(val)):
        size = f"{shape[0]} = {count}" if shape[0] in (D, D2) else count or "one or more"
        raise ConfigError(f"{key} must have {size} entries, got {val!r}")
    for i, entry in enumerate(val):
        column = rule[i] if isinstance(rule, list) and len(shape) == 1 else rule
        _check(f"{key}[{i}]", entry, column, shape[1:], d)


def normalize_config(raw: dict) -> dict:
    """Apply defaults and check every key ``raw`` sets against SCHEMA, in one walk."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    out = copy.deepcopy(DEFAULT_CONFIG)
    given = {}  # dotted key -> value of each leaf the config sets
    for key, val in raw.items():
        if key not in out:
            raise ConfigError(f"unknown config key {key}")
        if isinstance(out[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{key} must be an object, got {val!r}")
            if key == "law":  # a config's law replaces the default one whole
                out["law"] = {}
            out[key].update(copy.deepcopy(val))
            given.update((f"{key}.{k}", v) for k, v in val.items())
        else:
            out[key] = copy.deepcopy(val)
            given[key] = val
    kind = out["law"].get("kind")
    _check("law.kind", kind, *SCHEMA["law.kind"], 0)
    law_keys = {f"law.{k}" for k in LAW_KEYS[kind]}
    for key in given:
        if key not in SCHEMA or key.startswith("law.") and key not in law_keys:
            raise ConfigError(f"unknown config key {key}"
                              + (f" for law kind {kind!r}" if key in SCHEMA else ""))
    if "law" in raw and (missing := sorted(law_keys - {f"law.{k}" for k in LAW_OPTIONAL}
                                           - set(given))):
        raise ConfigError(f"{missing[0]} is required by law kind {kind!r}")
    for key, (rule, shape) in SCHEMA.items():  # law.dimension is checked before any D shape
        if key in given and not (key in NULLABLE and given[key] is None):
            _check(key, given[key], rule, shape, out["law"]["dimension"])
    for i, x in enumerate(out["rate"]["velocities"]):  # the whole grid, before any point
        if sum(map(abs, x)) > 1.0 + 1e-12:
            raise ConfigError(f"rate.velocities[{i}] = {x} lies outside the unit l1 ball")
        lattice_denominator(x, f"rate.velocities[{i}]")
    return out


def _check_read(cfg: dict, *keys: str):
    """Check the dimension-shaped ``keys`` a subcommand reads, set or defaulted, as the walk does.

    The walk checks the keys a config sets; a defaulted one is 1-D, so only
    the subcommand that reads it checks it against law.dimension.
    """
    for key in keys:
        section, _, leaf = key.partition(".")
        _check(key, cfg[section][leaf] if leaf else cfg[key], *SCHEMA[key],
               cfg["law"]["dimension"])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    """16 hex digits of a 64-bit hash of the canonical JSON, which only tells configs apart.

    The byte length is the key, and ``derive_seed`` absorbs the bytes with
    mix64 as little-endian 64-bit words, the last one zero-padded.
    """
    data = canonical_json(cfg).encode()
    chunks = np.frombuffer(data + bytes(-len(data) % 8), dtype="<u8")
    return f"{derive_seed(len(data), *chunks.tolist()):016x}"


def _finite_number(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing literals are refused."""
    if not math.isfinite(value := float(text)):
        raise ConfigError(f"config number {text} is not finite")
    return value


def load_config(path: str) -> dict:
    with open(path) as fh:
        return normalize_config(json.load(fh, parse_constant=_finite_number,
                                          parse_float=_finite_number))


def build_law(cfg: dict):
    """The environment law of a normalized config, whose law keys are checked.

    A refusal of the law's constructor, whose checks span keys (weights that
    sum to 1, kappa below 1/(2d)), is re-raised as a ConfigError led by ``law``.
    """
    law_cfg = cfg["law"]
    try:
        if law_cfg["kind"] == "iid-product":
            return IIDProductLaw(law_cfg["dimension"], law_cfg["atoms"], law_cfg["weights"],
                                 law_cfg["kappa"])
        options = {("range_r" if k == "range" else k): law_cfg[k]
                   for k in LAW_OPTIONAL & set(law_cfg)}
        return MarkovFieldLaw(law_cfg["dimension"], law_cfg["states"], law_cfg["kappa"], **options)
    except ValueError as exc:
        raise ConfigError(f"law: {exc}") from exc


def build_problem(cfg: dict):
    """law, tilt parameters, symbol law and stopping config from one config."""
    _check_read(cfg, "z", "ell")
    try:
        ell = direction_index(cfg["ell"])
    except ValueError as exc:
        raise ConfigError(f"ell: {exc}") from exc
    law = build_law(cfg)
    tp = _cli.solve_tilt(law, np.asarray(cfg["z"], dtype=np.float64))
    eps = _cli.make_epsilon_law(tp)
    return law, tp, eps, _cli.StoppingConfig(cfg["L"], ell)


def _write_json(path: str, payload: dict):
    # NaN and infinities are not JSON; refuse them before the file is opened
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, cfg: dict, header: list, rows):
    """A CSV artifact: the config-hash meta line, then the header, then the rows.

    A float cell, a numpy float included, is the repr of its float, which
    reads back to the same float, and None an empty cell.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg['seed']}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                    for row in rows)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# verify's pass thresholds, like its size budgets, are constants: an exact
# identity holds to rounding, relative for the change of measure and psi's
# enumeration, absolute for the endpoint laws and psi's one-step algebra
TILT_RESIDUAL = IDENTITY_REL = COINCIDENCE_ABS = 1e-10
ONESTEP_ABS = 1e-12
TAU_SIGMAS = 4.0  # the sampled mean of tau lies within this many sd[tau] / sqrt(n) of E[tau]
THETA_SCALE = 0.5
# the two families that enumerate (path, symbol word) pairs, psi and the endpoint
# coincidence, run n = 1 .. min(verify.n_max, JOINT_N_MAX)
JOINT_N_MAX = 4


def _run_verify(cfg: dict):
    """Run the six identity families up to verify.n_max; returns (rows, all_pass)."""
    law, tp, eps, stop = build_problem(cfg)
    if not law.independent:  # the annealed identity closes atom by atom
        raise ConfigError(f"law.kind = {cfg['law']['kind']!r} at law.beta = {law.beta}: verify "
                          "needs independent sites: an i.i.d. product law, or a field at beta 0")
    d = tp.dimension
    seed = cfg["seed"]
    n_max = cfg["verify"]["n_max"]
    n_joint = min(n_max, JOINT_N_MAX)
    # the oracles' own checks at the longest runs, before any family runs
    _cli.check_paths(n_max, d, "verify.n_max")
    _cli.check_folds(cfg["verify"]["theta_count"], n_max, d, "verify.theta_count")
    rows_key = "law.atoms" if cfg["law"]["kind"] == "iid-product" else "law.states"
    check_memory(_cli.annealed_identity_bytes(len(law.table), n_max, d),
                 f"{rows_key} = {len(law.table)} atoms at verify.n_max = {n_max}")
    _cli.check_joint_pairs(d, n_joint, "verify.n_max")
    box = centered_box(d, n_max + 1)  # the quenched family's; psi's box lies inside it
    check_sites(box, f"verify.n_max = {n_max}: the quenched realization")
    _cli.check_tau_memory(cfg["verify"]["tau_draws"], stop.L, "verify.tau_draws")
    # theta (i, a) is the site hash's uniform at site (i, a), scaled to [-THETA_SCALE, THETA_SCALE)
    shape = (cfg["verify"]["theta_count"], d)
    u = site_uniforms(derive_seed(seed, 100), np.indices(shape).reshape(2, -1).T)
    thetas = THETA_SCALE * (2.0 * u.reshape(shape) - 1.0)
    rows = []

    def add(family, metric, tolerance, **detail):
        rows.append({"family": family, "metric": float(metric),
                     "tolerance": float(tolerance), "passed": bool(metric <= tolerance), **detail})

    res = _cli.tilt_invariant_residuals(tp)
    worst = max(res.items(), key=lambda kv: kv[1])
    add("tilt-invariants", worst[1], TILT_RESIDUAL, detail=worst[0])

    # one call per n enumerates the paths once for every theta
    worst_a = 0.0
    for n in range(1, n_max + 1):
        for lhs, rhs in zip(*_cli.verify_identity_annealed(law, tp, thetas, n)):
            worst_a = max(worst_a, abs(lhs - rhs) / abs(rhs))
    add("identity-annealed", worst_a, IDENTITY_REL)

    env = sample_environment(law, derive_seed(seed, 101), box)
    worst_q = 0.0
    for n in range(1, n_max + 1):
        for lhs, rhs in zip(*_cli.verify_identity_quenched(env, tp, thetas, n)):
            worst_q = max(worst_q, abs(lhs - rhs) / abs(rhs))
    add("identity-quenched", worst_q, IDENTITY_REL)

    worst_c = 0.0
    for n in range(1, n_joint + 1):
        ref = _cli.qz_endpoint_distribution(tp, n)
        dec = _cli.decomposed_endpoint_distribution(tp, eps, n)
        keys = set(ref) | set(dec)
        worst_c = max(worst_c, max(abs(ref.get(k, 0.0) - dec.get(k, 0.0)) for k in keys))
    # one-step marginal identity kbar + (1 - 2d kbar) * leftover = u
    marg = eps.kbar + eps.free_prob * _cli.conditional_step_probs(tp, eps, eps.free_symbol)
    worst_c = max(worst_c, float(np.max(np.abs(marg - tp.u_array))))
    add("decomposition-coincidence", worst_c, COINCIDENCE_ABS)

    # one-step reweighting algebra for randomized xi, then small-n enumeration;
    # both checks live in one family
    xi = 0.5 + site_uniforms(derive_seed(seed, 102), np.arange(64)[:, None])[:, None]
    u = tp.u_array
    total = eps.kbar + (u - eps.kbar) * _cli.psi_factor(tp, eps, xi, np.arange(2 * d))
    worst_p = float(np.max(np.abs(total - u * xi)))
    worst_n = 0.0
    env2 = sample_environment(law, derive_seed(seed, 103), centered_box(d, n_joint + 1))
    for n in range(1, n_joint + 1):
        lhs, rhs = _cli.verify_psi_identity(tp, eps, env2, thetas[0], n)
        worst_n = max(worst_n, abs(lhs - rhs) / abs(rhs))
    rows.append({"family": "psi-identity", "metric": float(max(worst_n, worst_p)),
                 "tolerance": IDENTITY_REL,
                 "passed": bool(worst_n <= IDENTITY_REL and worst_p <= ONESTEP_ABS)})

    draws = cfg["verify"]["tau_draws"]
    taus = _cli.sample_tau_batch(eps, stop, draws, derive_seed(seed, 104))
    error = float(taus.mean()) - _cli.expected_tau(eps, stop)
    add("tau-waiting-time", abs(error) * math.sqrt(draws) / _cli.tau_sd(eps, stop), TAU_SIGMAS)

    return rows, all(r["passed"] for r in rows)


def cmd_verify(cfg: dict, out_dir: str) -> int:
    rows, ok = _run_verify(cfg)
    width = max(len(r["family"]) for r in rows)
    n_max = cfg["verify"]["n_max"]
    print(f"identity families enumerated paths up to n_max = {n_max}")
    print(f"{'family':<{width}}  {'metric':>12}  {'tolerance':>10}  result")
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        detail = f" ({r['detail']})" if "detail" in r and not r["passed"] else ""
        print(f"{r['family']:<{width}}  {r['metric']:>12.3e}  {r['tolerance']:>10.1e}  {status}{detail}")
    if out_dir:
        _write_json(os.path.join(out_dir, "verify_report.json"),
                    {"config_hash": config_hash(cfg), "seed": cfg["seed"], "n_max": n_max,
                     "families": rows, "passed": ok})
    return EXIT_OK if ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def cmd_gap(cfg: dict, out_dir: str) -> int:
    law, tp, eps, stop = build_problem(cfg)
    report = _cli.certify_gap(tp, eps, stop, law, cfg["gap"]["replicas"],
                              horizon=cfg["gap"]["horizon"], seed=cfg["seed"])
    payload = report.to_dict()
    payload["config_hash"] = config_hash(cfg)
    payload["tilt"] = tp.to_dict()
    print(f"gap = {report.gap:.6e} +- {report.stderr:.2e} "
          f"(significance {report.significance:.2f}, verdict {report.verdict})")
    print(f"recursion read {report.steps_read} of H - L = {report.horizon - report.L} steps: "
          "a block stops once the rest of each replica's sum is below 2^-56 of it",
          file=sys.stderr)
    if out_dir:
        _write_json(os.path.join(out_dir, "gap_report.json"), payload)
        _write_csv(os.path.join(out_dir, "gap_trace.csv"), cfg, ["replica", "log_inner"],
                   enumerate(report.trace))
    return {"certified": EXIT_OK, "falsified": EXIT_FALSIFIED,
            "inconclusive": EXIT_INCONCLUSIVE}[report.verdict]


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def cmd_rate(cfg: dict, out_dir: str) -> int:
    _check_read(cfg, "rate.velocities")
    law = build_law(cfg)
    r = cfg["rate"]
    # every point is computed before any is printed, so a refused point prints none
    ests = [_cli.rate_point(law, np.asarray(x, dtype=np.float64), seed=cfg["seed"],
                            horizon=r["horizon"], env_replicas=r["env_replicas"])
            for x in r["velocities"]]
    points = [est.to_dict() for est in ests]
    for x, est in zip(r["velocities"], ests):
        i_a = "n/a" if est.I_a is None else f"{est.I_a:.6f}+-{est.stderr_a:.1e}"
        print(f"x={x} I_a={i_a} I_q={est.I_q:.6f}+-{est.stderr_q:.1e}")
    if out_dir:
        # the JSON refuses non-finite values; write it first so a refusal leaves no CSV.
        # Both artifacts list the fields of the points in one order, x spread over columns
        _write_json(os.path.join(out_dir, "rate_report.json"),
                    {"config_hash": config_hash(cfg), "seed": cfg["seed"], "points": points})
        _write_csv(os.path.join(out_dir, "rate_grid.csv"), cfg,
                   [f"x{a + 1}" for a in range(law.dimension)] + list(points[0])[1:],
                   (point["x"] + list(point.values())[1:] for point in points))
    return EXIT_OK


# ---------------------------------------------------------------------------
# env-sample / tau-stats
# ---------------------------------------------------------------------------

def cmd_env_sample(cfg: dict, out_dir: str) -> int:
    _check_read(cfg, "env_sample.lo", "env_sample.hi")
    lo, hi = cfg["env_sample"]["lo"], cfg["env_sample"]["hi"]
    for i, (a, b) in enumerate(zip(lo, hi)):
        if b < a:
            raise ConfigError(f"env_sample.hi[{i}] = {b} is below env_sample.lo[{i}] = {a}")
    law = build_law(cfg)
    box = Box(tuple(lo), tuple(hi))
    states = sample_environment(law, cfg["seed"], box).states.reshape(-1)

    def rows():  # HASH_BLOCK sites at a time, in the C order of the box
        for start in range(0, len(states), HASH_BLOCK):
            flat = np.arange(start, min(start + HASH_BLOCK, len(states)))
            sites = np.column_stack(np.unravel_index(flat, box.shape)) + box.lo
            yield from map(list.__add__, sites.tolist(), law.table[states[flat]].tolist())

    path = os.path.join(out_dir or ".", "env.csv")
    d = law.dimension
    _write_csv(path, cfg,
               [f"x{a + 1}" for a in range(d)]
               + [lbl for a in range(d) for lbl in (f"p_plus_e{a + 1}", f"p_minus_e{a + 1}")],
               rows())
    print(f"wrote {box.n_sites} sites to {path}")
    return EXIT_OK


def cmd_tau_stats(cfg: dict, out_dir: str) -> int:
    # tau reads only L and the success probability k (an EpsilonLaw would demand
    # 2d * k < 1): no law, tilt or seed. A refused row prints none, as all come first
    rows = []
    for kb, lval in cfg["tau"]["configs"]:
        c = _cli.StoppingConfig(lval, 0)
        rows.append([kb, lval, _cli.expected_tau(kb, c), _cli.tau_sd(kb, c),
                     _cli.choose_horizon(kb, c)])
    for kb, lval, expect, sd, horizon in rows:
        print(f"kbar={kb} L={lval}: expected={expect:.4f} sd={sd:.4f} horizon={horizon}")
    if out_dir:
        _write_csv(os.path.join(out_dir, "tau_stats.csv"), cfg,
                   ["kbar", "L", "expected", "sd", "horizon"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# subcommand -> (handler, help): argparse, dispatch and tests/test_readme.py read this table
COMMANDS = {
    "verify": (cmd_verify, "run the exact identity suite"),
    "gap": (cmd_gap, "certify the quenched/annealed block gap"),
    "rate": (cmd_rate, "rate-function grid"),
    "env-sample": (cmd_env_sample, "realize an environment as CSV"),
    "tau-stats": (cmd_tau_stats, "run-completion time statistics"),
}


def main(argv=None) -> int:
    # one parser: the subcommands take no options, so the options may follow them
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="rwre-lab", description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="subcommands:\n" + "\n".join(f"  {name:<{width}}  {text}"
                                            for name, (_, text) in COMMANDS.items()))
    parser.add_argument("command", choices=COMMANDS, metavar="SUBCOMMAND",
                        help="one of the subcommands below")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and has no effect: every "
                             "subcommand runs on one thread")
    parser.add_argument("--out", default="", help="output directory for artifacts")
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"argument --threads: {args.threads} is below 1")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        cfg = load_config(args.config) if args.config else normalize_config({})
        if args.seed is not None:
            _check("seed", args.seed, *SCHEMA["seed"], 0)
            cfg["seed"] = args.seed
        return COMMANDS[args.command][0](cfg, args.out)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError and JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
