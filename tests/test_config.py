"""The config table: every key it lists is refused by name, before any artifact."""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab.cli import (ANY, DEFAULT_CONFIG, INTEGER, LAW_KEYS, NULLABLE, NUMBER, SCHEMA,
                          ConfigError, main, normalize_config)

FIELD_LAW = {"kind": "markov-field", "dimension": 1, "kappa": 0.1,
             "states": [[0.4, 0.6], [0.6, 0.4]]}
FIELD_ONLY = LAW_KEYS["markov-field"] - LAW_KEYS["iid-product"]
REMOVED = ("gap.tail", "kbar", "verify.psi_n_max")  # tuning keys that became constants


def with_key(key: str, val) -> dict:
    """A config that sets only ``key``, to ``val``, on a law of a kind that reads it."""
    section, _, leaf = key.partition(".")
    if not leaf:
        return {key: val}
    if section == "law":
        return {"law": {**(FIELD_LAW if leaf in FIELD_ONLY else DEFAULT_CONFIG["law"]),
                        leaf: val}}
    return {section: {leaf: val}}


def default_of(key: str):
    section, _, leaf = key.partition(".")
    if section == "law":
        return {**FIELD_LAW, **DEFAULT_CONFIG["law"]}.get(leaf)
    return DEFAULT_CONFIG[section][leaf] if leaf else DEFAULT_CONFIG[key]


def with_first_entry(val, entry):
    """``val`` with its first innermost list entry replaced by ``entry``."""
    return [with_first_entry(val[0], entry)] + val[1:] if isinstance(val, list) else entry


def relengthed(val: list, shape: tuple) -> list:
    """``val`` with one entry too many at its first fixed-length level, or empty."""
    if shape[0] is not ANY:
        return val + val[:1]
    return [relengthed(row, shape[1:]) for row in val] if len(shape) > 1 else []


def mutations(key: str):
    """Values of ``key`` that its rule refuses: a wrong type, one below the bound,
    or, for a list, a wrong type in an entry and a wrong length. A removed key
    refuses every value that JSON writes; the loader refuses an infinity before
    any key is read."""
    if key in REMOVED:
        return st.one_of(st.none(), st.booleans(),
                         st.floats(allow_nan=False, allow_infinity=False),
                         st.text(alphabet="ab1.", max_size=3))
    rule, shape = SCHEMA[key]
    wrong = st.one_of(st.text(alphabet="ab1.", max_size=3), st.booleans(), st.just({}))
    whole = wrong if key in NULLABLE else st.one_of(wrong, st.none())
    below = st.integers(-10**6, -1)
    options = [whole]
    first = rule[0] if isinstance(rule, list) else rule
    if first[1](0.5) or first[1](1):  # a number or an integer: one past float and int64
        options.append(st.sampled_from([10**400, -10**400]).map(
            lambda v: with_first_entry(default_of(key), v)))
    if shape:
        default = default_of(key)
        options += [wrong.map(lambda v: with_first_entry(default, v)),
                    st.just(relengthed(default, shape))]
        below = below.map(lambda v: with_first_entry(default, v))
    if rule is not INTEGER and rule is not NUMBER:  # the key has a bound
        options.append(below)
    return st.one_of(options)


@pytest.mark.parametrize("key", sorted([*SCHEMA, *REMOVED]))
@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_key_is_refused_by_name(key, data):
    raw = with_key(key, data.draw(mutations(key), label=key))
    with pytest.raises(ConfigError, match=re.escape(key)):
        normalize_config(raw)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["--config", path, "--out", out, "tau-stats"])
        assert code == 64
        named = f"unknown config key {key}" if key in REMOVED else key
        assert err.getvalue().startswith(f"error: {named}")
        assert "Traceback" not in err.getvalue()
        assert not os.path.exists(out)


PINNED = [  # (key named in the error, subcommand, config)
    ("law.atoms", "gap", {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                                  "weights": [1.0]}}),  # a KeyError traceback before
    ("rate.velocities[0]", "rate", {"rate": {"velocities": [0.5]}}),  # a TypeError traceback
    ("tolerances", "verify", {"tolerances": {"tau_sigmas": -1}}),  # exit 1, then unknown
    ("law.kappa", "gap", {"law": {**DEFAULT_CONFIG["law"], "kappa": "0.1"}}),
    ("seed", "gap", {"seed": 2**70}),  # ran as seed 0
    ("seed", "gap", {"seed": -1}),  # ran as seed 2^64 - 1
    ("z[0]", "gap", {"z": [10**400]}),  # an OverflowError traceback in float()
    ("ell[0]", "gap", {"ell": [10**400]}),  # an OverflowError traceback in numpy
    ("tau.configs[0][1]", "tau-stats", {"tau": {"configs": [[0.125, 10**400]]}}),  # the same
]


@pytest.mark.parametrize("key,command,payload", PINNED,
                         ids=[f"{i}-{key}" for i, (key, _, _) in enumerate(PINNED)])
def test_refused_by_name_before_any_artifact(tmp_path, capsys, key, command, payload):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 64
    err = capsys.readouterr().err
    assert re.match(f"error: (unknown config key )?{re.escape(key)}\\s", err)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["tolerances.tilt_residual", "tolerances.identity_rel",
                                 "tolerances.onestep_abs", "tolerances.coincidence_abs",
                                 "tolerances.tau_sigmas", "verify.theta_scale",
                                 "verify.psi_n_max"])
def test_removed_verify_key_is_unknown(tmp_path, capsys, key):
    # verify's thresholds, theta range and joint length are module constants;
    # setting one, even to its old default, is refused by name before verify runs
    section, leaf = key.split(".")
    value = {"theta_scale": 0.5, "onestep_abs": 1e-12, "tau_sigmas": 4.0,
             "psi_n_max": 4}.get(leaf, 1e-10)
    assert key not in SCHEMA
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({section: {leaf: value}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 64
    want = "tolerances" if section == "tolerances" else key
    assert capsys.readouterr().err == f"error: unknown config key {want}\n"
    assert not out.exists()


@pytest.mark.parametrize("key,values", [("kbar", [0.125, None, 0.1, 1e-300]),
                                        ("gap.tail", [1e-4, 1e-3, 0, 1.5])], ids=["kbar", "gap.tail"])
def test_removed_tuning_key_is_unknown(tmp_path, capsys, key, values):
    # kbar is always default_kbar and the horizon cut the constant HORIZON_TAIL;
    # setting either, to its old default or to any other value, is refused by name
    # before gap runs
    assert key not in SCHEMA and len(SCHEMA) == 26 and NULLABLE == {"gap.horizon"}
    section, _, leaf = key.partition(".")
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    for value in values:
        cfg.write_text(json.dumps({section: {leaf: value}} if leaf else {key: value}))
        assert main(["--config", str(cfg), "--out", str(out), "gap"]) == 64
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"
        assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**70), str(2**64), "-1"])
def test_seed_flag_outside_64_bits_refused(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["--seed", seed, "--out", str(out), "gap"]) == 64
    assert capsys.readouterr().err.startswith("error: seed must be an integer in [0, 2**64)")
    assert not out.exists()


@pytest.mark.parametrize("payload", [{"gap.replicas": 5}, {"law.kind": "markov-field"},
                                     {"verify.n_max": 3}])
def test_dotted_top_level_key_is_unknown(payload):
    # a dotted spelling at the top level would otherwise be stored and never read
    with pytest.raises(ConfigError, match=f"^unknown config key {re.escape(next(iter(payload)))}$"):
        normalize_config(payload)


@pytest.mark.parametrize("key,payload", [
    ("ell", {"z": [0.2, 0.1]}),  # the default ell [1] ran as +e1
    ("z", {"ell": [1, 0]}),  # the default z [0.5] failed in solve_tilt, unnamed
])
def test_defaulted_z_and_ell_are_checked_against_the_dimension(tmp_path, capsys, key, payload):
    # the subcommands that build the problem check the 1-D default before any work
    law = {**DEFAULT_CONFIG["law"], "dimension": 2, "atoms": [[0.3, 0.2, 0.25, 0.25]] * 2}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"law": law, **payload}))
    for command in ("gap", "verify"):
        assert main(["--config", str(cfg), command]) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must have law.dimension = 2 entries")


def test_subcommands_check_only_the_defaults_they_read(tmp_path, capsys):
    # rate, env-sample and tau-stats read no z or ell: a 2-D config that leaves
    # them at their 1-D defaults runs all three. The 1-D defaults they do read
    # are refused by name; they exited 64 naming no key before
    law = {**DEFAULT_CONFIG["law"], "dimension": 2, "atoms": [[0.3, 0.2, 0.25, 0.25]] * 2}
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps({"law": law, "rate": {"velocities": [[0.2, 0.1]], "horizon": 40,
                                                    "env_replicas": 2},
                               "env_sample": {"lo": [-2, -2], "hi": [2, 2]},
                               "tau": {"draws": 1000}}))
    for command in ("rate", "env-sample", "tau-stats"):
        assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps({"law": law}))
    for command, key in (("rate", "rate.velocities[0]"), ("env-sample", "env_sample.lo")):
        assert main(["--config", str(cfg), "--out", str(tmp_path / command), command]) == 64
        assert capsys.readouterr().err.startswith(f"error: {key} must have law.dimension = 2")
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("key,command,payload", [
    ("env_sample.hi[0]", "env-sample", {"env_sample": {"lo": [5], "hi": [-5]}}),
    ("L = 1", "gap", {"L": 1}),
    ("law: weights", "gap", {"law": {**DEFAULT_CONFIG["law"], "weights": [0.3, 0.3]}}),
    ("law: kappa", "gap", {"law": {**FIELD_LAW, "kappa": 0.6}}),
    ("ell: not a signed unit vector", "gap", {"ell": [2]}),
    ("ell: not a signed unit vector", "verify", {"ell": [0]}),
    ("ell: not a signed unit vector", "gap",
     {"law": {**DEFAULT_CONFIG["law"], "dimension": 2, "atoms": [[0.3, 0.2, 0.25, 0.25]] * 2},
      "z": [0.2, 0.1], "ell": [1, 1]}),
], ids=["box", "L", "weights", "kappa", "ell-2", "ell-0", "ell-2d"])
def test_refusals_beyond_the_walk_name_their_key(tmp_path, capsys, key, command, payload):
    # an empty box, L = 1 under gap, weights that are no probability vector, a
    # field kappa of 1/(2d) or more and an ell that is no signed unit vector
    # exited 64 naming no key
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps(payload))
    assert main(["--config", str(cfg), "--out", str(out), command]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err
    assert not out.exists()


def test_velocity_grid_is_refused_before_any_point(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rate": {"velocities": [[0.5], [1.5]]}}))
    assert main(["--config", str(cfg), "rate"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""  # the point at 0.5 is not computed first
    assert captured.err.startswith("error: rate.velocities[1] = [1.5] lies outside the unit l1")


def test_off_lattice_velocity_is_refused_before_any_point(tmp_path, capsys):
    # the 0.5 point was printed before 0.013 exited 64 with an error naming no key
    with pytest.raises(ValueError, match=re.escape("rate.velocities[1] = [0.013] has no lattice")):
        normalize_config({"rate": {"velocities": [[0.5], [0.013]]}})
    assert normalize_config({"rate": {"velocities": [[0.25], [1 / 3], [-5 / 64]]}})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rate": {"velocities": [[0.5], [0.013]]}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "rate"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rate.velocities[1] = [0.013] has no lattice denominator")
    assert not out.exists()


def test_seed_bounds_are_inclusive_below():
    assert normalize_config({"seed": 0})["seed"] == 0
    assert normalize_config({"seed": 2**64 - 1})["seed"] == 2**64 - 1


def test_gap_horizon_below_l_names_both(tmp_path, capsys):
    # no block completes within H < L; it blamed the disorder before
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"L": 3, "gap": {"horizon": 2, "replicas": 200}}))
    assert main(["--config", str(cfg), "gap"]) == 64
    err = capsys.readouterr().err
    assert "gap.horizon = 2 is below L = 3" in err and "disorder" not in err
    cfg.write_text(json.dumps({"L": 3, "gap": {"horizon": 3, "replicas": 200}}))
    assert main(["--config", str(cfg), "gap"]) in (0, 1, 3)


@pytest.mark.parametrize("command,payload,code", [
    ("gap", {"gap": {"replicas": 10**10}}, 2),
    ("verify", {"verify": {"n_max": 40}}, 2),
    ("gap", {"z": [-0.5]}, 64),  # <z, ell> < 0 against ell [1]
])
def test_refusal_makes_no_out_directory(tmp_path, capsys, command, payload, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), command]) == code
    assert not out.exists()
