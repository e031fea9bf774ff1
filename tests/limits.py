"""The limits the command line keeps in a child process, one row per run.

Each row starts one child, ``python ARGV``, in a fresh directory; the
argument ``{config}`` stands for the row's config file and ``{out}`` for its
artifact directory. ``tests/test_limits.py`` runs every row and fails it on:

- an exit code other than ``exit``;
- a ``stdout`` or ``stderr`` pattern that is missing, or ``Traceback`` in
  either stream; a pattern is a regular expression in which ``^`` and ``$``
  match at each line;
- an artifact of ``files`` that lacks one of its patterns;
- a wall time of ``wall`` seconds or more (the child is killed there), a peak
  RSS of ``rss_mb`` MiB or more, or an allocation past ``as_kib`` KiB of
  address space (``RLIMIT_AS``, the child's own);
- an ``{out}`` that exists afterwards, where ``no_out`` is set;
- artifacts that differ in name or byte from those of the row ``same_as``,
  lines that hold ``drop`` left out of both;
- a carriage return in any CSV artifact.

Rows marked ``slow`` run only under ``pytest -m slow tests/test_limits.py``.
A row without ``config`` or ``base`` runs the command line's defaults.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from rwre_lab.cli import COMMANDS


class Row(NamedTuple):
    name: str
    argv: tuple
    config: dict | None = None  # written to {config}; overrides of `base` where it is set
    base: str | None = None  # a perfbench/configs file, read and never written
    env: dict = {}
    exit: int = 0
    stdout: tuple = ()
    stderr: tuple = ()
    files: dict = {}
    wall: float = 60.0  # the runner's cap where no tighter one is stated
    rss_mb: float | None = None
    as_kib: int | None = None
    no_out: bool = False
    same_as: str | None = None
    drop: str | None = None
    slow: bool = False


CONFIG, OUT = ("--config", "{config}"), ("--out", "{out}")
EMPTY = r"\A\Z"  # a stdout pattern: nothing is printed
ZERO_GAP = re.escape("gap = 0.000000e+00 +- 0.00e+00")


def cli(*args: str) -> tuple:
    return ("-m", "rwre_lab.cli") + args


def refused(name: str, command: str, config: dict, code: int, message: str, wall: float,
            **limits) -> Row:
    """A run refused before it writes anything: stderr names ``message``, and no --out is made."""
    return Row(name, cli(*CONFIG, *OUT, command), config, exit=code, stderr=(message,),
               wall=wall, no_out=True, **limits)


FIELD_1D = {"kind": "markov-field", "dimension": 1, "kappa": 0.1, "beta": 0.5,
            "states": [[0.4, 0.6], [0.6, 0.4], [0.5, 0.5]]}
LAW_2D = {"kind": "iid-product", "dimension": 2, "kappa": 0.1,
          "atoms": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]], "weights": [0.5, 0.5]}
# a two-atom 6-D law whose rows move +-e1 by 0.02 from uniform: its verify box
# of (2 n_max + 3)^6 sites passes the site cap at the default n_max
LAW_6D = {"kind": "iid-product", "dimension": 6, "kappa": 0.05, "weights": [0.5, 0.5],
          "atoms": [[1 / 12 + s * 0.02, 1 / 12 - s * 0.02] + [1 / 12] * 10 for s in (1, -1)]}
# a 1-D beta 0 field and its product twin: the field's state rows as atoms at weights 1/S
THREE_ROWS = [[0.3, 0.7], [0.5, 0.5], [0.7, 0.3]]
TWINS = {"field": {"kind": "markov-field", "dimension": 1, "kappa": 0.1, "beta": 0,
                   "states": THREE_ROWS},
         "twin": {"kind": "iid-product", "dimension": 1, "kappa": 0.1, "atoms": THREE_ROWS,
                  "weights": [1 / 3] * 3}}

BUILD_PROBLEM = """\
import sys
from rwre_lab import cli
law, tp, eps, stop = cli.build_problem(cli.load_config(sys.argv[1]))
print(type(law).__name__, f"kbar {eps.kbar:.6g}", f"L {stop.L}", f"c_z {tp.c_z:.6g}")
"""
# a 3000 x 3000 box of a three-atom law, whose weights straddle the byte sampler's cuts
LARGE_BOX = """\
from rwre_lab.environments import Box, IIDProductLaw, sample_environment
law = IIDProductLaw(2, [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25],
                        [0.25, 0.25, 0.25, 0.25]], [0.2, 0.5, 0.3], 0.05)
env = sample_environment(law, 1, Box((-1500, -1500), (1499, 1499)))
assert env.states.shape == (3000, 3000)
"""

ROWS = [
    # every subcommand at the defaults, byte-identical at 1 and 2 OpenBLAS threads;
    # the options may follow the subcommand
    *(Row(f"defaults-{command}", cli(*OUT, command), env={"OPENBLAS_NUM_THREADS": "1"},
          rss_mb=64 if command == "tau-stats" else None)
      for command in COMMANDS),
    *(Row(f"blas-2-{command}", cli(*OUT, command), env={"OPENBLAS_NUM_THREADS": "2"},
          same_as=f"defaults-{command}")
      for command in COMMANDS),
    Row("gap-options-after", cli("gap", *OUT), same_as="defaults-gap"),
    Row("threads-2", cli("--threads", "2", *OUT, "gap"), same_as="defaults-gap"),

    # sizes that must run, in bounded time and memory
    Row("gap-l4", cli(*CONFIG, "gap"), {"L": 4}, rss_mb=256),  # H = 43 077
    Row("gap-l5", cli(*CONFIG, *OUT, "gap"), {"L": 5}, wall=20),  # H = 344 873
    Row("gap-l6", cli(*CONFIG, *OUT, "gap"), {"L": 6}, wall=20),  # H = 2 759 300
    Row("verify-n18", cli(*CONFIG, "verify"), {"verify": {"n_max": 18, "tau_draws": 20000}},
        wall=30, rss_mb=128, slow=True),
    Row("verify-2d-n8", cli(*CONFIG, *OUT, "verify"),
        {"verify": {"n_max": 8, "tau_draws": 20000}}, base="verify-2d", wall=30,
        files={"verify_report.json": (r'"n_max": 8,',)}),
    Row("field-2d-setup", ("-c", BUILD_PROBLEM, "{config}"),
        {"law": {"kind": "markov-field", "dimension": 2, "kappa": 0.05, "range": 2,
                 "beta": 0.5, "states": [[0.3, 0.2, 0.25, 0.25], [0.2, 0.3, 0.25, 0.25]]},
         "z": [0.2, 0.1], "ell": [1, 0]},
        stdout=(r"^MarkovFieldLaw kbar ",), wall=120),
    Row("rate-3d", cli(*CONFIG, *OUT, "rate"),
        {"law": {"kind": "iid-product", "dimension": 3, "kappa": 0.05,
                 "atoms": [[0.25, 0.1, 0.2, 0.15, 0.15, 0.15],
                           [0.1, 0.25, 0.15, 0.2, 0.15, 0.15]], "weights": [0.5, 0.5]},
         "z": [0.2, 0.1, 0.1], "ell": [1, 0, 0],
         "rate": {"velocities": [[0.2, 0.1, 0.1]], "horizon": 40, "env_replicas": 4}}),
    Row("rate-long-horizon", ("-W", "error::RuntimeWarning") + cli(*CONFIG, *OUT, "rate"),
        {"law": {"kind": "iid-product", "dimension": 2, "kappa": 0.01,
                 "atoms": [[0.85, 0.05, 0.05, 0.05], [0.7, 0.1, 0.1, 0.1]],
                 "weights": [0.5, 0.5]},
         "z": [0.2, 0.1], "ell": [1, 0],
         "rate": {"velocities": [[-0.2, 0.6]], "horizon": 800, "env_replicas": 2}}),
    Row("large-box", ("-c", LARGE_BOX), wall=10, rss_mb=64),
    # 10^6 sites written a block of rows at a time: 33.3 MiB peak, 93 MiB when
    # every site's row was gathered first
    Row("env-2d-1e6", cli(*CONFIG, *OUT, "env-sample"),
        {"law": LAW_2D, "env_sample": {"lo": [-500, -500], "hi": [499, 499]}}, wall=60,
        rss_mb=40, slow=True),

    # field laws
    *(Row(f"field-1d-beta-{beta}-{command}", cli(*CONFIG, *OUT, command),
          {"law": {**FIELD_1D, "beta": beta}})
      for beta in (0.5, 0) for command in ("rate", "env-sample")),
    Row("field-gap", cli(*CONFIG, *OUT, "gap"), {"law": FIELD_1D, "gap": {"replicas": 200}},
        wall=120, slow=True),
    Row("field-gap-replay", cli(*CONFIG, *OUT, "gap"),
        {"law": FIELD_1D, "gap": {"replicas": 200}}, wall=120, same_as="field-gap", slow=True),
    Row("field-one-state-gap", cli(*CONFIG, *OUT, "gap"),
        {"law": {**FIELD_1D, "states": [[0.4, 0.6]]}}, exit=3, stdout=(ZERO_GAP,)),
    Row("field-equal-rows-gap", cli(*CONFIG, "--seed", "1", *OUT, "gap"),
        {"law": {**FIELD_1D, "states": [[0.4, 0.6], [0.4, 0.6]]}, "gap": {"replicas": 7}},
        exit=3, stdout=(re.escape("+- 0.00e+00"),)),
    # every row agrees on +e1: an exact zero at the default replicas, with no ray drawn
    Row("field-fixed-e1-gap", cli(*CONFIG, "gap"),
        {"law": {"kind": "markov-field", "dimension": 2, "kappa": 0.05, "beta": 0.5,
                 "states": [[0.3, 0.2, 0.2, 0.3], [0.3, 0.2, 0.3, 0.2]]},
         "z": [0.2, 0.1], "ell": [1, 0]}, exit=3, stdout=(ZERO_GAP,), wall=10),
    # the boundary rates: equal I_q at +-e1 on the default law, no I_a on a coupled field
    Row("boundary-iid", cli(*CONFIG, *OUT, "rate"), {"rate": {"velocities": [[1.0], [-1.0]]}},
        wall=30, files={"rate_report.json": (r'"I_q": ([^,\s]+),(?s:.*)"I_q": \1,',)}),
    Row("boundary-field", cli(*CONFIG, *OUT, "rate"),
        {"law": FIELD_1D, "rate": {"velocities": [[1.0], [-1.0]]}}, wall=30,
        stdout=(r"^x=\[1\.0\] I_a=n/a ", r"^x=\[-1\.0\] I_a=n/a ")),
    # an independent field writes its product twin's artifacts, config_hash aside
    *(Row(f"independent-{law}-{command}", cli(*CONFIG, "--seed", "1", *OUT, command),
          {"law": TWINS[law], "gap": {"replicas": 2000},
           "rate": {"velocities": [[0.25], [1.0], [-1.0]]}},
          same_as=f"independent-field-{command}" if law == "twin" else None,
          drop="config_hash")
      for law in TWINS for command in ("gap", "rate", "verify", "env-sample")),

    # refusals: each exits 2 or 64 naming its key, with no traceback and no --out
    refused("tau-hopeless", "tau-stats", {"tau": {"configs": [[0.5, 30]]}}, 2,
            r"^budget error: ", wall=5, rss_mb=64),
    refused("env-1e8", "env-sample", {"env_sample": {"lo": [-10], "hi": [100000000]}}, 2,
            r"^budget error: ", wall=30),
    refused("verify-n40", "verify", {"verify": {"n_max": 40}}, 2, r"^budget error: ", wall=10),
    refused("gap-1e9", "gap", {"gap": {"replicas": 10**9}}, 2, r"^budget error: ", wall=10),
    refused("no-atoms", "gap", {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                                        "weights": [1.0]}}, 64, r"^error: law\.atoms", wall=30),
    refused("flat-velocities", "rate", {"rate": {"velocities": [0.5]}}, 64,
            r"^error: rate\.velocities", wall=30),
    refused("seed-2-70", "gap", {"seed": 2**70}, 64, r"^error: seed", wall=30),
    # under an 800 000 KiB address limit, before anything large is allocated
    refused("early-horizon", "gap", {"L": 7}, 2, "L = 7", wall=5, as_kib=800000),
    refused("early-n_max", "verify", {"verify": {"n_max": 10**10}}, 2, r"verify\.n_max",
            wall=5, as_kib=800000),
    refused("early-theta_count", "verify", {"verify": {"theta_count": 10**9}}, 2,
            r"verify\.theta_count", wall=5, as_kib=800000),
    refused("early-env_replicas", "rate", {"rate": {"env_replicas": 10**9}}, 2,
            r"rate\.env_replicas", wall=5, as_kib=800000),
    refused("early-psi_n_max", "verify", {"verify": {"psi_n_max": 10**10}}, 64,
            r"unknown config key verify\.psi_n_max", wall=5, as_kib=800000),
    refused("early-ell", "gap", {"ell": [10**400]}, 64, r"ell\[0\]", wall=5, as_kib=800000),
    # removed keys, and keys refused before any point is printed
    refused("removed-kbar", "gap", {"kbar": 0.1}, 64, "kbar", wall=30),
    refused("removed-tail", "gap", {"gap": {"tail": 1e-3}}, 64, r"gap\.tail", wall=30),
    refused("removed-tolerances", "verify", {"tolerances": {}}, 64,
            r"^error: unknown config key tolerances", wall=30),
    refused("removed-tau-draws", "tau-stats", {"tau": {"draws": 1000000}}, 64,
            r"unknown config key tau\.draws", wall=30),
    refused("coupled-field-verify", "verify", {"law": FIELD_1D}, 64,
            r"^error: law\.kind = 'markov-field'", wall=30),
    refused("velocity-denominator", "rate", {"rate": {"velocities": [[0.5], [0.013]]}}, 64,
            r"rate\.velocities\[1\]", wall=30, stdout=(EMPTY,)),
    refused("verify-folds", "verify", {"verify": {"theta_count": 100000, "n_max": 8}}, 2,
            r"^budget error: verify\.theta_count", wall=10, base="verify-2d",
            stdout=(EMPTY,)),

    # dimension-shaped keys: a 2-D config runs what it sets, and a key left at its
    # 1-D default is refused by the subcommand that reads it
    *(Row(f"dims-2d-{command}", cli(*CONFIG, *OUT, command),
          {"law": LAW_2D,
           "rate": {"velocities": [[0.2, 0.1]], "horizon": 40, "env_replicas": 2},
           "env_sample": {"lo": [-5, -5], "hi": [5, 5]}},
          files={artifact: (r"\S",)})
      for command, artifact in (("rate", "rate_grid.csv"), ("env-sample", "env.csv"),
                                ("tau-stats", "tau_stats.csv"))),
    refused("dims-v2d-rate", "rate", {}, 64, r"rate\.velocities\[0\]", wall=5,
            base="verify-2d"),
    refused("dims-v2d-env-sample", "env-sample", {}, 64, r"env_sample\.lo", wall=5,
            base="verify-2d"),
    refused("dims-6d-verify", "verify", {"law": LAW_6D, "z": [0.2, 0, 0, 0, 0, 0],
                                         "ell": [1, 0, 0, 0, 0, 0]}, 2, r"verify\.n_max",
            wall=5),
    refused("dims-psi", "verify", {"verify": {"psi_n_max": 4}}, 64, r"verify\.psi_n_max",
            wall=5),
]
