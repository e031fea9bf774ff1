"""Start-up: each subcommand loads only the ``rwre_lab`` modules it runs.

Every run of ``python -m rwre_lab.cli`` compiles what it imports, unless a
bytecode cache exists, so a module a subcommand never calls is pure start-up
cost. Each test runs one subcommand in a fresh interpreter under
``-X importtime`` and reads the modules it imported from stderr. The CLI
itself runs as ``__main__``, so ``rwre_lab.cli`` is never imported a second
time.
"""

import json
import os
import re
import subprocess
import sys

import pytest

import rwre_lab

TINY = {"law": {"kind": "iid-product", "dimension": 1, "kappa": 0.1,
                "atoms": [[0.2, 0.8], [0.8, 0.2]], "weights": [0.5, 0.5]},
        "gap": {"replicas": 1000},
        "rate": {"horizon": 40, "env_replicas": 2},
        "verify": {"n_max": 3, "tau_draws": 1000}}

BASE = {"rwre_lab", "rwre_lab.numutil", "rwre_lab.environments"}
MODULES = {
    "env-sample": BASE,  # the config walk, velocity denominators included, loads no more
    "gap": BASE | {"rwre_lab.tilting", "rwre_lab.decomposition", "rwre_lab.estimators"},
    "rate": BASE | {"rwre_lab.estimators", "rwre_lab.evolution"},
    "verify": BASE | {"rwre_lab.tilting", "rwre_lab.decomposition", "rwre_lab.identities"},
    "tau-stats": BASE | {"rwre_lab.decomposition"},  # tau reads no law, tilt or symbol law
}
IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*\d+ \|\s*(\S+)$")


def loaded_modules(tmp_path, command: str) -> set:
    """The ``rwre_lab`` modules one CLI run imports, read from ``-X importtime``."""
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    src = os.path.dirname(os.path.dirname(rwre_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "rwre_lab.cli",
                           "--config", str(cfg), "--out", str(tmp_path / "out"), command],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    names = {m.group(1) for line in done.stderr.splitlines() if (m := IMPORT_LINE.match(line))}
    return {name for name in names if name.split(".")[0] == "rwre_lab"}


@pytest.mark.parametrize("command", sorted(MODULES))
def test_subcommand_loads_only_its_modules(tmp_path, command):
    assert loaded_modules(tmp_path, command) == MODULES[command]
