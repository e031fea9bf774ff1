"""Time one rwre-lab set-up in a fresh interpreter and print it as JSON.

Usage: python setup_probe.py CONFIG COMMAND

Set-up is what a subcommand does before its main computation: importing
``rwre_lab.cli``, reading and normalizing the config, then ``build_problem``
and, for ``gap`` without a fixed horizon, ``choose_horizon``. ``rate`` builds
only the law.
"""

import json
import sys
import time


def main() -> int:
    config, command = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    from rwre_lab import cli
    from rwre_lab.decomposition import choose_horizon

    cfg = cli.load_config(config)
    if command == "rate":
        cli.build_law(cfg)
    else:
        _, _, eps, stop = cli.build_problem(cfg)
        if command == "gap" and cfg["gap"]["horizon"] is None:
            choose_horizon(eps, stop)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
