"""Run the rwre-lab CLI with timing spans around each layer's public functions.

Usage: python traced_cli.py SPANS_JSON <rwre-lab arguments...>

The spans and counts are written to SPANS_JSON when the CLI returns; the
exit code is the CLI's own.
"""

import sys

from spans import Recorder, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import rwre_lab.cli

    recorder = Recorder()
    install(recorder)
    try:
        return rwre_lab.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
