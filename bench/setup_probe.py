"""One cold qdcalc invocation: start, import, solve one problem, exit.

``run.py`` times this script from a fresh interpreter as the set-up cost
every command-line run pays.

    python3 bench/setup_probe.py COMMAND PROBLEM.json
"""

import contextlib
import io
import sys

from worker import import_cli

if __name__ == "__main__":
    cli = import_cli()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([sys.argv[1], sys.argv[2], "--format", "json"])
    sys.exit(code)
