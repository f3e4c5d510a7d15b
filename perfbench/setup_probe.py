"""Set-up time of a fresh interpreter: import stackgame.cli, parse the configs.

Usage: python3 setup_probe.py SRC_DIR CONFIG...

Prints two numbers: the seconds from the start of this script to the last
parse_config, and then a reading of the reference kernel (speed.py) taken
in this same process right after, which tells run.py how fast the machine
was running while this probe set up.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from stackgame import cli  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as fh:
        cli.parse_config(fh.read())
setup = time.perf_counter() - start

import speed  # noqa: E402  (this script's directory is on sys.path)

print(setup, speed.Kernel().seconds())
