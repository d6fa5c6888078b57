"""Set-up as a user pays it: a fresh interpreter imports rotwave.cli and
parses configs.

    python3 setup_probe.py <src dir> <config.json>...

Prints one JSON line: the seconds spent importing and parsing, and the file
rotwave.cli was imported from.
"""

import json
import sys
from time import perf_counter


def main():
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[1])
    import rotwave.cli

    t1 = perf_counter()
    for path in sys.argv[2:]:
        with open(path, "rb") as fh:
            rotwave.cli.parse_config(fh.read())
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "module": rotwave.cli.__file__}))


if __name__ == "__main__":
    main()
