"""Record the golden corpus: the stdout SHA-256 of every menu item.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_golden.py

It rewrites ``perfbench/golden.json``.  Every later commit must reproduce
these bytes exactly; rerun this only when an output change is intended.
"""

import json
import sys

from menus import MENUS
from run import SETUP_ITEM
from worker import BENCH, load_program, run_job, sha256


def main():
    program = load_program()
    golden = {}
    for item in [SETUP_ITEM] + [i for menu in MENUS.values() for i in menu]:
        _, code, stdout = run_job(program, item)
        if code != 0:
            sys.exit(f"error: {item!r} exited {code}")
        golden[item] = sha256(stdout)
    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {path}")


if __name__ == "__main__":
    main()
