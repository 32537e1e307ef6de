"""Byte-level guard on CLI output.

Replays a subset of the benchmark's golden corpus (``perfbench/golden.json``,
the stdout SHA-256 of each recorded ``delta-inv`` command line) through
``cli.main`` and checks that the output bytes are unchanged.  The subset is
every ``dims``, ``hilbert``, ``xi``, ``relations``, ``b0``, ``upsilon``,
``expand``, ``diamond`` and ``verify`` item, the ``rank`` items with g <= 4
and the g = 4 ``theta`` items: the commands whose code paths use the weight
count, the closed forms, the shared cofactor kernels and the expansion
series.  The file is only read here;
``perfbench/record_golden.py`` is what writes it.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from deltainv.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "perfbench" / "golden.json").read_text())


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def _selected(item):
    argv = item.split()
    command = argv[0]
    if command in ("dims", "hilbert", "xi", "relations", "b0", "upsilon",
                   "expand", "diamond", "verify"):
        return True
    if command == "rank":
        return _flag(argv, "--g") <= 4
    if command == "theta":
        return _flag(argv, "--g") == 4
    return False


ITEMS = sorted(item for item in GOLDEN if _selected(item))


def test_subset_is_not_empty():
    commands = {item.split()[0] for item in ITEMS}
    assert commands == {"dims", "hilbert", "xi", "relations", "b0", "upsilon",
                        "rank", "theta", "expand", "diamond", "verify"}


@pytest.mark.parametrize("item", ITEMS)
def test_stdout_matches_golden_digest(item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(item.split())
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[item]
