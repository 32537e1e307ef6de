"""Byte-level guard on CLI output.

Replays the benchmark's whole golden corpus (``perfbench/golden.json``, the
stdout SHA-256 of each recorded ``delta-inv`` command line) through
``cli.main`` and checks that the output bytes are unchanged.  The file is
only read here; ``perfbench/record_golden.py`` is what writes it.
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
ITEMS = sorted(GOLDEN)


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
