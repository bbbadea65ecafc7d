"""Byte stability of CLI output that the benchmark reference does not pin.

``cli_digests.json`` maps each command line below to the sha256 of its
stdout.  Regenerate it only for an intended output change, with
``PYTHONPATH=src python tests/test_cli_digests.py``.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from floerforge.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

COMMANDS = (
    [["double", "--complex", knot, "--iterations", str(i), "--sign", sign]
     for knot in ("k3", "k9", "wh_k3") for i in (2, 3) for sign in "+-"]
    + [["cfk", "--complex", "k9", "--format", "table"]]
    + [["surgery", "--complex", "k9", "--n", str(n), "--format", "table"] for n in (-1, 0, 1)]
    + [["endfloer", "--knot", "k3", "--handle", handle, "--orientation", orientation]
       for handle in ("ch+", "ch-", "ch*") for orientation in "+-"]
)


def stdout_digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_recorded_digest(argv):
    assert stdout_digest(argv) == json.loads(DIGESTS.read_text())[" ".join(argv)]


def test_digest_table_covers_every_command():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(" ".join, COMMANDS))


if __name__ == "__main__":
    table = {" ".join(argv): stdout_digest(argv) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
