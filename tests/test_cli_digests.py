"""Byte stability of CLI output that the benchmark reference does not pin.

``cli_digests.json`` maps each command line below to the sha256 of its
stdout when the command exits 0 and writes nothing to stderr, and to its
exit code, stdout digest and stderr text otherwise.  A JSON object in a
command line is a ``distinguish`` piece or a complex, written to a file for
the run; stderr names that file's folder as ``$TMP``.
Regenerate the table only for an intended output change, with
``PYTHONPATH=src python tests/test_cli_digests.py``.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from floerforge.cli import main

from complexes import unchecked

DIGESTS = Path(__file__).with_name("cli_digests.json")
MIXED = {"kind": "finite_mixed_then_one_sign", "signs": ["-"], "tail": "+"}


def trefoil(**fields):
    """The bundled trefoil's JSON with ``fields`` replaced."""
    gens = [{"name": "s0", "maslov": "0"}, {"name": "s1", "maslov": "-1"}, {"name": "s2", "maslov": "-2"}]
    diff = [{"from": "s1", "to": "s0", "upower": 1}, {"from": "s1", "to": "s2", "upower": 0}]
    return {"name": "T(2,3)", "alexander": {"s0": 1, "s1": 0, "s2": -1}, "generators": gens,
            "differential": diff, "flip": [["s0", "s2"], ["s1", "s1"]], **fields}


def upower(value):
    return [{"from": "s1", "to": "s0", "upower": value}, {"from": "s1", "to": "s2", "upower": 0}]


# Malformed complex files, each with the error the parser words first.
MALFORMED = [
    trefoil(generators=[{"name": "s0", "maslov": "zero"}, {"name": "s1", "maslov": "-1"}, {"maslov": "-2"}]),
    trefoil(differential=upower("1")),
    trefoil(differential=upower("one")),
    trefoil(differential=upower(True)),
    trefoil(alexander={"s0": "1", "s1": 0, "s2": -1}),
    trefoil(alexander={"s0": "one", "s1": 0, "s2": -1}),
    trefoil(differential=upower(1) + [{"from": "s1", "to": "s0", "upower": 1}]),
    trefoil(flip=[["s0", "s3"], ["s1", "s1"]]),
    trefoil(alexander={"s0": 1, "s1": 0}),
]

COMMANDS = (
    [["double", "--complex", knot, "--iterations", str(i), "--sign", sign]
     for knot in ("k3", "k9", "wh_k3") for i in (2, 3) for sign in "+-"]
    + [["cfk", "--complex", "k9", "--format", "table"]]
    + [["surgery", "--complex", "k9", "--n", str(n), "--format", "table"] for n in (-1, 0, 1)]
    + [["endfloer", "--knot", knot, "--handle", handle, "--orientation", orientation]
       for knot in ("k3", "wh_k3", "figure8", "unknot", "trefoil", "k9")
       for handle in ("ch+", "ch-", "ch*") for orientation in "+-"]
    + [["distinguish", "--a", {"knot": "k3", "handle": MIXED, "orientation": orientation},
        "--b", {"knot": "k5"}] for orientation in "+-"]
    + [["cfk", "--complex", data] for data in MALFORMED]
)


def key(argv) -> str:
    return " ".join(a if isinstance(a, str) else json.dumps(a, sort_keys=True) for a in argv)


def record(argv, folder: Path):
    """The stdout digest of a clean run, else exit code, digest and stderr."""
    paths = {}
    for i, arg in enumerate(argv):
        if not isinstance(arg, str):
            paths[i] = folder / f"piece{i}.json"
            paths[i].write_text(json.dumps(arg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(paths.get(i, arg)) for i, arg in enumerate(argv)])
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    if (code, err.getvalue()) == (0, ""):
        return digest
    return {"exit": code, "stdout": digest, "stderr": err.getvalue().replace(str(folder), "$TMP")}


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_cli_output_matches_recorded_digest(argv, tmp_path):
    assert record(argv, tmp_path) == json.loads(DIGESTS.read_text())[key(argv)]


FAILING = [argv for argv in COMMANDS if not isinstance(json.loads(DIGESTS.read_text())[key(argv)], str)]


@pytest.mark.parametrize("argv", FAILING, ids=key)
def test_failures_do_not_depend_on_the_suite_checks(argv, tmp_path, monkeypatch):
    # Ingress checks its input in full; the suite's re-checks of package-built
    # cones and complexes only see what it passed.
    unchecked(monkeypatch)
    assert record(argv, tmp_path) == json.loads(DIGESTS.read_text())[key(argv)]


def test_digest_table_covers_every_command():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(key, COMMANDS))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        table = {key(argv): record(argv, Path(folder)) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
