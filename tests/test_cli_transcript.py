"""A transcript of the ``repro-net`` command line, pinned byte for byte.

Each argv of :data:`TRANSCRIPT` runs through :func:`repro.cli.main` in
this process.  Its exit code (the ``SystemExit`` code for argparse
errors), its whole stdout and the last line of its stderr must equal
the entry in ``tests/data/cli_transcript.json``.  A refactoring of the
command line must pass it unchanged; a change meant to alter the output
regenerates it and says so::

    PYTHONPATH=src python tests/test_cli_transcript.py --write
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).with_name("data") / "cli_transcript.json"

#: The pinned commands (bare ``list`` is left out: its column layout
#: follows the registry's signature rendering).
TRANSCRIPT: tuple[str, ...] = (
    "run global-star -n 8 --seed 1",
    "run 3-cliques -n 9 --seed 1",
    "run simple-global-line -n 12 --faults crash:count=2,at=0 --seed 3",
    "run simple-global-line -n 10 --scheduler round-robin --seed 2",
    "run simple-global-line -n 20 --engine sequential",
    "sweep cycle-cover --sizes 8,12,16 --trials 2",
    "sweep one-way-epidemic --sizes 4,6,8 --trials 2",
    "sweep simple-global-line --sizes 8,10 --trials 2 --scheduler round-robin",
    "robustness simple-global-line ft-global-line --faults crash --loads 0,1 "
    "-n 10 --trials 2",
    "list --schedulers --faults --inits",
    "list --engines",
    "describe k-regular-connected",
    "describe universal-connected",
    "describe edge-drop",
    "describe laggard:bias=0.8,lagged=0..2",
    "describe doped:state=l",
    "describe crash:impact=9",
    "describe warp-drive",
    "conformance --list-checks",
    "conformance --checks no-such-check",
    "verify --protocol global-star --n 4",
    "verify --protocol global-star --checks nope",
    "bench",
)


def transcribe(command: str) -> dict:
    """Exit code, stdout and the last stderr line of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr_last": lines[-1] if lines else "",
    }


@pytest.mark.parametrize("command", TRANSCRIPT)
def test_cli_transcript(command):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[command]
    assert transcribe(command) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_transcript.py --write")
    record = {command: transcribe(command) for command in TRANSCRIPT}
    FIXTURE.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
