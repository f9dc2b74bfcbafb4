"""Every subcommand, every integer slot, boundary values: an exit code, never a traceback.

Each command line runs through ``cli.main`` in-process under ``--cap
1000000``, with each value of ``VALUES`` in one integer slot and small
values in the others.  Every case must end with exit 0, 2, 3 or 4.  An
exception that ``main()`` does not map to an exit code reaches the test and
fails it.

Some cases are long but finite, and stay out of the in-process run:
- ``summatory n`` sums the signs of 1..n whenever sqrt(n) is within the cap,
  about 10**7 integers a second;
- ``pair n`` and ``validate-pairs --max n`` sieve the signs of 1..n into an
  array of n + 1 bytes.

The last two run in a child instead, under an address-space limit set in
the child alone.  There the sign array is refused at once, with exit 4.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from matula.cli import _SCANS, main

FIXTURE = str(Path(__file__).parent / "data" / "pairs_liouville_96.txt")
CAP = ["--cap", "1000000"]
VALUES = [-1, 0, 1, 2, 3, 4, 2**31 - 1, 2**31, 2**32 + 15, 2**62, 2**63, 2**64 + 1, 10**30]
LONG = {2**31 - 1, 2**31, 2**32 + 15}  # the values of n that take minutes above

# Command lines with one slot "X" for the value.  The table's --to slot starts
# at 999990, so that a large --to meets the first prime past the cap within
# a few rows.
TEMPLATES = [
    *([cmd, "X"] for cmd in ("arborify", "stats", "degree-list", "constellation", "cuts")),
    ["cuts", "X", "--trace"],
    ["leaf-class", "X", "--max", "100"],
    ["leaf-class", "2", "--max", "X"],
    ["butcher", "X", "3"],
    ["butcher", "3", "X"],
    ["fuse", "X", "3"],
    ["fuse", "3", "X"],
    ["table", "--from", "X", "--to", "10"],
    ["table", "--from", "999990", "--to", "X"],
    ["table", "--from", "X", "--to", "X"],
    ["ratio-table", "X", "3"],
    ["ratio-table", "3", "X"],
    *(["scan", which, "--max", "X"] for which in sorted(_SCANS)),
    ["scan", "pan-apn", "--max-a", "X", "--max-n", "10"],
    ["scan", "pan-apn", "--max-a", "10", "--max-n", "X"],
    ["scan", "fusion", "--max-m", "X", "--max-n", "10"],
    ["scan", "fusion", "--max-m", "10", "--max-n", "X"],
    *(
        [*command, "--mode", mode]
        for mode in ("liouville", "mobius")
        for command in (
            ["summatory", "X"],
            ["partners", "X"],
            ["pair", "X"],
            ["validate-pairs", FIXTURE, "--max", "X"],
        )
    ),
]


def _filled(template: list[str], value: int) -> list[str]:
    return [str(value) if part == "X" else part for part in template]


def _long(template: list[str], value: int) -> bool:
    return template[0] in ("summatory", "pair", "validate-pairs") and value in LONG


CASES = [
    _filled(template, value)
    for template in TEMPLATES
    for value in VALUES
    if not _long(template, value)
]


def _exit_code(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, err.getvalue()


def test_every_integer_slot_at_every_boundary_value_exits_with_a_documented_code():
    assert len(CASES) == 463
    for argv in CASES:
        code, err = _exit_code([*CAP, *argv])
        assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code, err)


def _limit_address_space() -> None:
    # runs in the child between fork and exec: the test process keeps its limits
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
@pytest.mark.parametrize("value", sorted(LONG))
@pytest.mark.parametrize("command", [["pair", "X"], ["validate-pairs", FIXTURE, "--max", "X"]])
def test_a_sign_sieve_past_the_address_space_exits_4(command, value):
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "matula.cli", *CAP, *_filled(command, value)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    expected = f"error: sieving primes up to {value} needs {value + 1} bytes, more than this machine could allocate\n"
    assert (done.returncode, done.stdout, done.stderr) == (4, "", expected)


@pytest.mark.parametrize("value", [2**63, 2**64 + 1, 10**30])
@pytest.mark.parametrize("command", [["pair", "X"], ["validate-pairs", FIXTURE, "--max", "X"]])
def test_a_sign_sieve_past_the_index_range_exits_4(command, value):
    # n + 1 signs pass numpy's index range, which it refuses with a ValueError
    # before any allocation; that is a sieve too large, as at 2**62
    expected = f"error: sieving primes up to {value} needs {value + 1} bytes, more than this machine could allocate\n"
    assert _exit_code([*CAP, *_filled(command, value)]) == (4, expected)
