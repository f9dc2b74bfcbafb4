import atexit
import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import pair_range
from matula.cli import _SCANS, _build_parser, main
from oracles import BIJECTION_MEMOS

FIXTURE = str(Path(__file__).parent / "data" / "pairs_liouville_96.txt")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_arborify_text(capsys):
    code, out, _ = run(capsys, "arborify", "6")
    assert code == 0 and out == "[[]] []\n"
    code, out, _ = run(capsys, "arborify", "1")
    assert code == 0 and out == "\n"


def test_arborify_json_and_dot(capsys):
    code, out, _ = run(capsys, "arborify", "9", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"forest": "[[]] [[]]", "n": 9}
    code, out, _ = run(capsys, "arborify", "9", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph forest {")
    assert out.count("->") == 2


def test_number_of(capsys):
    code, out, _ = run(capsys, "number-of", "[[]] []")
    assert code == 0 and out == "6\n"
    code, out, _ = run(capsys, "number-of", "")
    assert code == 0 and out == "1\n"


def test_number_of_bad_brackets(capsys):
    code, _, err = run(capsys, "number-of", "[[]")
    assert code == 3 and "offset" in err


def test_roundtrip_through_cli(capsys):
    for n in (1, 6, 20, 31, 96, 2597):
        _, brackets, _ = run(capsys, "arborify", str(n))
        code, out, _ = run(capsys, "number-of", brackets.rstrip("\n"))
        assert code == 0 and out.strip() == str(n)


def test_stats(capsys):
    code, out, _ = run(capsys, "stats", "13")
    assert code == 0
    assert out == "vertices=4 edges=3 leaves=2 factors=1 degree=7\n"
    code, out, _ = run(capsys, "stats", "2597", "--format", "json")
    assert json.loads(out)["degree"] == 19


def test_degree_list(capsys):
    code, out, _ = run(capsys, "degree-list", "5")
    assert code == 0 and out == "5 7 12 32\n"


def test_leaf_class(capsys):
    code, out, _ = run(capsys, "leaf-class", "1", "--max", "1000")
    assert code == 0 and out == "2 3 5 11 31 127 709\n"


def test_products(capsys):
    assert run(capsys, "butcher", "3", "3")[1] == "13\n"
    assert run(capsys, "fuse", "5", "7")[1] == "37\n"


def test_butcher_rejects_composite(capsys):
    code, _, err = run(capsys, "butcher", "4", "3")
    assert code == 3 and "not prime" in err


def test_cuts_text_and_trace(capsys):
    code, out, _ = run(capsys, "cuts", "59")
    assert code == 0
    assert out.splitlines() == ["2 11 -> 22", "7 3 -> 21", "17 2 -> 34"]
    code, out, _ = run(capsys, "cuts", "59", "--trace")
    assert "chain: 59 -> 41 -> 29 -> 22" in out
    code, out, _ = run(capsys, "cuts", "2")
    assert code == 0 and out == "no cuts\n"


def test_cuts_json(capsys):
    code, out, _ = run(capsys, "cuts", "17", "--format", "json")
    doc = json.loads(out)
    assert doc["prime"] == 17
    assert {(c["detached"], c["remaining"], c["product"]) for c in doc["cuts"]} == {
        (2, 5, 10),
        (7, 2, 14),
    }


def test_table_listing(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "6")
    assert code == 0
    assert out.splitlines() == [
        "1\t",
        "2\t[]",
        "3\t[[]]",
        "4\t[] []",
        "5\t[[[]]]",
        "6\t[[]] []",
    ]


def test_ratio_table(capsys):
    code, out, _ = run(capsys, "ratio-table", "4", "4")
    assert code == 0
    assert "4\t3\t35/37" in out
    assert "4\t4\t49/53" in out


def test_scan_fusion_json(capsys):
    code, out, _ = run(capsys, "scan", "fusion", "--max", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["exceptions"] == [[3, 4], [4, 4]]
    assert doc["elapsed_ms"] is None
    code, out2, _ = run(capsys, "scan", "fusion", "--max", "100")
    assert out == out2  # byte-identical rerun
    code, out3, _ = run(capsys, "scan", "fusion", "--max", "100", "--timings")
    assert json.loads(out3)["elapsed_ms"] >= 0


def test_scan_pan_apn(capsys):
    code, out, _ = run(capsys, "scan", "pan-apn", "--max-a", "10", "--max-n", "10")
    assert code == 0
    assert json.loads(out)["exceptions"] == [[2, 1], [3, 1], [4, 1]]


def test_scan_others(capsys):
    code, out, _ = run(capsys, "scan", "mrd", "--max", "100")
    assert code == 0 and json.loads(out)["exceptions"] == []
    code, out, _ = run(capsys, "scan", "sousselier", "--max", "100")
    assert code == 0 and json.loads(out)["exceptions"] == []
    code, out, _ = run(capsys, "scan", "three-n", "--max", "100")
    doc = json.loads(out)
    assert code == 0 and doc["exceptions"] == []
    assert doc["boundary_witness"] == {"n": 11, "prime": 31, "three_n": 33}


def test_scan_needs_bounds(capsys):
    code, _, err = run(capsys, "scan", "mrd")
    assert code == 3 and "--max" in err
    code, _, err = run(capsys, "scan", "pan-apn")
    assert code == 3 and err == "error: pan-apn needs --max or --max-a/--max-n\n"
    code, _, err = run(capsys, "scan", "fusion", "--max-m", "3")
    assert code == 3 and err == "error: fusion needs --max or --max-m/--max-n\n"


def test_scan_choices_are_the_scan_table():
    parser = _build_parser()
    scan = parser._subparsers._group_actions[0].choices["scan"]
    (which,) = [a for a in scan._actions if a.dest == "which"]
    assert list(which.choices) == list(_SCANS)


# sha256 of the stdout bytes of each scan kind and of `constellation`,
# recorded before the scan layer was rewritten around one table per decision
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("scan mrd --max 1000000", "9edbc56f463ddeddaabb044d159b8ede32d8e11f5d59948563ed6604c67c4014"),
        ("scan sousselier --max 1000000", "435cb9e0aa24f19b0623a1389b67d7b6519d9608127dd2ce0fdb8000d6d97dde"),
        ("scan fusion --max 300", "9900e5306e9b890a50adc6f69f50db7490e4a31d54239a7b8b9926a97219598c"),
        ("scan pan-apn --max-a 100 --max-n 1000", "14e2ce1992186218c4e7b9f628c64e2dcfac228b20d880b73d874670a80443da"),
        ("scan three-n --max 100000", "787f06925a8349c8c6ade28273b2331c6b1c17d2e395981371bcbbffec84a486"),
        ("scan cut-decrease --max 1100", "48f56083bbc8649c1695af8218787670f5c0dc05bdbeacc523c498442b4b7f70"),
        ("scan tuple-width --max 12", "dff4c4d81195034ede303ad9101c3c646444cbdd724920675f546d4f713c4bce"),
        ("scan nap --max 50", "2085e93793b9b9d413bfeaade8c5212cd4322982637d494dd251aa8e10e5a4a2"),
        ("constellation 13", "f932d3903a2666a58de8b960dc44afaf943642e09ba99d35e90515be12b1845d"),
        ("constellation 13 --format json", "1c087bda7545e7df64f4598688a5fd46a5f7742e940b5f6e5d9de9b125fa74c7"),
    ],
)
def test_scan_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout bytes of the JSON forms of degree-list and ratio-table
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("degree-list 9 --format json", "14af2c3639753851c06227442d5edbc8556fabb16c33df80d3c33f5984952fb2"),
        ("ratio-table 5 7 --format json", "be14c6a471872f2d6dbd0b08146054b35898edc6d88e2f5a99b4bbaa7dad927f"),
    ],
)
def test_json_bytes_of_degree_list_and_ratio_table_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_constellation(capsys):
    code, out, _ = run(capsys, "constellation", "6")
    assert code == 0 and out.startswith("k=6 width=16 pattern=0 ")
    code, out, _ = run(capsys, "constellation", "2", "--format", "json")
    assert json.loads(out) == {"k": 2, "width": 2, "pattern": [0, 2]}
    assert run(capsys, "constellation", "20")[0] == 3


def test_summatory(capsys):
    assert run(capsys, "summatory", "96")[1] == "0\n"  # liouville by default
    assert run(capsys, "summatory", "1", "--mode", "mobius")[1] == "1\n"


def test_partners(capsys):
    code, out, _ = run(capsys, "partners", "35", "--mode", "mobius")
    assert code == 0 and out == "30\n"
    code, out, _ = run(capsys, "partners", "2")
    assert code == 0 and out == "no partners\n"
    code, out, _ = run(capsys, "partners", "9", "--format", "json")
    assert 7 in json.loads(out)["partners"]


def test_pair_text_and_json(capsys):
    code, out, _ = run(capsys, "pair", "96")
    assert code == 0
    assert out.startswith("N=96 mode=liouville policy=largest ")
    code, out, _ = run(capsys, "pair", "50", "--mode", "mobius", "--format", "json")
    doc = json.loads(out)
    assert doc["N"] == 50 and doc["bound"] >= abs(doc["exact"])


def test_number_of_prints_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "number-of", " ".join(["[]"] * 15000))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted for the print only
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{2**15000}\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("liouville", "922337441dc9b016469f84b0e59e67b015492c0fcb7194625613262e2c09e4e9"),
        ("mobius", "a92b89d948841c3af48df1a84600b1fe63ad10066cb04c87dbbb226eae0a2051"),
    ],
)
def test_pair_json_bytes_are_pinned(capsys, mode, digest):
    code, out, _ = run(capsys, "pair", "3000", "--mode", mode, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "mode, policy, digest",
    [
        ("liouville", "smallest", "89dc09af31fa04b12753625aafef9627519a31b28d20814ed98e2ce908d24c5f"),
        ("liouville", "first", "b302194b8874686251ce49e39329d83ea737233aa8f4cfdc24b3563cca906480"),
        ("mobius", "smallest", "c1cbf35f1d4bdacefda4e509e6df47332381b8a0caa2cbbe4311872ff3a8add1"),
        ("mobius", "first", "889343ef9c6f0f1cd49ec77ee3e6f7a4f72f67187197330d9aab446fdc5edc28"),
    ],
)
def test_pair_json_bytes_of_other_policies_are_pinned(capsys, mode, policy, digest):
    code, out, _ = run(
        capsys, "pair", "3000", "--mode", mode, "--policy", policy, "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before the partner search read its edges from block arrays
@pytest.mark.parametrize(
    "mode, policy, digest",
    [
        ("liouville", "largest", "b1d82a12d9528e468f736db4b5252e2a81b9c10d13e5bfc0b5d82f83fa0d48e3"),
        ("liouville", "smallest", "a2a0a79770425177707678450557e49b6c71f99041dfe966f3025692af4fc227"),
        ("liouville", "first", "9520684e8bf92477978610a3419eab340994fd0cf46cae15c29528217096ee84"),
        ("mobius", "largest", "740dd4491a6ca13cbb3d2d43ce065c7a3b94d46a13c3e6c14997d934633280ca"),
        ("mobius", "smallest", "8e01c054ac4c779d25b46e2f4e7e181fef9b291d9375859398510db1f2c160f3"),
        ("mobius", "first", "d045a01d00be807fb43ddee4d7b89abe1d2935086e00c8919bfa780fc644a01a"),
    ],
)
def test_pair_json_bytes_at_100000_are_pinned(capsys, mode, policy, digest):
    code, out, _ = run(
        capsys, "pair", "100000", "--mode", mode, "--policy", policy, "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# recorded before the validator and the JSON writer worked on arrays and text
def test_validate_pairs_json_bytes_are_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "validate-pairs", FIXTURE, "--max", "96", "--format", "json")
    assert code == 0
    digest = "3b5c255d21891bacba82d52f9efb923fbd09fdce25bcc841978060ef76f3e209"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    fixture = tmp_path / "pairs.txt"
    fixture.write_text("".join(f"{k} {l}\n" for k, l in pair_range(100000).pairs))
    code, out, _ = run(capsys, "validate-pairs", str(fixture), "--max", "100000", "--format", "json")
    assert code == 0
    digest = "a9090f3b4aecb15b5aeed2ae89617134276c22bb7245e36600d8a52e06fc2e68"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit code and sha256 of stdout and of stderr, recorded while a member past
# int64 made report_from_pairs build a list report
@pytest.mark.parametrize(
    "form, expected",
    [
        (
            [],
            (
                3,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "9c2490e60db459d0937e200737091f8d0d43bfe329f21a45cc519bd83fd33ccc",
            ),
        ),
        (
            ["--format", "json"],
            (
                3,
                "520dc8e121a1d45cdc023f1dc1600261e01fab2175d5518cdaca621aa2b0386a",
                "9c2490e60db459d0937e200737091f8d0d43bfe329f21a45cc519bd83fd33ccc",
            ),
        ),
    ],
)
def test_validate_pairs_bytes_past_int64_are_pinned(capsys, tmp_path, form, expected):
    fixture = tmp_path / "past.txt"
    fixture.write_text(f"{2**63} 3\n10 5\n{10**20} 7\n6 4\n")  # (6, 4): both signs +1
    code, out, err = run(capsys, "validate-pairs", str(fixture), "--max", "10", *form)
    digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
    assert (code, *digests) == expected


@pytest.mark.parametrize("leaves", [40, 15000])
def test_number_of_past_the_cap_exits_4_before_sieving(capsys, leaves):
    # the root's prime has index 2**leaves, far past the 2**32 cap
    code, _, err = run(capsys, "number-of", "[" + "[]" * leaves + "]")
    assert code == 4
    assert "beyond the cap" in err


@pytest.mark.parametrize("depth", [14, 3000])
def test_number_of_too_tall_exits_4_at_once(capsys, depth):
    # a path of 14 vertices already needs a prime past 2**32 (OEIS A007097)
    started = time.perf_counter()
    code, _, err = run(capsys, "number-of", "[" * depth + "]" * depth)
    assert code == 4 and "beyond the cap" in err
    assert time.perf_counter() - started < 5


def test_number_of_refuses_a_deep_path_before_parsing(capsys):
    # parsed, a path d deep keeps about d**2 characters of keys
    depth = 60_000
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, _, err = run(capsys, "number-of", "[" * depth + "]" * depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and "beyond the cap" in err
    assert time.perf_counter() - started < 2
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "brackets, message",
    [
        ("[" * 60_000, "error: unclosed '[' (at offset 0)\n"),
        ("[" * 60_000 + "]" * 60_000 + "x", "error: unexpected character 'x' (at offset 120000)\n"),
    ],
)
def test_deep_malformed_input_keeps_the_parser_error(capsys, brackets, message):
    code, _, err = run(capsys, "number-of", brackets)
    assert code == 3 and err == message


def test_number_of_empty_forest_under_a_small_cap(capsys):
    assert run(capsys, "--cap", "1000000", "number-of", "") == (0, "1\n", "")


def test_number_of_twelve_vertex_path(capsys):
    code, out, _ = run(capsys, "number-of", "[" * 12 + "]" * 12)
    assert code == 0 and out == "174440041\n"


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="[] x", max_size=400),
        st.integers(1, 3000).map(lambda d: "[" * d + "]" * d),
    )
)
def test_number_of_fuzz_exits_with_a_documented_code(brackets):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--cap", "1000000", "number-of", brackets])
    assert code in (0, 3, 4)


def test_validate_pairs(capsys, tmp_path):
    code, out, _ = run(capsys, "validate-pairs", FIXTURE, "--max", "96")
    assert code == 0
    assert out.startswith("valid: 48 pairs, 0 singletons, bound=0")
    broken = tmp_path / "broken.txt"
    broken.write_text("5 3\n")
    code, _, err = run(capsys, "validate-pairs", str(broken), "--max", "96")
    assert code == 3 and "invalid" in err
    code, _, err = run(capsys, "validate-pairs", str(tmp_path / "nope.txt"), "--max", "9")
    assert code == 3
    code, _, err = run(capsys, "validate-pairs", FIXTURE, "--max", "0")
    assert code == 3 and "expects n >= 1" in err


@pytest.mark.parametrize("member", ["-5", str(10**30)])
def test_validate_pairs_reports_members_outside_the_range(capsys, tmp_path, member):
    fixture = tmp_path / "outside.txt"
    fixture.write_text(f"{member} 3\n")
    code, _, err = run(capsys, "validate-pairs", str(fixture), "--max", "10")
    assert code == 3
    assert f"invalid: pair member {member} outside 1..10" in err


def test_cap_overflow_exit_code(capsys):
    code, _, err = run(capsys, "--cap", "100", "fuse", "89", "97")
    assert code == 4 and "cap" in err


_SOUSSELIER = "scan sousselier --max 1000000"
_DEGREE_18 = "a1e050df4098c515a86eaeb4ab1451bcbf8b79edfea5194be3fcfeacec45a527"
_DEGREE_22 = "0d02def7f7ab23d54ce640aa5c2d6f39b05cc541abf776349a6287e746cbb1f9"


def _past(needed: int, cap: int) -> str:
    return f"error: operation needs primes up to ~{needed}, beyond the cap {cap}\n"


# exit code, stderr and stdout sha256 of each command under a small cap,
# recorded before the rank queries streamed past the table: which prime an
# error names depends on the order the ranks are asked in
CAPPED = {
    f"--cap 100000 {_SOUSSELIER}": (4, _past(16441310, 100000), None),
    "--cap 100000 degree-list 18": (4, _past(149345, 100000), None),
    "--cap 100000 degree-list 22": (4, _past(149345, 100000), None),
    f"--cap 1000000 {_SOUSSELIER}": (4, _past(16441310, 1000000), None),
    "--cap 1000000 degree-list 18": (0, "", _DEGREE_18),
    "--cap 1000000 degree-list 22": (4, _past(1213002, 1000000), None),
    f"--cap 10000000 {_SOUSSELIER}": (4, _past(16441310, 10000000), None),
    "--cap 10000000 degree-list 18": (0, "", _DEGREE_18),
    "--cap 10000000 degree-list 22": (4, _past(10964837, 10000000), None),
    f"--cap 100000000 {_SOUSSELIER}": (4, _past(299839652, 100000000), None),
    # 285058399 is p_(p_(10**6)): the bound settles almost every n, and the
    # largest rank the exact check could need is still read, or named
    f"--cap 285058399 {_SOUSSELIER}": (
        0, "", "435cb9e0aa24f19b0623a1389b67d7b6519d9608127dd2ce0fdb8000d6d97dde"
    ),
    f"--cap 285058398 {_SOUSSELIER}": (4, _past(299839652, 285058398), None),
    "--cap 100000000 degree-list 18": (0, "", _DEGREE_18),
    "--cap 100000000 degree-list 22": (0, "", _DEGREE_22),
    # 35 = 5 * 7 fuses to p_12 = 37 and 49 = 7 * 7 to p_16 = 53: past --cap N
    # and above the product, so no partner needs them; each prints the
    # uncapped stdout, recorded without a cap
    "--cap 35 pair 35 --format json": (0, "", "cdb96b6de30eef944f778cd81b137e9215ed3d1c3fde7009491059df8025c267"),
    "--cap 36 pair 36 --format json": (0, "", "4740070c09dfdee2651a840c60a19c4145c21b205053de7c1805fae98ebee24e"),
    "--cap 49 pair 49 --format json": (0, "", "d74ed3815e78a15c4fa4893020953d5913f6ebc3c3d5f4e8f4284b0324f4bf0b"),
    "--cap 50 pair 50 --format json": (0, "", "12a7ad1ebb28b8a74ab664b3135f3eb5d99dc5408b60e9fd24433813b1434357"),
    "--cap 51 pair 51 --format json": (0, "", "1be7174e4bdf572d432aaf5c7903476223f8acede3f942eb292d6a1a57daa2f8"),
    "--cap 52 pair 52 --format json": (0, "", "411e72942287a2280a9ddc17dffcbe1edcf53e4a1725a545e4d45c15d45bd69b"),
    "--cap 35 pair 35 --mode mobius --format json": (
        0, "", "9d5c0e66b555830cd98934ca1ec1e18384b22a3d9f91dc4012945465abb29614"
    ),
    "--cap 36 pair 36 --mode mobius --format json": (
        0, "", "cb9f71f8e7b6f028e88f87a7203bcaaa15852b7b25de4f5aea3cceea0241b12d"
    ),
    # summatory refuses up front when sqrt(n) passes the cap, naming the
    # prime the block sieve reached before it did: sqrt of the end of the
    # first block whose base primes pass the cap, or of n
    "--cap 1000 summatory 1002001": (4, _past(1001, 1000), None),
    "--cap 1000 summatory 1048575": (4, _past(1023, 1000), None),
    "--cap 1000 summatory 2000000": (4, _past(1023, 1000), None),
    "--cap 1000 summatory 1002000": (0, "", "07b26ec10c0cf82fccccb0ab2fdd9a215bb560000db160fe80239f9c91f69d4c"),  # -472
    "--cap 35 partners 35": (0, "", "f4ccd05b3271c386ee55d9876c7450012a3b361e5065c09dc22075e38b3cc35c"),
    "--cap 49 partners 49": (0, "", "084c799cd551dd1d8d5c5f9a5d593b2e931f5e36122ee5c793c1d08a19839cc0"),
}


@pytest.mark.parametrize("argv", list(CAPPED))
def test_cap_errors_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    expected_code, expected_err, digest = CAPPED[argv]
    assert (code, err) == (expected_code, expected_err)
    if digest is None:
        assert out == ""
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pair_under_a_cap_just_below_n_runs_the_per_k_search(capsys):
    # the block search needs every prime up to n and fails under --cap 1000;
    # the per-k search needs only the primes its moves reach, up to n = 1008
    for mode in ("liouville", "mobius"):
        for n in range(1001, 1009):
            argv = ["pair", str(n), "--mode", mode, "--format", "json"]
            code, out, err = run(capsys, "--cap", "1000", *argv)
            assert (code, out, err) == (0, run(capsys, *argv)[1], ""), (mode, n)
    assert run(capsys, "--cap", "1000", "pair", "1009") == (4, "", _past(1009, 1000))


def test_summatory_past_the_cap_squared_refuses_at_once(capsys):
    # the block sieve would reach its refusal only after about 10**12 integers
    started = time.perf_counter()
    code, out, err = run(capsys, "--cap", "1000000", "summatory", str(10**30))
    assert (code, out, err) == (4, "", _past(1000001, 1000000))
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("numpy_refuses", [False, True])
def test_a_stray_memory_error_exits_4_naming_the_subcommand(capsys, monkeypatch, numpy_refuses):
    # the typed guards (SieveTooLarge) name the limit; any other allocation
    # the machine refuses still ends in exit 4, not a traceback with exit 1
    from matula import bijection

    def refuse(*_args):
        if numpy_refuses:  # 1 EiB, past any address space: refused at once
            np.empty(1 << 60, dtype=np.uint8)
        raise MemoryError

    monkeypatch.setattr(bijection, "integers_of_degree", refuse)
    code, out, err = run(capsys, "degree-list", "5")
    assert (code, out) == (4, "")
    assert err == "error: degree-list needs more memory than this machine could allocate\n"
    assert "Traceback" not in err


def test_degree_list_of_empty_levels(capsys):
    assert run(capsys, "degree-list", "0") == (0, "1\n", "")
    assert run(capsys, "degree-list", "1") == (0, "2\n", "")


def test_cap_past_int64_exits_3(capsys):
    # a 600-deep path under a 2001-digit cap used to end in a RecursionError
    code, out, err = run(capsys, "--cap", "1" + "0" * 2000, "number-of", "[" * 600 + "]" * 600)
    assert (code, out) == (3, "")
    assert err == "error: cap must be at most 2**63 - 1 = 9223372036854775807\n"
    assert run(capsys, "--cap", "9223372036854775807", "fuse", "5", "7") == (0, "37\n", "")


def test_a_sieve_the_machine_refuses_exits_4(capsys):
    # asks for about 73 PB at once; no 64-bit address space grants that
    big = "100000000"
    code, out, err = run(capsys, "--cap", "9223372036854775807", "ratio-table", big, big)
    assert (code, out) == (4, "")
    assert err == (
        "error: sieving primes up to 404479826553924744 needs 81906338965784384 "
        "bytes, more than this machine could allocate\n"
    )


@pytest.mark.parametrize("command", ["pair", "validate-pairs"])
def test_a_sign_sieve_the_machine_refuses_exits_4(capsys, command):
    # one int8 sign per integer up to 10**15: past any 64-bit address space
    big = "1000000000000000"
    argv = ["pair", big] if command == "pair" else ["validate-pairs", FIXTURE, "--max", big]
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (
        f"error: sieving primes up to {big} needs {int(big) + 1} bytes, "
        "more than this machine could allocate\n"
    )
    assert time.perf_counter() - started < 5


# Spawns the command from a small process, as perfbench/launch.py does: on
# Linux a child's ru_maxrss starts from its spawner's peak, and this test
# process is large.
_SPAWN = """
import os, subprocess, sys, time
with open(sys.argv[1], "wb") as out:
    started = time.perf_counter()
    child = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_utime + usage.ru_stime, wall)
"""


def _python(*argv: str, check: bool = True, **variables: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's ``matula``, with
    ``variables`` added to its environment; unless ``check`` is false, a
    nonzero exit raises.  It does not inherit the OPENBLAS_NUM_THREADS that
    an in-process ``main()`` call may have set in this process, so it
    starts as cold as a user's shell would start it."""
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=path, **variables)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120, check=check
    )


def _spawn(*command: str, out: str = os.devnull) -> tuple[int, int, float, float]:
    """Exit code, peak RSS in kB, CPU seconds and wall seconds of
    ``python -m matula.cli *command``, its stdout written to ``out``."""
    done = _python("-c", _SPAWN, out, sys.executable, "-m", "matula.cli", *command)
    code, maxrss_kb, cpu_s, wall_s = done.stdout.split()
    return int(code), int(maxrss_kb), float(cpu_s), float(wall_s)


def test_leaf_class_past_the_automatic_factor_sieve_keeps_its_bytes(capsys):
    # past 2**22 the smallest-factor sieve is built for the call alone;
    # sha256 recorded while the table kept it
    code, out, _ = run(capsys, "leaf-class", "2", "--max", "5000000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "79274996d4210806886640c85cf8ba08bc01d99a786cd11c3865ad3174b9ba6b"
    )


def test_degree_list_23_peaks_under_100_mb():
    code, maxrss_kb, *_ = _spawn("degree-list", "23")
    assert code == 0
    assert maxrss_kb < 100 * 1024  # 668 MB while the table stored every prime


def test_validate_pairs_at_ten_million_stays_bounded(tmp_path):
    out = tmp_path / "out.txt"
    code, maxrss_kb, *_ = _spawn("validate-pairs", FIXTURE, "--max", "10000000", out=str(out))
    assert code == 0
    assert out.read_text() == "valid: 48 pairs, 9999904 singletons, bound=842, exact=-842\n"
    # 1484 MB while the validator kept Python sets of every member; about
    # 400 MB of what is left is the report's list of 9,999,904 singletons
    assert maxrss_kb < 800 * 1024


def test_validate_pairs_past_int64_at_ten_million_stays_bounded(tmp_path):
    fixture = tmp_path / "past.txt"
    fixture.write_text(Path(FIXTURE).read_text() + f"{10**20} 3\n")
    code, maxrss_kb, *_ = _spawn("validate-pairs", str(fixture), "--max", "10000000")
    assert code == 3
    assert maxrss_kb < 150 * 1024  # 1005 MB while the member made a list report


def test_validate_pairs_of_a_50k_pair_list_peaks_near_the_floor(tmp_path):
    # the parse stays below the checks that follow it: about 9.5 MB above
    # number-of "[]" on a 2-core host, 15 MB with parse chunks of 2**14 lines
    fixture = tmp_path / "pairs.txt"
    fixture.write_text("".join(f"{k} {l}\n" for k, l in pair_range(100_000).pairs))
    floor_code, floor_kb, *_ = _spawn("number-of", "[]")
    code, maxrss_kb, *_ = _spawn("validate-pairs", str(fixture), "--max", "100000")
    assert (floor_code, code) == (0, 0)
    assert maxrss_kb - floor_kb < 12 * 1024, (maxrss_kb, floor_kb)


def test_a_cold_cli_run_spins_no_blas_worker():
    # no layer calls BLAS, so main() pins OpenBLAS to one thread before numpy
    # loads; its default pool cost about 0.13 s of CPU per run on a 2-core host
    code, _, cpu_s, wall_s = _spawn("fuse", "5", "7")
    assert code == 0
    assert cpu_s <= 1.1 * wall_s + 0.05, (cpu_s, wall_s)


# Runs ``fuse 5 7`` through main() and prints the threads of the process.
_THREADS = """
import os
from matula import cli
cli.main(["fuse", "5", "7"])
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_a_cli_process_runs_one_thread():
    assert _python("-c", _THREADS).stdout.split() == ["37", "1"]


# Prints whether importing matula and matula.cli, a library call and, with
# argv "main", a main() call left os.environ as it was.
_ENVIRON = """
import os, sys
before = dict(os.environ)
import matula, matula.cli
matula.fuse(5, 7)
if sys.argv[1:] == ["main"]:
    matula.cli.main(["fuse", "5", "7"])
print(dict(os.environ) == before)
"""


def test_imports_and_a_callers_blas_setting_leave_the_environment_alone():
    assert _python("-c", _ENVIRON).stdout == "True\n"
    preset = _python("-c", _ENVIRON, "main", OPENBLAS_NUM_THREADS="2").stdout
    assert preset == "37\nTrue\n"


# Prints how many exit handlers importing matula.cli added, how many two
# main() calls added once the layers fuse runs were loaded, whether main()
# froze the heap in-process, and whether the exit handlers freeze it.
_EXIT_HANDLERS = """
import atexit, contextlib, gc, io
before = atexit._ncallbacks()
import matula, matula.cli
imported = atexit._ncallbacks()
import matula.algebra
loaded = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    matula.cli.main(["fuse", "5", "7"])
    matula.cli.main(["fuse", "5", "7"])
frozen = gc.get_freeze_count()
added = atexit._ncallbacks() - loaded
atexit._run_exitfuncs()
print(imported - before, added, frozen, gc.get_freeze_count() > 0)
"""


@pytest.mark.skipif(not hasattr(atexit, "_ncallbacks"), reason="needs CPython's atexit")
def test_main_registers_one_heap_freeze_for_exit():
    assert _python("-c", _EXIT_HANDLERS).stdout == "0 1 0 True\n"


# One cold run per exit code, with the stdout and stderr bytes recorded
# before main() froze the heap at exit.
COLD_RUNS = [
    ("fuse 5 7", 0, "37\n", ""),
    (
        "fuse 5",
        2,
        "",
        "usage: matula fuse [-h] p q\n"
        "matula fuse: error: the following arguments are required: q\n",
    ),
    ("arborify 0", 3, "", "error: arborify expects n >= 1, got 0\n"),
    (
        "--cap 1000 pair 1009",
        4,
        "",
        "error: operation needs primes up to ~1009, beyond the cap 1000\n",
    ),
]


@pytest.mark.parametrize("line, code, out, err", COLD_RUNS, ids=[c[0] for c in COLD_RUNS])
def test_a_cold_run_keeps_its_bytes_and_exit_code(line, code, out, err):
    done = _python("-m", "matula.cli", *line.split(), check=False)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# Runs one command, its stdout dropped, and prints its exit code and which of
# the watched modules it loaded.
_LOADED = """
import contextlib, json, os, sys
from matula.cli import main
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
    try:
        code = main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules)]))
"""

PARSER_ONLY = {"numpy", "mpmath"}
PAIRING_ONLY = {"matula.scans", "matula.bijection", "matula.forests", "mpmath"}
TREES_ONLY = {"matula.pairing", "matula.scans", "mpmath"}


LOAD_CASES = [
    ("--help", 0, PARSER_ONLY),
    ("pair 10 --mode bogus", 2, PARSER_ONLY),
    ("pair 100", 0, PAIRING_ONLY),
    ("validate-pairs {fixture} --max 96", 0, PAIRING_ONLY),
    ("summatory 100", 0, PAIRING_ONLY),
    ("partners 35 --mode mobius", 0, PAIRING_ONLY),
    ("table --to 20", 0, TREES_ONLY),
    ("leaf-class 2 --max 100", 0, TREES_ONLY),
    ("degree-list 5", 0, TREES_ONLY),
    ("number-of [[[]]]", 0, TREES_ONLY),
    ("arborify 12", 0, TREES_ONLY),
    ("scan sousselier --max 100", 0, {"mpmath"}),
    # only cut-decrease and nap load the cut algebra, only ratio-table fractions
    ("scan mrd --max 1000", 0, {"matula.algebra", "fractions"}),
    ("scan three-n --max 1000", 0, {"matula.algebra", "fractions"}),
]


@pytest.mark.parametrize("line, code, absent", LOAD_CASES, ids=[c[0] for c in LOAD_CASES])
def test_a_command_loads_only_its_layers(line, code, absent):
    argv = line.format(fixture=FIXTURE).split()
    watched = sorted(absent | {"numpy"})
    got, loaded = json.loads(_python("-c", _LOADED, json.dumps(watched), *argv).stdout)
    assert got == code
    assert not absent & set(loaded)
    assert ("numpy" in loaded) == (absent != PARSER_ONLY)  # every command sieves


def test_only_the_bound_recheck_loads_mpmath():
    # at 10**5 no n lies near a bound, so scan mrd rechecks none and never
    # imports mpmath; a guard band of 1 % sends many n to the recheck
    got, loaded = json.loads(
        _python("-c", _LOADED, '["mpmath"]', "scan", "mrd", "--max", "100000").stdout
    )
    assert (got, loaded) == (0, [])
    widened = "from matula import scans\nscans.GUARD_BAND = 1e-2\n" + _LOADED
    got, loaded = json.loads(
        _python("-c", widened, '["mpmath"]', "scan", "mrd", "--max", "100").stdout
    )
    assert (got, loaded) == (0, ["mpmath"])


# Exports that are values, not functions or classes, with their defining module.
VALUE_HOMES = {
    "EMPTY_FOREST": "forests",
    "LEAF": "forests",
    "LIOUVILLE": "constants",
    "MOBIUS": "constants",
}


def test_every_export_is_its_submodules_object():
    import importlib

    import matula

    for name in matula.__all__:
        obj = getattr(matula, name)
        home = VALUE_HOMES.get(name) or obj.__module__.removeprefix("matula.")
        assert obj is getattr(importlib.import_module(f"matula.{home}"), name), name


def test_the_parsers_names_stay_where_they_were():
    from matula import constants, pairing, primes

    for name in ("MOBIUS", "LIOUVILLE", "MODES", "POLICIES"):
        assert getattr(pairing, name) is getattr(constants, name)
    assert primes.DEFAULT_CAP is constants.DEFAULT_CAP


def test_the_package_lists_and_star_imports_every_export():
    import matula

    names = set(matula.__all__)
    assert names <= set(dir(matula))
    assert {"algebra", "bijection", "cli", "pairing", "primes", "scans"} <= set(dir(matula))
    star: dict = {}
    exec("from matula import *", star)
    assert names <= set(star)
    with pytest.raises(AttributeError):
        matula.no_such_name


def test_importing_the_package_loads_no_numpy():
    code = "import sys, matula; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    assert _python("-c", code).stdout == "[]\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stats", "13", "--format", "dot"])  # dot only for tree rendering
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_domain_errors_exit_3(capsys):
    assert run(capsys, "arborify", "0")[0] == 3
    assert run(capsys, "cuts", "15")[0] == 3
    assert run(capsys, "table", "--from", "5", "--to", "1")[0] == 3


def test_new_scan_kinds(capsys):
    code, out, _ = run(capsys, "scan", "cut-decrease", "--max", "100")
    doc = json.loads(out)
    assert code == 0 and [3, 4] in doc["exceptions"] and [89, 106] in doc["exceptions"]
    code, out, _ = run(capsys, "scan", "tuple-width", "--max", "5")
    assert code == 0 and json.loads(out)["exceptions"] == []
    code, out, _ = run(capsys, "scan", "nap", "--max", "20")
    assert code == 0 and json.loads(out)["exceptions"] == []


# Which public operations each subcommand reaches (directly or through the
# functions it calls), recorded by running RUNS with every exported callable
# wrapped.  Every operation the package exports must be reached by some CLI
# entry, except those in NO_CLI_ROUTE.
REACHES = {
    "arborify": ["arborify", "attach_root", "print_forest", "render"],
    "number-of": ["number_of", "parse_forest"],
    "stats": ["arborify", "attach_root", "stats", "stats_of"],
    "degree-list": ["integers_of_degree"],
    "leaf-class": ["integers_with_leaf_count"],
    "butcher": ["butcher"],
    "fuse": ["fuse"],
    "cuts": ["cut_chains", "cuts"],
    "table": [],  # bracket strings from arithmetic, no tree operation
    "ratio-table": ["ratio_table"],
    "scan": [
        "butcher",
        "check_tuple_width_bound",
        "is_admissible",
        "min_constellation_width",
        "nap_law_holds",
        "scan_cut_decrease",
        "scan_fusion",
        "scan_nap_law",
        "scan_prime_rank_growth",
        "scan_prime_size_bounds",
        "scan_rank_ratio_monotone",
        "scan_three_n",
        "value_increasing_cuts",
    ],
    "constellation": ["is_admissible", "min_constellation_width"],
    "summatory": ["summatory"],
    "partners": ["is_squarefree", "partner_candidates", "partner_moves"],
    "pair": ["pair_range"],
    "validate-pairs": ["report_from_pairs", "validation_errors"],
}

RUNS = {
    "arborify": ["arborify 12", "arborify 9 --format dot"],
    "number-of": ["number-of [[[]]]"],
    "stats": ["stats 13"],
    "degree-list": ["degree-list 5"],
    "leaf-class": ["leaf-class 2 --max 100"],
    "butcher": ["butcher 3 3"],
    "fuse": ["fuse 5 7"],
    "cuts": ["cuts 59 --trace"],
    "table": ["table --to 20"],
    "ratio-table": ["ratio-table 3 3"],
    "scan": [f"scan {which} --max 12" for which in _SCANS],
    "constellation": ["constellation 4"],
    "summatory": ["summatory 100"],
    "partners": ["partners 35 --mode mobius"],
    "pair": ["pair 100"],
    "validate-pairs": [
        "validate-pairs {fixture} --max 96",
        "validate-pairs {mobius} --max 3 --mode mobius",
        # past 2**22 the validator grows the smallest-factor sieve, not factorize
        "validate-pairs {past} --max 4194310 --mode mobius",
    ],
}

NO_CLI_ROUTE = {
    "default_table",  # wiring: the CLI builds its own table
    # a tree's branches as a forest: number_of multiplies the branches' numbers
    "detach_root",
    "validate_report",  # a boolean view of validation_errors, which validate-pairs prints
    # the list form of the parser validate-pairs runs (pairing._pair_rows, an array)
    "load_pairs",
    # one integer's sign: every command reads signs from a sieve array instead
    "factor_count",
    "liouville",
    "mobius",
}


def _operations() -> list[str]:
    import matula

    return [
        name
        for name in matula.__all__
        if callable(getattr(matula, name)) and not isinstance(getattr(matula, name), type)
    ]


def _record_calls(monkeypatch) -> set[str]:
    """Wrap every exported operation wherever a module binds it, as
    perfbench/trace_step.py does, and empty the memo tables so cached values
    do not hide a call; returns the set the wrappers fill."""
    import matula
    from matula import algebra, bijection, cli, forests, pairing, primes, scans

    modules = [matula, algebra, bijection, cli, forests, pairing, primes, scans]
    called: set[str] = set()

    def wrap(name, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return recorded

    for name in _operations():
        fn = getattr(matula, name)
        recorded = wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, recorded)
    for memo in BIJECTION_MEMOS:
        monkeypatch.setattr(bijection, memo, {})
    monkeypatch.setattr(algebra, "_cuts_cache", {})
    return called


def test_every_subcommand_is_recorded():
    parser = _build_parser()
    subactions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert set(subactions[0].choices) == set(REACHES) == set(RUNS)


@pytest.mark.parametrize("command", list(RUNS))
def test_subcommand_reaches_what_it_lists(monkeypatch, tmp_path, command):
    mobius = tmp_path / "mobius.txt"
    mobius.write_text("2 1\n")
    past = tmp_path / "past.txt"
    past.write_text("4194310 3\n")  # 2 * 5 * 59 * 7109, above 2**22
    called = _record_calls(monkeypatch)
    for line in RUNS[command]:
        argv = [word.format(fixture=FIXTURE, mobius=mobius, past=past) for word in line.split()]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, line
    assert sorted(called) == REACHES[command]


def test_every_operation_has_a_subcommand():
    covered = {fn for fns in REACHES.values() for fn in fns}
    assert not covered & NO_CLI_ROUTE
    missing = set(_operations()) - covered - NO_CLI_ROUTE
    assert not missing, f"operations with no CLI route: {sorted(missing)}"
