import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import time
from itertools import combinations

import pytest

import peskine
from peskine.cli import build_parser, main
from peskine.fixtures import appendix_cubic_text, appendix_sigma_text
from peskine.markings import D_MAX, admissible, admissible_range


@pytest.fixture
def sigma_file(tmp_path):
    path = tmp_path / "sigma.tvec"
    path.write_text(appendix_sigma_text(), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMarking:
    def test_d24(self, capsys):
        code, out, _ = run(capsys, "marking", "--d", "24")
        assert code == 0
        assert "(a, b, c) = (3, 1, 3)" in out
        assert "group Z/24" in out
        assert "11/24" in out

    def test_d22(self, capsys):
        code, out, _ = run(capsys, "marking", "--d", "22")
        assert code == 0
        assert "(a, b, c) = (0, 0, 2)" in out

    def test_non_admissible(self, capsys):
        code, _, err = run(capsys, "marking", "--d", "26")
        assert code == 2
        assert "26 mod 22 = 4 not admissible" in err

    def test_corpus_digest(self, capsys):
        # sha256 of the reports printed by the Fraction-based generator
        # search, which the integer one must reproduce byte for byte
        h = hashlib.sha256()
        ds = admissible_range(1, 2000) + [242, D_MAX - 4]
        for d in ds:
            code, out, _ = run(capsys, "marking", "--d", str(d))
            assert code == 0, d
            h.update(out.encode())
        assert len(ds) == 547
        assert h.hexdigest() == "8b56e5d9f380505b34444d33acdb34114e7f14243d0ade791825ad0f23c7ca17"

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "marking", "--d", "30")
        _, out2, _ = run(capsys, "marking", "--d", "30")
        assert out1 == out2


class TestAssoc:
    def test_d24(self, capsys):
        code, out, _ = run(capsys, "assoc", "--d", "24", "--kind", "both")
        assert code == 0
        assert "k3: closed=no oracle=no" in out
        assert "cubic: closed=yes oracle=yes" in out

    def test_d998(self, capsys):
        code, out, _ = run(capsys, "assoc", "--d", "998")
        assert code == 0
        assert "k3: closed=yes oracle=yes" in out
        assert "cubic: closed=yes oracle=yes" in out
        assert "witness k=" in out

    def test_d40(self, capsys):
        code, out, _ = run(capsys, "assoc", "--d", "40")
        assert code == 0
        assert "k3: closed=no oracle=no" in out
        assert "cubic: closed=no oracle=no" in out

    def test_single_kind_k3(self, capsys):
        code, out, _ = run(capsys, "assoc", "--d", "30", "--kind", "k3")
        assert code == 0
        assert "k3: closed=yes" in out
        assert "cubic" not in out

    def test_single_kind_cubic(self, capsys):
        code, out, _ = run(capsys, "assoc", "--d", "30", "--kind", "cubic")
        assert code == 0
        assert "cubic: closed=no" in out
        assert "k3" not in out

    def test_non_admissible(self, capsys):
        code, _, err = run(capsys, "assoc", "--d", "26")
        assert code == 2

    def test_slowest_documented_d_is_bounded(self, capsys):
        # both scans fail here, so each walks its whole residue class
        start = time.perf_counter()
        code, out, _ = run(capsys, "assoc", "--d", "9999986")
        assert time.perf_counter() - start < 1.5
        assert code == 0
        assert "k3: closed=no oracle=no" in out
        assert "cubic: closed=no oracle=no" in out


class TestTable:
    def test_range_emits_admissible(self, capsys):
        code, out, _ = run(capsys, "table", "--range", "22..100", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,assoc_k3,assoc_cubic,hilb2_fixture,fano_fixture"
        ds = [int(line.split(",")[0]) for line in lines[1:]]
        assert ds == [22, 24, 28, 30, 32, 40, 44, 46, 50, 52, 54, 62, 66,
                      68, 72, 74, 76, 84, 88, 90, 94, 96, 98]

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "table", "--range", "25..27")
        assert code == 0
        assert out.strip().splitlines() == [
            "d,assoc_k3,assoc_cubic,hilb2_fixture,fano_fixture"
        ]

    def test_fixture_check(self, capsys):
        code, out, _ = run(capsys, "table", "--fixture-check")
        assert code == 0
        assert "all 20 rows match" in out

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--range", "oops")
        assert code == 2

    def test_explicit_non_admissible(self, capsys):
        code, _, err = run(capsys, "table", "--d", "26")
        assert code == 2

    def test_negative_lower_endpoint_is_cheap(self, capsys):
        # the scan starts at the first positive d, not at the endpoint
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--range=-100000000..30")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert (code, out) == run(capsys, "table", "--range", "1..30")[:2]

    def test_range_cost_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "table", "--range", "1..3000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "RANGE_COST_MAX" in err and out == ""
        for lo, hi in ((22, 100), (48000, 48249)):
            code, out, _ = run(capsys, "table", "--range", f"{lo}..{hi}", "--format", "csv")
            assert code == 0
            assert len(out.splitlines()) == 1 + len(admissible_range(lo, hi))

    def test_explicit_d_counts_against_the_cost_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "table", *["--d", "9999998"] * 4)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            "error: --d sums to 39999992 over its admissible d, above the"
            " supported cost RANGE_COST_MAX = 10000000\n"
        )
        code, out, err = run(capsys, "table", "--range", "48000..48249", "--d", "9999998")
        assert (code, out) == (2, "")
        assert err.startswith("error: range '48000..48249' plus --d sums to ")
        assert "RANGE_COST_MAX" in err

    def test_explicit_d_below_the_cap(self, capsys):
        code, out, _ = run(capsys, "table", "--d", "24", "--d", "30")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == ["d", "24", "30"]


class TestPeskine:
    def test_rank(self, capsys, sigma_file):
        code, out, _ = run(capsys, "peskine", sigma_file, "rank", "--at", "e1")
        assert code == 0
        assert out.strip() == "4"

    def test_flag_verify(self, capsys, sigma_file):
        code, out, _ = run(
            capsys, "peskine", sigma_file, "flag-verify", "--flag", "e1:e1..e6"
        )
        assert code == 0
        assert "annihilates" in out

    def test_flag_verify_failure(self, capsys, sigma_file):
        code, out, _ = run(
            capsys, "peskine", sigma_file, "flag-verify",
            "--flag", "e1:e1..e5:e7",
        )
        assert code == 1
        assert "NOT" in out

    def test_cubic_matches_fixture(self, capsys, sigma_file):
        code, out, _ = run(capsys, "peskine", sigma_file, "cubic")
        assert code == 0
        from peskine.polyring import parse_poly

        assert parse_poly(out, 6, prefix="v") == parse_poly(
            appendix_cubic_text(), 6, prefix="v"
        )

    def test_equations_count(self, capsys, sigma_file):
        code, out, _ = run(capsys, "peskine", sigma_file, "equations")
        assert code == 0
        assert out.count("# removed rows/columns") == 45

    def test_missing_at(self, capsys, sigma_file):
        code, _, err = run(capsys, "peskine", sigma_file, "rank")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "peskine", "/nonexistent.tvec", "rank", "--at", "e1")
        assert code == 2


class TestVerifyAppendix:
    def test_bad_prime(self, capsys):
        code, _, err = run(capsys, "verify-appendix", "--primes", "3,31013")
        assert code == 2
        assert "characteristic 3" in err

    def test_corrupted_coefficient_fails_at_cubic(self, capsys, tmp_path):
        # no stored term pairs index 1 with an index <= 6, so perturbing
        # an existing coefficient keeps the flag valid; the damage has
        # to surface in the extraction stage instead
        lines = appendix_sigma_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("1 7 8 "):
                lines[i] = "1 7 8 -3"
                break
        bad = tmp_path / "bad.tvec"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "verify-appendix", "--sigma", str(bad))
        assert code == 1
        assert "stage cubic: FAIL" in out

    def test_corrupted_flag_term_fails_at_flag_verify(self, capsys, tmp_path):
        # a term touching the flag pair (index 1 with an index <= 6)
        # breaks the annihilation check immediately
        bad = tmp_path / "bad_flag.tvec"
        bad.write_text(appendix_sigma_text() + "1 2 3 1\n", encoding="utf-8")
        code, out, err = run(capsys, "verify-appendix", "--sigma", str(bad))
        assert code == 1
        assert "stage flag-verify: FAIL" in out

    def test_prime_override_is_validated(self, capsys):
        for bad in ("10007", "a,b", "1,2,3"):
            code, _, err = run(capsys, "verify-appendix", "--primes", bad)
            assert code == 2, bad
            assert err.startswith("error:") and "--primes" in err, bad
            assert "Traceback" not in err, bad

    def test_tab_separated_cubic_file(self, capsys, tmp_path):
        cubic = tmp_path / "tabs.poly"
        cubic.write_text(appendix_cubic_text().replace(" ", "\t"), encoding="utf-8")
        code, out, _ = run(capsys, "verify-appendix", "--cubic", str(cubic))
        assert code == 0
        assert out.endswith("verify-appendix: PASS\n")



class TestBoundedInputs:
    """Inputs past a documented bound exit 2 at once, with a message."""

    @pytest.mark.parametrize("spec", ["e1:e1..e12", "e1:e0..e5"])
    def test_flag_range_index_checked_before_expansion(self, capsys, sigma_file, spec):
        code, _, err = run(capsys, "peskine", sigma_file, "flag-verify", "--flag", spec)
        assert code == 2
        assert "basis index out of range" in err
        assert "Traceback" not in err

    def test_huge_prime_is_refused_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify-appendix", "--primes", "1000000000000000003,10007")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "1000000000000000003" in err and "2^31" in err
        assert out == ""

    def test_largest_prime_below_the_bound_is_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-appendix", "--primes", "2147483647,10007")
        assert code == 0
        assert "stage smooth-2147483647: pass" in out

    @pytest.mark.parametrize("command", ["assoc", "marking"])
    def test_discriminant_ceiling(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--d", "1000000000012")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "D_MAX" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--d", str(D_MAX + 12)],
            ["--range", f"{D_MAX - 100}..{D_MAX + 100}"],
            ["--range", f"{D_MAX + 100}..{D_MAX + 200}"],
        ],
    )
    def test_table_ceiling(self, capsys, argv):
        code, out, err = run(capsys, "table", *argv)
        assert code == 2
        assert "D_MAX" in err and out == ""

    @pytest.mark.parametrize("command", ["assoc", "marking", "table"])
    def test_the_ceiling_itself_answers(self, capsys, command):
        # D_MAX = 10^7 is 10 mod 22, so admissible: the ceiling is d <= D_MAX
        assert admissible(D_MAX)
        code, out, err = run(capsys, command, "--d", str(D_MAX))
        assert (code, err) == (0, "")
        assert str(D_MAX) in out

    @pytest.mark.parametrize("command", ["assoc", "marking", "table"])
    def test_the_first_admissible_past_the_ceiling(self, capsys, command):
        # D_MAX + 8 is 18 mod 22, admissible, so only the ceiling refuses it
        assert admissible(D_MAX + 8)
        code, out, err = run(capsys, command, "--d", str(D_MAX + 8))
        assert (code, out) == (2, "")
        assert "D_MAX" in err

    def test_ceiling_is_inclusive(self, capsys):
        assert admissible(D_MAX - 4)
        code, out, _ = run(capsys, "marking", "--d", str(D_MAX - 4))
        assert code == 0
        assert out.startswith(f"d = {D_MAX - 4}\n")

    def test_zero_denominator_in_a_trivector_file(self, capsys, tmp_path):
        bad = tmp_path / "zero_den.tvec"
        bad.write_text("1 2 3 4\n1 7 8 1/0\n", encoding="utf-8")
        code, out, err = run(capsys, "peskine", str(bad), "rank", "--at", "e1")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: line 2: zero denominator in '1/0'\n"

    def test_zero_denominator_in_a_cubic_file(self, capsys, tmp_path):
        bad = tmp_path / "zero_den.poly"
        bad.write_text("v2^3 + 1/0*v1^3\n", encoding="utf-8")
        code, out, err = run(capsys, "verify-appendix", "--cubic", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: zero denominator in term '1/0*v1^3'\n"

    def test_full_width_digit_in_a_trivector_file(self, capsys, tmp_path):
        bad = tmp_path / "wide.tvec"
        bad.write_text("1 2 3 4\n1 7 8 \uff15\n", encoding="utf-8")
        code, out, err = run(capsys, "peskine", str(bad), "rank", "--at", "e1")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: line 2: coefficient '\uff15' is not an integer or a/b\n"

    @pytest.mark.parametrize("term", ["\uff13*v1^3", "3*v\uff11^3", "3*v1^\uff13"])
    def test_full_width_digit_in_a_cubic_file(self, capsys, tmp_path, term):
        bad = tmp_path / "wide.poly"
        bad.write_text(f"v2^3 + {term}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify-appendix", "--cubic", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: cannot parse term {term!r}\n"

    def test_digit_bound_without_the_interpreter_limit(self, tmp_path):
        # Python before 3.10.7 has no int_max_str_digits; 0 switches it off here
        big = tmp_path / "big.tvec"
        big.write_text("1 2 3 " + "7" * 200_000 + "\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(peskine.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=0", "-m", "peskine.cli",
             "peskine", str(big), "rank", "--at", "e1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: {big}: line 1: coefficient has more than MAX_DIGITS = 1000 digits"
            " in a row\n"
        )

    def test_digit_bound_of_an_option(self, capsys):
        code, out, err = run(capsys, "assoc", "--d", "9" * 1001)
        assert (code, out) == (2, "")
        assert err == "error: --d has more than MAX_DIGITS = 1000 digits in a row\n"

    def test_cubic_file_past_the_degree_bound(self, capsys, tmp_path):
        bad = tmp_path / "big.poly"
        bad.write_text("v1^5000\n", encoding="utf-8")
        code, _, err = run(capsys, "verify-appendix", "--cubic", str(bad))
        assert code == 2
        assert "packed-monomial bound" in err
        assert "Traceback" not in err


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()


# -- golden corpus -----------------------------------------------------
#
# Each case is (PESKINE_PRIMES or None, argv, exit code, sha256 prefix of
# stdout, stderr).  In argv and stderr, {tmp} stands for the directory
# holding GOLDEN_FILES; timings in stderr read #.##s, and an argparse
# exit records its stderr as "argparse".  A case that changes is a change
# of the CLI's interface, not of its implementation.  The CLI reads no
# environment variable: a case that sets PESKINE_PRIMES expects exactly
# what the same argv gives without it, so a stray value in the
# environment cannot change the primes or the names of the stages.


def big_cubic_text() -> str:
    """A trivector vanishing on the standard flag, every coefficient inside
    the input bounds: 1 000-digit numerators, the first over the prime
    10^999 + 7.  Its cubic has coefficients of 4 996 digits, more than
    str() writes under the interpreter's default limit of 4 300."""
    triples = [t for t in combinations(range(1, 11), 3) if not (t[0] == 1 and t[1] <= 6)]
    lines = [
        f"{i} {j} {k} {(-1) ** n * (10**999 + 7919 * n * n + 1)}" + ("" if n else f"/{10**999 + 7}")
        for n, (i, j, k) in enumerate(triples)
    ]
    return "\n".join(lines) + "\n"


GOLDEN_FILES = {
    "sigma.tvec": appendix_sigma_text(),
    "corrupt.tvec": appendix_sigma_text().replace("\n1 7 8 -4\n", "\n1 7 8 -3\n"),
    "flagbad.tvec": appendix_sigma_text() + "1 2 3 1\n",
    "norank.tvec": appendix_sigma_text().replace("\n1 9 10 4\n", "\n"),
    "dup.tvec": "1 2 3 1\n3 2 1 2\n",
    "index.tvec": "1 2 11 1\n",
    "zero.tvec": "1 2 3 0\n",
    "words.tvec": "1 2 3 x\n",
    "exponent.tvec": "1 2 3 1e2000000\n",
    "empty.tvec": "",
    "cubic.poly": appendix_cubic_text(),
    "wrong.poly": "v1^3\n",
    "big.poly": "v1^5000\n",
    "garbage.poly": "v1^^3\n",
    "w.poly": "w1^3\n",
    "underscore.tvec": "1_0 2 3 4\n",
    "wide.tvec": "1 2 3 " + "9" * 1000 + "\n",  # MAX_DIGITS digits
    "long.tvec": "1 2 3 " + "9" * 1001 + "\n",
    # 10^499 and 10^500 have 500 and 501 digits, 3^1048 has 501: a common
    # denominator of MAX_DIGITS digits, and one of a digit more
    "lcm.tvec": f"1 2 3 1/{10**499}\n1 2 4 1/{3**1048}\n",
    "denominators.tvec": f"1 2 3 1/{10**500}\n1 2 4 1/{3**1048}\n",
    "bigcubic.tvec": big_cubic_text(),
}


def write_golden_files(directory) -> None:
    for name, text in GOLDEN_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def golden_observe(argv: str, directory) -> tuple[int, str, str]:
    """Exit code, stdout digest and masked stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{tmp}", str(directory)) for a in argv.split()])
            err_text = err.getvalue()
        except SystemExit as exc:
            code, err_text = exc.code, "argparse"
    err_text = re.sub(r"\d+\.\d\ds", "#.##s", err_text.replace(str(directory), "{tmp}"))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], err_text


EMPTY = hashlib.sha256(b"").hexdigest()[:16]


def _stage_times(*primes) -> str:
    names = ["load", "flag-verify", "rank", "cubic"] + [f"smooth-{p}" for p in primes]
    return "".join(f"  {name}: #.##s\n" for name in names)


GOLDEN = [
    (None, "marking --d 24", 0, "c8f3b7143071fba7", ""),
    (None, "marking --d 22", 0, "859a3c84f836a5c8", ""),
    (None, "marking --d 9999898", 0, "6875ac10c6c37ff8", ""),
    (None, "marking --d 26", 2, EMPTY, "error: 26 mod 22 = 4 not admissible\n"),
    (None, "marking --d 0", 2, EMPTY, "error: 0 is not positive\n"),
    (None, "marking --d -4", 2, EMPTY, "error: -4 is not positive\n"),
    (None, "marking --d 1000000000012", 2, EMPTY,
     "error: d = 1000000000012 is above the supported ceiling D_MAX = 10000000\n"),
    (None, "marking --d x", 2, EMPTY, "error: --d 'x' is not an integer\n"),
    # one integer token, [+-]?[0-9]+: no underscore, space or non-ASCII digit
    (None, "marking --d 2_4", 2, EMPTY, "error: --d '2_4' is not an integer\n"),
    (None, "assoc --d \uff12\uff14", 2, EMPTY, "error: --d '\uff12\uff14' is not an integer\n"),
    (None, "assoc --d 24", 0, "ef32d72b71be1804", ""),
    (None, "assoc --d 998 --kind k3", 0, "86b378a6cb916ac6", ""),
    (None, "assoc --d 30 --kind cubic", 0, "d1704311580c1613", ""),
    (None, "assoc --d 9999992", 0, "75aea83fb6d210dc", ""),
    (None, "assoc --d 9999998", 0, "fbdc5475412f7786", ""),
    (None, "assoc --d 27", 2, EMPTY, "error: 27 is odd\n"),
    (None, "assoc --d 10000012", 2, EMPTY,
     "error: d = 10000012 is above the supported ceiling D_MAX = 10000000\n"),
    (None, "table --range 22..100", 0, "82d519e8b5a7bd62", ""),
    (None, "table --range 22..100 --format text", 0, "f5ec6d91d67a45fd", ""),
    (None, "table --fixture-check", 0, "9d0ac6e9629d56ea", ""),
    (None, "table --range 22..40 --d 24 --fixture-check --format text", 0, "b88117b34416694e", ""),
    (None, "table --range oops", 2, EMPTY, "error: bad range 'oops', expected A..B\n"),
    (None, "table --range 5", 2, EMPTY, "error: bad range '5', expected A..B\n"),
    (None, "table --range=-100..30", 0, "7cf946215b0e136d", ""),
    (None, "table --range 1..3000000", 2, EMPTY,
     "error: range '1..3000000' sums to 1227273272724 over its admissible d, above the"
     " supported cost RANGE_COST_MAX = 10000000\n"),
    (None, "table --range 9999900..10000100", 2, EMPTY,
     "error: range 9999900..10000100 passes the supported ceiling D_MAX = 10000000\n"),
    (None, "table --range 10000005..10", 2, EMPTY,
     "error: range 10000005..10 passes the supported ceiling D_MAX = 10000000\n"),
    (None, "table --range 2_2..3_0", 2, EMPTY, "error: bad range '2_2..3_0', expected A..B\n"),
    (None, "table --d 24 --d 30", 0, "07309cb48e712899", ""),
    (None, "table --d 26", 2, EMPTY, "error: 26 mod 22 = 4 not admissible\n"),
    (None, "table --d 10000012", 2, EMPTY,
     "error: d = 10000012 is above the supported ceiling D_MAX = 10000000\n"),
    (None, "table --range 40000..40249", 0, "4297185b4202f287", ""),
    (None, "table --range 48000..48249", 0, "4fe2a7833c6f1d4b", ""),
    (None, "peskine {tmp}/sigma.tvec rank --at e1", 0, "7de1555df0c27003", ""),
    (None, "peskine {tmp}/sigma.tvec rank", 2, EMPTY, "error: rank needs --at VECTOR\n"),
    (None, "peskine {tmp}/sigma.tvec rank --at e11", 2, EMPTY,
     "error: basis index out of range in 'e11'\n"),
    (None, "peskine {tmp}/sigma.tvec rank --at 1,2,3", 2, EMPTY,
     "error: vector '1,2,3' must have 10 coordinates\n"),
    (None, "peskine {tmp}/sigma.tvec rank --at 1,0,0,0,0,0,0,0,0,x", 2, EMPTY,
     "error: cannot parse vector '1,0,0,0,0,0,0,0,0,x'\n"),
    (None, "peskine {tmp}/sigma.tvec rank --at 0,1,0,0,0,0,0,0,0,0", 0, "aa67a169b0bba217", ""),
    (None, "peskine {tmp}/sigma.tvec rank --at 1_0,0,0,0,0,0,0,0,0,0", 2, EMPTY,
     "error: cannot parse vector '1_0,0,0,0,0,0,0,0,0,0'\n"),
    # str.isdigit takes an Arabic-Indic one and a superscript two; eN is ASCII only
    (None, "peskine {tmp}/sigma.tvec rank --at e\u0661", 2, EMPTY,
     "error: cannot parse vector 'e\u0661'\n"),
    (None, "peskine {tmp}/sigma.tvec rank --at e\u00b2", 2, EMPTY,
     "error: cannot parse vector 'e\u00b2'\n"),
    # N of eN takes no sign, although the integer token does
    (None, "peskine {tmp}/sigma.tvec rank --at e+1", 2, EMPTY, "error: cannot parse vector 'e+1'\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify", 0, "42bcbb7bec31f2c8", ""),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1:e1..e5:e7", 1, "e94176f844f625f6", ""),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1:e1..e12", 2, EMPTY,
     "error: basis index out of range in 'e12'\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1", 2, EMPTY,
     "error: flag spec needs w1:rows, e.g. e1:e1..e6\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1:e1..e5", 2, EMPTY,
     "error: flag needs 6 row vectors, got 5\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e7:e1..e6", 2, EMPTY,
     "error: w1 must lie in the span of w6\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1:e1..e5:e5", 2, EMPTY,
     "error: w6 must have rank 6\n"),
    (None, "peskine {tmp}/sigma.tvec flag-verify --flag e1:e1..e3:e7..x", 2, EMPTY,
     "error: bad range 'e7..x'\n"),
    (None, "peskine {tmp}/sigma.tvec cubic", 0, "b9eecd5ddb34254e", ""),
    (None, "peskine {tmp}/sigma.tvec cubic --flag e1:e1..e5:e7", 1, EMPTY,
     "mismatch: flag does not annihilate the trivector\n"),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 3,31013", 2, EMPTY,
     "error: p = 3: characteristic 3 is excluded\n"),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 10007,4", 2, EMPTY,
     "error: p = 4: 4 is not prime\n"),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 10007", 2, EMPTY,
     "error: --primes must list exactly two primes, e.g. 10007,31013\n"),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 10007,4294967311", 2, EMPTY,
     "error: p = 4294967311: 4294967311 is not below the prime bound 2^31\n"),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 10_007,31_013", 2, EMPTY,
     "error: --primes '10_007' is not an integer\n"),
    (None, "peskine {tmp}/sigma.tvec equations", 0, "c239478a3b8716d0", ""),
    (None, "peskine {tmp}/sigma.tvec bogus", 2, EMPTY, "argparse"),
    (None, "peskine {tmp}/missing.tvec rank --at e1", 2, EMPTY,
     "error: cannot read {tmp}/missing.tvec:"
     " [Errno 2] No such file or directory: '{tmp}/missing.tvec'\n"),
    (None, "peskine {tmp}/dup.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/dup.tvec: line 2: duplicate triple 3 2 1\n"),
    (None, "peskine {tmp}/index.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/index.tvec: line 1: bad index triple 1 2 11\n"),
    (None, "peskine {tmp}/zero.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/zero.tvec: line 1: zero coefficient\n"),
    (None, "peskine {tmp}/words.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/words.tvec: line 1: coefficient 'x' is not an integer or a/b\n"),
    (None, "peskine {tmp}/exponent.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/exponent.tvec: line 1: coefficient '1e2000000' is not an integer or a/b\n"),
    (None, "peskine {tmp}/underscore.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/underscore.tvec: line 1: index '1_0' is not an integer\n"),
    (None, "peskine {tmp}/wide.tvec rank --at e1", 0, "53c234e5e8472b6a", ""),
    (None, "peskine {tmp}/long.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/long.tvec: line 1: coefficient has more than MAX_DIGITS = 1000 digits"
     " in a row\n"),
    (None, "peskine {tmp}/lcm.tvec rank --at e1", 0, "53c234e5e8472b6a", ""),
    (None, "peskine {tmp}/denominators.tvec rank --at e1", 2, EMPTY,
     "error: {tmp}/denominators.tvec: line 2: common denominator has more than"
     " MAX_DIGITS = 1000 digits at triple 1 2 4\n"),
    (None, "peskine {tmp}/empty.tvec cubic", 1, EMPTY,
     "mismatch: all restricted quartics vanish identically\n"),
    (None, "peskine {tmp}/corrupt.tvec cubic", 0, "274a50deaf40b228", ""),
    (None, "peskine {tmp}/bigcubic.tvec cubic", 0, "2fa1b214066f66e2", ""),
    (None, "peskine {tmp}/corrupt.tvec smooth", 0, "465b225a22abc5a5", ""),
    (None, "peskine {tmp}/flagbad.tvec cubic", 1, EMPTY,
     "mismatch: flag does not annihilate the trivector\n"),
    (None, "verify-appendix --primes 10007,3", 2, EMPTY,
     "error: p = 3: characteristic 3 is excluded\n"),
    (None, "verify-appendix --primes a,b", 2, EMPTY, "error: --primes 'a' is not an integer\n"),
    (None, "verify-appendix --primes 1000000000000000003,10007", 2, EMPTY,
     "error: p = 1000000000000000003:"
     " 1000000000000000003 is not below the prime bound 2^31\n"),
    (None, "verify-appendix --primes 1,2,3", 2, EMPTY,
     "error: --primes must list exactly two primes, e.g. 10007,31013\n"),
    (None, "verify-appendix --primes 10007,10007", 2, EMPTY,
     "error: --primes: the two primes must differ, got 10007 twice\n"),
    (None, "verify-appendix --sigma {tmp}/sigma.tvec --primes 10007,31013", 0, "5d8cfc27aa56d104",
     _stage_times(10007, 31013)),
    (None, "verify-appendix --sigma {tmp}/corrupt.tvec", 1, "2b14a7492f21b240",
     "mismatch: extracted cubic does not match the reference\n"),
    (None, "verify-appendix --sigma {tmp}/flagbad.tvec", 1, "e2e588ac657038a1",
     "mismatch: flag does not annihilate the trivector\n"),
    (None, "verify-appendix --sigma {tmp}/norank.tvec", 1, "094f2ef1bdf17f79",
     "mismatch: rank at the distinguished point is 2, expected 4\n"),
    (None, "verify-appendix --sigma {tmp}/missing.tvec", 2, EMPTY,
     "error: cannot read {tmp}/missing.tvec:"
     " [Errno 2] No such file or directory: '{tmp}/missing.tvec'\n"),
    (None, "verify-appendix --sigma {tmp}/dup.tvec", 2, EMPTY,
     "error: {tmp}/dup.tvec: line 2: duplicate triple 3 2 1\n"),
    (None, "verify-appendix --cubic {tmp}/cubic.poly --primes 10007,31013", 0, "5d8cfc27aa56d104",
     _stage_times(10007, 31013)),
    (None, "verify-appendix --cubic {tmp}/wrong.poly", 1, "2b14a7492f21b240",
     "mismatch: extracted cubic does not match the reference\n"),
    (None, "verify-appendix --cubic {tmp}/big.poly", 2, EMPTY,
     "error: {tmp}/big.poly: total degree 5000 exceeds the packed-monomial bound 4095\n"),
    (None, "verify-appendix --cubic {tmp}/missing.poly", 2, EMPTY,
     "error: cannot read {tmp}/missing.poly:"
     " [Errno 2] No such file or directory: '{tmp}/missing.poly'\n"),
    (None, "verify-appendix --cubic {tmp}/garbage.poly", 2, EMPTY,
     "error: {tmp}/garbage.poly: cannot parse term 'v1^^3'\n"),
    (None, "verify-appendix --cubic {tmp}/w.poly", 2, EMPTY,
     "error: {tmp}/w.poly: unexpected variable w1\n"),
    (None, "verify-appendix", 0, "5d8cfc27aa56d104", _stage_times(10007, 31013)),
    (None, "verify-appendix --primes 31013,10007", 0, "d8fa5f934de77b5a",
     _stage_times(31013, 10007)),
    (None, "peskine {tmp}/sigma.tvec smooth", 0, "465b225a22abc5a5", ""),
    (None, "peskine {tmp}/sigma.tvec smooth --primes 10007,31013", 0, "465b225a22abc5a5", ""),
    ("31013 10007", "verify-appendix", 0, "5d8cfc27aa56d104", _stage_times(10007, 31013)),
    ("31013 10007", "verify-appendix --primes 31013,10007", 0, "d8fa5f934de77b5a",
     _stage_times(31013, 10007)),
    ("31013 10007", "peskine {tmp}/sigma.tvec smooth", 0, "465b225a22abc5a5", ""),
    ("31013 10007", "peskine {tmp}/sigma.tvec smooth --primes 10007,31013", 0, "465b225a22abc5a5",
     ""),
    ("3,31013", "verify-appendix", 0, "5d8cfc27aa56d104", _stage_times(10007, 31013)),
    ("3,31013", "verify-appendix --primes 31013,10007", 0, "d8fa5f934de77b5a",
     _stage_times(31013, 10007)),
    ("3,31013", "peskine {tmp}/sigma.tvec smooth", 0, "465b225a22abc5a5", ""),
    ("3,31013", "peskine {tmp}/sigma.tvec smooth --primes 10007,31013", 0, "465b225a22abc5a5", ""),
    ("10007,10007", "verify-appendix", 0, "5d8cfc27aa56d104", _stage_times(10007, 31013)),
    ("x,y", "verify-appendix", 0, "5d8cfc27aa56d104", _stage_times(10007, 31013)),
    ("x,y", "verify-appendix --primes 31013,10007", 0, "d8fa5f934de77b5a",
     _stage_times(31013, 10007)),
    ("x,y", "peskine {tmp}/sigma.tvec smooth", 0, "465b225a22abc5a5", ""),
    ("x,y", "peskine {tmp}/sigma.tvec smooth --primes 10007,31013", 0, "465b225a22abc5a5", ""),
]


class TestGolden:
    """Every subcommand's success and error paths, byte for byte."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden")
        write_golden_files(path)
        return path

    @pytest.mark.parametrize(
        "env, argv, code, digest, err",
        GOLDEN,
        ids=[f"{env or '-'}|{argv}" for env, argv, *_ in GOLDEN],
    )
    def test_case(self, monkeypatch, directory, env, argv, code, digest, err):
        if env is None:
            monkeypatch.delenv("PESKINE_PRIMES", raising=False)
        else:
            monkeypatch.setenv("PESKINE_PRIMES", env)
        assert golden_observe(argv, directory) == (code, digest, err)


def test_input_errors_print_nothing():
    """An input error is refused before any work: every exit-2 case has an empty stdout."""
    printed = [(env, argv) for env, argv, code, digest, _ in GOLDEN if code == 2 and digest != EMPTY]
    assert printed == []


class TestFuzz:
    """No argv and no input file ends in a traceback.

    Arguments come from a small grammar of good, bad and out-of-bound
    values; the trivector and cubic files are generated with duplicates,
    zero coefficients, zero denominators, out-of-range indices, unicode,
    bytes that are not UTF-8 and empty text.  Every call returns 0, 1 or 2, or is refused by
    argparse with exit status 2, and exit status 2 leaves stdout empty.
    """

    def test_cli_exits_cleanly(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        ints = st.one_of(
            st.tuples(st.integers(0, 4545), st.sampled_from([0, 2, 6, 8, 10, 18])).map(
                lambda t: str(22 * t[0] + t[1])  # admissible, but for 0
            ),
            st.integers(-50, 10**5).map(str),
            st.sampled_from(
                ["x", "", "1.5", "0x10", "٢٤", "１", "1_0", " 24", str(10**30), str(D_MAX + 12)]
            ),
        )
        ranges = st.one_of(
            st.tuples(st.integers(-50, 10**5), st.integers(-5, 30)).map(
                lambda t: f"{t[0]}..{t[0] + t[1]}"
            ),
            st.sampled_from(
                ["1..3000000", f"{D_MAX}..{D_MAX + 50}", "5", "a..b", "..", "1..2..3",
                 "１..30", "1_0..30", " 24..30"]
            ),
        )
        vectors = st.one_of(
            st.sampled_from(["e1", "e0", "e11", "e٣", "e+1", "", "x", "1,2"]),
            st.lists(st.integers(-2, 2), min_size=9, max_size=11).map(
                lambda xs: ",".join(map(str, xs))
            ),
        )
        flags = st.one_of(
            st.sampled_from(
                ["e1:e1..e6", "e1:e1..e12", "e1", ":", "e1:e6..e1", "e1:e1..e5:e7",
                 "e2:e1..e6", "e1:e1..x", "e1::", "e1:e1..e5:e5"]
            ),
            st.lists(vectors, min_size=1, max_size=8).map(":".join),
        )
        primes = st.sampled_from(
            ["10007,31013", "31013 10007", "3,31013", "4,7", "0,10007", "-5,10007", "5,7",
             "2147483647,10007", "1000000000000000003,10007", "x", "1,2,3", "", "10007",
             "１,10007", "1_0,10007", " 24,10007"]
        )
        coefficients = st.one_of(
            st.integers(-3, 3).map(str),
            st.sampled_from(["3/4", "1/0", "-7/0", "x", "٣", "1e3", "2.5", "1_0", "9" * 5000, "1/2/3"]),
        )
        trivector_lines = st.one_of(
            st.tuples(
                st.integers(0, 11), st.integers(0, 11), st.integers(0, 11), coefficients
            ).map(lambda t: " ".join(map(str, t))),
            st.sampled_from(
                ["", "# comment", "1 2", "é ü ß ∂", "1 2 3 4 5", "1 2 3 4 # c", "1 2 3 \udcff"]
            ),
        )
        trivector_texts = st.one_of(
            st.lists(trivector_lines, max_size=6).map("\n".join),
            trivector_lines.map(lambda line: appendix_sigma_text() + line + "\n"),
        )
        terms = st.tuples(
            st.sampled_from(["", "1", "-3/2", "0", "1/0", "٣"]),
            st.sampled_from(["v", "w", "x"]),
            st.integers(0, 8),
            st.sampled_from(["", "^2", "^3", "^4095", "^5000", "^^3"]),
        ).map(lambda t: f"{t[0]}*{t[1]}{t[2]}{t[3]}" if t[0] else f"{t[1]}{t[2]}{t[3]}")
        cubic_texts = st.one_of(
            st.lists(terms, max_size=5).map(" + ".join),
            st.sampled_from(["", "0", "+", "--5", "v1^3 -", "∂v1", appendix_cubic_text()]),
        )

        def option(name, values):
            return st.one_of(st.just([]), values.map(lambda v: [name, v]))

        sigma_path, cubic_path = str(tmp_path / "sigma.tvec"), str(tmp_path / "cubic.poly")
        file_arg = st.sampled_from([sigma_path] * 3 + [str(tmp_path / "missing.tvec")])
        argvs = st.one_of(
            st.tuples(st.sampled_from(["marking", "assoc"]), ints).map(
                lambda t: [t[0], "--d", t[1]]
            ),
            st.tuples(
                option("--range", ranges),
                st.lists(ints, max_size=3),
                st.sampled_from([[], ["--format", "text"], ["--fixture-check"]]),
            ).map(lambda t: ["table", *t[0], *(x for d in t[1] for x in ("--d", d)), *t[2]]),
            st.tuples(
                file_arg,
                st.sampled_from(
                    ["rank", "flag-verify", "cubic", "smooth", "equations", "bogus"]
                ),
                option("--at", vectors),
                option("--flag", flags),
                option("--primes", primes),
            ).map(lambda t: ["peskine", t[0], t[1], *t[2], *t[3], *t[4]]),
            st.tuples(
                option("--sigma", file_arg),
                option("--cubic", st.sampled_from([cubic_path, str(tmp_path / "missing")])),
                option("--primes", primes),
            ).map(lambda t: ["verify-appendix", *t[0], *t[1], *t[2]]),
        )

        @hypothesis.settings(
            max_examples=150, deadline=5000, derandomize=True, database=None
        )
        @hypothesis.given(argvs, trivector_texts, cubic_texts)
        # a valid input with a bad prime: the whole pipeline could run before the refusal
        @hypothesis.example(["verify-appendix", "--primes", "10007,3"], "", "")
        @hypothesis.example(
            ["peskine", sigma_path, "smooth", "--primes", "10007,4"], appendix_sigma_text(), ""
        )
        def check(argv, sigma_text, cubic_text):
            # \udcff is written as the byte 0xff, which is not UTF-8
            for path, text in ((sigma_path, sigma_text), (cubic_path, cubic_text)):
                with open(path, "wb") as fh:
                    fh.write(text.encode("utf-8", "surrogateescape"))
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv  # argparse refuses the argv
                code = 2
            assert code in (0, 1, 2), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert code != 2 or out.getvalue() == "", (argv, out.getvalue())

        check()
