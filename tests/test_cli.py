import time

import pytest

from peskine.cli import build_parser, main
from peskine.fixtures import appendix_cubic_text, appendix_sigma_text
from peskine.markings import D_MAX, admissible


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

    def test_env_prime_override_is_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("PESKINE_PRIMES", "not,primes")
        code, _, err = run(capsys, "verify-appendix")
        assert code == 2
        assert "PESKINE_PRIMES" in err
        for bad in ("10007", "a,b", "1,2,3"):
            code, _, err = run(capsys, "verify-appendix", "--primes", bad)
            assert code == 2, bad
            assert err.startswith("error:") and "--primes" in err, bad
            assert "Traceback" not in err, bad



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
        assert "--primes" in err and "2^31" in err
        assert out == ""

    def test_huge_prime_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("PESKINE_PRIMES", "10007,4294967311")
        code, _, err = run(capsys, "verify-appendix")
        assert code == 2
        assert "PESKINE_PRIMES" in err and "2^31" in err

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

    def test_ceiling_is_inclusive(self, capsys):
        assert admissible(D_MAX - 4)
        code, out, _ = run(capsys, "marking", "--d", str(D_MAX - 4))
        assert code == 0
        assert out.startswith(f"d = {D_MAX - 4}\n")

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
