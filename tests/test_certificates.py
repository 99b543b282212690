"""Planted faults: a failed certificate exits 1 with one message, never a traceback.

Each case breaks one certificate with monkeypatch, in the library module
that owns it, and runs the CLI in process.  The failure must surface as a
`mismatch:` line on stderr with exit status 1; verify-appendix adds a
`stage ...: FAIL` line on stdout, and the other commands print no report.
One case runs the det = d fault under `python -O`, where an `assert` would
be switched off.
"""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import peskine
from peskine import associations, lattice, markings, trivector
from peskine.cli import main
from peskine.polyring import MultiPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return code, captured.out, captured.err


def assert_mismatch(code, err, message):
    assert code == 1
    assert err == f"mismatch: {message}\n"


class TestRouteAgreement:
    @staticmethod
    def negate_k3_closed(monkeypatch):
        real = associations.k3_closed
        monkeypatch.setattr(associations, "k3_closed", lambda d: not real(d))

    def test_assoc(self, capsys, monkeypatch):
        self.negate_k3_closed(monkeypatch)
        code, out, err = run(capsys, "assoc", "--d", "24")
        assert out == ""
        assert_mismatch(code, err, "d = 24: K3 closed form says True, oracle says False")

    def test_table(self, capsys, monkeypatch):
        self.negate_k3_closed(monkeypatch)
        code, out, err = run(capsys, "table", "--range", "24..30")
        assert out == ""
        assert_mismatch(code, err, "d = 24: K3 closed form says True, oracle says False")


class TestFixture:
    def test_table(self, capsys, monkeypatch):
        real = associations.table1_fixture()
        flipped = dict(real)
        flipped[22] = dataclasses.replace(real[22], assoc_k3=not real[22].assoc_k3)
        monkeypatch.setattr(associations, "table1_fixture", lambda: flipped)
        code, out, err = run(capsys, "table", "--range", "22..30", "--fixture-check")
        assert out == ""
        assert_mismatch(
            code, err, "1 fixture mismatches: d = 22: computed assoc_k3 = True, fixture says False"
        )


class TestMarkingDeterminant:
    # c = (24 + 20) / 11 = 4 gives a Gram of determinant 35, not 24
    def test_in_process(self, capsys, monkeypatch):
        monkeypatch.setitem(markings._ABC_BY_RESIDUE, 2, (3, 1, 20))
        code, out, err = run(capsys, "marking", "--d", "24")
        assert out == ""
        assert_mismatch(code, err, "d = 24: the marking Gram has determinant 35")

    def test_under_optimize(self):
        script = (
            "import sys\n"
            "from peskine import cli, markings\n"
            "markings._ABC_BY_RESIDUE[2] = (3, 1, 20)\n"
            "sys.exit(cli.main(['marking', '--d', '24']))\n"
        )
        src = str(pathlib.Path(peskine.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "det = 24" not in proc.stdout
        assert_mismatch(
            proc.returncode, proc.stderr, "d = 24: the marking Gram has determinant 35"
        )


class TestMarkingGroup:
    def test_no_generator(self, capsys, monkeypatch):
        monkeypatch.setattr(markings, "generator_with_q_value", lambda lat, group, q: None)
        code, out, err = run(capsys, "marking", "--d", "24")
        assert out == ""
        assert_mismatch(code, err, "d = 24: no generator attains the closed form value")

    def test_wrong_unit(self, capsys, monkeypatch):
        # the scan finds (u, s) = (1, 1) at d = 24; q(3g + e_1) is 1/8, not 11/24
        monkeypatch.setattr(lattice, "_unit_scan", lambda order, q, target, diagonal: (3, 1))
        code, out, err = run(capsys, "marking", "--d", "24")
        assert out == ""
        assert_mismatch(code, err, "d = 24: no generator attains the closed form value")

    def test_non_cyclic_where_closed_form_is_cyclic(self, capsys, monkeypatch):
        real = markings.discriminant_group
        monkeypatch.setattr(
            markings,
            "discriminant_group",
            lambda lat: dataclasses.replace(real(lat), invariant_factors=(2, 12)),
        )
        code, out, err = run(capsys, "marking", "--d", "24")
        assert out == ""
        assert_mismatch(
            code, err, "d = 24: the lattice group Z/2 x Z/12 is not the closed form's Z/24"
        )


def verify_appendix_fails_at(capsys, stage, message):
    code, out, err = run(capsys, "verify-appendix")
    assert out.endswith(f"stage {stage}: FAIL\n")
    assert "PASS" not in out
    assert_mismatch(code, err, message)


class TestAppendixCertificates:
    def test_gcd_divisibility(self, capsys, monkeypatch):
        # a quartic the cubic does not divide joins the restricted forms
        real = trivector.restrict_to_subspace
        stray = MultiPoly.variable(0, 6) ** 4
        monkeypatch.setattr(
            trivector, "restrict_to_subspace", lambda sigma, rows: real(sigma, rows) + [stray]
        )
        verify_appendix_fails_at(
            capsys, "cubic", "restricted quartic is not cubic times a linear form"
        )

    def test_euler_relation(self, capsys, monkeypatch):
        monkeypatch.setattr(trivector, "normal_form", lambda poly, basis: poly)
        verify_appendix_fails_at(
            capsys, "smooth-10007", "Euler relation failed against the Groebner basis mod 10007"
        )

    def test_smoothness(self, capsys, monkeypatch):
        monkeypatch.setattr(trivector, "basis_has_finite_zeros", lambda basis, nvars: False)
        verify_appendix_fails_at(capsys, "smooth-10007", "cubic is singular mod 10007")


def test_no_assert_in_the_package():
    """Certificates are explicit raises: `python -O` switches no check off."""
    for path in sorted(pathlib.Path(peskine.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at line(s) {lines}"
