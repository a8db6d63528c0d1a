import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ybx import cli
from ybx.tensor import MAX_MINORS, matrix_from_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify

def test_verify_catalog_triple(capsys):
    code, out, _ = run(capsys, "verify", "qdouble",
                       "--W", "catalog:W[q=2,s=3,t=q]",
                       "--X", "catalog:X1[a=1,b=2,c=1,d=1]",
                       "--Z", "catalog:Z10[x=1,y=2,z=3]")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_flip(capsys):
    code, out, _ = run(capsys, "verify", "ybe", "--R", "catalog:P")
    assert code == 0


def test_verify_failure_exit_code_and_witnesses(capsys):
    code, out, _ = run(capsys, "verify", "qdouble",
                       "--W", "catalog:P", "--X", "random[dim=4,seed=7]",
                       "--Z", "catalog:W[q=2,s=3,t=q]")
    assert code == 1
    assert "FAIL" in out and "NONZERO" in out


def test_verify_sampling_is_seeded(capsys):
    args = ("verify", "qdouble", "--W", "catalog:W[t=q]", "--X", "catalog:X1",
            "--Z", "catalog:P", "--samples", "3", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("sample") == 3 + 1   # 3 samples + overall line


def test_verify_symbolic(capsys):
    code, out, _ = run(capsys, "verify", "qdouble", "--W", "catalog:W[t=q]",
                       "--X", "catalog:X1", "--Z", "catalog:Z10", "--symbolic")
    assert code == 0
    assert "sample 1: PASS" in out


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "nosuchsystem", "--R", "catalog:P")
    assert code == 2
    code, _, err = run(capsys, "verify", "ybe")
    assert code == 2
    code, _, err = run(capsys, "verify", "ybe", "--R", "catalog:W[q=1,s=1,t=1]")
    assert code == 2
    code, _, err = run(capsys, "verify", "ybe", "--Q", "catalog:P")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "qdouble", "--W", "catalog:W", "--X", "catalog:X1",
      "--Z", "catalog:Z10", "--samples", "0"], ""),
    (["verify", "ybe", "--R", "random[dim=0,seed=1]"], ""),
    (["verify", "ybe", "--R", "random[dim=3,seed=1]"], ""),
    (["verify", "qdouble", "--W", "catalog:P", "--X", "random[dim=9,seed=1]",
      "--Z", "catalog:P"], ""),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
      "--T", "random[dim=3,seed=1]", "--check"],
     "role T has dim 3, but the triple needs dim 2"),
    (["verify", "spectral_reflection", "--A", "catalog:P", "--B", "catalog:P",
      "--C", "catalog:P", "--D", "catalog:P"], ""),
    (["verify", "braided_family", "--W", "catalog:P", "--X", "catalog:P",
      "--Y", "catalog:P", "--Z", "catalog:P"], ""),
    (["solve-z", "--X", "catalog:Aspec"],
     "--X needs a constant matrix, got a colour matrix"),
    (["orbit", "--W", "catalog:Aspec", "--X", "catalog:I", "--Z", "catalog:P"],
     "--W needs a constant matrix, got a colour matrix"),
    (["orbit", "--W", "random[dim=3,seed=1]", "--X", "random[dim=3,seed=2]",
      "--Z", "random[dim=3,seed=3]", "--omega", "2"],
     "dim 3 is not a perfect square"),
    (["orbit", "--W", "catalog:P", "--X", "random[dim=9,seed=1]", "--Z", "catalog:P"],
     "role X has dim 9, but role W has dim 4"),
    (["orbit", "--W", "catalog:P", "--X", "random[dim=9,seed=1]", "--Z", "catalog:P",
      "--word", "t", "--check"],
     "role X has dim 9, but role W has dim 4"),
    (["orbit", "--W", "catalog:P", "--X", "random[dim=9,seed=1]", "--Z", "catalog:P",
      "--omega", "2"],
     "role X has dim 9, but role W has dim 4"),
    (["verify", "ybe", "--R", "catalog:W[qq=2,t=q]", "--samples", "2"],
     "unknown parameters"),
    (["verify", "ybe", "--R", "catalog:W[q=1]"], "q^2 != 1"),
    (["verify", "ybe", "--R", "catalog:W[q=2,q=3,t=q]", "--samples", "1"],
     "q given twice in 'catalog:W[q=2,q=3,t=q]'"),
    (["verify", "ybe", "--R", "random[dim=4,seed=7]", "--R", "catalog:P"],
     "--R given twice"),
    (["solve-z", "--X", "random[dim=4,seed=1]", "--X", "catalog:P"], "--X given twice"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
      "--word", "t", "--word", "dsym3:++"], "--word given twice"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
      "--xi", "1", "--xi", "2"], "--xi given twice"),
    (["verify", "ybe", "--R", "random[dim=4,seed=7,seed=1]"],
     "seed given twice in 'random[dim=4,seed=7,seed=1]'"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P", "--xi=",
      "--check"], "end of input"),
    (["verify", "ybe", "--R", "catalog:P", "--samples", "2", "--samples", "3"],
     "--samples given twice"),
    (["verify", "ybe", "--R", "catalog:P", "--seed", "1", "--seed", "2"], "--seed given twice"),
    (["verify", "ybe", "--R", "catalog:P", "--json", "--json"], "--json given twice"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P", "--check",
      "--check"], "--check given twice"),
    (["catalog", "export", "--dir", "@TMP/a", "--dir", "@TMP/b"], "--dir given twice"),
    (["solve-z", "--X", "catalog:P", "--emit-ybe=1"], "--emit-ybe takes no value"),
    (["verify", "ybe", "--R", "catalog:P", "--sym"], "unknown option --sym"),
    (["verify", "ybe", "--R", "catalog:P", "--samples", "x"],
     "--samples needs an integer, got 'x'"),
    (["verify", "--json", "ybe", "--R", "catalog:P"],
     "verify needs a system name, found --json"),
    (["catalog", "show", "W", "--dir", "@TMP"], "unknown option --dir"),
    ([], "missing command (expected one of verify, solve-z, orbit, catalog)"),
    (["nosuch"], "unknown command 'nosuch'"),
    (["verify", "ybe", "--R", "file:@TMP/bad-cell.mat"],
     "--R: line 3, entry 1: expected ')', found 'end of input' at offset 2"),
    (["verify", "ybe", "--R", "file:@TMP/bad-row.mat"],
     "--R: line 3: expected 2 entries per row, got 3"),
    (["verify", "qdouble", "--W", "catalog:W[q=(2,t=q]", "--X", "catalog:I",
      "--Z", "catalog:P"], "--W: pin q: expected ')', found 'end of input' at offset 2"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P", "--xi", "(1"],
     "--xi: expected ')', found 'end of input' at offset 2"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
      "--xi", "2*1" + "0" * 5000], "--xi: integer literal of 5001 digits is too long at offset 2"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
      "--xi", "2^5000*2^5000*2^5000"],
     "cannot print an integer of 15001 bits"),
    (["verify", "ybe", "--R", "catalog:W", "--samples", "100000000000000000000"],
     "--samples must be at most 1000, got 100000000000000000000"),
    (["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P", "--xi", "1/0"],
     "error: --xi: division by zero"),
    (["verify", "ybe", "--R", "catalog:W[q=1/0]"], "error: --R: pin q: division by zero"),
    (["verify", "ybe", "--R", "file:@TMP/zero-cell.mat"],
     "error: --R: line 5, entry 4: division by zero"),
    (["verify", "ybe", "--R", "catalog:W[q=0]"], "error: W: constraint violated: q != 0"),
    (["verify", "ybe", "--R", "random[dim=4,seed=x]"],
     "error: random dim and seed must be integers: 'random[dim=4,seed=x]'"),
    (["verify", "ybe", "--R", "file:@TMP/latin1.mat"],
     "error: --R: @TMP/latin1.mat: byte 0xe9 at offset 11 is not UTF-8"),
    (["verify", "ybe", "--R", "file:@TMP/d2.mat"], "error: role R: dim 2 is not a perfect square"),
    (["solve-z", "--X", "file:@TMP/d2.mat"], "error: role X: dim 2 is not a perfect square"),
    (["verify", "qdouble", "--W", "file:@TMP/d2.mat", "--X", "file:@TMP/d2.mat",
      "--Z", "file:@TMP/d2.mat"], "error: role W: dim 2 is not a perfect square"),
], ids=["samples-0", "dim-0", "dim-3", "mixed-dims", "3x3-T",
        "const-in-colour", "const-in-family", "colour-to-solve-z", "colour-to-orbit",
        "non-square-triple", "orbit-mixed-dims", "orbit-mixed-dims-check",
        "orbit-mixed-dims-omega", "unknown-pin-sampled", "pins-break-constraint",
        "repeated-pin", "repeated-role", "repeated-solve-z-X", "repeated-word",
        "repeated-scale", "repeated-random-key", "empty-scale",
        "repeated-samples", "repeated-seed", "repeated-json", "repeated-check",
        "repeated-dir", "flag-with-value", "option-prefix", "samples-not-int",
        "option-before-positional", "dir-outside-export", "no-command", "unknown-command",
        "file-cell-syntax", "file-row-shape", "pin-syntax", "scale-syntax", "long-literal",
        "long-printed-integer", "samples-too-many", "zero-divisor-scale", "zero-divisor-pin",
        "zero-divisor-file", "zero-divisor-sampled", "random-seed-not-int", "file-not-utf8",
        "verify-dim-2", "solve-z-dim-2", "qdouble-dim-2"])
def test_specification_errors_exit_2(capsys, tmp_path, argv, message):
    # a bad cell, then a short row, on line 3 after a blank or comment line
    (tmp_path / "bad-cell.mat").write_text("dim 2\n\n(q, 0\n0, 1\n")
    (tmp_path / "bad-row.mat").write_text("dim 2\n# rows\n1, 0, 0\n0, 1\n")
    # a zero divisor in line 5, entry 4
    (tmp_path / "zero-cell.mat").write_text("dim 4\n1, 0, 0, 0\n0, 1, 0, 0\n#\n0, 0, 1, 1/0\n"
                                            "0, 0, 0, 1\n")
    # Latin-1 text, not UTF-8: the byte of the e-acute at offset 11
    (tmp_path / "latin1.mat").write_bytes(b"dim 1\n# caf\xe9\n1\n")
    (tmp_path / "d2.mat").write_text("dim 2\n1, 0\n0, 1\n")
    code, out, err = run(capsys, *[a.replace("@TMP", str(tmp_path)) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message.replace("@TMP", str(tmp_path)) in err
    assert "set_int_max_str_digits" not in err


def test_matrix_files_are_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "accent.mat"
    path.write_bytes("dim 1\n# café\n1\n".encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
                   os.path.abspath(__file__))), "src"))
    proc = subprocess.run([sys.executable, "-m", "ybx.cli", "verify", "ybe",
                           "--R", "file:%s" % path], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "overall: PASS (1 sample)" in proc.stdout


@pytest.mark.parametrize("form", ["pin", "file", "scale"])
def test_deep_nesting_is_a_specification_error(capsys, tmp_path, form):
    deep = "(" * 3000 + "2" + ")" * 3000
    path = tmp_path / "deep.mat"
    path.write_text("dim 2\n%s, 0\n0, 1\n" % deep)
    base = ["--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P"]
    argv = {"pin": ["verify", "ybe", "--R", "catalog:W[q=%s,t=q]" % deep, "--samples", "1"],
            "file": ["verify", "ybe", "--R", "file:%s" % path],
            "scale": ["orbit"] + base + ["--xi", deep]}[form]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    source = {"pin": "--R: pin q", "file": "--R: line 2, entry 1", "scale": "--xi"}[form]
    assert err.startswith("error: %s: expression nested deeper than 100 at offset 100" % source)


@pytest.mark.parametrize("power", ["(q+1)^2000", "(1+i)^99999999", "(q+s+t+1)^64",
                                   "((q+1)^100)^100"])
def test_oversized_power_is_a_specification_error(capsys, power):
    code, out, err = run(capsys, "orbit", "--W", "catalog:P", "--X", "catalog:I",
                         "--Z", "catalog:P", "--xi", power)
    assert code == 2 and out == ""
    assert err.startswith("error: --xi: power too large")


def test_oversized_product_is_a_specification_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--W", "catalog:P", "--X", "catalog:I",
                         "--Z", "catalog:P", "--xi", "(q+1)^100*(s+1)^100*(t+1)^100")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: --xi: product too large: the result could pass 20000 terms"
                          " at offset 19")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"],
                                  ["solve-z", "--help"], ["orbit", "--help"],
                                  ["catalog", "--help"]],
                         ids=["-h", "--help", "verify", "solve-z", "orbit", "catalog"])
def test_help_prints_the_synopsis(capsys, argv):
    assert run(capsys, *argv) == (0, cli.__doc__, "")


@pytest.mark.parametrize("dim", [65, 10**12])
def test_random_dim_is_bounded_without_allocating(capsys, monkeypatch, dim):
    def refuse(*args):
        raise AssertionError("random_matrix called for dim %d" % dim)
    monkeypatch.setattr(cli, "random_matrix", refuse)
    code, out, err = run(capsys, "verify", "ybe", "--R", "random[dim=%d,seed=1]" % dim)
    assert code == 2 and out == ""
    assert err.startswith("error: random dim must be at most 64")


def test_solve_z_json_matches_golden(capsys, tmp_path, monkeypatch):
    """solve-z --json --emit-ybe bytes on a dense dim-4 X, a Gaussian
    catalog point, the dim-9 flip and a Kronecker product of two
    unipotent 3x3 matrices; the golden holds the matrix files too."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "solve_z.json")) as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    assert len(golden["cases"]) == 4
    for case in golden["cases"]:
        assert run(capsys, *case["argv"]) == (0, case["stdout"], "")


def test_solve_z_dense_dim_9_bytes(capsys):
    """The dense dim-9 X whose 729x81 system has rank 80, byte for byte."""
    code, out, err = run(capsys, "solve-z", "--X", "random[dim=9,seed=4]", "--json")
    assert (code, err, len(out.encode())) == (0, "", 387)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d022583bcd845a23c285cd78f58749e998c536163c70277e06a64d67d0c76880")


def test_verify_json_round_trips_to_text(capsys):
    args = ("verify", "qdouble", "--W", "catalog:P",
            "--X", "random[dim=4,seed=7]", "--Z", "catalog:W[q=2,s=3,t=q]")
    code_t, text, _ = run(capsys, *args)
    code_j, js, _ = run(capsys, *args, "--json")
    assert code_t == code_j == 1
    data = json.loads(js)
    assert cli.render_verify_text(data) == text


# ---------------------------------------------------------------------------
# solve-z

def test_solve_z_six_vertex(capsys):
    code, out, _ = run(capsys, "solve-z", "--X", "catalog:X3[a=1,b=2,c=3,d=5]")
    assert code == 0
    assert "dimension 6" in out


def test_solve_z_emit_ybe(capsys):
    code, out, _ = run(capsys, "solve-z", "--X", "catalog:X3[a=1,b=2,c=3,d=5]",
                       "--emit-ybe")
    assert code == 0
    assert "unknowns: c1 c2 c3 c4 c5 c6" in out
    assert " = 0" in out


def test_solve_z_reads_a_zero_quotient_as_zero(capsys, tmp_path):
    path = tmp_path / "flip.mat"
    path.write_text("dim 4\nvars q\n1, 0/(q+1), 0, 0\n0, 0, 1, 0\n0, 1, 0, 0\n0, 0, 0, 1\n")
    code, out, err = run(capsys, "solve-z", "--X", "file:%s" % path)
    assert (code, err) == (0, "")
    flip = run(capsys, "solve-z", "--X", "catalog:P")[1]
    assert out.split("\n", 1)[1] == flip.split("\n", 1)[1]


def test_solve_z_refuses_x_above_dim_16_before_solving(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_z_linear called")
    monkeypatch.setattr(cli.solver, "solve_z_linear", refuse)
    code, out, err = run(capsys, "solve-z", "--X", "random[dim=25,seed=1]")
    assert (code, out) == (2, "")
    assert err == "error: --X must have dim at most 16 for solve-z, got 25\n"


def test_solve_z_symbolic_is_usage_error(capsys, tmp_path):
    path = tmp_path / "sym.mat"
    path.write_text("dim 2\nvars a\na, 0\n0, 1\n")
    code, _, err = run(capsys, "solve-z", "--X", "file:%s" % path)
    assert code == 2
    assert "numeric" in err


# ---------------------------------------------------------------------------
# orbit

def test_orbit_outer_swap_with_check(capsys):
    code, out, _ = run(capsys, "orbit",
                       "--W", "catalog:W[q=2,s=3,t=q]",
                       "--X", "catalog:X1[a=1,b=2,c=1,d=1]",
                       "--Z", "catalog:P", "--word", "dsym3:++", "--check")
    assert code == 0
    assert "check: PASS" in out
    assert out.count("dim 4") == 3


def test_orbit_empty_word_echoes(capsys):
    code, out, _ = run(capsys, "orbit", "--W", "catalog:P", "--X", "catalog:P",
                       "--Z", "catalog:P")
    assert code == 0
    assert out.count("dim 4") == 3


def test_orbit_negative_scales(capsys):
    base = ("orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P")
    code, out, _ = run(capsys, *base, "--xi", "-1/3", "--check")
    assert code == 0
    assert "check: PASS" in out and "-1/3, 0, 0, 0" in out
    code, out, _ = run(capsys, *base, "--omega=-1/2", "--check")
    assert code == 0
    assert "check: PASS" in out


def test_orbit_singular_middle_is_math_failure(capsys, tmp_path):
    path = tmp_path / "sing.mat"
    path.write_text("dim 4\n" + "\n".join(
        ", ".join("1" if (i, j) == (0, 0) else "0" for j in range(4))
        for i in range(4)) + "\n")
    code, _, err = run(capsys, "orbit", "--W", "catalog:P",
                       "--X", "file:%s" % path, "--Z", "catalog:P",
                       "--word", "dsym2:+-")
    assert code == 1
    assert "dsym2" in err


def test_orbit_refuses_a_dense_symbolic_inverse_past_the_minor_bound(capsys, tmp_path):
    path = tmp_path / "dense16.mat"
    path.write_text("dim 16\nvars q\n" + "".join(
        ", ".join("q" if i == j else str((5 * i + 3 * j) % 7 - 3) for j in range(16)) + "\n"
        for i in range(16)))
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--W", "file:%s" % path, "--X", "file:%s" % path,
                         "--Z", "file:%s" % path, "--word", "dsym2:+-")
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == ("error: step dsym2: a symbolic det or inverse must expand at most %d "
                   "minors, this one needs more\n" % MAX_MINORS)


# ---------------------------------------------------------------------------
# catalog

def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [line.split()[0] for line in out.splitlines() if line and not line.startswith(" ")]
    assert len(names) >= 25
    assert "Z52" in names and "P" in names


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "W")
    assert code == 0
    assert "t = q or t = -q^-1" in out
    assert "q^2 != 1" in out
    code, _, err = run(capsys, "catalog", "show", "NOPE")
    assert code == 2


def test_catalog_export(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "export", "--dir", str(tmp_path))
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) >= 25
    for fname in files:
        with open(tmp_path / fname) as fh:
            matrix_from_text(fh.read())


def test_verify_json_matches_golden_schema(capsys):
    """The pinned report for a fully deterministic command: schema and
    bytes both frozen."""
    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "verify_report.json")
    code, out, _ = run(capsys, "verify", "qdouble", "--W", "catalog:P",
                       "--X", "random[dim=4,seed=7]",
                       "--Z", "catalog:W[q=2,s=3,t=q]", "--json")
    assert code == 1
    with open(golden_path) as fh:
        golden = fh.read()
    assert out == golden
    data = json.loads(out)
    assert set(data) == {"command", "system", "symbolic", "samples", "verified"}
    sample = data["samples"][0]
    assert set(sample) == {"index", "assignment", "verified", "report"}
    assert set(sample["report"]) == {"system", "assignment", "all_zero", "equations"}
    eq = sample["report"]["equations"][2]
    assert set(eq) == {"label", "zero", "nonzero_count", "witnesses"}
    assert set(eq["witnesses"][0]) == {"row", "col", "value"}


def test_random_spec_reproducible(capsys, tmp_path):
    code, out1, _ = run(capsys, "orbit", "--W", "catalog:P",
                        "--X", "random[dim=4,seed=11]", "--Z", "catalog:P")
    code, out2, _ = run(capsys, "orbit", "--W", "catalog:P",
                        "--X", "random[dim=4,seed=11]", "--Z", "catalog:P")
    assert out1 == out2


# ---------------------------------------------------------------------------
# the exit contract over generated command lines

_ROLES = {"ybe": "R", "qbg": "QR", "qdouble": "WXZ", "reflection": "ABCD",
          "spectral_reflection": "ABCD", "braided_family": "WXYZ", "nosuch": "R"}
_GOOD_SPECS = ["catalog:P", "catalog:I", "catalog:W", "catalog:W[t=q]",
               "catalog:W[q=2,s=3,t=q]", "catalog:X1", "catalog:Z10", "catalog:Rex2",
               "catalog:Aspec", "catalog:Cspec", "random[dim=4,seed=7]",
               "random[dim=4,seed=3]", "file:@DIR/good.mat"]
_BAD_SPECS = ["catalog:W[q=1]", "catalog:W[qq=2]", "catalog:Nope", "catalog:W[q",
              "catalog:W[q]", "random[dim=4]", "random[seed=1]", "random[dim=x,seed=1]",
              "random[dim=2,seed=1,k=3]", "random[dim=-1,seed=1]", "random[dim=0,seed=2]",
              "random[dim=1,seed=3]", "random[dim=3,seed=4]", "file:@DIR/bad.mat",
              "file:@DIR/missing.mat", "nonsense"]
# specs that repeat a catalog pin or a random key, with the repeated name
_REPEATED_SPECS = [("catalog:W[q=2,q=3,t=q]", "q"), ("catalog:X1[a=1,b=2,a=1]", "a"),
                   ("random[dim=4,seed=7,seed=1]", "seed"), ("random[dim=4,dim=4,seed=1]", "dim")]
# three well-formed specs to every malformed one
_SPECS = st.sampled_from(_GOOD_SPECS * 3 + _BAD_SPECS)
_SCALES = st.sampled_from(["2", "-1/3", "i", "q", "0", "1/0", "(", ""])
_WORDS = st.sampled_from(["", "t", "dsym1:i#", "dsym2:+-", "dsym3:++", "t,dsym1:#i",
                          "dsym1:zz", "bogus"])


def _first_repeat(opts, names, required, first_spec):
    """Message fragment for the first fault of a command line whose options
    are ``opts`` (NAME, VALUE pairs, VALUE None for a flag; of them ``names``
    are known and ``required`` must be given) and whose first parsed spec is
    ``first_spec``, when that fault is a repeated name; None otherwise.
    Every option is read before --samples is checked and any spec parsed."""
    seen = set()
    for name, _ in opts:
        if name not in names:
            return None
        if name in seen:
            return "--%s given twice" % name
        seen.add(name)
    if not seen >= set(required) or int(dict(opts).get("samples", 1)) < 1:
        return None
    for spec, name in _REPEATED_SPECS:
        if first_spec == spec:
            return "%s given twice in %r" % (name, spec)
    return None


@st.composite
def _argv(draw):
    """(argv, fragment): a command line and, when its first fault is a
    repeated option, catalog pin or random key, the fragment its error
    message must contain."""
    cmd = draw(st.sampled_from(["verify", "solve-z", "orbit", "catalog"]))
    if cmd == "catalog":
        action = draw(st.sampled_from(["list", "show"]))
        name = draw(st.sampled_from([[], ["W"], ["Aspec"], ["Nope"]]))
        return ["catalog", action] + (name if action == "show" else []), None
    repeat = draw(st.sampled_from([None, None, "option", "spec"]))
    first_spec = draw(st.sampled_from([s for s, _ in _REPEATED_SPECS]) if repeat == "spec"
                      else _SPECS)

    def flags(*names):
        """None, one or all of the flags ``names``, as (NAME, None) pairs."""
        chosen = draw(st.sampled_from([[]] + [[name] for name in names] + [list(names)]))
        return [(name, None) for name in chosen]

    if cmd == "solve-z":
        argv, names, required = ["solve-z"], ("X", "emit-ybe", "json"), ("X",)
        opts = [("X", first_spec)] + flags("emit-ybe", "json")
        again = [("X", draw(_SPECS)), ("emit-ybe", None), ("json", None)]
    elif cmd == "orbit":
        argv = ["orbit"]
        names = ("W", "X", "Z", "omega", "xi", "zeta", "word", "check")
        required = ("W", "X", "Z")
        opts = [("W", first_spec)] + [(role, draw(_SPECS)) for role in "XZ"]
        # two scales drawn independently may repeat a name
        for name in draw(st.lists(st.sampled_from(["omega", "xi", "zeta"]), max_size=2)):
            opts.append((name, draw(_SCALES)))
        opts += [("word", draw(_WORDS))] + flags("check")
        again = [("W", "catalog:P"), ("xi", "2"), ("word", "t"), ("check", None)]
    else:
        system = draw(st.sampled_from(sorted(_ROLES)))
        argv, required = ["verify", system], _ROLES[system]
        names = tuple(required) + ("samples", "seed", "symbolic", "json")
        roles = list(required)
        change = draw(st.sampled_from(["", "", "drop", "unknown"]))
        if change == "drop":
            roles.pop()
        elif change == "unknown":
            roles.append("Q" if "Q" not in roles else "Y")
        opts = [(role, first_spec if k == 0 else draw(_SPECS)) for k, role in enumerate(roles)]
        if draw(st.booleans()):
            opts.append(("samples", str(draw(st.integers(-1, 3)))))
        if draw(st.booleans()):
            opts.append(("seed", str(draw(st.integers(0, 9)))))
        opts += flags("symbolic", "json")
        again = [(roles[0], draw(_SPECS))] if roles else []
        again += [("samples", "2"), ("seed", "1"), ("symbolic", None), ("json", None)]
        if system == "nosuch":
            names = ()   # the system name is checked first
    if repeat == "option":
        opts.insert(draw(st.integers(0, len(opts))), draw(st.sampled_from(again)))
    fragment = _first_repeat(opts, names, required, first_spec if opts else None)
    for name, value in opts:
        argv += ["--%s" % name] + ([] if value is None else [value])
    return argv, fragment


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs")
    (path / "good.mat").write_text("dim 4\n" + "\n".join(
        ", ".join("1" if i == j else "0" for j in range(4)) for i in range(4)) + "\n")
    (path / "bad.mat").write_text("dim 4\n1, 2\n")
    return str(path)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=_argv())
def test_generated_argv_keep_the_exit_contract(matrix_dir, case):
    argv, fragment = case
    argv = [a.replace("@DIR", matrix_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "(0 samples)" not in out.getvalue(), argv
    assert code != 2 or err.getvalue(), argv
    if fragment:
        assert code == 2 and out.getvalue() == "", argv
        assert fragment in err.getvalue(), argv
