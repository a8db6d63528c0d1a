import json
import random

import pytest

from ybx import catalog, cli, systems
from ybx.errors import (DimensionMismatch, MissingRole, NotInvertible,
                        RoleKindMismatch, UnknownName, UnsupportedTransform)
from ybx.exprparse import parse_scalar as ps
from ybx.scalar import GaussianRational
from ybx.systems import (Equation, MatrixFamily, SystemDef, report_lines,
                         residual, system, verify)
from ybx.tensor import (ColourMatrix, SquareMatrix, flip_matrix,
                        random_matrix, transform, ybc_const)

P = flip_matrix(2)
I4 = SquareMatrix.identity(4)


def W23():
    return catalog.instantiate("W", {"q": 2, "s": 3, "t": 2})


def test_system_lookup():
    assert system("qdouble").name == "QDOUBLE"
    assert len(system("REFLECTION").equations) == 8
    with pytest.raises(UnknownName):
        system("nope")


# ---------------------------------------------------------------------------
# guessed solutions of the double system

def test_flip_sandwich_any_middle():
    ok, rep = verify("QDOUBLE", {"W": P, "X": random_matrix(4, 7), "Z": P})
    assert ok and rep.all_zero


def test_unit_middle_joins_any_two_solutions():
    R1 = W23()
    R2 = catalog.instantiate("Rex2", {"t": 2})
    ok, _ = verify("QDOUBLE", {"W": R1, "X": I4, "Z": R2})
    assert ok


def test_diagonal_triple():
    R = W23()
    ok, _ = verify("QDOUBLE", {"W": R, "X": R, "Z": R})
    assert ok


def test_failing_assignment_reports_witnesses():
    ok, rep = verify("QDOUBLE", {"W": P, "X": random_matrix(4, 7), "Z": W23()})
    assert not ok
    bad = [e for e in rep.equations if not e.zero]
    assert [e.label for e in bad] == ["[X,X,Z]"]
    assert bad[0].nonzero_count > 0
    assert len(bad[0].witnesses) <= systems.WITNESS_CAP
    w = bad[0].witnesses[0]
    assert len(w["row"]) == 3 and len(w["col"]) == 3 and isinstance(w["value"], str)


def test_witness_cap():
    ok, rep = verify("YBE", {"R": random_matrix(4, 7)})
    bad, = rep.equations
    assert bad.nonzero_count > systems.WITNESS_CAP == 32
    assert len(bad.witnesses) == 32


# ---------------------------------------------------------------------------
# braided-group system

def test_qbg_canonical_solutions():
    for R in (W23(), catalog.instantiate("Rex2", {"t": 2})):
        ok, _ = verify("QBG", {"Q": R, "R": R})
        assert ok
        ok, _ = verify("QBG", {"Q": P * R.inverse() * P, "R": R})
        assert ok


def test_qbg_exceptional_lower_triangular():
    R = catalog.instantiate("Rex3", {"x": 1, "y": 2, "z": 3})
    ok, _ = verify("YBE", {"R": R})
    assert ok
    ok, _ = verify("QBG", {"Q": R, "R": R})
    assert ok


# ---------------------------------------------------------------------------
# invariances

def test_scaling_invariance():
    W, X, Z = W23(), catalog.instantiate("X1", catalog.witness("X1")), P
    ok0, _ = verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
    scales = (GaussianRational(3), GaussianRational(0, 2), -GaussianRational(5))
    ok1, _ = verify("QDOUBLE", {"W": W.scale(scales[0]), "X": X.scale(scales[1]),
                                "Z": Z.scale(scales[2])})
    assert ok0 == ok1 is True
    # and on a failing assignment the outcome is also unchanged
    bad = {"W": P, "X": random_matrix(4, 3), "Z": W23()}
    ok2, _ = verify("QDOUBLE", bad)
    ok3, _ = verify("QDOUBLE", {"W": bad["W"].scale(scales[0]),
                                "X": bad["X"].scale(scales[1]),
                                "Z": bad["Z"].scale(scales[2])})
    assert ok2 == ok3 is False


def test_reflection_specializes_to_double_system():
    """The constant reflection system with B = C^+ and the role mapping
    A=W, C=X, D=Z^+ reproduces the double system's zero pattern
    equation-for-equation."""
    cases = [
        {"W": P, "X": random_matrix(4, 5), "Z": P},
        {"W": W23(), "X": I4, "Z": P},
        {"W": P, "X": random_matrix(4, 9), "Z": W23()},
        {"W": random_matrix(4, 1), "X": random_matrix(4, 2), "Z": random_matrix(4, 3)},
    ]
    for case in cases:
        qd = residual("QDOUBLE", case)
        refl = residual("REFLECTION", {
            "A": case["W"], "B": transform(case["X"], "+"),
            "C": case["X"], "D": transform(case["Z"], "+")})
        flags = {e.label: e.zero for e in refl.equations}
        qflags = {e.label: e.zero for e in qd.equations}
        assert flags["[A,A,A]"] == qflags["[W,W,W]"]
        assert flags["[D,D,D]"] == qflags["[Z,Z,Z]"]
        assert flags["[A,C,C]"] == qflags["[W,X,X]"]
        assert flags["[D,B,B]"] == qflags["[X,X,Z]"]
        assert flags["[A,B^+,B^+]"] == qflags["[W,X,X]"]
        assert flags["[D,C^+,C^+]"] == qflags["[X,X,Z]"]
        assert flags["[A,C,B^+]"] == qflags["[W,X,X]"]
        assert flags["[D,B,C^+]"] == qflags["[X,X,Z]"]


# ---------------------------------------------------------------------------
# spectral reflection system

def _spectral_block():
    return {"A": catalog.instantiate("Aspec"), "B": catalog.instantiate("Bspec"),
            "C": catalog.instantiate("Cspec"), "D": catalog.instantiate("Dspec")}


def test_spectral_yang_solution():
    A = catalog.instantiate("Aspec")
    rep = residual("SPECTRAL_REFLECTION", dict(_spectral_block(), D=A, B=A, C=A))
    aaa = next(e for e in rep.equations if e.label == "[[A,A,A]]")
    assert aaa.zero


def test_spectral_block_all_zero():
    rep = residual("SPECTRAL_REFLECTION", _spectral_block())
    assert rep.all_zero, [e.label for e in rep.equations if not e.zero]


def test_spectral_swap_conjugates_pair_up():
    B = catalog.instantiate("Bspec")
    C = catalog.instantiate("Cspec")
    assert transform(B, "dd").base == C.base
    assert transform(C, "dd").base == B.base


def test_colour_commutator_matches_loop_oracle():
    from oracles import ybc_loops
    from ybx.tensor import ybc_colour
    A = catalog.instantiate("Aspec")
    C = catalog.instantiate("Cspec")
    B = catalog.instantiate("Bspec")
    lhs = ybc_colour(A, C, B)
    rhs = ybc_loops(A.at_vars("u1", "u2"), C.at_vars("u1", "u3"),
                    B.at_vars("u2", "u3"))
    assert lhs == rhs


def test_colour_constant_lift_matches_const():
    W = W23()
    lift = ColourMatrix(W)
    rep = residual("SPECTRAL_REFLECTION",
                   {"A": lift, "B": lift, "C": lift, "D": lift})
    con = residual("REFLECTION", {"A": W, "B": W, "C": W, "D": W})
    assert [e.zero for e in rep.equations] == [e.zero for e in con.equations]


# ---------------------------------------------------------------------------
# braided families

def _const_family(members):
    return MatrixFamily([[ColourMatrix(m) for m in row] for row in members])


def test_family_of_flips_solves():
    fam = _const_family([[P, P], [P, P]])
    assignment = {"W": fam, "X": fam, "Y": fam, "Z": fam}
    ok, rep = verify("BRAIDED_FAMILY", assignment)
    assert ok


def test_family_unit_middle_with_diagonal_ends():
    rng = random.Random(4)
    def diag():
        return SquareMatrix([[rng.randint(1, 5) if i == j else 0 for j in range(4)]
                             for i in range(4)])
    Wf = _const_family([[diag(), diag()], [diag(), diag()]])
    Zf = _const_family([[diag(), diag()], [diag(), diag()]])
    ones = _const_family([[I4, I4], [I4, I4]])
    ok, rep = verify("BRAIDED_FAMILY", {"W": Wf, "X": ones, "Y": ones, "Z": Zf})
    assert ok, [e.label for e in rep.equations if not e.zero]


def test_family_negative_case_reports_triple_index():
    mixed = _const_family([[P, W23()], [random_matrix(4, 5), P]])
    ok, rep = verify("BRAIDED_FAMILY", {"W": mixed, "X": mixed, "Y": mixed,
                                        "Z": mixed})
    assert not ok
    bad = [e for e in rep.equations if not e.zero]
    assert bad and all("family" in w for e in bad for w in e.witnesses)
    w = bad[0].witnesses[0]
    assert "|%s) J=(%s) = %s\n" % (",".join(map(str, w["col"])), ",".join(map(str, w["family"])),
                                   w["value"]) in rep.to_text()


def test_family_swap_conjugate_transposes_indices():
    A = ColourMatrix(random_matrix(4, 8))
    B = ColourMatrix(random_matrix(4, 9))
    fam = MatrixFamily([[A, B], [A, A]])
    sw = fam.swap_conjugate()
    assert sw.member(0, 1).base == transform(A, "+").base == (P * A.base * P)
    assert sw.member(1, 0).base == P * B.base * P


# ---------------------------------------------------------------------------
# errors and serialization

def test_missing_role_and_dimension_checks():
    with pytest.raises(MissingRole):
        residual("QDOUBLE", {"W": P, "X": P})
    with pytest.raises(DimensionMismatch, match="role X"):
        residual("QDOUBLE", {"W": P, "X": SquareMatrix.identity(9), "Z": P})
    with pytest.raises(RoleKindMismatch) as err:
        residual("SPECTRAL_REFLECTION", {"A": P, "B": P, "C": P, "D": P})
    assert "role A" in str(err.value) and "ColourMatrix" in str(err.value)
    assert "SquareMatrix" in str(err.value)


def test_not_invertible_names_role_and_transform():
    singular = SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)]
                             for i in range(4)])
    with pytest.raises(NotInvertible) as err:
        # REFLECTION applies no inverses; use a custom system through tags
        from ybx.systems import Equation, SystemDef
        sysdef = SystemDef("TMP", ("R",), (Equation("const", (("R", "-"), ("R", "id"), ("R", "id"))),))
        residual(sysdef, {"R": singular})
    assert "R" in str(err.value) and "-" in str(err.value)


@pytest.mark.parametrize("equation, error, message", [
    (Equation("const", (("R", "id"), ("S", "id"), ("R", "id"))), UnknownName,
     "equation references undeclared role 'S'"),
    (Equation("const", (("R", "dd"), ("R", "id"), ("R", "id"))), UnsupportedTransform,
     "colour-swap tag in a constant equation"),
    (Equation("spectral", (("R", "id"), ("R", "id"), ("R", "id"))), UnknownName,
     "unknown equation kind 'spectral'"),
], ids=["undeclared-role", "dd-in-const", "unknown-kind"])
def test_system_definition_errors(equation, error, message):
    with pytest.raises(error, match=message):
        SystemDef("TMP", ("R",), (equation,))


def test_report_serialization_round_trip():
    ok, rep = verify("QDOUBLE", {"W": P, "X": random_matrix(4, 7), "Z": W23()})
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["all_zero"] is False
    assert "\n".join(["system QDOUBLE"] + report_lines(data, systems.WITNESS_CAP)
                     + ["result: FAIL"]) + "\n" == rep.to_text()
    assert data["system"] == "QDOUBLE"
    assert set(data["assignment"]) == {"W", "X", "Z"}
    # one renderer, two witness caps: 32 for to_text, 4 for the CLI
    ok, rep = verify("YBE", {"R": random_matrix(4, 7)})
    sample = {"index": 1, "verified": ok, "assignment": rep.assignment,
              "report": rep.to_dict()}
    cli_text = cli.render_verify_text({"system": "YBE", "samples": [sample], "verified": ok})
    assert [rep.to_text().count("\n    ("), cli_text.count("\n    (")] == [32, 4]
