"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (no epsilon anywhere): a criterion passes only when
the relevant residuals are identically zero (symbolic runs) or exactly
zero at every sampled rational point.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from oracles import bareiss_rank, ybc_loops
from test_exprparse import MALFORMED
from ybx import catalog, solver, systems
from ybx.errors import ExprSyntaxError, NotInvertible
from ybx.exprparse import parse_scalar
from ybx.scalar import GaussianRational, invert, scalar_str
from ybx.tensor import (ColourMatrix, SquareMatrix, flip_matrix,
                        matrix_from_text, matrix_to_text, random_matrix,
                        transform, ybc_const)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
P = flip_matrix(2)
I4 = SquareMatrix.identity(4)
IM = GaussianRational(0, 1)


def _report(num, text, t0=None):
    stamp = " (%.1fs)" % (time.time() - t0) if t0 is not None else ""
    print("ACCEPTANCE %d: PASS - %s%s" % (num, text, stamp))


def _verify_qd(W, X, Z):
    ok, rep = systems.verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
    return ok, rep


# ---------------------------------------------------------------------------
# 1. constant Yang-Baxter catalog, fully symbolic

def test_criterion_1_ybe_catalog_symbolic():
    t0 = time.time()
    for branch in ("q", "-q^-1"):
        W = catalog.instantiate("W", {"t": branch})
        assert ybc_const(W, W, W).is_zero(), branch
    for name in ("P", "I", "Rex1", "Rex2", "Rex3", "Rdiag"):
        R = catalog.instantiate(name)
        assert ybc_const(R, R, R).is_zero(), name
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, "symbolic [R,R,R]=0 for both W branches and every exceptional R", t0)


# ---------------------------------------------------------------------------
# 2. the full classification list

def _rand(rng, exclude_abs=()):
    while True:
        v = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        if v != 0 and abs(v) not in exclude_abs:
            return GaussianRational(v)


def _w_point(rng, **pins):
    out = dict(pins)
    out.setdefault("q", _rand(rng, exclude_abs=(1,)))
    out.setdefault("s", _rand(rng))
    out.setdefault("t", out["q"] if rng.random() < 0.5 else -invert(out["q"]))
    return out


def _triple_builders():
    """label -> rng -> (W, X, Z) samplers for every enumerated triple."""

    def with_W(build_xz):
        def run(rng):
            wp = _w_point(rng)
            W = catalog.instantiate("W", wp)
            X, Z = build_xz(rng, wp)
            return W, X, Z
        return run

    def x2_of(rng, wp):
        return catalog.sample_assignment(
            "X2", rng, pins={"q": wp["q"], "s": wp["s"], "t": wp["t"]})

    builders = {}
    builders["(W,X1,P)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X1", catalog.sample_assignment("X1", rng)), P))
    builders["(W,X2,P)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X2", x2_of(rng, wp)), P))
    builders["(W,X3,P)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X3", catalog.sample_assignment("X3", rng)), P))
    builders["(W,X1,Z10)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X1", catalog.sample_assignment("X1", rng)),
        catalog.instantiate("Z10", catalog.sample_assignment("Z10", rng))))
    builders["(W,X1,Z11)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X1", catalog.sample_assignment("X1", rng)),
        catalog.instantiate("Z11", catalog.sample_assignment("Z11", rng))))

    def x2_z20(rng, wp):
        xp = x2_of(rng, wp)
        zp = {"q": wp["q"], "t": wp["t"], "b": xp["b"]}
        return (catalog.instantiate("X2", xp), catalog.instantiate("Z20", zp))
    builders["(W,X2,Z20)"] = with_W(x2_z20)

    def z21(rng):
        wp = _w_point(rng, q=IM, t=IM)
        xp = x2_of(rng, wp)
        zp = {"q": IM, "b": xp["b"], "delta": 0,
              "r": _rand(rng)}
        return (catalog.instantiate("W", wp), catalog.instantiate("X2", xp),
                catalog.instantiate("Z21", zp))
    builders["(W@q=i,X2,Z21)"] = z21

    for zname in ("Z30", "Z31", "Z32"):
        builders["(W,X3,%s)" % zname] = with_W(lambda rng, wp, zn=zname: (
            catalog.instantiate("X3", catalog.sample_assignment("X3", rng)),
            catalog.instantiate(zn, catalog.sample_assignment(zn, rng))))

    builders["(W,diag(a,-a,b,b),Z8V)"] = with_W(lambda rng, wp: (
        catalog.instantiate("X3", catalog.sample_assignment(
            "X3", rng, pins={"b": "-a", "d": "c"})),
        catalog.instantiate("Z8V", catalog.sample_assignment("Z8V", rng))))

    def x4_p(rng):
        wp = _w_point(rng, s=GaussianRational(rng.choice((1, -1))))
        xp = catalog.sample_assignment(
            "X4", rng, pins={"q": wp["q"], "s": wp["s"], "t": wp["t"]})
        return (catalog.instantiate("W", wp), catalog.instantiate("X4", xp), P)
    builders["(W@s=+-1,X4,P)"] = x4_p

    def z41(rng):
        s = GaussianRational(rng.choice((1, -1)))
        bz = GaussianRational(rng.choice((1, -1)))
        wp = {"q": IM, "t": IM, "s": s}
        xp = catalog.sample_assignment(
            "X4", rng, pins={"q": IM, "t": IM, "s": s, "b": IM * bz})
        zp = {"b": bz, "a": xp["a"], "c": xp["c"], "p": _rand(rng)}
        return (catalog.instantiate("W", wp), catalog.instantiate("X4", xp),
                catalog.instantiate("Z41", zp))
    builders["(W@q=i,s=+-1,X4,Z41)"] = z41

    def x5_family(zbuild):
        def run(rng):
            wp = {"q": IM, "s": -IM, "t": IM}
            xp = catalog.sample_assignment("X5", rng)
            return (catalog.instantiate("W", wp),
                    catalog.instantiate("X5", xp), zbuild(rng, xp))
        return run
    builders["(W@q=i,s=-i,X5,P)"] = x5_family(lambda rng, xp: P)
    builders["(W@q=i,s=-i,X5,Z51)"] = x5_family(
        lambda rng, xp: catalog.instantiate("Z51", {"eps": -1}))
    builders["(W@q=i,s=-i,X5,Z52)"] = x5_family(
        lambda rng, xp: catalog.instantiate("Z52", {"k": xp["c"] / xp["a"]}))
    builders["(W@q=i,s=-i,X5,Z53)"] = x5_family(
        lambda rng, xp: catalog.instantiate("Z53", {"k": xp["c"] / xp["a"], "eps": 1}))
    builders["(W@q=i,s=-i,X5,Z54)"] = x5_family(
        lambda rng, xp: catalog.instantiate("Z54", {"k": xp["c"] / xp["a"]}))

    def x6_p(rng):
        wp = {"q": IM, "s": 1, "t": IM}
        xp = catalog.sample_assignment("X6", rng)
        return (catalog.instantiate("W", wp), catalog.instantiate("X6", xp), P)
    builders["(W@q=i,s=1,X6,P)"] = x6_p
    return builders


def test_criterion_2_classification_list():
    t0 = time.time()
    rng = random.Random(20260808)
    for label, build in _triple_builders().items():
        for _ in range(10):
            W, X, Z = build(rng)
            ok, rep = _verify_qd(W, X, Z)
            assert ok, "%s failed:\n%s" % (label, rep.to_text())

    # (W, diag(a,a,b,b), any catalog Yang-Baxter Z): cycle the whole catalog
    ybe = catalog.ybe_names()
    for k in range(max(10, len(ybe))):
        wp = _w_point(rng)
        W = catalog.instantiate("W", wp)
        X = catalog.instantiate("X3", catalog.sample_assignment(
            "X3", rng, pins={"b": "a", "d": "c"}))
        zname = ybe[k % len(ybe)]
        Z = catalog.instantiate(zname, catalog.sample_assignment(zname, rng)
                                if catalog.get(zname).params else {})
        ok, rep = _verify_qd(W, X, Z)
        assert ok, "(W,diag(a,a,b,b),%s) failed" % zname

    # the delta != 0 corner of Z21 needs b^2 = -1 and companion s^2 = -1
    for _ in range(3):
        wp = {"q": IM, "t": IM, "s": IM}
        xp = catalog.sample_assignment("X2", rng,
                                       pins={"q": IM, "t": IM, "s": IM, "b": IM})
        zp = {"q": IM, "b": IM, "r": _rand(rng), "delta": _rand(rng)}
        ok, rep = _verify_qd(catalog.instantiate("W", wp),
                             catalog.instantiate("X2", xp),
                             catalog.instantiate("Z21", zp))
        assert ok, rep.to_text()

    # fully symbolic verification for the two flagship triples, both branches
    for branch in ("q", "-q^-1"):
        W = catalog.instantiate("W", {"t": branch})
        X1 = catalog.instantiate("X1")
        Z10 = catalog.instantiate("Z10")
        ok, rep = _verify_qd(W, X1, Z10)
        assert ok, rep.to_text()
        X2 = catalog.instantiate("X2", {"t": branch})
        Z20 = catalog.instantiate("Z20", {"t": branch})
        ok, rep = _verify_qd(W, X2, Z20)
        assert ok, rep.to_text()

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(2, "every enumerated triple verifies at 10 random points each, "
               "plus full symbolic runs for (W,X1,Z10) and (W,X2,Z20)", t0)


# ---------------------------------------------------------------------------
# 3. guessed-solution properties

def test_criterion_3_guessed_solutions():
    t0 = time.time()
    for seed in range(100):
        ok, _ = _verify_qd(P, random_matrix(4, seed), P)
        assert ok, seed
    ybe = catalog.ybe_names()
    mats = {n: catalog.instantiate(n, catalog.witness(n)) for n in ybe}
    for n1 in ybe:
        for n2 in ybe:
            ok, _ = _verify_qd(mats[n1], I4, mats[n2])
            assert ok, (n1, n2)
    for n in ybe:
        R = mats[n]
        ok, _ = _verify_qd(R, R, R)
        assert ok, n
    _report(3, "flip sandwich for 100 seeds; unit middle for all %d^2 pairs; "
               "diagonal triples" % len(ybe), t0)


# ---------------------------------------------------------------------------
# 4. nullspace dimensions and catalog membership

def _system_rows(X):
    from ybx.tensor import embed
    M1 = embed(X, (1, 2)) * embed(X, (1, 3))
    M2 = embed(X, (1, 3)) * embed(X, (1, 2))
    cols = []
    for k in range(4):
        for l in range(4):
            E = embed(SquareMatrix.unit(4, k, l), (2, 3))
            C = M1 * E - E * M2
            cols.append([C.rows[i][j] for i in range(8) for j in range(8)])
    rows = [[cols[u][e] for u in range(16)] for e in range(64)]
    return [[x if isinstance(x, GaussianRational) else x.constant_value()
             for x in row] for row in rows]


def test_criterion_4_nullspace_dimensions_and_membership():
    t0 = time.time()
    for assign, expected in ((("a", 2), ("b", 2), ("c", 3), ("d", 3)), 16), \
                            ((("a", 2), ("b", 2), ("c", 3), ("d", -3)), 8), \
                            ((("a", 1), ("b", 2), ("c", 3), ("d", 5)), 6):
        X = catalog.instantiate("X3", dict(assign))
        space = solver.solve_z_linear(X)
        assert space.dim == expected
        assert bareiss_rank(_system_rows(X)) == space.rank == 16 - expected

    def member(xname, xpins, zname, zpins):
        X = catalog.instantiate(xname, xpins)
        Z = catalog.instantiate(zname, zpins)
        space = solver.solve_z_linear(X)
        assert space.contains(Z), (xname, zname)
        assert space.contains(P), (xname, "P")

    member("X1", catalog.witness("X1"), "Z10", catalog.witness("Z10"))
    member("X1", catalog.witness("X1"), "Z11", catalog.witness("Z11"))
    member("X2", {"q": 2, "s": 3, "t": 2, "a": 1, "b": 5},
           "Z20", {"q": 2, "b": 5, "t": 2})
    member("X3", {"a": 1, "b": 2, "c": 3, "d": 5}, "Z30", catalog.witness("Z30"))
    member("X3", {"a": 1, "b": 2, "c": 3, "d": 5}, "Z31", catalog.witness("Z31"))
    member("X3", {"a": 1, "b": 2, "c": 3, "d": 5}, "Z32", catalog.witness("Z32"))
    member("X3", {"a": 2, "b": 2, "c": 3, "d": -3}, "Z8V", catalog.witness("Z8V"))
    member("X3", {"a": 2, "b": -2, "c": 3, "d": 3},
           "Z8V", {"x": 2, "y": 5, "eps": -1})
    member("X4", {"q": IM, "s": 1, "t": IM, "a": 2, "b": IM, "c": 3},
           "Z41", {"p": 3, "a": 2, "b": 1, "c": 3})
    x5w = {"a": 2, "b": 3, "c": 5}
    k = GaussianRational(Fraction(5, 2))
    member("X5", x5w, "Z51", {"eps": -1})
    member("X5", x5w, "Z52", {"k": k})
    member("X5", x5w, "Z53", {"k": k, "eps": 1})
    member("X5", x5w, "Z54", {"k": k})
    for xname in ("X1", "X2", "X3", "X4", "X5", "X6"):
        X = catalog.instantiate(xname, catalog.witness(xname))
        assert solver.solve_z_linear(X).contains(P), xname
    _report(4, "dimensions 16/8/6 confirmed by the fraction-free oracle; "
               "every cataloged partner lies in its nullspace", t0)


# ---------------------------------------------------------------------------
# 5. symmetry closure

def test_criterion_5_symmetry_closure():
    t0 = time.time()
    triples = [
        (catalog.instantiate("W", {"q": 2, "s": 3, "t": 2}),
         catalog.instantiate("X1", catalog.witness("X1")),
         catalog.instantiate("Z10", catalog.witness("Z10"))),
        (catalog.instantiate("W", {"q": 3, "s": 2, "t": "-q^-1"}),
         catalog.instantiate("X2", {"q": 3, "s": 2, "t": "-q^-1", "a": 1, "b": 2}),
         catalog.instantiate("Z20", {"q": 3, "b": 2, "t": "-q^-1"})),
        (P, random_matrix(4, 12), P),
        (lambda W: (W, W, W))(catalog.instantiate("W", {"q": 2, "s": 5, "t": 2})),
        (catalog.instantiate("W", {"q": IM, "s": -IM, "t": IM}),
         catalog.instantiate("X5", {"a": 2, "b": 3, "c": 5}),
         catalog.instantiate("Z52", {"k": Fraction(5, 2)})),
    ]
    for W, X, Z in triples:
        ok, _ = _verify_qd(W, X, Z)
        assert ok
    rng = random.Random(777)
    applied = 0
    skipped = 0
    for k in range(100):
        spec = solver.random_transform_spec(rng)
        for triple in triples:
            try:
                out = solver.apply_transform(triple, spec)
            except NotInvertible:
                skipped += 1
                continue
            ok, rep = _verify_qd(*out)
            assert ok, spec
            applied += 1
    assert applied >= 400

    # an unavailable inverse raises, never returns a wrong answer
    bad = (P, SquareMatrix([[1 if (i, j) == (0, 0) else 0 for j in range(4)]
                            for i in range(4)]), P)
    with pytest.raises(NotInvertible):
        solver.apply_transform(bad, solver.TransformSpec(
            word=solver.parse_word("dsym2:+-")))
    _report(5, "100 random transformations on 5 verified triples: %d images "
               "verified, %d legitimately skipped for missing inverses"
               % (applied, skipped), t0)


# ---------------------------------------------------------------------------
# 6. braided-group bridge

def test_criterion_6_qbg_bridge():
    t0 = time.time()
    count = 0
    for name in catalog.ybe_names():
        R = catalog.instantiate(name, catalog.witness(name))
        try:
            Rinv = R.inverse()
        except NotInvertible:
            continue
        for Q in (R, P * Rinv * P):
            ok, rep = systems.verify("QBG", {"Q": Q, "R": R})
            assert ok, (name, rep.to_text())
            triple = solver.qbg_to_qdouble(Q, R)
            ok, _ = _verify_qd(*triple)
            assert ok, name
            count += 1
    assert count >= 2 * len(catalog.ybe_names()) - 2
    _report(6, "both canonical braided-group pairs verify and build passing "
               "double triples for %d cases" % count, t0)


# ---------------------------------------------------------------------------
# 7. spectral system

def _investigate_d_candidates():
    """Residual study of the garbled D display of the colour-dependent
    reflection block.

    The sourced display of D lost the operator between its two corner
    factors.  Both plausible insertions (a sum of the two rank-one terms,
    and their product) are evaluated here against all four D-equations of
    the block; neither closes the system.  The admissible form is pinned
    down exactly: the B-equations force D to commute with
    u*(1 (x) raise) + v*(raise (x) 1), which fixes the off-diagonal ratio
    and adds middle-diagonal corrections, and the cubic equation then
    selects the colour-weighted flip (cataloged as Dspec).  The returned
    dict records per-candidate equation flags and the resolution.
    """
    def cm(rows):
        return ColourMatrix(SquareMatrix(
            [[parse_scalar(str(c)) for c in row] for row in rows]))

    A = catalog.instantiate("Aspec")
    B = catalog.instantiate("Bspec")
    C = catalog.instantiate("Cspec")
    candidates = {
        "sum-insertion": cm([["u - v", 0, 0, 0], [0, "u - v", "1 - v/u", 0],
                             [0, "1 - u/v", "u - v", 0], [0, 0, 0, "u - v"]]),
        "product-insertion": cm([["u - v", 0, 0, 0], [0, "u - v", 0, 0],
                                 [0, 0, "u - v + (1 - u/v)*(1 - v/u)", 0],
                                 [0, 0, 0, "u - v"]]),
    }

    def record(name, D):
        rep = systems.residual("SPECTRAL_REFLECTION", {"A": A, "B": B, "C": C, "D": D})
        flags = {e.label: e.zero for e in rep.equations}
        return {"name": name,
                "entries": [[scalar_str(x) for x in row] for row in D.base.rows],
                "equation_flags": flags, "all_zero": all(flags.values())}

    return {"candidates": [record(name, D) for name, D in candidates.items()],
            "resolution": record("colour-weighted flip (catalog entry Dspec)",
                                 catalog.instantiate("Dspec"))}


def test_criterion_7_spectral_block():
    t0 = time.time()
    A = catalog.instantiate("Aspec")
    assert systems.residual("SPECTRAL_REFLECTION",
                            {"A": A, "B": A, "C": A, "D": A}).equations[0].zero
    block = {"A": catalog.instantiate("Aspec"), "B": catalog.instantiate("Bspec"),
             "C": catalog.instantiate("Cspec"), "D": catalog.instantiate("Dspec")}
    rep = systems.residual("SPECTRAL_REFLECTION", block)
    assert rep.all_zero, rep.to_text()

    outcome = _investigate_d_candidates()
    assert outcome["resolution"]["all_zero"]
    assert not any(c["all_zero"] for c in outcome["candidates"])
    with open(os.path.join(GOLDEN, "spectral_reflection.json")) as fh:
        golden = json.load(fh)
    assert outcome == golden
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, "difference-form solution exact; full block all-zero under the "
               "documented corrected D; investigation pinned to golden file", t0)


# ---------------------------------------------------------------------------
# 8. parser and format round-trips

def test_criterion_8_formats_and_errors():
    t0 = time.time()
    for name in catalog.names():
        m = catalog.instantiate(name)
        base = m.base if isinstance(m, ColourMatrix) else m
        text = matrix_to_text(base, var_names=catalog.get(name).var_names)
        again, names2 = matrix_from_text(text)
        assert matrix_to_text(again, var_names=names2) == text, name

    assert len(MALFORMED) >= 50
    for bad in MALFORMED:
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar(bad)
        assert isinstance(err.value.offset, int)
        assert 0 <= err.value.offset <= len(bad)
    _report(8, "catalog export/parse/re-export is byte-identical; %d malformed "
               "inputs all raise positioned syntax errors" % len(MALFORMED), t0)


# ---------------------------------------------------------------------------
# 9. oracle equivalence

def test_criterion_9_loop_oracle_equivalence():
    t0 = time.time()
    for seed in range(50):
        R = random_matrix(4, 1000 + seed)
        S = random_matrix(4, 2000 + seed)
        T = random_matrix(4, 3000 + seed)
        assert ybc_const(R, S, T) == ybc_loops(R, S, T), seed
    _report(9, "leg-embedding commutator equals the six-index loop oracle on "
               "50 random triples", t0)
