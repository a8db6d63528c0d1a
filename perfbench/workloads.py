"""Seeded request lists for the benchmark workloads.

A workload is an endless sequence of rounds.  Round ``k`` of workload
``w`` under seed ``n`` is generated from ``random.Random("w:n:k")``, so
the same seed always yields the same requests, and every round draws
fresh parameter values, so no two requests of a run repeat (the one
exception is the parameter-free spectral block).  Each round holds a
fixed number of requests of each class, so a run that stops after any
whole round sees every class in the same proportion.

A request is either one ``ybx`` command line (run in-process through
``ybx.cli.main``) or, for nullspace membership, which has no command,
one library call.  This module only builds inputs: matrix files are
written into the run's work directory, and the catalog is consulted
only to build the matrices of library-call requests, outside any timed
region.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

NONZERO = [n for n in range(-5, 6) if n]
SCALE_NUMS = [n for n in range(-4, 5) if n]
DENOMS = (1, 1, 2, 3)

# Parameters of the catalog entries whose parameters get pinned here.
PARAMS = {
    "W": ("q", "s", "t"), "X1": ("a", "b", "c", "d"),
    "X2": ("q", "s", "t", "a", "b"), "X3": ("a", "b", "c", "d"),
    "Z10": ("x", "y", "z"), "Z20": ("q", "b", "t"), "Rex2": ("t",),
    "Rex3": ("x", "y", "z"), "Rdiag": ("a", "b", "c", "d"), "I": (),
}

# Catalog entries tagged as constant Yang-Baxter solutions.
YBE_ENTRIES = ("P", "I", "W", "Rex1", "Rex2", "Rex3", "Rdiag", "X3", "Z10",
               "Z11", "Z20", "Z21", "Z30", "Z31", "Z32", "Z8V", "Z41", "Z51",
               "Z52", "Z53", "Z54")

DISCRETE_STEPS = ("t", "dsym1", "dsym2", "dsym3")


@dataclass
class Request:
    """One request and what its check needs.

    ``argv`` is a ``ybx`` command line; ``call`` (used when ``argv`` is
    None) is a zero-argument library call.  ``check`` names the rule in
    ``checks.py`` and ``info`` carries its inputs.  ``defect`` names the
    known defect the request reproduces, if any.
    """

    cls: str
    check: str
    argv: list | None = None
    call: object = None
    info: dict = field(default_factory=dict)
    defect: str | None = None

    def label(self):
        return " ".join(self.argv) if self.argv is not None else self.info["label"]


# ---------------------------------------------------------------------------
# seeded values

def rat(rng, exclude_abs=()):
    """A small nonzero rational, never of absolute value in ``exclude_abs``."""
    while True:
        v = Fraction(rng.choice(NONZERO), rng.choice(DENOMS))
        if abs(v) not in exclude_abs:
            return v


def text(v) -> str:
    """Exact expression text of an int or Fraction."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else "%d/%d" % (v.numerator, v.denominator)


def expressions(pins):
    """Pins given as expression strings or numbers, all as expression strings."""
    return {p: v if isinstance(v, str) else text(v) for p, v in pins.items()}


def spec(name, pins=None):
    """``catalog:NAME[p=e,...]``."""
    if not pins:
        return "catalog:%s" % name
    body = ",".join("%s=%s" % item for item in expressions(pins).items())
    return "catalog:%s[%s]" % (name, body)


def matrix_text(rows) -> str:
    """Matrix-file text (``dim n`` then comma-separated rows) of a numeric grid."""
    lines = ["dim %d" % len(rows)]
    lines += [", ".join(text(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_matrix(path, rows):
    with open(path, "w") as fh:
        fh.write(matrix_text(rows))
    return path


def random_seed(rng):
    return rng.randrange(1, 1 << 31)


def sl2(rng):
    """Integer SL(2) matrix: a product of three elementary shears."""
    m = [[1, 0], [0, 1]]
    for _ in range(3):
        a = rng.randint(-3, 3)
        e = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
        m = [[sum(m[i][k] * e[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    return m


def scale(rng):
    return Fraction(rng.choice(SCALE_NUMS), rng.choice(DENOMS))


def word(rng, lo, hi):
    steps = []
    for _ in range(rng.randint(lo, hi)):
        kind = rng.choice(DISCRETE_STEPS)
        if kind == "t":
            steps.append("t")
        elif kind == "dsym1":
            steps.append("dsym1:" + rng.choice("i#") + rng.choice("i#"))
        else:
            steps.append(kind + ":" + rng.choice("+-") + rng.choice("+-"))
    return ",".join(steps)


def w_pins(rng, **fixed):
    pins = {"q": rat(rng, (1,)), "s": rat(rng), "t": rng.choice(("q", "-q^-1"))}
    pins.update(fixed)
    return pins


def flip_grid(N):
    n = N * N
    rows = [[0] * n for _ in range(n)]
    for i in range(N):
        for j in range(N):
            rows[i * N + j][j * N + i] = 1
    return rows


def kron_grid(a, b):
    na, nb = len(a), len(b)
    return [[a[i1][j1] * b[i2][j2] for j1 in range(na) for j2 in range(nb)]
            for i1 in range(na) for i2 in range(nb)]


def splitmix_matrix(dim, seed, span=3):
    """The documented ``random[dim=n,seed=k]`` matrix, rebuilt independently:
    row-major splitmix64 outputs reduced mod 2*span+1 and shifted."""
    mask = (1 << 64) - 1
    state = seed & mask
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            row.append(z % (2 * span + 1) - span)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# numeric_verify

def _qdouble_triples(rng):
    """Classified quantum-double triples; parameters shared between roles
    are pinned, everything else is sampled by the command."""
    i = "i"
    wp = w_pins(rng)
    x2 = dict(wp, b=rat(rng))
    z20 = {"q": wp["q"], "b": x2["b"], "t": wp["t"]}
    s = rat(rng)
    b = rat(rng)
    spm = rng.choice((1, -1))
    bz = rng.choice((1, -1))
    a4, c4 = rat(rng), rat(rng)
    a5, c5 = rat(rng), rat(rng)
    w5 = {"q": i, "s": "-i", "t": i}
    k5 = text(c5 / a5)
    x5 = {"a": a5, "c": c5}
    w4 = w_pins(rng, s=spm)
    return [
        ("W", {}, "X1", {}, "P", {}),
        ("W", wp, "X2", wp, "P", {}),
        ("W", {}, "X3", {}, "P", {}),
        ("W", {}, "X1", {}, "Z10", {}),
        ("W", {}, "X1", {}, "Z11", {}),
        ("W", wp, "X2", x2, "Z20", z20),
        ("W", {"q": i, "s": s, "t": i}, "X2", {"q": i, "s": s, "t": i, "b": b},
         "Z21", {"q": i, "b": b, "delta": 0}),
        ("W", {}, "X3", {}, rng.choice(("Z30", "Z31", "Z32")), {}),
        ("W", {}, "X3", {"b": "-a", "d": "c"}, "Z8V", {}),
        ("W", w4, "X4", w4, "P", {}),
        ("W", {"q": i, "s": spm, "t": i},
         "X4", {"q": i, "s": spm, "t": i, "a": a4, "b": "i" if bz > 0 else "-i", "c": c4},
         "Z41", {"a": a4, "b": bz, "c": c4}),
        ("W", w5, "X5", x5, "P", {}),
        ("W", w5, "X5", x5, "Z51", {"eps": -1}),
        ("W", w5, "X5", x5, "Z52", {"k": k5}),
        ("W", w5, "X5", x5, "Z53", {"k": k5, "eps": 1}),
        ("W", w5, "X5", x5, "Z54", {"k": k5}),
        ("W", {"q": i, "s": 1, "t": i}, "X6", {}, "P", {}),
        ("W", {}, "X3", {"b": "a", "d": "c"}, rng.choice(YBE_ENTRIES), {}),
    ]


def _numeric_orbit(rng, workdir, tag):
    q, s = rat(rng, (1,)), rat(rng)
    a, b, c = rat(rng), rat(rng), rat(rng)
    choice = rng.randrange(5)
    if choice == 0:
        triple = (spec("W", {"q": q, "s": s, "t": "q"}),
                  spec("X1", {"a": a, "b": b, "c": rat(rng), "d": rat(rng)}),
                  spec("Z10", {"x": rat(rng), "y": rat(rng), "z": rat(rng)}))
    elif choice == 1:
        wp = {"q": q, "s": s, "t": "-q^-1"}
        triple = (spec("W", wp), spec("X2", dict(wp, a=a, b=b)),
                  spec("Z20", {"q": q, "b": b, "t": "-q^-1"}))
    elif choice == 2:
        triple = ("catalog:P", "random[dim=4,seed=%d]" % random_seed(rng), "catalog:P")
    elif choice == 3:
        w = spec("W", {"q": q, "s": s, "t": rng.choice(("q", "-q^-1"))})
        triple = (w, w, w)
    else:
        triple = (spec("W", {"q": "i", "s": "-i", "t": "i"}),
                  spec("X5", {"a": a, "b": b, "c": c}),
                  spec("Z52", {"k": c / a}))
    t_path = write_matrix(os.path.join(workdir, "T%s.mat" % tag), sl2(rng))
    s_path = write_matrix(os.path.join(workdir, "S%s.mat" % tag), sl2(rng))
    argv = ["orbit", "--W", triple[0], "--X", triple[1], "--Z", triple[2],
            "--T", "file:" + t_path, "--S", "file:" + s_path,
            "--omega=" + text(scale(rng)), "--xi=" + text(scale(rng)),
            "--zeta=" + text(scale(rng))]
    w = word(rng, 0, 4)
    if w:
        argv += ["--word", w]
    return Request("orbit", "orbit", argv + ["--check"])


def error_slice(rng):
    """Requests whose expected outcome is a usage error or, for the known
    defects, whatever the documented contract promises."""
    k = random_seed(rng)
    usage = [
        ["verify", "qdouble", "--W", "catalog:Nope", "--X", "catalog:P", "--Z", "catalog:P"],
        ["verify", "qdouble", "--W", "catalog:W[q=2+]", "--X", "catalog:P", "--Z", "catalog:P"],
        ["verify", "qdouble", "--W", "catalog:W[q=1]", "--X", "catalog:P", "--Z", "catalog:P"],
    ]
    out = [Request("error", "usage_error", argv) for argv in usage]
    defects = [
        ("4a samples<1 gives a vacuous PASS",
         ["verify", "qdouble", "--W", "catalog:W", "--X", "catalog:X1", "--Z", "catalog:Z10",
          "--samples", "0"]),
        ("4b random[dim=0] gives a PASS",
         ["verify", "ybe", "--R", "random[dim=0,seed=%d]" % k]),
        ("4c random[dim=3] raises DimensionMismatch",
         ["verify", "ybe", "--R", "random[dim=3,seed=%d]" % k]),
        ("4c mixed dims raise DimensionMismatch",
         ["verify", "qdouble", "--W", "catalog:P", "--X", "random[dim=9,seed=%d]" % k,
          "--Z", "catalog:P"]),
        ("4c a 3x3 --T raises DimensionMismatch",
         ["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
          "--T", "random[dim=3,seed=%d]" % k, "--check"]),
        ("4d constant matrices in SPECTRAL_REFLECTION raise AttributeError",
         ["verify", "spectral_reflection", "--A", "catalog:P", "--B", "catalog:P",
          "--C", "catalog:P", "--D", "catalog:P"]),
        ("4d BRAIDED_FAMILY raises AttributeError",
         ["verify", "braided_family", "--W", "catalog:P", "--X", "catalog:P",
          "--Y", "catalog:P", "--Z", "catalog:P"]),
    ]
    out += [Request("error", "usage_error", argv, defect=name) for name, argv in defects]
    xi = text(Fraction(-rng.choice((1, 2, 4, 5)), 3))
    out.append(Request("error", "orbit",
                       ["orbit", "--W", "catalog:P", "--X", "catalog:I", "--Z", "catalog:P",
                        "--xi", xi, "--check"],
                       defect="orbit --xi with a negative expression is read as an option"))
    return out


def numeric_round(rng, index, workdir, lib):
    reqs = []
    if index == 0:
        reqs += error_slice(rng)
    triples = _qdouble_triples(rng)
    for _ in range(2):
        wn, wp, xn, xp, zn, zp = rng.choice(triples)
        reqs.append(Request("verify", "verify_pass",
                            ["verify", "qdouble", "--W", spec(wn, wp), "--X", spec(xn, xp),
                             "--Z", spec(zn, zp), "--samples", "10",
                             "--seed", str(random_seed(rng))],
                            info={"samples": 10}))
    for _ in range(4):
        reqs.append(Request("verify", "verify_pass",
                            ["verify", "qdouble", "--W", "catalog:P",
                             "--X", "random[dim=4,seed=%d]" % random_seed(rng),
                             "--Z", "catalog:P"], info={"samples": 1}))
    for _ in range(2):
        k = random_seed(rng)
        reqs.append(Request("verify", "ybe_fail9",
                            ["verify", "ybe", "--R", "random[dim=9,seed=%d]" % k],
                            info={"seed": k}))
    for j in range(4):
        reqs.append(_numeric_orbit(rng, workdir, "%d_%d" % (index, j)))
    return reqs


# ---------------------------------------------------------------------------
# symbolic_verify

def _pin_subset(rng, roles, pinnable):
    """Pin a seeded subset of ``pinnable`` in every role that has the
    parameter free; ``roles`` is a list of (entry, fixed pins)."""
    values = {}
    for p in pinnable:
        if rng.random() < 0.5:
            values[p] = rat(rng, (1,) if p == "q" else ())
    out = []
    for name, fixed in roles:
        pins = {p: v for p, v in values.items()
                if p in PARAMS[name] and p not in fixed}
        pins.update(fixed)
        out.append(spec(name, pins))
    return out


def symbolic_round(rng, index, workdir, lib):
    q, mq = {"t": "q"}, {"t": "-q^-1"}
    reqs = []

    def verify(system, role_names, specs):
        argv = ["verify", system]
        for role, sp in zip(role_names, specs):
            argv += ["--" + role, sp]
        reqs.append(Request("verify", "verify_pass", argv + ["--symbolic"],
                            info={"samples": 1}))

    for fixed in (q, mq):
        verify("ybe", "R", _pin_subset(rng, [("W", fixed)], "qs"))
    verify("ybe", "R", _pin_subset(rng, [("Rex2", {})], "t"))
    verify("ybe", "R", _pin_subset(rng, [("Rex3", {})], "xyz"))
    verify("ybe", "R", _pin_subset(rng, [("Rdiag", {})], "abcd"))

    verify("qdouble", "WXZ", _pin_subset(rng, [("W", q), ("X1", {}), ("Z10", {})],
                                         "qsabcdxyz"))
    for fixed in (q, mq):
        verify("qdouble", "WXZ", _pin_subset(rng, [("W", fixed), ("X2", fixed),
                                                    ("Z20", fixed)], "qsab"))
    verify("qdouble", "WXZ", _pin_subset(rng, [("W", q), ("I", {}), ("Rex3", {})], "qsxyz"))
    verify("qdouble", "WXZ", _pin_subset(
        rng, [("W", q), ("X3", {"b": "a", "d": "c"}), ("Rdiag", {})], "qsabcd"))

    verify("qbg", "QR", _pin_subset(rng, [("W", q), ("W", q)], "qs"))
    verify("reflection", "ABCD", _pin_subset(rng, [("W", q), ("I", {}), ("I", {}),
                                                    ("W", mq)], "qs"))
    verify("spectral_reflection", "ABCD",
           ["catalog:Aspec", "catalog:Bspec", "catalog:Cspec", "catalog:Dspec"])

    for _ in range(2):
        fixed = rng.choice((q, mq))
        if rng.random() < 0.5:
            roles = [("W", q), ("X1", {}), ("Z10", {})]
        else:
            roles = [("W", fixed), ("X2", fixed), ("Z20", fixed)]
        specs = _pin_subset(rng, roles, "qsabcdxyz")
        argv = ["orbit", "--W", specs[0], "--X", specs[1], "--Z", specs[2],
                "--word", word(rng, 1, 3)]
        for name in ("omega", "xi", "zeta"):
            if rng.random() < 0.5:
                argv.append("--%s=%s" % (name, text(scale(rng))))
        reqs.append(Request("orbit", "orbit", argv + ["--check"]))
    return reqs


# ---------------------------------------------------------------------------
# nullspace_solve

def _sparse_x(rng, name):
    """An admissible point of X1..X6, every parameter pinned."""
    if name in ("X2", "X4"):
        pins = w_pins(rng, s=rng.choice((1, -1))) if name == "X4" else w_pins(rng)
        pins.update(a=rat(rng), b=rat(rng))
        if name == "X4":
            pins["c"] = rat(rng)
        return pins
    return {p: rat(rng) for p in ("abcd" if name in ("X1", "X3") else "abc")}


def _membership_pairs(rng):
    """(X entry, X pins, Z entry, Z pins) pairs from the nullspace criterion;
    pins are numbers or expression strings."""
    a, b, c, d = rat(rng), rat(rng), rat(rng), rat(rng)
    q, s = rat(rng, (1,)), rat(rng)
    t = rng.choice(("q", "-q^-1"))
    bz = rng.choice((1, -1))
    abcd = {"a": a, "b": b, "c": c, "d": d}
    x5 = {"a": a, "b": b, "c": c}
    k = c / a
    z3 = rng.choice(("Z30", "Z31", "Z32"))
    z3_pins = {"p": rat(rng), "r": rat(rng)}
    if z3 == "Z30":
        z3_pins.update(x=rat(rng), y=rat(rng))
    with_flip = rng.choice(("X1", "X3", "X5"))
    return [
        ("X1", abcd, "Z10", {"x": rat(rng), "y": rat(rng), "z": rat(rng)}),
        ("X1", abcd, "Z11", {"x": rat(rng), "y": rat(rng)}),
        ("X2", {"q": q, "s": s, "t": t, "a": a, "b": b}, "Z20", {"q": q, "b": b, "t": t}),
        ("X3", abcd, z3, z3_pins),
        ("X3", {"a": a, "b": a, "c": c, "d": -c}, "Z8V",
         {"x": rat(rng), "y": rat(rng), "eps": 1}),
        ("X3", {"a": a, "b": -a, "c": c, "d": c}, "Z8V",
         {"x": rat(rng), "y": rat(rng), "eps": rng.choice((1, -1))}),
        ("X4", {"q": "i", "s": rng.choice((1, -1)), "t": "i", "a": a,
                "b": "i" if bz > 0 else "-i", "c": c},
         "Z41", {"p": rat(rng), "a": a, "b": bz, "c": c}),
        ("X5", x5, "Z51", {"eps": -1}),
        ("X5", x5, "Z52", {"k": k}),
        ("X5", x5, "Z53", {"k": k, "eps": 1}),
        ("X5", x5, "Z54", {"k": k}),
        (with_flip, x5 if with_flip == "X5" else abcd, "P", {}),
    ]


def _member_request(lib, pair):
    xname, xpins, zname, zpins = pair
    X = lib.catalog.instantiate(xname, expressions(xpins))
    Z = lib.catalog.instantiate(zname, expressions(zpins))
    label = "solve_z_linear(%s).contains(%s)" % (spec(xname, xpins), spec(zname, zpins))
    solver = lib.solver

    def call():
        return solver.solve_z_linear(X).contains(Z)
    return Request("member", "member", call=call, info={"X": X, "Z": Z, "label": label})


def dim9_grid(rng, index):
    """Structured dim-9 X, cycling with the round index: a multiple of the
    flip, the flip plus a diagonal, a Kronecker product of two unipotent
    3x3 matrices."""
    P = flip_grid(3)
    kind = index % 3
    if kind == 0:
        c = rat(rng, (1,))
        return "flip_scaled", [[c * x for x in row] for row in P]
    if kind == 1:
        return "flip_plus_diag", [[P[i][j] + (rat(rng) if i == j else 0)
                                   for j in range(9)] for i in range(9)]
    u1 = [[1, 0, 0], [rat(rng), 1, 0], [0, 0, 1]]
    u2 = [[1, 0, 0], [0, 1, 0], [0, rat(rng), 1]]
    return "kron_unipotent", kron_grid(u1, u2)


def solve_argv(x_spec):
    return ["solve-z", "--X", x_spec, "--emit-ybe", "--json"]


def nullspace_round(rng, index, workdir, lib):
    reqs = []
    for name in ("X1", "X2", "X3", "X4", "X5", "X6"):
        pins = _sparse_x(rng, name)
        reqs.append(Request("solve_sparse", "solve", solve_argv(spec(name, pins)),
                            info={"catalog": (name, pins)}))
    for _ in range(4):
        k = random_seed(rng)
        reqs.append(Request("solve_dense", "solve",
                            solve_argv("random[dim=4,seed=%d]" % k),
                            info={"grid": splitmix_matrix(4, k)}))
    kind, grid = dim9_grid(rng, index)
    path = write_matrix(os.path.join(workdir, "X9_%d_%s.mat" % (index, kind)), grid)
    reqs.append(Request("solve9", "solve", solve_argv("file:" + path), info={"grid": grid}))
    pairs = _membership_pairs(rng)
    for pair in rng.sample(pairs, 4):
        reqs.append(_member_request(lib, pair))
    return reqs


WORKLOADS = {
    "numeric_verify": numeric_round,
    "symbolic_verify": symbolic_round,
    "nullspace_solve": nullspace_round,
}


def make_round(workload, seed, index, workdir, lib):
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    return WORKLOADS[workload](rng, index, workdir, lib)
