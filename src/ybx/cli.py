"""The `ybx` command line: exact tools for Yang-Baxter systems.

    ybx verify SYSTEM --ROLE SPEC ... [--samples N] [--seed K] [--symbolic] [--json]
    ybx solve-z --X SPEC [--emit-ybe] [--json]
    ybx orbit --W SPEC --X SPEC --Z SPEC [--word WORD] [--T SPEC --S SPEC]
              [--omega E --xi E --zeta E] [--check]
    ybx catalog list | show NAME | export --dir DIR
    ybx -h/--help

Matrix specs: ``catalog:NAME[param=expr,...]``, ``file:PATH`` or
``random[dim=n,seed=k]``.  Exit codes: 0 success, 1 mathematical failure,
2 usage or specification error.
"""

from __future__ import annotations

import json
import os
import random
import sys

from . import catalog, solver, systems
from .errors import (DivisionByZero, ExprSyntaxError, NotInvertible, RoleKindMismatch,
                     YbxError, prefixed)
from .scalar import scalar_str
from .tensor import SquareMatrix, matrix_from_text, matrix_to_text, random_matrix
from . import exprparse

DEFAULT_SAMPLES = 10
DEFAULT_SEED = 20211997
# Far above any dim whose commutator finishes quickly; a typo such as
# dim=10**12 must not allocate dim^2 cells.
MAX_RANDOM_DIM = 64
# Every sample's report is kept until the run ends, so a typo such as
# --samples 10**20 must not run for ever and grow without bound.
MAX_SAMPLES = 1000
# A dense solve-z takes about 0.24 s at dim 9 and 7.9 s at dim 16 on a
# 2-vCPU Intel Xeon guest (Python 3.11), and its system grows as dim^3.
MAX_SOLVE_DIM = 16


class UsageError(YbxError):
    pass


def _pairs(body, text, shape):
    """{NAME: VALUE} of the comma-separated NAME=VALUE items of ``body``,
    the bracketed list of spec ``text``; ``shape`` shows the expected item
    in the error message.  Each name may be given once."""
    pairs = {}
    for item in body.split(","):
        if "=" not in item:
            raise UsageError("expected %s in %r" % (shape, text))
        key, val = (part.strip() for part in item.split("=", 1))
        if key in pairs:
            raise UsageError("%s given twice in %r" % (key, text))
        pairs[key] = val
    return pairs


class _MatrixSpec:
    def __init__(self, text):
        if text.startswith("catalog:"):
            self.kind = "catalog"
            self.name, bracket, args = text[len("catalog:"):].partition("[")
            if bracket and not args.endswith("]"):
                raise UsageError("malformed catalog spec %r" % text)
            self.pins = _pairs(args[:-1], text, "param=expr") if args[:-1] else {}
        elif text.startswith("file:"):
            self.kind = "file"
            self.path = text[len("file:"):]
        elif text.startswith("random[") and text.endswith("]"):
            self.kind = "random"
            pairs = _pairs(text[len("random["):-1], text, "dim=/seed=")
            for key in pairs:
                if key not in ("dim", "seed"):
                    raise UsageError("unknown random parameter %r" % key)
            if "dim" not in pairs or "seed" not in pairs:
                raise UsageError("random spec needs dim and seed: %r" % text)
            try:
                self.dim, self.seed = int(pairs["dim"]), int(pairs["seed"])
            except ValueError:
                raise UsageError("random dim and seed must be integers: %r" % text) from None
            if self.dim < 1:
                raise UsageError("random dim must be at least 1: %r" % text)
            if self.dim > MAX_RANDOM_DIM:
                raise UsageError("random dim must be at most %d: %r" % (MAX_RANDOM_DIM, text))
        else:
            raise UsageError("unrecognised matrix spec %r" % text)

    def free_params(self):
        return [p for p in catalog.get(self.name).params if p not in self.pins]

    def resolve(self, rng, symbolic):
        """(matrix, provenance string).  For catalog specs with free
        parameters, a random admissible point is sampled from ``rng``
        unless ``symbolic`` keeps them symbolic."""
        if self.kind == "file":
            try:
                with open(self.path, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError("%s: byte 0x%02x at offset %d is not UTF-8"
                                 % (self.path, exc.object[exc.start], exc.start)) from None
            matrix, _ = matrix_from_text(text)
            return matrix, "file:%s" % self.path
        if self.kind == "random":
            return random_matrix(self.dim, self.seed), \
                "random[dim=%d,seed=%d]" % (self.dim, self.seed)
        entry = catalog.get(self.name)
        if symbolic or not self.free_params():
            assignment = dict(self.pins)
            matrix = catalog.instantiate(self.name, assignment)
            shown = assignment
        else:
            shown = catalog.sample_assignment(self.name, rng, pins=self.pins)
            matrix = catalog.instantiate(self.name, shown)
        args = ",".join("%s=%s" % (p, shown[p] if isinstance(shown[p], str)
                                   else scalar_str(shown[p]))
                        for p in entry.params if p in shown)
        desc = "catalog:%s[%s]" % (self.name, args) if args else "catalog:%s" % self.name
        return matrix, desc


def _positional(tokens, missing):
    """(positional, the rest); positionals come before every option."""
    if not tokens or tokens[0].startswith("--"):
        raise UsageError(missing + (", found %s" % tokens[0] if tokens else ""))
    return tokens[0], tokens[1:]


def _options(tokens, names, flags=(), required=()):
    """{NAME: VALUE} of a command's --NAME VALUE and --NAME=VALUE tokens,
    with True for each bare --FLAG in ``flags``.  A value is the next
    token whatever it looks like, so --xi -1/3 works.  Only exact names
    are known, each may be given once, and every name in ``required``
    must be given."""
    values = {}
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if not tok.startswith("--"):
            raise UsageError("unexpected argument %r" % tok)
        name, eq, value = tok[2:].partition("=")
        if name not in names and name not in flags:
            raise UsageError("unknown option --%s (expected %s)"
                             % (name, ", ".join("--" + n for n in names + flags) or "no option"))
        if name in values:
            raise UsageError("--%s given twice" % name)
        if name in flags:
            if eq:
                raise UsageError("--%s takes no value" % name)
            value = True
        elif not eq:
            if k + 1 >= len(tokens):
                raise UsageError("missing value after --%s" % name)
            k += 1
            value = tokens[k]
        values[name] = value
        k += 1
    for name in required:
        if name not in values:
            raise UsageError("role --%s not supplied" % name)
    return values


def _int_option(values, name, default):
    try:
        return int(values.get(name, default))
    except ValueError:
        raise UsageError("--%s needs an integer, got %r" % (name, values[name]))


def _named(option, call, *args):
    """call(*args), naming ``option`` in a syntax, zero-divisor or
    file-format error of the text it was given."""
    try:
        return call(*args)
    except (ExprSyntaxError, DivisionByZero, ValueError) as exc:
        raise prefixed(exc, option)


def _constant_matrix(role, spec):
    """(matrix, provenance) of a role that needs a constant matrix."""
    matrix, desc = _named("--" + role, spec.resolve, None, True)
    if not isinstance(matrix, SquareMatrix):
        raise RoleKindMismatch("--%s needs a constant matrix, got a colour matrix" % role)
    return matrix, desc


# ---------------------------------------------------------------------------
# verify

def render_verify_text(data) -> str:
    lines = ["verify %s" % data["system"]]
    for sample in data["samples"]:
        lines.append("sample %d: %s" % (sample["index"],
                                        "PASS" if sample["verified"] else "FAIL"))
        # the roles in the order they were given, not the system's order
        lines.extend(systems.report_lines(dict(sample["report"],
                                               assignment=sample["assignment"]), 4))
    lines.append("overall: %s (%d sample%s)"
                 % ("PASS" if data["verified"] else "FAIL",
                    len(data["samples"]), "" if len(data["samples"]) == 1 else "s"))
    return "\n".join(lines) + "\n"


def cmd_verify(tokens):
    name, tokens = _positional(tokens, "verify needs a system name")
    sysdef = systems.system(name)
    values = _options(tokens, sysdef.roles + ("samples", "seed"), ("symbolic", "json"),
                      sysdef.roles)
    count = _int_option(values, "samples", DEFAULT_SAMPLES)
    rng = random.Random(_int_option(values, "seed", DEFAULT_SEED))
    if count < 1:
        raise UsageError("--samples must be at least 1, got %d" % count)
    if count > MAX_SAMPLES:
        raise UsageError("--samples must be at most %d, got %d" % (MAX_SAMPLES, count))
    symbolic = "symbolic" in values
    roles = {role: _MatrixSpec(text) for role, text in values.items() if role in sysdef.roles}
    sampled = any(spec.kind == "catalog" and spec.free_params()
                  for spec in roles.values())
    runs = 1 if (symbolic or not sampled) else count
    samples = []
    all_ok = True
    for run in range(runs):
        assignment = {}
        provenance = {}
        for role, spec in roles.items():
            matrix, desc = _named("--" + role, spec.resolve, rng, symbolic)
            assignment[role] = matrix
            provenance[role] = desc
        ok, rep = systems.verify(sysdef, assignment, provenance=provenance)
        all_ok = all_ok and ok
        samples.append({"index": run + 1, "assignment": provenance,
                        "verified": ok, "report": rep.to_dict()})
    data = {"command": "verify", "system": sysdef.name,
            "symbolic": symbolic, "samples": samples,
            "verified": all_ok}
    sys.stdout.write(json.dumps(data, indent=2) + "\n" if "json" in values
                     else render_verify_text(data))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# solve-z

def render_solve_text(data) -> str:
    lines = ["solve-z %s" % data["X"]]
    lines.append("dimension %d (rank %d)" % (data["dimension"], data["rank"]))
    for k, mat in enumerate(data["basis"]):
        lines.append("basis %d:" % (k + 1))
        lines.extend("  " + ln for ln in mat.splitlines())
    if data.get("ybe_system") is not None:
        lines.append("cubic system for the top equation:")
        lines.extend("  " + ln for ln in data["ybe_system"].splitlines())
    return "\n".join(lines) + "\n"


def cmd_solve_z(tokens):
    values = _options(tokens, ("X",), ("emit-ybe", "json"), ("X",))
    matrix, desc = _constant_matrix("X", _MatrixSpec(values["X"]))
    if matrix.dim > MAX_SOLVE_DIM:
        raise UsageError("--X must have dim at most %d for solve-z, got %d"
                         % (MAX_SOLVE_DIM, matrix.dim))
    space = solver.solve_z_linear(matrix)   # SymbolicInput -> exit 2
    data = {"command": "solve-z", "X": desc, "dimension": space.dim,
            "rank": space.rank,
            "basis": [matrix_to_text(m) for m in space.basis],
            "ybe_system": solver.filter_ybe(space).to_text() if "emit-ybe" in values else None}
    sys.stdout.write(json.dumps(data, indent=2) + "\n" if "json" in values
                     else render_solve_text(data))
    return 0


# ---------------------------------------------------------------------------
# orbit

def cmd_orbit(tokens):
    values = _options(tokens, ("W", "X", "Z", "T", "S", "omega", "xi", "zeta", "word"),
                      ("check",), ("W", "X", "Z"))
    mats = {role: _constant_matrix(role, _MatrixSpec(values[role]))[0]
            for role in ("W", "X", "Z", "T", "S") if role in values}
    scales = {name: _named("--" + name, exprparse.parse_scalar, values[name])
              for name in ("omega", "xi", "zeta") if name in values}
    spec = solver.TransformSpec(t_mat=mats.get("T"), s_mat=mats.get("S"),
                                word=solver.parse_word(values.get("word", "")), **scales)
    W, X, Z = solver.apply_transform((mats["W"], mats["X"], mats["Z"]), spec)
    text = "".join("%s:\n%s" % (label, matrix_to_text(mat))
                   for label, mat in (("W", W), ("X", X), ("Z", Z)))
    ok = True
    if "check" in values:
        ok, _ = systems.verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
        text += "check: %s\n" % ("PASS" if ok else "FAIL")
    sys.stdout.write(text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# catalog

def _entry_text(name):
    """Matrix-file text of a catalog entry, symbolic in its parameters."""
    matrix = catalog.instantiate(name)
    base = matrix.base if hasattr(matrix, "base") else matrix
    return matrix_to_text(base, var_names=catalog.get(name).var_names)


def cmd_catalog(tokens):
    action, tokens = _positional(tokens, "catalog needs an action: list, show or export")
    if action not in ("list", "show", "export"):
        raise UsageError("unknown catalog action %r (expected list, show or export)" % action)
    if action == "show":
        name, tokens = _positional(tokens, "catalog show needs an entry name")
    values = _options(tokens, ("dir",) if action == "export" else ())
    if action == "list":
        for item in catalog.list_catalog():
            cons = "; ".join(item["constraints"]) or "-"
            colour = " colour(%s)" % ",".join(item["colour"]) if item["colour"] else ""
            print("%-6s params=%s%s  constraints: %s"
                  % (item["name"], ",".join(item["params"]) or "-", colour, cons))
            print("       %s" % item["note"])
        return 0
    if action == "show":
        entry = catalog.get(name)
        sys.stdout.write(_entry_text(name))
        for label in entry.constraints.describe():
            print("constraint: %s" % label)
        if entry.witness:
            print("witness: " + ", ".join("%s=%s" % (p, e) for p, e in entry.witness))
        if entry.note:
            print("note: %s" % entry.note)
        return 0
    if "dir" not in values:
        raise UsageError("catalog export needs --dir")
    os.makedirs(values["dir"], exist_ok=True)
    for name in catalog.names():
        path = os.path.join(values["dir"], "%s.mat" % name)
        with open(path, "w") as fh:
            fh.write(_entry_text(name))
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------

COMMANDS = {"verify": cmd_verify, "solve-z": cmd_solve_z, "orbit": cmd_orbit,
            "catalog": cmd_catalog}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    try:
        known = "(expected one of %s)" % ", ".join(COMMANDS)
        command, tokens = _positional(argv, "missing command " + known)
        if command not in COMMANDS:
            raise UsageError("unknown command %r %s" % (command, known))
        return COMMANDS[command](tokens)
    except NotInvertible as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (YbxError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
