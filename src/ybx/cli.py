"""Command-line front end.

    ybx verify SYSTEM --ROLE SPEC ... [--samples N] [--symbolic] [--json]
    ybx solve-z --X SPEC [--emit-ybe] [--json]
    ybx orbit --W SPEC --X SPEC --Z SPEC [--word WORD] [--T SPEC --S SPEC]
              [--omega E --xi E --zeta E] [--check]
    ybx catalog list | show NAME | export --dir DIR

Matrix specs: ``catalog:NAME[param=expr,...]``, ``file:PATH`` or
``random[dim=n,seed=k]``.  Exit codes: 0 success, 1 mathematical failure,
2 usage or specification error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import catalog, solver, systems
from .errors import NotInvertible, RoleKindMismatch, YbxError
from .scalar import scalar_str
from .tensor import SquareMatrix, matrix_from_text, matrix_to_text, random_matrix
from . import exprparse

DEFAULT_SEED = 20211997
# Far above any dim whose commutator finishes quickly; a typo such as
# dim=10**12 must not allocate dim^2 cells.
MAX_RANDOM_DIM = 64


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
            self.dim, self.seed = int(pairs["dim"]), int(pairs["seed"])
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
            with open(self.path) as fh:
                matrix, _ = matrix_from_text(fh.read())
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


def _take_role_args(tokens, names, required):
    """{NAME: VALUE} (raw strings) of the --NAME VALUE and --NAME=VALUE
    pairs in leftover argv tokens; argparse would take a value such as
    -1/3 for an option.  Each name may be given once, and every name in
    ``required`` must be given."""
    values = {}
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if not tok.startswith("--"):
            raise UsageError("unexpected argument %r" % tok)
        name, eq, value = tok[2:].partition("=")
        if name not in names:
            raise UsageError("unknown role %r (expected one of %s)"
                             % (name, ", ".join(names)))
        if name in values:
            raise UsageError("--%s given twice" % name)
        if not eq:
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


def _constant_matrix(role, spec):
    """(matrix, provenance) of a role that needs a constant matrix."""
    matrix, desc = spec.resolve(rng=None, symbolic=True)
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
        for role, desc in sample["assignment"].items():
            lines.append("  %s = %s" % (role, desc))
        if not sample["verified"]:
            for eq in sample["report"]["equations"]:
                if not eq["zero"]:
                    lines.append("  equation %s: NONZERO (%d entries)"
                                 % (eq["label"], eq["nonzero_count"]))
                    lines.extend(systems.witness_lines(eq["witnesses"][:4]))
    lines.append("overall: %s (%d sample%s)"
                 % ("PASS" if data["verified"] else "FAIL",
                    len(data["samples"]), "" if len(data["samples"]) == 1 else "s"))
    return "\n".join(lines) + "\n"


def cmd_verify(args, extra):
    if args.samples < 1:
        raise UsageError("--samples must be at least 1, got %d" % args.samples)
    sysdef = systems.system(args.system)
    roles = {role: _MatrixSpec(text) for role, text
             in _take_role_args(extra, sysdef.roles, sysdef.roles).items()}
    sampled = any(spec.kind == "catalog" and spec.free_params()
                  for spec in roles.values())
    runs = 1 if (args.symbolic or not sampled) else args.samples
    rng = random.Random(args.seed)
    samples = []
    all_ok = True
    for run in range(runs):
        assignment = {}
        provenance = {}
        for role, spec in roles.items():
            matrix, desc = spec.resolve(rng=rng, symbolic=args.symbolic)
            assignment[role] = matrix
            provenance[role] = desc
        ok, rep = systems.verify(sysdef, assignment, provenance=provenance)
        all_ok = all_ok and ok
        samples.append({"index": run + 1, "assignment": provenance,
                        "verified": ok, "report": rep.to_dict()})
    data = {"command": "verify", "system": sysdef.name,
            "symbolic": bool(args.symbolic), "samples": samples,
            "verified": all_ok}
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        sys.stdout.write(render_verify_text(data))
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


def cmd_solve_z(args, extra):
    text = _take_role_args(extra, ("X",), ("X",))["X"]
    matrix, desc = _constant_matrix("X", _MatrixSpec(text))
    space = solver.solve_z_linear(matrix)   # SymbolicInput -> exit 2
    data = {"command": "solve-z", "X": desc, "dimension": space.dim,
            "rank": space.rank,
            "basis": [matrix_to_text(m) for m in space.basis]}
    if args.emit_ybe:
        data["ybe_system"] = solver.filter_ybe(space).to_text()
    else:
        data["ybe_system"] = None
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        sys.stdout.write(render_solve_text(data))
    return 0


# ---------------------------------------------------------------------------
# orbit

def cmd_orbit(args, extra):
    values = _take_role_args(
        extra, ("W", "X", "Z", "T", "S", "omega", "xi", "zeta", "word"), ("W", "X", "Z"))
    mats = {role: _constant_matrix(role, _MatrixSpec(values[role]))[0]
            for role in ("W", "X", "Z", "T", "S") if role in values}
    scales = {name: exprparse.parse_scalar(values[name])
              for name in ("omega", "xi", "zeta") if name in values}
    spec = solver.TransformSpec(t_mat=mats.get("T"), s_mat=mats.get("S"),
                                word=solver.parse_word(values.get("word", "")), **scales)
    W, X, Z = solver.apply_transform((mats["W"], mats["X"], mats["Z"]), spec)
    for label, mat in (("W", W), ("X", X), ("Z", Z)):
        print("%s:" % label)
        sys.stdout.write(matrix_to_text(mat))
    if args.check:
        ok, rep = systems.verify("QDOUBLE", {"W": W, "X": X, "Z": Z})
        print("check: %s" % ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    return 0


# ---------------------------------------------------------------------------
# catalog

def _entry_text(name):
    """Matrix-file text of a catalog entry, symbolic in its parameters."""
    matrix = catalog.instantiate(name)
    base = matrix.base if hasattr(matrix, "base") else matrix
    return matrix_to_text(base, var_names=catalog.get(name).var_names)


def cmd_catalog(args, extra):
    if extra:
        raise UsageError("unexpected arguments: %s" % " ".join(extra))
    if args.action == "list":
        for item in catalog.list_catalog():
            cons = "; ".join(item["constraints"]) or "-"
            colour = " colour(%s)" % ",".join(item["colour"]) if item["colour"] else ""
            print("%-6s params=%s%s  constraints: %s"
                  % (item["name"], ",".join(item["params"]) or "-", colour, cons))
            print("       %s" % item["note"])
        return 0
    if args.action == "show":
        if not args.name:
            raise UsageError("catalog show needs an entry name")
        entry = catalog.get(args.name)
        sys.stdout.write(_entry_text(args.name))
        for label in entry.constraints.describe():
            print("constraint: %s" % label)
        if entry.witness:
            print("witness: " + ", ".join("%s=%s" % (p, e) for p, e in entry.witness))
        if entry.note:
            print("note: %s" % entry.note)
        return 0
    if not args.dir:
        raise UsageError("catalog export needs --dir")
    os.makedirs(args.dir, exist_ok=True)
    for name in catalog.names():
        path = os.path.join(args.dir, "%s.mat" % name)
        with open(path, "w") as fh:
            fh.write(_entry_text(name))
        print("wrote %s" % path)
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="exact Yang-Baxter system toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a system on matrix assignments")
    p.add_argument("system")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("solve-z", help="nullspace of the linear Z equation")
    p.add_argument("--emit-ybe", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_solve_z)

    p = sub.add_parser("orbit", help="apply a symmetry transformation")
    p.add_argument("--check", action="store_true")
    p.set_defaults(run=cmd_orbit)

    p = sub.add_parser("catalog", help="browse or export the catalog")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("--dir", default=None)
    p.set_defaults(run=cmd_catalog)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit:
        return 2
    try:
        return args.run(args, extra)
    except NotInvertible as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (YbxError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
