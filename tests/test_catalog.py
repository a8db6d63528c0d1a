import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ybx import catalog, zform
from ybx.errors import ConstraintViolated, DivisionByZero, UnknownName
from ybx.exprparse import parse_scalar
from ybx.scalar import GaussianRational, Polynomial, scalar_str, substitute, var_id, var_name
from ybx.tensor import ColourMatrix, matrix_from_text, matrix_to_text, ybc_const

I = GaussianRational(0, 1)


def test_listing_is_deterministic_and_complete():
    listing = catalog.list_catalog()
    assert len(listing) >= 25
    assert [x["name"] for x in listing] == catalog.names()
    z52 = next(x for x in listing if x["name"] == "Z52")
    assert z52["params"] == ["k"]
    p = next(x for x in listing if x["name"] == "P")
    assert p["params"] == []


def test_every_witness_instantiates():
    for name in catalog.names():
        m = catalog.instantiate(name, catalog.witness(name))
        assert m.dim == 4


def test_witnesses_satisfy_constraints_strictly():
    # the witness of each entry must decide every constraint (fully numeric)
    for name in catalog.names():
        entry = catalog.get(name)
        point = catalog.witness(name)
        assert set(point) == set(entry.params)


def test_unknown_name():
    with pytest.raises(UnknownName):
        catalog.instantiate("NOPE")


def test_constraint_violations():
    with pytest.raises(ConstraintViolated) as err:
        catalog.instantiate("W", {"q": 1, "s": 1, "t": 1})
    assert "q^2 != 1" in str(err.value)
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("W", {"q": 2, "s": 3, "t": 5})   # not a branch value
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("X6", {"a": 1, "b": 1, "c": 0})
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("Z21", {"q": I, "r": 1, "b": 3, "delta": 1})
    with pytest.raises(ConstraintViolated):
        catalog.instantiate("W", {"nope": 1})


def test_parameter_expression_resolution():
    W = catalog.instantiate("W", {"q": 2, "s": 3, "t": "q"})
    assert W.rows[3][3] == 2
    assert W.rows[2][1] == GaussianRational(3) / GaussianRational(2)
    # expression pins resolve against earlier parameters, staying symbolic
    # when those are unassigned
    Wsym = catalog.instantiate("W", {"t": "-q^-1"})
    assert ybc_const(Wsym, Wsym, Wsym).is_zero()


def test_instantiation_examples():
    W = catalog.instantiate("W", {"q": 2, "s": 3, "t": 2})
    assert [scalar_str(W.rows[i][i]) for i in range(4)] == ["2", "1/3", "3", "2"]
    assert scalar_str(W.rows[2][1]) == "3/2"
    X6 = catalog.instantiate("X6", {"a": 1, "b": 1, "c": 1})
    assert X6.rows[0][2] == I
    assert X6.rows[1][0] == 2 * I
    assert X6.rows[2][0] == I


def test_colour_entries():
    A = catalog.instantiate("Aspec")
    assert isinstance(A, ColourMatrix)
    assert A.at_vars("u", "v") == A.base
    num = A.at(GaussianRational(3), GaussianRational(1))
    assert num.rows[0][0] == 3


def test_sampler_produces_admissible_points():
    rng = random.Random(11)
    for name in catalog.names():
        entry = catalog.get(name)
        if not entry.params:
            continue
        for _ in range(5):
            point = catalog.sample_assignment(name, rng)
            m = catalog.instantiate(name, point)     # constraints re-checked
            assert m.dim == 4


def test_sampler_respects_pins():
    rng = random.Random(12)
    for _ in range(10):
        point = catalog.sample_assignment("W", rng, pins={"q": 2, "t": "q"})
        assert point["q"] == 2 and point["t"] == 2


@pytest.mark.parametrize("name, pins, points", [
    ("X2", {"q": 2, "t": "q"},
     ["q=2,s=1,t=2,a=3/2,b=4/3", "q=2,s=-2,t=2,a=2,b=5", "q=2,s=-2,t=2,a=-1,b=-4/3"]),
    ("Z21", {},
     ["q=-i,r=2,b=1,delta=0", "q=i,r=2,b=5,delta=0", "q=-i,r=-1,b=-4/3,delta=0"]),
])
def test_sampled_points_are_fixed_by_the_seed(name, pins, points):
    """Seeded runs print these points, so the sampler's draws (pins, choice
    rules, rationals, in declaration order) and their resolution must not
    move."""
    rng = random.Random(11)
    got = [",".join("%s=%s" % (p, scalar_str(v)) for p, v in
                    catalog.sample_assignment(name, rng, pins=pins).items())
           for _ in points]
    assert got == points


def test_ybe_entries_solve_symbolically_or_on_samples():
    """Every entry tagged as a constant Yang-Baxter solution really is one:
    symbolically when it has few parameters, and at 10 random admissible
    points regardless."""
    rng = random.Random(13)
    for name in catalog.ybe_names():
        entry = catalog.get(name)
        branchy = [p for p, rule in entry.sampling]
        if len(entry.params) <= 3:
            # leave free parameters symbolic; enumerate branch choices
            def branch_assignments():
                rules = dict(entry.sampling)
                if not rules:
                    yield {}
                    return
                from itertools import product as iproduct
                keys = list(rules)
                for combo in iproduct(*(rules[k] for k in keys)):
                    yield dict(zip(keys, combo))
            for pins in branch_assignments():
                R = catalog.instantiate(name, pins)
                assert ybc_const(R, R, R).is_zero(), (name, pins)
        for _ in range(10):
            point = catalog.sample_assignment(name, rng)
            R = catalog.instantiate(name, point)
            assert ybc_const(R, R, R).is_zero(), (name, point)


def test_every_entry_expression_round_trips():
    from ybx.exprparse import parse_scalar
    for name in catalog.names():
        for row in catalog.get(name).entries:
            for cell in row:
                val = parse_scalar(cell)
                canonical = scalar_str(val)
                assert parse_scalar(canonical) == val, (name, cell)
                assert scalar_str(parse_scalar(canonical)) == canonical


def test_catalog_export_round_trip_bytes():
    for name in catalog.names():
        m = catalog.instantiate(name)
        base = m.base if isinstance(m, ColourMatrix) else m
        text = matrix_to_text(base, var_names=catalog.get(name).var_names)
        again, names = matrix_from_text(text)
        assert matrix_to_text(again, var_names=names) == text


def test_entries_are_parsed_once_and_print_as_freshly_parsed(monkeypatch):
    """Each entry's cells, constraints and witness are parsed on first use
    and kept.  A repeated instantiation parses nothing and prints the same
    bytes as the cells parsed afresh and substituted at the same point."""
    from ybx import exprparse
    from ybx.scalar import substitute
    from ybx.tensor import SquareMatrix

    def text(name, m):
        base = m.base if isinstance(m, ColourMatrix) else m
        return matrix_to_text(base, var_names=catalog.get(name).var_names)

    first = {}
    for name in catalog.names():
        point = catalog.witness(name)
        first[name] = text(name, catalog.instantiate(name, point))
        fresh = SquareMatrix([[substitute(exprparse.parse_scalar(cell), point) for cell in row]
                              for row in catalog.get(name).entries])
        assert text(name, fresh) == first[name], name

    def parse_scalar(text):
        raise AssertionError("parsed %r again" % text)
    monkeypatch.setattr(exprparse, "parse_scalar", parse_scalar)
    for name in catalog.names():
        assert text(name, catalog.instantiate(name, catalog.witness(name))) == first[name]


# -- the int path at numeric points against the scalar loop -----------------

def _loop_rows(entry, point):
    """Each cell of ``entry`` parsed afresh and substituted at ``point``."""
    return [[substitute(parse_scalar(cell), point) for cell in row] for row in entry.entries]


def _loop_check(entry, point):
    """The equalities, then the inequations, of ``entry``, each parsed
    afresh and decided when it is numeric at ``point``."""
    for label, expr in entry.constraints.equalities:
        val = substitute(parse_scalar(expr), point)
        if isinstance(val, GaussianRational) and not val.is_zero():
            raise ConstraintViolated(entry.name, label)
    for label, expr in entry.constraints.inequations:
        val = substitute(parse_scalar(expr), point)
        if isinstance(val, GaussianRational) and val.is_zero():
            raise ConstraintViolated(entry.name, label)


def _outcome(call, *args):
    """call(*args), or the class and text of the error it raised."""
    try:
        return call(*args)
    except (ConstraintViolated, DivisionByZero) as exc:
        return type(exc), str(exc)


_PART = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_GAUSSIAN = st.builds(GaussianRational, _PART, _PART)
# u3 is a registered variable that is no parameter of any entry
_SYMBOLIC = st.sampled_from([Polynomial.variable("u3"), parse_scalar("u3^-1 + 2*i")])


@pytest.mark.parametrize("kind", ["numeric", "partial", "symbolic"])
@pytest.mark.parametrize("name", catalog.names())
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_instantiate_agrees_with_the_scalar_loop(name, kind, data):
    """At numeric points (Gaussian values, zeros under negative powers
    included) an entry is evaluated on ints; at partial and symbolic points
    it is substituted cell by cell.  Either way every entry has the type,
    value and text of the scalar loop, errors have its class and text, and
    the int form keeps the least denominator."""
    entry = catalog.get(name)
    point = {}
    for p in entry.params:
        if kind == "numeric" or data.draw(st.booleans()):
            point[p] = data.draw(_GAUSSIAN)
        elif kind == "symbolic":
            point[p] = data.draw(_SYMBOLIC)
    checked = _outcome(_loop_check, entry, point)
    want = _outcome(_loop_rows, entry, point)
    _assert_same(_outcome(catalog.matrix_at, entry, point), want)
    _assert_same(_outcome(catalog.instantiate, entry.name, point),
                 checked if isinstance(checked, tuple) else want)
    if not isinstance(want, tuple):
        base = catalog.matrix_at(entry, point)
        base = base.base if entry.colour else base
        variables = {var_name(v) for row in entry.cells for cell in row for v in cell.variables()}
        if all(type(point.get(v)) is GaussianRational for v in variables):
            assert base._zi == zform.of_rows(want)
        else:
            numeric = {var_id(p): v for p, v in point.items() if type(v) is GaussianRational}
            assert zform.evaluate(entry.cells_zp, numeric) is None


def _assert_same(got, want):
    """The outcomes are the same error, or matrices whose entries have the
    same type, value and text as the rows ``want``."""
    if isinstance(want, tuple):
        assert got == want
        return
    base = got.base if isinstance(got, ColourMatrix) else got
    for row, want_row in zip(base.rows, want):
        assert [type(x) for x in row] == [type(y) for y in want_row]
        assert row == want_row
        assert [scalar_str(x) for x in row] == [scalar_str(y) for y in want_row]


@pytest.mark.parametrize("name", catalog.names())
def test_every_entry_at_a_gaussian_point_agrees_with_the_scalar_loop(name):
    entry = catalog.get(name)
    point = {p: GaussianRational(Fraction(k + 1, 2), Fraction(-1) ** k * (k + 2))
             for k, p in enumerate(entry.params)}
    want = _loop_rows(entry, point)
    _assert_same(catalog.matrix_at(entry, point), want)
    if not entry.colour:
        assert catalog.matrix_at(entry, point)._zi == zform.of_rows(want)


def test_a_zero_under_a_negative_power_raises_the_loops_error():
    entry = catalog.get("W")
    point = {"q": GaussianRational(2), "s": GaussianRational(0), "t": GaussianRational(2)}
    with pytest.raises(DivisionByZero) as want:
        _loop_rows(entry, point)
    with pytest.raises(DivisionByZero) as got:
        catalog.matrix_at(entry, point)
    assert str(got.value) == str(want.value) == "inversion of zero"


@pytest.mark.parametrize("name, point, label", [
    # the branch equality and q^2 != 1 both fail; the equality comes first
    ("W", {"q": 1, "s": 1, "t": 5}, "t = q or t = -q^-1"),
    ("W", {"q": 2, "s": 0, "t": 2}, "s != 0"),
    ("Z21", {"q": GaussianRational(0, 1), "r": 0, "b": 3, "delta": 1},
     "delta = 0 unless b^2 = -1"),
    ("X4", {"q": 2, "s": 1, "t": 2, "a": 1, "b": 0, "c": 3}, "b != 0"),
])
def test_check_raises_the_first_violated_label(name, point, label):
    entry = catalog.get(name)
    point = {p: GaussianRational(v) if isinstance(v, int) else v for p, v in point.items()}
    with pytest.raises(ConstraintViolated) as got:
        entry.constraints.check(point)
    assert str(got.value) == "%s: constraint violated: %s" % (name, label)


@pytest.mark.parametrize("pins", [{"q": "1"}, {"q": "1", "s": "2", "t": "q"}])
def test_sampling_reports_the_constraint_the_pins_break(pins):
    entry = catalog.get("W")
    with pytest.raises(ConstraintViolated) as want:
        _loop_check(entry, catalog._resolve_assignment(entry, pins))
    with pytest.raises(ConstraintViolated) as got:
        catalog.sample_assignment("W", random.Random(1), pins=pins)
    assert str(got.value) == str(want.value) == "W: constraint violated: q^2 != 1"
