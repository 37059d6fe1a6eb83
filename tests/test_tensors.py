"""Antisymmetric tensor calculus: wedge, d, contractions, graded brackets."""

from __future__ import annotations

import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg import fixtures
from diracavg.config import CapacityError
from diracavg.coupling import Connection, Foliation
from diracavg.modelspec import SpecError, parse_spec, parse_spec_dict
from diracavg.rings import Poly, RationalFn
from diracavg.tensors import (
    Chart,
    DifferentialForm,
    MultivectorField,
    VectorValued1Form,
    apply_vector,
    bigrade_decompose,
    d_scalar,
    exterior_derivative,
    flat_matrix,
    interior_product,
    lie_derivative,
    lie_derivative_multivector,
    nijenhuis_torsion,
    one_form,
    schouten_bracket,
    sharp_bivector,
    sharp_matrix,
    sort_with_sign,
    vector_field,
    vf_bracket,
)

from conftest import CHART4, frac_point, rand_poly, rand_rational


def _rand_form(rng, chart, degree, poly_degree=2):
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.6:
            comps[idx] = RationalFn.from_poly(rand_poly(rng, chart.coords, poly_degree))
    return DifferentialForm(chart, degree, comps)


def _rand_mv(rng, chart, degree, poly_degree=2):
    import itertools

    comps = {}
    for idx in itertools.combinations(range(chart.dim), degree):
        if rng.random() < 0.6:
            comps[idx] = RationalFn.from_poly(rand_poly(rng, chart.coords, poly_degree))
    return MultivectorField(chart, degree, comps)


def test_sort_with_sign():
    assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 0)) == ((0, 1), -1)
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((0, 0)) == (None, 0)


def test_component_lookup_is_antisymmetric():
    dx = DifferentialForm.basis(CHART4, (0, 1))
    assert dx.component((0, 1)) == RationalFn.const(1)
    assert dx.component((1, 0)) == RationalFn.const(-1)
    assert dx.component((0, 2)).is_zero()
    assert dx.component((0, 0)).is_zero()


def test_wedge_antisymmetry_and_associativity():
    rng = random.Random(31)
    a = _rand_form(rng, CHART4, 1)
    b = _rand_form(rng, CHART4, 1)
    c = _rand_form(rng, CHART4, 2)
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()
    assert (a.wedge(b)).wedge(c) == a.wedge(b.wedge(c))
    # even-degree factors commute
    assert c.wedge(a.wedge(b)) == (a.wedge(b)).wedge(c)


def test_form_evaluation():
    chart = CHART4
    w = DifferentialForm.basis(chart, (0, 1))
    e0 = vector_field(chart, {0: 1})
    e1 = vector_field(chart, {1: 1})
    assert w.evaluate(e0, e1) == RationalFn.const(1)
    assert w.evaluate(e1, e0) == RationalFn.const(-1)
    assert w.evaluate(e0, e0).is_zero()


def test_interior_product_rules():
    rng = random.Random(32)
    chart = CHART4
    x = _rand_mv(rng, chart, 1)
    a = _rand_form(rng, chart, 1)
    b = _rand_form(rng, chart, 2)
    # degree-1 insertions square to zero
    assert interior_product(x, interior_product(x, b)).is_zero()
    # graded product rule on a wedge of a 1-form and a 2-form
    lhs = interior_product(x, a.wedge(b))
    rhs = b.scale(a.evaluate(x)) - a.wedge(interior_product(x, b))
    assert lhs == rhs


def test_sharp_and_flat_conventions():
    chart = Chart(("x", "y"))
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1)})
    dx = DifferentialForm.basis(chart, (0,))
    dy = DifferentialForm.basis(chart, (1,))
    # the anchor inserts the covector into the first slot
    assert sharp_bivector(pi, dx) == vector_field(chart, {1: 1})
    assert sharp_bivector(pi, dy) == vector_field(chart, {0: -1})
    sm = sharp_matrix(pi)
    assert sm[1][0] == RationalFn.const(1) and sm[0][1] == RationalFn.const(-1)
    w = DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)})
    fm = flat_matrix(w)
    assert fm[1][0] == RationalFn.const(1) and fm[0][1] == RationalFn.const(-1)
    ex = vector_field(chart, {0: 1})
    assert interior_product(ex, w) == dy


def test_symplectic_inverse_pairing():
    # with both maps inserting into the first slot, flat(w) o sharp(pi) = -id
    # when pi has the same components as w
    chart = CHART4
    w = DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)})
    pi = MultivectorField(chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)})
    from diracavg.linalg import identity, mat_mul, mat_scale

    prod = mat_mul(flat_matrix(w), sharp_matrix(pi))
    assert prod == mat_scale(identity(4), RationalFn.const(-1))


def test_exterior_derivative_known_value_and_nilpotency():
    chart = CHART4
    x1 = RationalFn.var("x1")
    a = one_form(chart, {1: x1})  # x1 dx2
    da = exterior_derivative(a)
    assert da == DifferentialForm(chart, 2, {(0, 1): RationalFn.const(1)})
    rng = random.Random(33)
    for _ in range(12):
        b = _rand_form(rng, chart, rng.choice((0, 1, 2)))
        assert exterior_derivative(exterior_derivative(b)).is_zero()


def test_exterior_derivative_product_rule_on_scalars():
    rng = random.Random(34)
    chart = CHART4
    f = rand_rational(rng, chart.coords)
    g = rand_rational(rng, chart.coords)
    lhs = d_scalar(f * g, chart)
    assert lhs == d_scalar(f, chart).scale(g) + d_scalar(g, chart).scale(f)


def test_lie_derivative_cartan_formula():
    rng = random.Random(35)
    chart = CHART4
    for _ in range(6):
        x = _rand_mv(rng, chart, 1, 1)
        a = _rand_form(rng, chart, rng.choice((1, 2)), 1)
        lhs = lie_derivative(x, a)
        rhs = interior_product(x, exterior_derivative(a)) + exterior_derivative(
            interior_product(x, a)
        )
        assert lhs == rhs


def test_lie_derivative_on_scalars_is_application():
    rng = random.Random(36)
    chart = CHART4
    x = _rand_mv(rng, chart, 1)
    f = rand_rational(rng, chart.coords)
    assert lie_derivative(x, f) == apply_vector(x, f)


def test_vf_bracket_jacobi_identity():
    rng = random.Random(37)
    chart = CHART4
    x = _rand_mv(rng, chart, 1, 1)
    y = _rand_mv(rng, chart, 1, 1)
    z = _rand_mv(rng, chart, 1, 1)
    jac = (
        vf_bracket(x, vf_bracket(y, z))
        + vf_bracket(y, vf_bracket(z, x))
        + vf_bracket(z, vf_bracket(x, y))
    )
    assert jac.is_zero()


def test_lie_derivative_respects_the_bracket():
    rng = random.Random(38)
    chart = CHART4
    x = _rand_mv(rng, chart, 1, 1)
    y = _rand_mv(rng, chart, 1, 1)
    f = rand_rational(rng, chart.coords, 1)
    lhs = apply_vector(vf_bracket(x, y), f)
    rhs = apply_vector(x, apply_vector(y, f)) - apply_vector(y, apply_vector(x, f))
    assert lhs == rhs


def test_schouten_bracket_degree_one_cases():
    rng = random.Random(39)
    chart = CHART4
    x = _rand_mv(rng, chart, 1, 1)
    y = _rand_mv(rng, chart, 1, 1)
    f = MultivectorField.from_scalar(chart, rand_rational(rng, chart.coords, 1))
    assert schouten_bracket(x, y) == vf_bracket(x, y)
    got = schouten_bracket(x, f)
    assert got.scalar_value() == apply_vector(x, f.scalar_value())


def test_schouten_bracket_graded_antisymmetry():
    rng = random.Random(40)
    chart = CHART4
    for (p, q) in ((1, 2), (2, 2), (1, 1), (2, 3)):
        a = _rand_mv(rng, chart, p, 1)
        b = _rand_mv(rng, chart, q, 1)
        sign = (-1) ** ((p - 1) * (q - 1))
        assert schouten_bracket(a, b) == schouten_bracket(b, a).scale(-sign)


def test_schouten_bracket_leibniz_rule():
    rng = random.Random(41)
    chart = CHART4
    # [X, b wedge c] = [X, b] wedge c + b wedge [X, c] for a vector field X
    x = _rand_mv(rng, chart, 1, 1)
    b = _rand_mv(rng, chart, 1, 1)
    c = _rand_mv(rng, chart, 2, 1)
    lhs = schouten_bracket(x, b.wedge(c))
    rhs = schouten_bracket(x, b).wedge(c) + b.wedge(schouten_bracket(x, c))
    assert lhs == rhs


def test_poisson_condition_for_constant_bivector():
    pi = MultivectorField(
        CHART4, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)}
    )
    assert schouten_bracket(pi, pi).is_zero()


def test_nonintegrable_bivector_has_nonzero_self_bracket():
    y1 = RationalFn.var("y1")
    pi = MultivectorField(CHART4, 2, {(0, 3): y1, (1, 2): RationalFn.const(1)})
    jac = schouten_bracket(pi, pi)
    assert jac.component((0, 1, 3)) == RationalFn.const(-2)


def test_self_bracket_is_twice_the_cyclic_bracket_sum():
    # [[Pi,Pi]](df,dg,dh) = 2 * sum over cyclic permutations of {f,{g,h}}
    rng = random.Random(42)
    chart = CHART4
    pi = _rand_mv(rng, chart, 2, 1)
    jac = schouten_bracket(pi, pi)

    def pb(f, g):
        return pi.evaluate(d_scalar(f, chart), d_scalar(g, chart))

    for _ in range(4):
        f = rand_rational(rng, chart.coords, 1)
        g = rand_rational(rng, chart.coords, 1)
        h = rand_rational(rng, chart.coords, 1)
        cyc = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
        direct = jac.evaluate(d_scalar(f, chart), d_scalar(g, chart), d_scalar(h, chart))
        assert direct == cyc + cyc


def test_hamiltonian_fields_represent_the_bracket():
    chart = CHART4
    pi = MultivectorField(
        chart, 2, {(0, 1): RationalFn.const(1), (2, 3): RationalFn.const(1)}
    )
    rng = random.Random(43)
    f = rand_rational(rng, chart.coords, 2)
    g = rand_rational(rng, chart.coords, 2)
    xf = sharp_bivector(pi, d_scalar(f, chart))
    assert apply_vector(xf, g) == pi.evaluate(d_scalar(f, chart), d_scalar(g, chart))


def test_vv1_apply_compose_projection():
    chart = CHART4
    k = VectorValued1Form(chart, [[int(i == j) for j in range(4)] for i in range(4)])
    rng = random.Random(44)
    x = _rand_mv(rng, chart, 1, 1)
    assert k.apply(x) == x
    assert k.compose(k) == k
    assert k.is_projection()
    half = VectorValued1Form(
        chart,
        [
            [RationalFn.const(1), RationalFn.zero(), RationalFn.zero(), RationalFn.zero()],
            [RationalFn.zero(), RationalFn.const(1), RationalFn.zero(), RationalFn.zero()],
            [RationalFn.zero()] * 4,
            [RationalFn.zero()] * 4,
        ],
    )
    assert half.is_projection()
    assert half.apply(x) == vector_field(
        chart, {0: x.component((0,)), 1: x.component((1,))}
    )


def test_nijenhuis_torsion_of_identity_vanishes():
    chart = CHART4
    k = VectorValued1Form(chart, [[int(i == j) for j in range(4)] for i in range(4)])
    assert nijenhuis_torsion(k).is_zero()


def test_nijenhuis_torsion_detects_nonintegrable_projector():
    # vertical projector whose horizontal complement span(d_x1, d_x2 + x1 d_y1)
    # is not involutive: the self-bracket must see the obstruction
    chart = Chart(("x1", "x2", "y1"))
    x1 = RationalFn.var("x1")
    zero, one = RationalFn.zero(), RationalFn.const(1)
    proj = VectorValued1Form(chart, [[zero, zero, zero], [zero, zero, zero], [zero, -x1, one]])
    assert proj.compose(proj) == proj
    vv2 = nijenhuis_torsion(proj)
    assert not vv2.is_zero()
    # a constant-coefficient projector is integrable
    flat = VectorValued1Form(chart, [[zero, zero, zero], [zero, zero, zero], [zero, zero, one]])
    assert nijenhuis_torsion(flat).is_zero()


def test_bigrade_decompose_reassembles():
    chart = CHART4
    conn = Connection(Foliation(chart, (0, 1), (2, 3)), [[0, 0], [0, 0]])
    rng = random.Random(45)
    a = _rand_form(rng, chart, 2)
    parts = bigrade_decompose(a, conn)
    total = DifferentialForm.zero(chart, 2)
    for piece in parts.values():
        total = total + piece
    assert total == a


def test_public_degree_cap():
    # a model file may declare tensors of degree 0..4
    doc = {
        "coordinates": list(CHART4.coords),
        "tensors": {"w": {"kind": "form", "degree": 4, "components": {}}},
    }
    assert parse_spec_dict(doc).tensors["w"].degree == 4
    doc["tensors"]["w"]["degree"] = 5
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert exc.value.diagnostics == [("tensors.w.degree", "degree must be an integer in 0..4")]


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("x", "x"))
    with pytest.raises(CapacityError):
        Chart(tuple(f"v{i}" for i in range(9)))
    c = CHART4
    assert c.dim == 4
    assert c.index("y1") == 2
    with pytest.raises(ValueError):
        c.index("nope")


# -- oracles: the bodies these operations had before they shared one
# summation rule (``tensors._summed``), kept to pin values and order --


def _old_add(a, b):
    out = dict(a.comps)
    for idx, val in b.comps.items():
        cur = out.get(idx)
        s = val if cur is None else cur + val
        if s.is_zero():
            out.pop(idx, None)
        else:
            out[idx] = s
    return type(a)(a.chart, a.degree, out)


def _old_wedge(a, b):
    out = {}
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            srt, sign = sort_with_sign(ia + ib)
            if srt is None:
                continue
            val = va * vb
            if sign == -1:
                val = -val
            cur = out.get(srt)
            s = val if cur is None else cur + val
            if s.is_zero():
                out.pop(srt, None)
            else:
                out[srt] = s
    return type(a)(a.chart, a.degree + b.degree, out)


def _old_interior_product(first, t):
    out = {}
    for idx, val in t.comps.items():
        for pos, j in enumerate(idx):
            w = first.comps.get((j,))
            if w is None:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            contrib = w * val
            if pos % 2 == 1:
                contrib = -contrib
            cur = out.get(rest)
            s = contrib if cur is None else cur + contrib
            if s.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = s
    return type(t)(t.chart, t.degree - 1, out)


def _old_exterior_derivative(beta):
    out = {}
    for idx, val in beta.comps.items():
        for i, name in enumerate(beta.chart.coords):
            dval = val.diff(name)
            if dval.is_zero():
                continue
            srt, sign = sort_with_sign((i,) + idx)
            if srt is None:
                continue
            contrib = dval if sign == 1 else -dval
            cur = out.get(srt)
            s = contrib if cur is None else cur + contrib
            if s.is_zero():
                out.pop(srt, None)
            else:
                out[srt] = s
    return DifferentialForm(beta.chart, beta.degree + 1, out)


def _old_lie_derivative_multivector(x, t):
    chart = x.chart
    out = MultivectorField.zero(chart, t.degree)
    dX = {}
    for (l,), xl in x.comps.items():
        for j, name in enumerate(chart.coords):
            d = xl.diff(name)
            if not d.is_zero():
                dX[(j, l)] = d
    for idx, val in t.comps.items():
        xv = apply_vector(x, val)
        if not xv.is_zero():
            out = _old_add(out, MultivectorField(chart, t.degree, {idx: xv}))
        for pos, j in enumerate(idx):
            for (jj, l), d in dX.items():
                if jj != j:
                    continue
                srt, sign = sort_with_sign(idx[:pos] + (l,) + idx[pos + 1 :])
                if srt is None:
                    continue
                contrib = val * d
                if sign == -1:
                    contrib = -contrib
                out = _old_add(out, -MultivectorField(chart, t.degree, {srt: contrib}))
    return out


def _old_fn_bracket(k, l):
    chart = k.chart
    n = chart.dim
    kcols = [k.column(j) for j in range(n)]
    lcols = [l.column(j) for j in range(n)]
    basis = [vector_field(chart, {i: RationalFn.const(1)}) for i in range(n)]
    br = _old_lie_derivative_multivector

    def sub(a, b):
        return _old_add(a, -b)

    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            term = sub(br(kcols[i], lcols[j]), br(kcols[j], lcols[i]))
            term = sub(term, l.apply(sub(br(kcols[i], basis[j]), br(kcols[j], basis[i]))))
            term = sub(term, k.apply(sub(br(lcols[i], basis[j]), br(lcols[j], basis[i]))))
            if not term.is_zero():
                out[(i, j)] = term
    return out


@st.composite
def _scalars(draw, names):
    """c, c v or c / (v + 2) for c in a small pool, so that sums cancel often."""
    f = RationalFn.const(draw(st.sampled_from([1, -1, 2, Fraction(-1, 2)])))
    if draw(st.booleans()):
        f = f * RationalFn.var(draw(st.sampled_from(names)))
    if draw(st.integers(0, 3)) == 0:
        f = f / (RationalFn.var(draw(st.sampled_from(names))) + RationalFn.const(2))
    return f


@st.composite
def _tensors(draw, cls, chart, degree):
    """Up to four components, their indices in drawn (mostly unsorted) order."""
    idxs = list(itertools.combinations(range(chart.dim), degree))
    chosen = draw(st.lists(st.sampled_from(idxs), max_size=4, unique=True))
    return cls(chart, degree, {i: draw(_scalars(chart.coords)) for i in chosen})


def _items(t):
    return list(t.comps.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_summed_operations_keep_the_old_components_and_their_order(data):
    draw = data.draw
    n = draw(st.integers(2, 5))
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    cls = draw(st.sampled_from([DifferentialForm, MultivectorField]))
    dual = MultivectorField if cls is DifferentialForm else DifferentialForm
    p, q = draw(st.integers(0, min(3, n))), draw(st.integers(0, min(3, n)))
    a, c = draw(_tensors(cls, chart, p)), draw(_tensors(cls, chart, q))
    # b cancels some of a's components and d hits them again: in a + b + d
    # those indices sum to zero and then enter again
    gone = [i for i in a.comps if draw(st.booleans())]
    b = _old_add(cls(chart, p, {i: -a.comps[i] for i in gone}), draw(_tensors(cls, chart, p)))
    d = _old_add(draw(_tensors(cls, chart, p)), cls(chart, p, {i: a.comps[i] for i in gone[::-1]}))
    chained = _old_add(_old_add(a, b), d)
    assert _items(a + b) == _items(_old_add(a, b))
    assert _items(a + b + d) == _items(chained)
    assert _items(cls.sum_of(chart, p, [a, b, d])) == _items(chained)
    # the operations below put several terms on one index
    ts = [a, c, chained]
    for s, t in itertools.product(ts, ts):
        assert _items(s.wedge(t)) == _items(_old_wedge(s, t))
    first = draw(_tensors(dual, chart, 1))
    x = draw(_tensors(MultivectorField, chart, 1))
    for t in ts:
        if t.degree:
            assert _items(interior_product(first, t)) == _items(_old_interior_product(first, t))
        if cls is DifferentialForm:
            assert _items(exterior_derivative(t)) == _items(_old_exterior_derivative(t))
        else:
            new = lie_derivative_multivector(x, t)
            assert _items(new) == _items(_old_lie_derivative_multivector(x, t))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_nijenhuis_torsion_is_half_the_old_self_bracket(data):
    draw = data.draw
    n = draw(st.integers(2, 4))
    chart = Chart(tuple(f"x{i}" for i in range(n)))
    m = [[RationalFn.zero()] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_scalars(chart.coords))
    k = VectorValued1Form(chart, m)
    new, old = nijenhuis_torsion(k), _old_fn_bracket(k, k)
    # compared by value, key by key: the torsion is never printed
    assert sorted(new.values) == sorted(old)
    assert all(new.values[key] == v.scale(Fraction(1, 2)) for key, v in old.items())


_TORUS = str(pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json")


# every bundled model with a connection: all but nonintegrable
@pytest.mark.parametrize("name", [*(n for n in fixtures.FIXTURES if n != "nonintegrable"), "torus"])
def test_nijenhuis_torsion_is_half_the_old_self_bracket_on_the_fixtures(name):
    spec = parse_spec(_TORUS) if name == "torus" else fixtures.load(name)
    proj = spec.geometric_data().conn.projector()
    new, old = nijenhuis_torsion(proj), _old_fn_bracket(proj, proj)
    assert sorted(new.values) == sorted(old)
    assert all(new.values[key] == v.scale(Fraction(1, 2)) for key, v in old.items())
