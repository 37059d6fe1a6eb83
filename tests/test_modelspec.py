"""Model files: parsing with located diagnostics and canonical round-trips."""

from __future__ import annotations

import copy
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracavg.fixtures import FIXTURES, fixture_path, load
from diracavg.modelspec import (
    ModelSpec,
    SpecError,
    parse_spec,
    parse_spec_dict,
    serialize_spec,
)
from diracavg.rings import RationalFn


MINIMAL = {
    "coordinates": ["x", "y"],
    "tensors": {
        "pi": {
            "kind": "multivector",
            "degree": 2,
            "components": {"0,1": [["1", {}]]},
        }
    },
}


def _err_locations(exc):
    return [loc for loc, _ in exc.value.diagnostics]


def test_minimal_document_parses():
    spec = parse_spec_dict(MINIMAL)
    assert spec.chart.coords == ("x", "y")
    pi = spec.tensors["pi"]
    assert pi.degree == 2
    assert pi.component((0, 1)) == RationalFn.const(1)
    assert spec.seed == 7


def test_all_bundled_models_round_trip_byte_identically():
    for name in FIXTURES:
        path = fixture_path(name)
        spec = parse_spec(path)
        assert serialize_spec(spec).encode() == path.read_bytes()


def test_serialization_is_idempotent_and_canonical():
    spec = load("rotating_lift")
    text = serialize_spec(spec)
    again = serialize_spec(parse_spec_dict(json.loads(text)))
    assert again == text
    # keys are sorted so two structurally equal documents serialize equally
    assert text.index('"coordinates"') < text.index('"tensors"')


def test_bundled_models_carry_geometry():
    for name in ("flat", "rotating_lift", "transversal_leaf", "obstructed_lift", "shifted_lift"):
        spec = load(name)
        gd = spec.geometric_data()
        assert gd.conn.chart == spec.chart
        assert spec.action is not None
        assert spec.certificate_mode == "hamiltonian"
        assert spec.certificate_j


def test_get_box_default_and_named():
    spec = load("flat")
    box = spec.get_box()
    assert box["x1"] == (Fraction(-1, 2), Fraction(1, 2))
    assert spec.get_box("default") == box
    with pytest.raises(KeyError):
        spec.get_box("nope")
    # without a boxes table the implicit default covers every coordinate
    bare = parse_spec_dict(MINIMAL)
    assert bare.get_box()["y"] == (Fraction(-1, 2), Fraction(1, 2))


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        load("nope")


def test_missing_file_reports_a_diagnostic():
    with pytest.raises(SpecError) as exc:
        parse_spec("/definitely/not/here.json")
    assert _err_locations(exc) == ["$"]


def test_malformed_json_reports_the_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"coordinates": [,]}')
    with pytest.raises(SpecError) as exc:
        parse_spec(p)
    assert any(loc.startswith("line") for loc in _err_locations(exc))


def test_bad_coefficient_literal():
    doc = json.loads(json.dumps(MINIMAL))
    doc["tensors"]["pi"]["components"]["0,1"] = [["1.5", {}]]
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("tensors.pi" in loc for loc in _err_locations(exc))


def test_unknown_variable_in_monomial():
    doc = json.loads(json.dumps(MINIMAL))
    doc["tensors"]["pi"]["components"]["0,1"] = [["1", {"z": 1}]]
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("tensors.pi" in loc for loc in _err_locations(exc))


def test_degree_cap_applies_at_parse_time():
    doc = json.loads(json.dumps(MINIMAL))
    doc["tensors"]["pi"]["components"]["0,1"] = [["1", {"x": 13}]]
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("degree" in msg for _, msg in exc.value.diagnostics)


def test_pi_exponents_do_not_count_against_the_degree_cap():
    for mono in ({"@pi": 13}, {"@pi": 1, "x": 12}):
        doc = json.loads(json.dumps(MINIMAL))
        doc["tensors"]["pi"]["components"]["0,1"] = [["1", mono]]
        pi = parse_spec_dict(doc).tensors["pi"]
        assert not pi.component((0, 1)).is_zero()


def test_bad_component_keys():
    for key in ("0", "1,0", "0,5", "0,0", "a,b"):
        doc = json.loads(json.dumps(MINIMAL))
        doc["tensors"]["pi"]["components"] = {key: [["1", {}]]}
        with pytest.raises(SpecError):
            parse_spec_dict(doc)


def test_bad_foliation_is_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["foliation"] = {"base": [0], "fiber": [0, 1]}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("foliation" in loc for loc in _err_locations(exc))


def test_connection_shape_is_checked():
    doc = json.loads(json.dumps(MINIMAL))
    doc["foliation"] = {"base": [0], "fiber": [1]}
    doc["connection"] = [[[["1", {}]], [["1", {}]]]]
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("connection" in loc for loc in _err_locations(exc))


def test_action_plane_validation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["action"] = {"circles": [{"planes": [[0, 7]], "weights": [1]}]}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("action" in loc for loc in _err_locations(exc))


def test_certificate_mode_validation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["action"] = {"circles": [{"planes": [[0, 1]], "weights": [1]}]}
    doc["certificate"] = {"mode": "psychic", "j": [[["1", {}]]]}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("certificate" in loc for loc in _err_locations(exc))


def test_box_validation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["boxes"] = {"default": {"x": ["-1", "1"]}}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    # the y interval is missing
    assert any("boxes" in loc for loc in _err_locations(exc))
    doc["boxes"] = {"default": {"x": ["1", "-1"], "y": ["-1", "1"]}}
    with pytest.raises(SpecError):
        parse_spec_dict(doc)


def test_several_diagnostics_are_collected_at_once():
    doc = json.loads(json.dumps(MINIMAL))
    doc["tensors"]["pi"]["components"]["0,1"] = [["junk", {"z": 1}]]
    doc["seed"] = "soon"
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert len(exc.value.diagnostics) >= 2


def test_geometric_data_requires_the_coupling_pieces():
    spec = parse_spec_dict(MINIMAL)
    with pytest.raises(ValueError):
        spec.geometric_data()


def test_scalar_tensors_parse():
    doc = json.loads(json.dumps(MINIMAL))
    doc["tensors"]["f"] = {"kind": "scalar", "value": [["2/3", {"x": 2}]]}
    spec = parse_spec_dict(doc)
    f = spec.scalars["f"]
    x = RationalFn.var("x")
    assert f == (x * x).scale(Fraction(2, 3))
    # a scalar entry without a value is a located error, not a silent zero
    doc["tensors"]["f"] = {"kind": "scalar"}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert any("tensors.f" in loc for loc in _err_locations(exc))


def _rotating_doc():
    return json.loads(fixture_path("rotating_lift").read_text())


def test_planes_and_weights_of_different_lengths_are_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["coordinates"] = ["x", "y", "u", "v", "w", "z"]
    doc["action"] = {"circles": [{"planes": [[2, 3], [4, 5]], "weights": [1]}]}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert _err_locations(exc) == ["action.circles[0]"]


@pytest.mark.parametrize(
    "where, loc",
    [
        (("seed",), "seed"),
        (("samples",), "samples"),
        (("action", "circles", 0, "weights", 0), "action.circles[0].weights[0]"),
        (("action", "circles", 0, "planes", 0, 1), "action.circles[0].planes[0]"),
    ],
)
def test_true_is_not_an_integer(where, loc):
    doc = _rotating_doc()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = True
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert _err_locations(exc) == [loc]


def test_non_integer_foliation_index_is_a_located_error():
    doc = _rotating_doc()
    doc["foliation"]["base"] = [0, 1.0]
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert "foliation.base[1]" in _err_locations(exc)


@pytest.mark.parametrize("pair", [{"0": "-1"}, [-1, 1], ["1/0", "1"]])
def test_malformed_box_interval_is_a_located_error(pair):
    doc = json.loads(json.dumps(MINIMAL))
    doc["boxes"] = {"default": {"x": pair, "y": ["-1", "1"]}}
    with pytest.raises(SpecError) as exc:
        parse_spec_dict(doc)
    assert "boxes.default.x" in _err_locations(exc)


_FUZZ_DOCS = [json.loads(fixture_path(name).read_text()) for name in FIXTURES] + [
    json.loads((pathlib.Path(__file__).resolve().parents[1] / "bench" / "torus.json").read_text())
]
_JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=4),
    st.integers(-2, 9),
    st.none(),
    st.just([]),
    st.just({}),
)


def _mutate(doc, data):
    """Walk to a random node, then drop it, replace it or insert junk beside it."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["drop", "swap", "insert"]))
        if action == "drop":
            del node[key]
        elif action == "swap":
            node[key] = data.draw(_JUNK)
        elif isinstance(node, list):
            node.insert(key, data.draw(_JUNK))
        else:
            node[data.draw(st.text(max_size=4))] = data.draw(_JUNK)
        return


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_documents_raise_spec_error_or_round_trip(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        spec = parse_spec_dict(doc)
    except SpecError:
        return
    text = serialize_spec(spec)
    assert serialize_spec(parse_spec_dict(json.loads(text))) == text
