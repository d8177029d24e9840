"""Every JSON format reads back what it writes: from_dict(to_dict(x)) is lossless."""

from dataclasses import fields
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from complexity_one.catalog import load, names, simplex_polytope
from complexity_one.chardata import Ambient, CharacteristicData, _checks
from complexity_one.errors import InputFormatError
from complexity_one.io import (
    canonical_json,
    chardata_from_dict,
    chardata_to_dict,
    lambda_from_dict,
    lambda_to_dict,
    loads,
    polytope_from_dict,
    polytope_to_dict,
    sponge_from_dict,
    sponge_to_dict,
    weight_system_from_dict,
    weight_system_to_dict,
)
from complexity_one.lattice import IntVector, vec
from complexity_one.quasitoric import (
    CharacteristicFunction,
    SimplePolytope,
    coloring_pullback,
    find_strict_subtorus,
    reduce,
)
from complexity_one.sponge import Cell, SpongeComplex, _Index
from complexity_one.weights import WeightSystem
from test_sponge import INDEX_CASES

FEW = settings(max_examples=15, deadline=None)

# small entries most of the time, and some past 64 bits (written as strings)
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


def assert_round_trip(to_dict, from_dict, value):
    text = canonical_json(to_dict(value))
    assert canonical_json(to_dict(from_dict(loads(text)))) == text


@st.composite
def weight_systems(draw):
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return WeightSystem(n, tuple(vec(*w).scale(s) for w, s in zip(weights, signs)))


def unit(n: int, i: int) -> IntVector:
    return IntVector(tuple(int(t == i) for t in range(n)))


def simplex(n: int):
    facets = [f"f{i}" for i in range(n + 1)]
    lam = {f: unit(n, i) for i, f in enumerate(facets[:-1])}
    lam[facets[-1]] = vec(*[-1] * n)
    return facets, [set(v) for v in combinations(facets, n)], lam


def prism(n: int):
    sides = [f"s{i}" for i in range(n)]
    vertices = [set(sides) - {s} | {end} for s in sides for end in ("t", "b")]
    lam = {s: unit(n, i) for i, s in enumerate(sides[:-1])}
    lam.update({sides[-1]: vec(*[1] * n), "t": unit(n, n - 1), "b": unit(n, n - 1)})
    return sides + ["t", "b"], vertices, lam


def cube(n: int):
    axes = [f"x{i}" for i in range(n)]
    facets = [a + s for a in axes for s in "mp"]
    vertices = [{a + s for a, s in zip(axes, signs)} for signs in product("mp", repeat=n)]
    colors = {a + s: i + 1 for i, a in enumerate(axes) for s in "mp"}
    p = SimplePolytope(n, tuple(facets), tuple(frozenset(v) for v in vertices))
    return facets, vertices, dict(coloring_pullback(p, colors).values)


@st.composite
def polytopes(draw, max_n: int = 4):
    """A simplex, prism or cube with relabelled facets and sign-flipped lambda values."""
    build = draw(st.sampled_from((simplex, prism, cube)))
    facets, vertices, lam = build(draw(st.integers(2, max_n)))
    rename = dict(zip(facets, draw(st.permutations([f"F{i}" for i in range(len(facets))]))))
    flips = draw(st.lists(st.sampled_from((1, -1)), min_size=len(facets), max_size=len(facets)))
    p = SimplePolytope(
        len(vertices[0]),
        tuple(rename[f] for f in facets),
        tuple(frozenset(rename[f] for f in v) for v in vertices),
    )
    values = {rename[f]: lam[f].scale(s) for f, s in zip(facets, flips)}
    return p, CharacteristicFunction(values)


@FEW
@given(weight_systems())
def test_weight_system_round_trip(ws):
    assert_round_trip(weight_system_to_dict, weight_system_from_dict, ws)


@FEW
@given(polytopes())
def test_polytope_and_lambda_round_trip(case):
    p, lam = case
    assert_round_trip(polytope_to_dict, polytope_from_dict, p)
    assert_round_trip(lambda_to_dict, lambda_from_dict, lam)


@settings(max_examples=8, deadline=None)
@given(polytopes(max_n=3))
def test_reduce_output_round_trip(case):
    p, lam = case
    for st_choice in find_strict_subtorus(p, lam, 1)[:1]:
        cd = reduce(p, lam, st_choice)
        assert_round_trip(chardata_to_dict, chardata_from_dict, cd)
        assert_round_trip(sponge_to_dict, sponge_from_dict, cd.sponge)


@FEW
@given(
    st.sampled_from(names()),
    st.sampled_from(("sphere", "product", "abstract")),
    st.data(),
)
def test_catalog_chardata_round_trip(name, kind, data):
    cd = load(name).data
    signs = {
        f: k * data.draw(st.sampled_from((1, -1)), label=f) for f, k in sorted(cd.euler_sign.items())
    }
    if kind == "product":
        boundary_trivial = data.draw(st.booleans(), label="boundary_trivial")
    else:  # only a product has a boundary over which the free part can be nontrivial
        with pytest.raises(InputFormatError):
            Ambient(kind, False)
        boundary_trivial = True
    cd = CharacteristicData(cd.sponge, cd.mu, signs, Ambient(kind, boundary_trivial))
    assert_round_trip(chardata_to_dict, chardata_from_dict, cd)
    assert_round_trip(sponge_to_dict, sponge_from_dict, cd.sponge)


def test_ids_and_labels_round_trip():
    # labels that str() of a wrong type would produce are ordinary strings
    # here and come back as written; an absent label reads as ""
    cells = [Cell("v,1", 0, "None"), Cell("v 2", 0, "7"), Cell("e:1", 1, "['x']")]
    s = SpongeComplex(3, tuple(cells), {"e:1": (("v 2", 1), ("v,1", -1))})
    assert_round_trip(sponge_to_dict, sponge_from_dict, s)
    back = sponge_from_dict(loads(canonical_json(sponge_to_dict(s))))
    assert back.by_id == s.by_id
    data = sponge_to_dict(s)
    del data["cells"][0]["label"]
    assert sponge_from_dict(data).by_id["v 2"].label == ""


def _with(data: dict, path: tuple, value) -> dict:
    """A deep copy of JSON data with the entry at path replaced by value."""
    data = loads(canonical_json(data))
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


G42_SPONGE = sponge_to_dict(load("g42").data.sponge)
G42_EDGE = min(G42_SPONGE["incidence"])
SIMPLEX = polytope_to_dict(simplex_polytope())


@pytest.mark.parametrize(
    "read, data, path, value, where",
    [
        (sponge_from_dict, G42_SPONGE, ("cells", 0, "label"), None, "sponge.cells[0].label"),
        (sponge_from_dict, G42_SPONGE, ("cells", 0, "label"), ["x"], "sponge.cells[0].label"),
        (sponge_from_dict, G42_SPONGE, ("cells", 2, "id"), 7, "sponge.cells[2].id"),
        (sponge_from_dict, G42_SPONGE, ("incidence", G42_EDGE, 1, 0), ["x"], f"sponge.incidence[{G42_EDGE}]"),
        (polytope_from_dict, SIMPLEX, ("facets", 1), 7, "polytope.facets[1]"),
        (polytope_from_dict, SIMPLEX, ("vertices", 2, 0), None, "polytope.vertices[2]"),
    ],
    ids=["null-label", "list-label", "int-id", "list-incidence-id", "int-facet", "null-vertex-entry"],
)
def test_non_string_ids_and_labels_rejected(read, data, path, value, where):
    # str() made these "None", "['x']" and "7"
    with pytest.raises(InputFormatError) as exc:
        read(_with(data, path, value))
    assert str(exc.value).startswith(f"{where}: expected a string, got ")


def _rekeyed(mapping, key):
    """A copy of mapping with its first key replaced by key."""
    (first, value), *rest = mapping.items()
    return {key: value, **dict(rest)}


@pytest.mark.parametrize("key", [7, None], ids=["int", "null"])
def test_non_string_keys_rejected(key):
    # str() turned a mu, Euler-sign or lambda key 7 into the facet "7"
    data = chardata_to_dict(load("cp3-reduction").data)
    cases = [
        (chardata_from_dict, {**data, "mu": _rekeyed(data["mu"], key)}, "mu key"),
        (chardata_from_dict, {**data, "euler_sign": _rekeyed(data["euler_sign"], key)}, "Euler sign key"),
        (lambda_from_dict, {key: [1, 0], "f2": [0, 1]}, "lambda key"),
    ]
    for read, bad, what in cases:
        with pytest.raises(InputFormatError, match=f"^{what} is {key!r}, not a string$"):
            read(bad)


# catalog data whose files the reader hands over
HANDED_OVER = names() + ["local-model-5"]


def _relabelled(data: dict, rename: dict) -> dict:
    """Characteristic-data JSON with every cell id renamed."""
    sponge = data["sponge"]
    return {
        **data,
        "sponge": {
            "n": sponge["n"],
            "cells": [{**c, "id": rename[c["id"]]} for c in sponge["cells"]],
            "incidence": {rename[k]: [[rename[x], sign] for x, sign in v] for k, v in sponge["incidence"].items()},
        },
        "mu": {rename[k]: v for k, v in data["mu"].items()},
        "euler_sign": {rename[k]: v for k, v in data["euler_sign"].items()},
    }


def _edit_sponge(draw, sponge: dict) -> None:
    """Up to two defects the reader leaves to validation, made in place: a subcell that is no cell, a
    cover of the wrong dimension, a sign 0 or +-2, a cover listed twice, or a 0-cell with a boundary."""
    cells, incidence = sponge["cells"], sponge["incidence"]
    dims = {c["id"]: c["dim"] for c in cells}
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("unknown", "dim", "sign", "twice", "point")))
        keys = sorted(k for k, v in incidence.items() if v)
        if not keys:
            return
        key = draw(st.sampled_from(keys))
        if kind == "unknown":
            incidence[key].append(["nowhere", 1])
        elif kind == "dim":
            other = [c for c, d in dims.items() if d != dims[key] - 1]
            if other:
                incidence[key].append([draw(st.sampled_from(other)), draw(st.sampled_from((1, -1)))])
        elif kind == "sign":
            entry = draw(st.sampled_from(incidence[key]))
            entry[1] = draw(st.sampled_from((0, 2, -2)))
        elif kind == "twice":
            incidence[key].append(list(draw(st.sampled_from(incidence[key]))))
        else:
            points = sorted(c for c, d in dims.items() if d == 0)
            if points:
                incidence[draw(st.sampled_from(points))] = [[draw(st.sampled_from(sorted(dims))), 1]]


@st.composite
def chardata_files(draw):
    """Characteristic-data JSON the reader accepts: a catalog datum with its ids permuted, its cells
    shuffled, and some sponge defects and some mu and Euler sign defects (a value dropped, one on a
    cell that is no facet, a sign 0 or 2, a mu of the wrong dim or zero) that validation reports."""
    data = loads(canonical_json(chardata_to_dict(load(draw(st.sampled_from(HANDED_OVER))).data)))
    ids = [c["id"] for c in data["sponge"]["cells"]]
    data = _relabelled(data, dict(zip(ids, draw(st.permutations(ids)))))
    data["sponge"]["cells"] = draw(st.permutations(data["sponge"]["cells"]))
    _edit_sponge(draw, data["sponge"])
    mu, signs = data["mu"], data["euler_sign"]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("drop", "extra", "sign", "dim", "zero")))
        facet = draw(st.sampled_from(sorted(mu)))
        if kind == "drop":
            draw(st.sampled_from((mu, signs))).pop(facet, None)
        elif kind == "extra":
            cell = draw(st.sampled_from(sorted(ids)))
            mu[cell], signs[cell] = mu[facet], 1
        elif kind == "sign" and facet in signs:
            signs[facet] = draw(st.sampled_from((0, 2)))
        elif kind == "dim":
            mu[facet] = mu[facet] + [1]
        else:
            mu[facet] = [0] * len(mu[facet])
    return data


READ_SPONGES = st.one_of(
    chardata_files().map(lambda data: data["sponge"]),
    # malformed complexes of the index tests whose incidence keys are cells, as the reader requires
    INDEX_CASES.filter(lambda s: s.by_id.keys() >= s.incidence.keys()).map(sponge_to_dict),
)


def _checked_sponge(data: dict) -> SpongeComplex:
    """The checking constructor on the fields of sponge JSON."""
    cells = tuple(Cell(c["id"], c["dim"], c.get("label", "")) for c in data["cells"])
    return SpongeComplex(data["n"], cells, {k: tuple(map(tuple, v)) for k, v in data["incidence"].items()})


def _checked_chardata(data: dict) -> CharacteristicData:
    """The checking constructors on the fields of characteristic-data JSON."""
    return CharacteristicData(_checked_sponge(data["sponge"]), data["mu"], data["euler_sign"], Ambient(data["ambient"]))


def _raised(build, data):
    """The type and text of what build(data) raises."""
    with pytest.raises(Exception) as exc:
        build(data)
    return type(exc.value), str(exc.value)


class TestHandOver:
    """The reader checks every field itself and hands its complex and datum over without a second
    check: they equal what the checking constructors build on the same fields, reports included,
    and whatever the constructors reject the reader rejects with the same error."""

    @settings(max_examples=150, deadline=None)
    @given(data=READ_SPONGES)
    def test_read_sponge_is_the_checked_one(self, data):
        read, built = sponge_from_dict(data), _checked_sponge(data)
        assert (read.n, read.cells, read.incidence, read.by_id) == (built.n, built.cells, built.incidence, built.by_id)
        for f in fields(_Index):
            assert getattr(read._index, f.name) == getattr(built._index, f.name), f.name
        assert read.validation_report == built.validation_report

    @settings(max_examples=100, deadline=None)
    @given(data=chardata_files())
    def test_read_datum_is_the_checked_one(self, data):
        read, built = chardata_from_dict(data), _checked_chardata(data)
        assert (read.mu, read.euler_sign, read.n) == (built.mu, built.euler_sign, built.n)
        assert all(type(v) is IntVector for v in read.mu.values())
        assert list(_checks(read)) == list(_checks(built))

    @settings(max_examples=100, deadline=None)
    @given(
        data=chardata_files(),
        kind=st.sampled_from(("duplicate", "mu", "euler_sign")),
        key=st.sampled_from((7, None, ("x",))),
        pick=st.data(),
    )
    def test_rejected_alike(self, data, kind, key, pick):
        if kind == "duplicate":
            cells = data["sponge"]["cells"]
            cells.append({**pick.draw(st.sampled_from(cells)), "dim": pick.draw(st.integers(0, 3))})
        else:
            data[kind] = _rekeyed(data[kind], key)
        assert _raised(chardata_from_dict, data) == _raised(_checked_chardata, data)


# edits of characteristic-data JSON that the reader rejects
REJECTED = {
    "duplicate-cell": lambda data: data["sponge"]["cells"].append(data["sponge"]["cells"][0]),
    "list-entry": lambda data: data["sponge"]["incidence"].update({min(data["sponge"]["incidence"]): [[["x"], 1]]}),
    "text-mu": lambda data: data["mu"].update({list(data["mu"])[-1]: "x"}),
    "text-sign": lambda data: data["euler_sign"].update({list(data["euler_sign"])[-1]: "x"}),
    "unknown-ambient": lambda data: data.update(ambient="torus"),
    "int-mu-key": lambda data: data.update(mu=_rekeyed(data["mu"], 7)),
    "int-sign-key": lambda data: data.update(euler_sign=_rekeyed(data["euler_sign"], 7)),
}


@pytest.mark.parametrize(
    "edits, error",
    [
        # the incidence is read before the cell ids are counted; the mu and
        # Euler sign values and the ambient are read before any key is checked
        (("duplicate-cell", "list-entry"), "chardata.sponge.incidence["),
        (("int-mu-key", "text-mu"), "chardata.mu["),
        (("int-mu-key", "text-sign"), "chardata.euler_sign["),
        (("int-mu-key", "unknown-ambient"), "chardata.ambient: unknown kind"),
        (("int-sign-key", "int-mu-key"), "mu key is 7, not a string"),
    ],
    ids=["incidence-then-cell-count", "mu-then-keys", "sign-then-keys", "ambient-then-keys", "mu-key-first"],
)
def test_reader_errors_keep_their_order(edits, error):
    data = chardata_to_dict(load("cp3-reduction").data)
    for edit in edits:
        REJECTED[edit](data)
    with pytest.raises(InputFormatError) as exc:
        chardata_from_dict(data)
    assert str(exc.value).startswith(error), str(exc.value)
