"""Every JSON format reads back what it writes: from_dict(to_dict(x)) is lossless."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from complexity_one.catalog import load, names, simplex_polytope
from complexity_one.chardata import Ambient, CharacteristicData
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
from complexity_one.sponge import Cell, SpongeComplex
from complexity_one.weights import WeightSystem

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
