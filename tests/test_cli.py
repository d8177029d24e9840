import copy
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complexity_one
import complexity_one.sponge as sponge_mod

from complexity_one.catalog import load, names, simplex_lambda, simplex_polytope
from complexity_one.chardata import Ambient, CharacteristicData
from complexity_one.classify import compare, verify_witness
from complexity_one.cli import build_parser, main
from complexity_one.errors import InputFormatError
from complexity_one.io import (
    canonical_json,
    chardata_from_dict,
    chardata_to_dict,
    lambda_to_dict,
    loads,
    polytope_to_dict,
    sponge_to_dict,
    weight_system_to_dict,
)
from complexity_one.lattice import IntMatrix, vec
from complexity_one.quasitoric import CharacteristicFunction, SimplePolytope
from complexity_one.sponge import Cell, SpongeComplex
from complexity_one.weights import WeightSystem
from conftest import euler_cycle_verdicts
from test_quasitoric import POLYTOPES


SIMPLEX = canonical_json(polytope_to_dict(simplex_polytope())).encode()


def _exported(name: str, **changes) -> bytes:
    """The catalog entry as the catalog exports it, with the top-level changes applied."""
    return canonical_json({**chardata_to_dict(load(name).data), **changes}).encode()


def _edited(data: dict, path: tuple, value) -> bytes:
    """data as a JSON file with the entry at path replaced by value."""
    data = copy.deepcopy(data)
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return canonical_json(data).encode()


G42 = chardata_to_dict(load("g42").data)
G42_EDGE = min(G42["sponge"]["incidence"])
SIMPLEX_DICT = polytope_to_dict(simplex_polytope())


@pytest.fixture
def workdir(tmp_path):
    ws = WeightSystem(4, (vec(1, 0, -1), vec(0, 1, -1), vec(-1, 0, -1), vec(0, -1, -1)))
    (tmp_path / "weights.json").write_text(canonical_json(weight_system_to_dict(ws)))
    (tmp_path / "delta3.json").write_text(canonical_json(polytope_to_dict(simplex_polytope())))
    (tmp_path / "lam.json").write_text(canonical_json(lambda_to_dict(simplex_lambda())))
    cd = load("g42").data
    (tmp_path / "g42.json").write_text(canonical_json(chardata_to_dict(cd)))
    (tmp_path / "g42sponge.json").write_text(canonical_json(sponge_to_dict(cd.sponge)))
    return tmp_path


class TestCommands:
    def test_validate_weights(self, workdir, capsys):
        code = main(["validate-weights", str(workdir / "weights.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "c=[1, -1, 1, -1]" in out
        assert "strictly-appropriate" in out

    def test_validate_sponge(self, workdir, capsys):
        code = main(["validate-sponge", str(workdir / "g42sponge.json")])
        assert code == 0

    def test_homology(self, workdir, capsys):
        code = main(["homology", str(workdir / "g42sponge.json")])
        out = capsys.readouterr().out
        assert code == 0 and "1 0 4" in out

    def test_reduce_emits_chardata(self, workdir, capsys):
        out_file = workdir / "cd.json"
        code = main(
            [
                "reduce",
                "--polytope",
                str(workdir / "delta3.json"),
                "--lambda",
                str(workdir / "lam.json"),
                "--alpha",
                "1,1,-1",
                "-o",
                str(out_file),
            ]
        )
        assert code == 0
        cd = chardata_from_dict(loads(out_file.read_text()))
        assert cd.n == 3 and cd.ambient.kind == "sphere"

    def test_reduce_solver_fallback(self, workdir, capsys):
        code = main(
            [
                "reduce",
                "--polytope",
                str(workdir / "delta3.json"),
                "--lambda",
                str(workdir / "lam.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and "subtorus" in out

    @pytest.mark.parametrize("bound", ["3", "1000000"])
    def test_reduce_search_checks_the_star_condition_first(self, workdir, capsys, monkeypatch, bound):
        # planar values can only fail the star condition, which is reported
        # before any search for alpha starts
        from complexity_one import quasitoric

        def search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(quasitoric, "_strict_subtori", search)
        planar = {"f1": [1, 0, 0], "f2": [0, 1, 0], "f3": [1, 1, 0], "f4": [-1, -1, 0]}
        (workdir / "planar.json").write_text(canonical_json(planar))
        argv = ["reduce", "--polytope", str(workdir / "delta3.json"), "--lambda", str(workdir / "planar.json")]
        code = main(argv + ["--alpha-bound", bound])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.startswith("FAIL error: StarConditionError: vertex ['f1', 'f2', 'f3']: determinant 0;")
        assert "Traceback" not in out + err

    def test_reduce_search_validates_the_star_once(self, workdir, capsys, monkeypatch):
        from complexity_one import cli, quasitoric

        calls = []

        def counted(p, lam, validate=quasitoric.validate_star):
            calls.append(p)
            return validate(p, lam)

        monkeypatch.setattr(cli, "validate_star", counted)
        monkeypatch.setattr(quasitoric, "validate_star", counted)
        argv = ["reduce", "--polytope", str(workdir / "delta3.json"), "--lambda", str(workdir / "lam.json")]
        assert main(argv) == 0
        assert len(calls) == 1
        assert main(argv + ["--alpha", "1,1,-1"]) == 0
        assert len(calls) == 2

    def test_validate_chardata(self, workdir, capsys):
        code = main(["validate-chardata", str(workdir / "g42.json")])
        out = capsys.readouterr().out
        assert code == 0 and "euler-cycle" in out

    def test_compare_equivalent(self, workdir, capsys):
        code = main(["compare", str(workdir / "g42.json"), str(workdir / "g42.json")])
        out = capsys.readouterr().out
        assert code == 0 and "Equivalent" in out

    def test_compare_cell_less_data_is_equivalent(self, tmp_path, capsys):
        # no cells and no facets: the only bijection is empty and any matrix is a transform
        empty = {
            "n": 3,
            "sponge": {"n": 3, "cells": [], "incidence": {}},
            "mu": {},
            "euler_sign": {},
            "ambient": "abstract",
        }
        path = str(tmp_path / "empty.json")
        (tmp_path / "empty.json").write_text(canonical_json(empty))
        assert main(["validate-chardata", path]) == 0
        capsys.readouterr()
        assert main(["compare", path, path]) == 0, capsys.readouterr().out
        cd = chardata_from_dict(empty)
        result = compare(cd, cd)
        assert result.verdict == "equivalent"
        assert result.witness.matrix == IntMatrix.identity(2)
        assert verify_witness(cd, cd, result.witness)

    def test_compare_flipped_sign(self, workdir, capsys):
        data = loads((workdir / "g42.json").read_text())
        fid = sorted(data["euler_sign"])[0]
        data["euler_sign"][fid] = -data["euler_sign"][fid]
        (workdir / "flipped.json").write_text(canonical_json(data))
        code = main(["compare", str(workdir / "g42.json"), str(workdir / "flipped.json")])
        out = capsys.readouterr().out
        assert code == 1 and "Inequivalent" in out

    def test_catalog_verify(self, capsys):
        code = main(["catalog", "f3"])
        assert code == 0

    def test_catalog_list(self, capsys):
        code = main(["--format", "json", "catalog", "--list"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0 and payload["command"] == "catalog"

    def test_malformed_json_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{broken")
        code = main(["validate-sponge", str(bad)])
        assert code == 2

    def test_unknown_catalog_exits_2(self, capsys):
        assert main(["catalog", "missing-entry"]) == 2

    @pytest.mark.parametrize("name", ["local-model-\u00b2", "local-model-\u0663"])
    def test_non_ascii_digit_suffix_is_unknown(self, capsys, name):
        # a superscript two, which int() rejects, and an Arabic-Indic three,
        # which int() reads as 3: neither names a local model
        assert main(["catalog", name]) == 2
        out, err = capsys.readouterr()
        assert f"unknown catalog entry {name!r}" in err and "Traceback" not in out + err

    @pytest.mark.parametrize("argv", [["compare", "--bogus"], ["reduce", "--polytope"], ["nope"], []])
    def test_bad_flags_exit_2_from_the_one_parser(self, capsys, argv):
        # main reuses one parser; its usage and error text match a freshly built one
        assert build_parser() is build_parser()
        runs = []
        for parse in (main, main, build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            runs.append((exc.value.code, capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2] and runs[0][0] == 2
        assert runs[0][1].err.startswith("usage: complexity-one")

    def test_float_rejected(self, workdir, capsys):
        bad = workdir / "float.json"
        bad.write_text('{"n": 3.5, "weights": []}')
        code = main(["validate-weights", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, content",
        [
            ("validate-sponge {bad}", b'{"n":3,"cells":5}'),
            ("homology {bad}", b'{"n":3,"cells":5}'),
            ("validate-weights {bad}", b'{"n":3,\xff"weights":[]}'),
            ("validate-weights {bad}", b'{"n":3,"weights":[[1,0],[0,1],[1]]}'),
            ("catalog bad", b'{"n":3,\xff"weights":[]}'),
            # the polytope is a valid n=3 simplex; the malformed input is alpha
            ("reduce --polytope {bad} --lambda {lam} --alpha=1,0", SIMPLEX),
            ("reduce --polytope {bad} --lambda {lam} --alpha=\u0661,1,-1", SIMPLEX),
            ("reduce --polytope {bad} --lambda {lam} --alpha=1_0,1,-1", SIMPLEX),
            # a top-level n other than the sponge's, and a sphere that is not boundary trivial
            ("validate-chardata {bad}", _exported("f3", n=2)),
            ("compare {bad} {good}", _exported("f3", n=2)),
            ("catalog bad", _exported("f3", n=2)),
            ("validate-chardata {bad}", _exported("g42", boundary_trivial=False)),
            ("compare {good} {bad}", _exported("g42", boundary_trivial=False)),
            # ids and labels that are not strings, which str() turned into "None", "7" and "['x']"
            ("validate-sponge {bad}", _edited(G42["sponge"], ("cells", 0, "label"), None)),
            ("validate-sponge {bad}", _edited(G42["sponge"], ("cells", 0, "id"), 7)),
            ("homology {bad}", _edited(G42["sponge"], ("incidence", G42_EDGE, 0, 0), ["x"])),
            ("catalog bad", _edited(G42, ("sponge", "cells", 0, "label"), None)),
            ("reduce --polytope {bad} --lambda {lam} --alpha=1,1,-1", _edited(SIMPLEX_DICT, ("facets", 0), 7)),
            ("reduce --polytope {bad} --lambda {lam} --alpha=1,1,-1", _edited(SIMPLEX_DICT, ("vertices", 0, 0), None)),
        ],
        ids=[
            "sponge-int-cells",
            "homology-int-cells",
            "non-ascii",
            "ragged-weights",
            "catalog-non-ascii",
            "reduce-alpha-wrong-length",
            "reduce-alpha-arabic-indic-digit",
            "reduce-alpha-underscore",
            "chardata-n-not-the-sponges",
            "compare-n-not-the-sponges",
            "catalog-n-not-the-sponges",
            "chardata-sphere-not-boundary-trivial",
            "compare-sphere-not-boundary-trivial",
            "sponge-null-label",
            "sponge-int-id",
            "homology-list-incidence-id",
            "catalog-null-label",
            "reduce-int-facet",
            "reduce-null-vertex-entry",
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, monkeypatch, argv, content):
        # a catalog name resolves to <dir>/<name>.json through the override directory
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        monkeypatch.setenv("COMPLEXITY_ONE_CATALOG", str(tmp_path))
        lam = tmp_path / "lam.json"
        lam.write_text(canonical_json(lambda_to_dict(simplex_lambda())))
        good = tmp_path / "good.json"
        good.write_bytes(_exported("g42"))
        code = main([a.format(bad=bad, lam=lam, good=good) for a in argv.split()])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("FAIL input: ")

    @pytest.mark.parametrize("command", ["validate-chardata", "catalog"])
    @pytest.mark.parametrize("field", ["mu", "euler_sign"])
    def test_facet_without_mu_or_sign_fails_cocycle(self, tmp_path, capsys, monkeypatch, field, command):
        data = chardata_to_dict(load("f3").data)
        del data[field][min(data[field])]
        (tmp_path / "f3.json").write_text(canonical_json(data))
        monkeypatch.setenv("COMPLEXITY_ONE_CATALOG", str(tmp_path))
        code = main([command, "f3" if command == "catalog" else str(tmp_path / "f3.json")])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in out + err
        assert "FAIL cocycle: face " in out and "lack mu or an Euler sign" in out

    @pytest.mark.parametrize("command", ["validate-chardata", "catalog"])
    def test_incidence_key_not_a_cell_exits_2(self, tmp_path, capsys, monkeypatch, command):
        data = chardata_to_dict(load("f3").data)
        data["sponge"]["incidence"]["ghost"] = [["w123", 1]]
        (tmp_path / "f3.json").write_text(canonical_json(data))
        monkeypatch.setenv("COMPLEXITY_ONE_CATALOG", str(tmp_path))
        code = main([command, "f3" if command == "catalog" else str(tmp_path / "f3.json")])
        out, err = capsys.readouterr()
        assert code == 2 and "Traceback" not in out + err
        assert err.startswith("FAIL input: ") and "'ghost' is not a cell id" in err

    def test_unknown_subcell_fails_incidence_structure(self, tmp_path, capsys):
        data = sponge_to_dict(load("f3").data.sponge)
        data["incidence"][min(data["incidence"])].append(["ghost", 1])
        (tmp_path / "s.json").write_text(canonical_json(data))
        code = main(["validate-sponge", str(tmp_path / "s.json")])
        out = capsys.readouterr().out
        assert code == 1 and "FAIL incidence-structure: " in out and "unknown cell ghost" in out


class TestCommaFacetIds:
    def _reduce(self, tmp_path, p, values):
        (tmp_path / "p.json").write_text(canonical_json(polytope_to_dict(p)))
        (tmp_path / "lam.json").write_text(canonical_json(lambda_to_dict(CharacteristicFunction(values))))
        return main(["reduce", "--polytope", str(tmp_path / "p.json"), "--lambda", str(tmp_path / "lam.json")])

    def test_cube_with_a_comma_facet_reduces(self, tmp_path, capsys):
        # facet xm is renamed to the id of the face {ym, zm}
        name = {"xm": "ym,zm"}
        verts = [frozenset(name.get(a + s, a + s) for a, s in zip("xyz", signs)) for signs in product("mp", repeat=3)]
        facets = [name.get(a + s, a + s) for a in "xyz" for s in "mp"]
        values = {name.get(a + s, a + s): vec(*(int(a == b) for b in "xyz")) for a in "xyz" for s in "mp"}
        code = self._reduce(tmp_path, SimplePolytope(3, tuple(facets), tuple(verts)), values)
        out, err = capsys.readouterr()
        assert code == 0 and err == "" and "FAIL" not in out
        assert "PASS reduce: sponge cells=20\n" in out and "PASS subtorus: alpha=[1, -1, -1]\n" in out

    def test_colliding_faces_exit_2(self, tmp_path, capsys):
        # the faces {a, b,c} and {a,b, c} of this simplex both have the id g:a,b,c
        facets = ("a", "b,c", "a,b", "c")
        p = SimplePolytope(3, facets, tuple(frozenset(facets) - {f} for f in facets))
        values = dict(zip(facets, (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(-1, -1, -1))))
        code = self._reduce(tmp_path, p, values)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "FAIL input: duplicate cell ids\nPASS subtorus: alpha=[1, -1, -1]\n"


class TestOversizedDimensions:
    @pytest.mark.parametrize(
        "command, n, dim",
        [
            ("validate-sponge", 10**6, None),
            ("validate-chardata", 10**6, None),
            ("compare", 10**6, None),
            ("homology", 10**6, None),
            ("validate-sponge", 3000, None),
            ("homology", None, 10**8),
        ],
    )
    def test_fails_fast_without_traceback(self, tmp_path, capsys, command, n, dim):
        # f3's sponge has dimension 1; a far larger n or one enormous cell
        # dimension fails cell-dims before any count or boundary matrix
        data = chardata_to_dict(load("f3").data)
        if n is not None:
            data["n"] = data["sponge"]["n"] = n
        if dim is not None:
            data["sponge"]["cells"][-1]["dim"] = dim
        path = tmp_path / "f.json"
        path.write_text(canonical_json(data["sponge"] if command in ("validate-sponge", "homology") else data))
        start = time.perf_counter()
        code = main([command] + [str(path)] * (2 if command == "compare" else 1))
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and err == "" and "Traceback" not in out
        assert elapsed < 1.0 and len(out) < 1000
        assert "complex has dimension" in out


    def test_chain_stops_at_each_cells_first_wrong_count(self, tmp_path, capsys):
        # a chain c_k -> c_(k-1) through every dimension passes cell-dims and
        # incidence-structure but is no sponge; each cell reports one count
        n = 1200
        cells = tuple(Cell(f"c{k}", k) for k in range(n - 1))
        incidence = {f"c{k}": ((f"c{k - 1}", 1),) for k in range(1, n - 1)}
        path = tmp_path / "chain.json"
        path.write_text(canonical_json(sponge_to_dict(SpongeComplex(n, cells, incidence))))
        start = time.perf_counter()
        code = main(["validate-sponge", str(path)])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 1 and err == "" and "Traceback" not in out
        assert elapsed < 2.0 and len(out) < 10**6
        counts = [line for line in out.splitlines() if line.startswith("FAIL upper-counts: ")]
        assert len(counts) == n - 2
        assert "FAIL upper-counts: cell c0 (dim 0) lies in 1 cells of dim 1, expected 1200\n" in out


class TestRoundTrip:
    def test_emitted_chardata_revalidates_identically(self, workdir, capsys):
        out_file = workdir / "cd.json"
        main(
            [
                "reduce",
                "--polytope",
                str(workdir / "delta3.json"),
                "--lambda",
                str(workdir / "lam.json"),
                "--alpha",
                "1,1,-1",
                "-o",
                str(out_file),
            ]
        )
        capsys.readouterr()
        code1 = main(["--format", "json", "validate-chardata", str(out_file)])
        first = capsys.readouterr().out
        # serialize -> parse -> serialize is byte-stable
        parsed = chardata_from_dict(loads(out_file.read_text()))
        again = canonical_json(chardata_to_dict(parsed)) + "\n"
        assert again == out_file.read_text()
        (workdir / "cd2.json").write_text(again)
        code2 = main(["--format", "json", "validate-chardata", str(workdir / "cd2.json")])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first.replace(str(out_file), "X") == second.replace(str(workdir / "cd2.json"), "X")

    @pytest.mark.parametrize("name", names())
    def test_catalog_chardata_round_trip(self, name):
        cd = load(name).data
        text = canonical_json(chardata_to_dict(cd))
        back = chardata_from_dict(loads(text))
        assert canonical_json(chardata_to_dict(back)) == text
        assert back.ambient == cd.ambient and "boundary_trivial" not in loads(text)

    def test_boundary_trivial_false_round_trips(self):
        cd = load("f3").data
        cd = CharacteristicData(cd.sponge, cd.mu, cd.euler_sign, Ambient("product", False))
        data = loads(canonical_json(chardata_to_dict(cd)))
        assert data["boundary_trivial"] is False
        back = chardata_from_dict(data)
        assert back.ambient == Ambient("product", False)
        assert euler_cycle_verdicts(back) == (True, True)
        assert not back.ambient.determines_class
        data["boundary_trivial"] = 0
        with pytest.raises(InputFormatError):
            chardata_from_dict(data)

    def test_big_integer_encoding(self):
        from complexity_one.io import _decode_int, _encode_int

        big = 2**80 + 7
        assert _encode_int(big) == str(big)
        assert _decode_int(str(big), "t") == big
        assert _encode_int(12) == 12


# Exact stdout, stderr and exit code of every command, in text and in JSON
# format, recorded before the report and exit-code handling were unified.
# The work directory is written as $DIR.
GOLDEN = Path(__file__).with_name("cli_golden.json")


# polytope and lambda JSON of the simplex, the triangular prism and the 3-cube
REDUCE_INPUTS = {
    name: (polytope_to_dict(p), lambda_to_dict(CharacteristicFunction(values)))
    for name in ("simplex", "prism", "cube3")
    for p, values in [POLYTOPES[name]()]
}
# integers past 64 bits, as JSON numbers or decimal strings, and strings
# that are almost decimal integers: a superscript digit, more digits than
# int() converts, signs alone or in the wrong place
HUGE = st.integers(2**64, 2**200).flatmap(lambda x: st.sampled_from([x, -x, str(x), str(-x)]))
NUMERALS = st.sampled_from(["\u00b2", "9" * 5000, "-", "", "+1", "1-", "--1"])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=3),
    HUGE,
    NUMERALS,
    st.lists(st.integers(-2, 2), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, obj):
    """obj after up to two edits: a key or element dropped, retyped or added, or a value made a huge integer or a numeral."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        kind = draw(st.sampled_from(["drop", "retype", "add", "huge", "numeral"]))
        if not path:
            obj = draw(JUNK) if kind == "retype" else obj
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "add" and isinstance(node, dict):
            node[draw(st.text(max_size=3))] = draw(JUNK)
        elif kind == "add" and isinstance(node, list):
            node.append(draw(JUNK))  # a ragged list
        else:
            parent[path[-1]] = draw({"huge": HUGE, "numeral": NUMERALS}.get(kind, JUNK))
    return obj


# no --alpha (search), or one of any length with zero entries, or not a list of integers
ALPHAS = st.one_of(
    st.just([]),
    st.one_of(
        st.lists(st.integers(-2, 2), max_size=5).map(lambda a: ",".join(map(str, a))),
        st.sampled_from(["1,1,-1", "0,0,0", "1,,1", "a", str(2**70) + ",1,1"]),
    ).map(lambda a: [f"--alpha={a}"]),
)


def _run_reduce(d, polytope, lam, extra):
    (d / "polytope.json").write_text(json.dumps(polytope))
    (d / "lam.json").write_text(json.dumps(lam))
    argv = ["reduce", "--polytope", str(d / "polytope.json"), "--lambda", str(d / "lam.json"), *extra]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestReduceFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        name=st.sampled_from(sorted(REDUCE_INPUTS)),
        n=st.one_of(st.none(), st.sampled_from([-1, 0, 1]), HUGE, NUMERALS),
        alpha=ALPHAS,
    )
    def test_mutated_inputs_exit_cleanly(self, fuzz_dir, data, name, n, alpha):
        # keys dropped, retyped or added, ragged lists, integers past 64 bits,
        # n <= 1 and --alpha of the wrong length or with zero entries: every
        # outcome is a report with exit 0, 1 or 2, never an exception
        polytope, lam = (data.draw(_mutated(obj)) for obj in REDUCE_INPUTS[name])
        if n is not None and isinstance(polytope, dict):
            polytope["n"] = n
        _, code, out, err = _run_reduce(fuzz_dir, polytope, lam, alpha)
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":"\\u00b2","facets":[],"vertices":[]}',
            '{"n":"' + "9" * 5000 + '","facets":[],"vertices":[]}',
            '{"n":' + "9" * 5000 + ',"facets":[],"vertices":[]}',
            "[" * 100000,
        ],
        ids=["superscript-digit", "long-digit-string", "long-integer-literal", "deep-nesting"],
    )
    def test_unconvertible_json_exits_2(self, tmp_path, text):
        polytope = tmp_path / "polytope.json"
        polytope.write_text(text)
        (tmp_path / "lam.json").write_text(json.dumps(REDUCE_INPUTS["simplex"][1]))
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["reduce", "--polytope", str(polytope), "--lambda", str(tmp_path / "lam.json")])
        assert code == 2 and out.getvalue() == "" and err.getvalue().startswith("FAIL input: ")

    def test_computed_integer_past_the_digit_limit_prints(self, tmp_path):
        # inputs of 3,001 digits pass the input bound, and the vertex
        # determinant of about 6,000 digits must still print in the report
        polytope, lam = copy.deepcopy(REDUCE_INPUTS["simplex"])
        big = str(10**3000 + 7)
        lam.update(f1=[big, 1, 0], f2=[1, big, 0])
        limit = sys.get_int_max_str_digits()
        _, code, out, err = _run_reduce(tmp_path, polytope, lam, [])
        assert sys.get_int_max_str_digits() == limit
        assert code == 1 and err == "" and "Traceback" not in out
        assert out.startswith("FAIL error: StarConditionError: vertex ['f1', 'f2', 'f3']: determinant ")

    def test_rejected_integer_is_echoed_short(self, tmp_path):
        polytope, lam = copy.deepcopy(REDUCE_INPUTS["simplex"])
        polytope["n"] = "9" * 5000
        _, code, out, err = _run_reduce(tmp_path, polytope, lam, [])
        assert code == 2 and out == "" and err.count("\n") == 1
        assert len(err.encode()) < 200 and "(5000 characters)" in err

    @pytest.mark.parametrize(
        "bound, echo",
        [
            ("9" * 5000, "'99999999999999999999'... (5000 characters)"),
            ("-1", "'-1'"),
            ("1.5", "'1.5'"),
            ("\u0663", "'\u0663'"),
            ("1_0", "'1_0'"),
            ("+1", "'+1'"),
        ],
        ids=["long", "negative", "float", "arabic-indic-digit", "underscore", "plus-sign"],
    )
    def test_rejected_alpha_bound_is_a_bad_argument(self, capsys, bound, echo):
        # a negative bound admits no alpha: a bad argument, not a failed
        # search; the files are not read before the arguments parse
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--polytope", "p.json", "--lambda", "lam.json", f"--alpha-bound={bound}"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and len(err.encode()) < 500
        assert err.endswith(f"error: argument --alpha-bound: expected a nonnegative integer, got {echo}\n")

    def test_optimized_interpreter_reports_the_same(self, tmp_path):
        # python -O strips assert statements; the self-checks must still hold
        polytope, lam = copy.deepcopy(REDUCE_INPUTS["prism"])
        lam["extra"] = [2**70, 1, 0]  # a value on no facet is ignored
        argv, code, out, err = _run_reduce(tmp_path, polytope, lam, ["--alpha=1,1,-1"])
        env = {"PYTHONPATH": str(Path(complexity_one.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-B", "-O", "-m", "complexity_one.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
        assert code == 0 and "Traceback" not in run.stderr


# exported catalog entries, as the chardata commands and the override directory read them
CATALOG_INPUTS = {
    name: chardata_to_dict(load(name).data) for name in ("cp3-reduction", "f3", "g42", "local-model-2", "local-model-4")
}
CATALOG_COMMANDS = ("catalog", "validate-chardata", "compare", "validate-sponge", "homology")


def _run_catalog_command(d, command, name, first, second):
    """Write the entry (or its sponge) and a second copy, run the command on them in-process."""
    (d / f"{name}.json").write_text(json.dumps(first))
    (d / "second.json").write_text(json.dumps(second))
    argv = {
        "catalog": ["catalog", name],
        "compare": ["compare", str(d / f"{name}.json"), str(d / "second.json")],
    }.get(command, [command, str(d / f"{name}.json")])
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"COMPLEXITY_ONE_CATALOG": str(d)}), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue()


class TestCatalogFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(CATALOG_INPUTS)), command=st.sampled_from(CATALOG_COMMANDS))
    def test_mutated_entries_exit_cleanly(self, fuzz_dir, data, name, command):
        # an exported entry with keys dropped, retyped or added, ragged
        # lists and integers past 64 bits, read through the override
        # directory, as chardata, as one side of a comparison or as a
        # sponge: every outcome is a report with exit 0, 1 or 2
        entry = CATALOG_INPUTS[name]
        if command in ("validate-sponge", "homology"):
            entry = entry["sponge"]
        first, second = data.draw(_mutated(entry)), data.draw(_mutated(entry))
        _, code, out, err = _run_catalog_command(fuzz_dir, command, name, first, second)
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err

    def test_cell_dim_past_64_bits_fails_face_stars(self, tmp_path, monkeypatch):
        # face_star compared the rank counts with a list of n - 1 - dim
        # binomials, which hung on a dimension of -2^64; a bounded comb
        # makes that failure quick
        calls = []

        def bounded_comb(*args):
            calls.append(args)
            if len(calls) > 100:
                raise RuntimeError("face_star counts more ranks than any star has")
            return comb(*args)

        comb = sponge_mod.comb
        monkeypatch.setattr(sponge_mod, "comb", bounded_comb)
        entry = copy.deepcopy(CATALOG_INPUTS["g42"])
        entry["sponge"]["cells"][0]["dim"] = str(-(2**64))
        _, code, out, err = _run_catalog_command(tmp_path, "catalog", "g42", entry, entry)
        assert code == 1 and err == "" and "FAIL face-stars\n" in out

    def test_optimized_interpreter_reports_the_same(self, tmp_path):
        entry = copy.deepcopy(CATALOG_INPUTS["f3"])
        fid = min(entry["mu"])
        entry["mu"][fid] = [2**70, 1]
        entry["euler_sign"][fid] = str(-entry["euler_sign"][fid])
        argv, code, out, err = _run_catalog_command(tmp_path, "catalog", "f3", entry, entry)
        env = {"PYTHONPATH": str(Path(complexity_one.__file__).parents[1]), "COMPLEXITY_ONE_CATALOG": str(tmp_path)}
        run = subprocess.run(
            [sys.executable, "-B", "-O", "-m", "complexity_one.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
        assert code == 1 and "Traceback" not in run.stderr


class TestCompareAtScale:
    def test_local_model_10_self_compare(self, tmp_path):
        # 1,013 cells: the bijection search places one cell per level, more
        # levels than the interpreter's default recursion limit of 1,000
        env = {"PYTHONPATH": str(Path(complexity_one.__file__).parents[1])}
        path = str(tmp_path / "lm10.json")
        cli = [sys.executable, "-B", "-m", "complexity_one.cli"]
        export = subprocess.run(
            [*cli, "catalog", "local-model-10", "--export", path], capture_output=True, text=True, env=env
        )
        assert export.returncode == 0, export.stderr
        run = subprocess.run(
            [*cli, "--format", "json", "compare", path, path], capture_output=True, text=True, env=env
        )
        assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr[-2000:]
        results = {r["check"]: r for r in json.loads(run.stdout)["results"]}
        assert results["verdict"]["detail"] == "Equivalent"
        witness = json.loads(results["detail"]["detail"])
        assert len(witness["mapping"]) == 1013
        assert all(k == v for k, v in witness["mapping"].items())
        assert set(witness["gauge"].values()) == {1}
        assert witness["matrix"] == IntMatrix.identity(9).row_list()


class TestGatedChecks:
    # validate-chardata and catalog run one check pipeline: a check whose
    # prerequisite failed is not run, and its entry names that prerequisite

    @pytest.mark.parametrize("command", ["validate-chardata", "catalog"])
    def test_n2_datum_without_a_sign_fails_compatibility(self, tmp_path, command):
        # n = 2 has no codimension-one faces, so cocycle passes vacuously;
        # the chain of the facet without a sign is never built
        entry = copy.deepcopy(CATALOG_INPUTS["local-model-2"])
        del entry["euler_sign"]["o"]
        _, code, out, err = _run_catalog_command(tmp_path, command, "local-model-2", entry, entry)
        assert code == 1 and err == "" and "Traceback" not in out
        assert "FAIL compatibility\n" in out and "FAIL euler-cycle: compatibility fails\n" in out
        assert "PASS cocycle" in out

    @pytest.mark.parametrize("command", ["validate-chardata", "catalog"])
    def test_mu_of_the_wrong_length_fails_cocycle_at_its_faces(self, tmp_path, command):
        entry = copy.deepcopy(CATALOG_INPUTS["g42"])
        fid = min(entry["mu"])
        entry["mu"][fid] = entry["mu"][fid] + [0]
        _, code, out, err = _run_catalog_command(tmp_path, command, "g42", entry, entry)
        lines = out.splitlines()
        assert code == 1 and err == "" and not any(line.startswith("FAIL error") for line in lines)
        assert any(line.startswith("FAIL mu-") and f"mu({fid}) has dim 4, expected 3" in line for line in lines)
        assert any(
            line.startswith("FAIL cocycle: face ") and f": facets {fid} carry mu of dim other than 3" in line
            for line in lines
        )
        assert "FAIL euler-cycle: compatibility fails" in lines

    @pytest.mark.parametrize("command", ["validate-chardata", "catalog"])
    def test_invalid_sponge_gates_cocycle_and_euler_cycle(self, tmp_path, command):
        # neither the three-term relations nor the chain mean anything on a
        # complex that fails the sponge axioms
        entry = copy.deepcopy(CATALOG_INPUTS["g42"])
        entry["sponge"]["cells"][0]["dim"] = str(-(2**64))
        _, code, out, err = _run_catalog_command(tmp_path, command, "g42", entry, entry)
        assert code == 1 and err == ""
        assert "FAIL cocycle: sponge fails validation\n" in out
        assert "FAIL euler-cycle: sponge fails validation\n" in out

    def test_failed_cocycle_fails_euler_cycle(self, tmp_path):
        entry = copy.deepcopy(CATALOG_INPUTS["f3"])
        fid = min(entry["euler_sign"])
        entry["euler_sign"][fid] = -entry["euler_sign"][fid]
        _, code, out, err = _run_catalog_command(tmp_path, "validate-chardata", "f3", entry, entry)
        assert code == 1 and "FAIL cocycle: face " in out
        assert "FAIL euler-cycle: cocycle relations fail\n" in out and "determines-class" not in out


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    ws = WeightSystem(4, (vec(1, 0, -1), vec(0, 1, -1), vec(-1, 0, -1), vec(0, -1, -1)))
    (d / "weights.json").write_text(canonical_json(weight_system_to_dict(ws)))
    (d / "delta3.json").write_text(canonical_json(polytope_to_dict(simplex_polytope())))
    (d / "lam.json").write_text(canonical_json(lambda_to_dict(simplex_lambda())))
    g42 = chardata_to_dict(load("g42").data)
    (d / "g42.json").write_text(canonical_json(g42))
    (d / "g42sponge.json").write_text(canonical_json(g42["sponge"]))
    cp3 = chardata_to_dict(load("cp3-reduction").data)
    (d / "cp3.json").write_text(canonical_json(cp3))
    for data, path in ((cp3, d / "cp3-flipped.json"), (g42, d / "catalog" / "g42.json")):
        fid = sorted(data["euler_sign"])[0]
        data["euler_sign"][fid] = -data["euler_sign"][fid]
        path.parent.mkdir(exist_ok=True)
        path.write_text(canonical_json(data))
    return d


def golden_cases(d) -> dict:
    """Case name -> (arguments, environment); each runs in text and JSON format."""
    reduce = ["reduce", "--polytope", f"{d}/delta3.json", "--lambda", f"{d}/lam.json"]
    return {
        "validate-weights": (["validate-weights", f"{d}/weights.json"], {}),
        "validate-sponge": (["validate-sponge", f"{d}/g42sponge.json"], {}),
        "validate-chardata": (["validate-chardata", f"{d}/g42.json"], {}),
        "homology": (["homology", f"{d}/g42sponge.json"], {}),
        "reduce-alpha": (reduce + ["--alpha", "1,1,-1", "-o", f"{d}/reduced.json"], {}),
        "reduce-search": (reduce, {}),
        "reduce-no-subtorus": (reduce + ["--alpha-bound", "0"], {}),
        "compare-equivalent": (["compare", f"{d}/g42.json", f"{d}/g42.json"], {}),
        "compare-flipped": (["compare", f"{d}/cp3.json", f"{d}/cp3-flipped.json"], {}),
        "catalog-list": (["catalog", "--list"], {}),
        "catalog-f3": (["catalog", "f3"], {}),
        "catalog-override": (["catalog", "g42"], {"COMPLEXITY_ONE_CATALOG": f"{d}/catalog"}),
        "catalog-unknown": (["catalog", "missing-entry"], {}),
    }


def run_golden_case(d, case: str, fmt: str, capsys, monkeypatch) -> dict:
    argv, env = golden_cases(d)[case]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code = main((["--format", "json"] if fmt == "json" else []) + argv)
    out, err = capsys.readouterr()
    return {
        "code": code,
        "stdout": out.replace(str(d), "$DIR"),
        "stderr": err.replace(str(d), "$DIR"),
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(golden_cases("$DIR")))
def test_golden_output(golden_dir, case, fmt, capsys, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[f"{case}:{fmt}"]
    assert run_golden_case(golden_dir, case, fmt, capsys, monkeypatch) == expected
