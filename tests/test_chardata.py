import json
import random
from functools import cache
from itertools import islice

import pytest

import complexity_one.catalog as catalog
import complexity_one.chardata as chardata
import complexity_one.quasitoric as quasitoric
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from complexity_one.catalog import load, names, octahedron_sponge
from complexity_one.chardata import (
    Ambient,
    CharacteristicData,
    Chart,
    _vanishing_pattern,
    cocycle_check,
    compatibility_check,
    data_from_charts,
    local_model_data,
    solve_euler_signs,
    validate_mu,
)
from complexity_one.classify import compare
from complexity_one.errors import ComplexityOneError, ConsistencyError, InputFormatError, PreconditionError
from complexity_one.lattice import IntVector, primitive, vec
from complexity_one.quasitoric import CharacteristicFunction, find_strict_subtorus, reduce
from complexity_one.sponge import CheckResult, Cell, SpongeComplex, local_model_sponge
from complexity_one.weights import (
    SubtorusChoice,
    WeightSystem,
    induced_weights,
    is_strictly_appropriate,
    strict_coefficients,
)
from conftest import euler_cycle_verdicts, random_unimodular, transformed
from oracles import (
    cocycle_report_by_vectors,
    data_from_charts_by_facets,
    euler_cycle_by_boundary,
    local_euler_by_kernel,
    mu_rank_by_cells,
    vanishing_pattern_by_vectors,
)
from test_quasitoric import _cube, torus_three_hexagons

G42 = WeightSystem(4, (vec(1, 0, -1), vec(0, 1, -1), vec(-1, 0, -1), vec(0, -1, -1)))


def lm3_data(mu3, signs=None):
    s = local_model_sponge(3)
    mu = {"c1": mu3[0], "c2": mu3[1], "c3": mu3[2]}
    ks = signs or {"c1": 1, "c2": 1, "c3": 1}
    return CharacteristicData(sponge=s, mu=mu, euler_sign=ks, ambient=Ambient("abstract"))


class TestValidateMu:
    def test_rank_two_at_vertex_passes(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 1)])
        assert validate_mu(cd).ok

    def test_parallel_pair_fails(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 0)])
        rep = validate_mu(cd)
        assert not rep.ok
        assert any("parallel mu" in e.detail for e in rep.failures())

    def test_all_equal_fails(self):
        cd = lm3_data([vec(1, 0), vec(1, 0), vec(1, 0)])
        rep = validate_mu(cd)
        assert not rep.ok
        assert any("rank" in e.detail for e in rep.failures())

    def test_missing_and_nonprimitive_reported(self):
        s = local_model_sponge(3)
        cd = CharacteristicData(
            sponge=s,
            mu={"c1": vec(2, 0), "c2": vec(0, 1)},
            euler_sign={"c1": 1, "c2": 1, "c3": 1},
        )
        details = [e.detail for e in validate_mu(cd).failures()]
        assert any("no mu value" in d for d in details)
        assert any("not primitive" in d for d in details)

    def test_domain_texts_in_order(self):
        # missing values, then values off the facets, then each facet's
        # defect in id order; compatibility fails on the same data
        s = local_model_sponge(4)
        mu = {"c1.2": vec(2, 0, 0), "c1.3": vec(0, 0, 0), "c1.4": vec(1, 0), "c2.3": vec(0, 1, 0), "o": vec(1, 0, 0)}
        cd = CharacteristicData(sponge=s, mu=mu, euler_sign={f: 1 for f in s.facet_ids})
        assert [e.detail for e in validate_mu(cd).failures()] == [
            "facet c2.4 has no mu value",
            "facet c3.4 has no mu value",
            "mu defined on non-facet o",
            "mu(c1.2) is not primitive",
            "mu(c1.3) is zero",
            "mu(c1.4) has dim 2, expected 3",
        ]
        assert not compatibility_check(cd)

    def test_mu_defects_read_once(self, monkeypatch):
        # validate_mu and compatibility_check share one pass over the facets:
        # 21 calls for the 21 facets of local-model-7 read back, where a pass
        # in each validator made 42
        from complexity_one.io import canonical_json, chardata_from_dict, chardata_to_dict

        cd = chardata_from_dict(json.loads(canonical_json(chardata_to_dict(load("local-model-7").data))))
        calls = []
        defect = chardata._mu_defect
        monkeypatch.setattr(chardata, "_mu_defect", lambda fid, v, n: calls.append(fid) or defect(fid, v, n))
        assert all(report.ok for _, report in chardata._checks(cd))
        assert calls == list(cd.sponge.facet_ids) and len(calls) == 21


    def test_rank_decided_at_the_fixed_points(self, monkeypatch):
        # a valid datum's mu-rank is decided at its 0-cells, one elimination
        # each: local-model-7 has one 0-cell among the 99 cells below its
        # facets, and catalog.verify of local-model-10 reads the same report
        calls = []
        count = chardata.independent_rows
        monkeypatch.setattr(chardata, "independent_rows", lambda rows, k: calls.append(k) or count(rows, k))
        cd = load("local-model-7").data
        assert validate_mu(cd).ok
        assert calls == [6]
        entry = load("local-model-10")
        calls.clear()
        assert catalog.verify(entry).ok
        assert calls == [9]

    def test_rank_failure_behind_a_passing_gate_reads_every_cell(self, monkeypatch):
        # mu projected along (1, 1, 1) keeps every three-term relation and
        # every value primitive, but spans rank 2 at the 0-cell: the one
        # elimination there fails, and the report is the per-cell loop's
        cd = load("local-model-4").data
        mu = {f: vec(v[0] - v[2], v[1] - v[2], 0) for f, v in cd.mu.items()}
        projected = CharacteristicData(cd.sponge, mu, cd.euler_sign, cd.ambient)
        assert all(not defect and pattern for _, _, defect, pattern in projected.three_term_faces)
        calls = []
        count = chardata.independent_rows
        monkeypatch.setattr(chardata, "independent_rows", lambda rows, k: calls.append(k) or count(rows, k))
        report = validate_mu(projected)
        want = mu_rank_by_cells(projected)
        assert want and report.failures() == CheckResult.from_violations("mu-rank", want)
        assert len(calls) == 1 + sum(1 for c in cd.sponge.cells if c.dim < cd.n - 2)


class TestCompatibility:
    def test_well_formed(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 1)])
        assert compatibility_check(cd)

    def test_zero_sign_rejected(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 1)], {"c1": 0, "c2": 1, "c3": 1})
        assert not compatibility_check(cd)

    def test_non_primitive_rejected(self):
        cd = lm3_data([vec(2, 0), vec(0, 1), vec(1, 1)])
        assert not compatibility_check(cd)

    def test_fractional_euler_sign_rejected(self):
        with pytest.raises(InputFormatError, match=r"Euler sign of c1 is -1\.5, not an integer"):
            lm3_data([vec(1, 0), vec(0, 1), vec(1, 1)], {"c1": -1.5, "c2": 1, "c3": 1})


class TestCocycle:
    def test_triple_with_relation_passes_existence(self):
        ws = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(1, 1)))
        cd = local_model_data(ws)
        assert cocycle_check(cd).ok

    def test_triple_without_relation_fails(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 2)])
        rep = cocycle_check(cd)
        assert not rep.ok
        assert any("no +-1 combination" in e.detail for e in rep.failures())

    def test_wrong_stored_signs_fail(self):
        ws = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(1, 1)))
        cd = local_model_data(ws)
        flipped = transformed(cd, flip={sorted(cd.sponge.facet_ids)[0]})
        rep = cocycle_check(flipped)
        assert not rep.ok
        assert any("stored signs" in e.detail for e in rep.failures())

    def test_degenerate_dimension_passes(self):
        s = local_model_sponge(2)
        cd = CharacteristicData(sponge=s, mu={"o": vec(1)}, euler_sign={"o": 1})
        assert cocycle_check(cd).ok


class TestEulerCycle:
    # the euler-cycle stage of the check pipeline, against the oracle that
    # sums the boundary of the facet chain k(F) mu(F) F

    def test_local_model_cycle(self):
        ws = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(1, 1)))
        cd = local_model_data(ws)
        assert euler_cycle_verdicts(cd) == (True, True)
        assert not cd.ambient.determines_class  # abstract ambient

    def test_product_ambient_determines(self):
        cd = load("f3").data
        assert euler_cycle_verdicts(cd) == (True, True)
        assert cd.ambient.determines_class

    def test_refuses_on_cocycle_failure(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 2)])
        stages = dict(chardata._checks(cd))
        assert stages["euler-cycle"].entries == (CheckResult("euler-cycle", "fail", "cocycle relations fail"),)
        assert not euler_cycle_by_boundary(cd)

    def test_gl_equivariance(self):
        cd = load("g42").data
        rng = random.Random(12)
        for _ in range(10):
            a = random_unimodular(rng, 3)
            moved = transformed(cd, matrix=a)
            assert euler_cycle_verdicts(moved) == (True, True)
            for f in cd.sponge.facet_ids:
                assert moved.euler_coefficient(f) == a @ cd.euler_coefficient(f)

    def test_flip_breaks_cycle_flag(self):
        cd = load("g42").data
        f0 = sorted(cd.sponge.facet_ids)[0]
        flipped = transformed(cd, flip={f0})
        assert euler_cycle_verdicts(flipped) == (False, False)

    def test_zero_chain(self):
        # the zero chain is a cycle, but its zero mu values fail compatibility
        s = octahedron_sponge(squares=True)
        cd = CharacteristicData(s, {f: vec(0, 0, 0) for f in s.facet_ids}, {f: 1 for f in s.facet_ids})
        assert euler_cycle_verdicts(cd) == (False, True)
        assert dict(chardata._checks(cd))["euler-cycle"].failures()[0].detail == "compatibility fails"

    def test_missing_facet_rejected(self):
        cd = load("f3").data
        missing = sorted(cd.mu)[-1]
        mu = {f: v for f, v in cd.mu.items() if f != missing}
        short = CharacteristicData(cd.sponge, mu, cd.euler_sign, cd.ambient)
        stages = dict(chardata._checks(short))
        assert stages["euler-cycle"].entries == (CheckResult("euler-cycle", "fail", "compatibility fails"),)
        with pytest.raises(InputFormatError):
            euler_cycle_by_boundary(short)


class TestLocalEulerFromWeights:
    """The direction and Hopf sign of each facet at a chart, as _pair_lines reads them off its adjugate."""

    def test_grassmannian_signs(self):
        lines = chardata._pair_lines(G42)
        assert lines(0, 1)[1] == -1
        assert lines(0, 2)[1] == 1
        assert lines(2, 3)[1] == -1

    def test_diagonal_system_all_plus(self):
        lines = chardata._pair_lines(WeightSystem(3, (vec(1, 0), vec(0, 1), vec(-1, -1))))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert lines(i, j)[1] == 1

    def test_direction_is_stabilizer_line(self):
        mu = IntVector(chardata._pair_lines(G42)(0, 1)[0])
        # direction must pair to zero with the omitted weights
        assert G42.weights[2].dot(mu) == 0
        assert G42.weights[3].dot(mu) == 0

    def test_matches_kernel_line(self):
        # strict systems: a basis plus minus a +-1 sum of it, signs chosen per weight
        rng = random.Random(15)
        for n in range(3, 7):
            for _ in range(6):
                ws = _random_strict_system(rng, n)
                lines = chardata._pair_lines(ws)
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            direction, sign = local_euler_by_kernel(ws, i, j)
                            # the kernel line pairs with weight i as c_j does; the
                            # chart's line is that line with its first nonzero entry positive
                            assert ws.weights[i].dot(direction) * strict_coefficients(ws)[j] > 0
                            line, got_sign = lines(i, j)
                            assert line == primitive(direction).entries and got_sign == sign
                            assert IntVector(line) in (direction, -direction)

    def test_non_strict_rejected(self):
        ws = WeightSystem(3, (vec(2, 0), vec(0, 2), vec(-1, -1)))
        with pytest.raises(PreconditionError, match=f"^{_NOT_STRICT}$"):
            chardata._pair_lines(ws)
        with pytest.raises(PreconditionError, match=f"^{_NOT_STRICT}$"):
            local_euler_by_kernel(ws, 0, 1)

    def test_round_trip_through_local_model(self):
        rng = random.Random(13)
        produced = 0
        while produced < 40:
            n = rng.randint(3, 5)
            lam = random_unimodular(rng, n)
            lams = [lam.row(i) for i in range(n)]
            alpha = IntVector(tuple(rng.randint(-2, 2) for _ in range(n)))
            if alpha.is_zero():
                continue
            alpha = primitive(alpha)
            if any(abs(alpha.dot(l)) != 1 for l in lams):
                continue
            ws = induced_weights(lams, SubtorusChoice(alpha))
            if not is_strictly_appropriate(ws):
                continue
            produced += 1
            cd = local_model_data(ws)
            assert validate_mu(cd).ok
            assert compatibility_check(cd)
            assert cocycle_check(cd).ok
            assert euler_cycle_verdicts(cd) == (True, True)

    def test_hopf_patterns_match_cocycle_patterns(self):
        # pairwise sign products around each triple multiply to +1
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(3, 5)
            ws = None
            while ws is None:
                lam = random_unimodular(rng, n)
                lams = [lam.row(i) for i in range(n)]
                alpha = IntVector(tuple(rng.randint(-2, 2) for _ in range(n)))
                if alpha.is_zero():
                    continue
                alpha = primitive(alpha)
                if any(abs(alpha.dot(l)) != 1 for l in lams):
                    continue
                ws = induced_weights(lams, SubtorusChoice(alpha))
            lines, c = chardata._pair_lines(ws), strict_coefficients(ws)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        sij, sjk, sik = lines(i, j)[1], lines(j, k)[1], lines(i, k)[1]
                        assert sij * sjk * sik == 1
                        assert (sij, sjk, sik) == (c[i] * c[j], c[j] * c[k], c[i] * c[k])


class TestSolver:
    def test_seed_respected_on_isolated_facets(self):
        s = local_model_sponge(2)
        signs = solve_euler_signs(s, {"o": vec(1)}, seeds={"o": -1})
        assert signs == {"o": -1}

    def test_unsatisfiable_mu_raises(self):
        from complexity_one.errors import ConsistencyError

        s = local_model_sponge(3)
        mu = {"c1": vec(1, 0), "c2": vec(0, 1), "c3": vec(1, 2)}
        with pytest.raises(ConsistencyError):
            solve_euler_signs(s, mu, seeds={})


def _outcome(fn, *args):
    """fn(*args), or the type and text of the package error it raises."""
    try:
        return fn(*args)
    except ComplexityOneError as exc:
        return type(exc).__name__, str(exc)


_small_vectors = st.integers(0, 3).flatmap(lambda k: st.lists(st.integers(-2, 2), min_size=k, max_size=k))


@st.composite
def _triples(draw):
    """Three vectors, the last often a +-1 combination of the first two; dimensions may differ."""
    v0, v1 = draw(_small_vectors), draw(_small_vectors)
    if draw(st.booleans()) and len(v0) == len(v1):
        e0, e1 = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
        v2 = [e0 * x + e1 * y for x, y in zip(v0, v1)]
    else:
        v2 = draw(_small_vectors)
    return tuple(map(tuple, (v0, v1, v2)))


class TestThreeTermRelationOnTuples:
    @settings(max_examples=300, deadline=None)
    @given(_triples())
    def test_vanishing_pattern_matches_vector_sums(self, triple):
        want = _outcome(vanishing_pattern_by_vectors, [IntVector(v) for v in triple])
        assert _outcome(_vanishing_pattern, triple) == want

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["g42", "f3", "cp3-reduction", "local-model-4", "local-model-5"]),
        data=st.data(),
    )
    def test_cocycle_report_matches_vector_sums(self, name, data):
        # the catalog datum with some Euler signs flipped or unset and some mu
        # values replaced by short, long or random vectors or removed
        cd = load(name).data
        mu, signs = dict(cd.mu), dict(cd.euler_sign)
        for f in data.draw(st.lists(st.sampled_from(sorted(mu)), max_size=4, unique=True)):
            change = data.draw(st.sampled_from(("flip", "sign", "random", "dim", "drop")))
            if change == "flip":
                signs[f] = -signs[f]
            elif change == "sign":
                signs[f] = data.draw(st.sampled_from((0, 2)))
            elif change == "random":
                entries = data.draw(st.lists(st.integers(-2, 2), min_size=cd.n - 1, max_size=cd.n - 1))
                mu[f] = IntVector(tuple(entries))
            elif change == "dim":
                mu[f] = IntVector(tuple(data.draw(_small_vectors)))
            else:
                mu.pop(f)
        changed = CharacteristicData(cd.sponge, mu, signs)
        want = _outcome(cocycle_report_by_vectors, changed)
        assert _outcome(lambda: changed.cocycle_report) == want


def _reduced_cube_data(n):
    p, values = _cube(n)
    lam = CharacteristicFunction(values)
    return reduce(p, lam, find_strict_subtorus(p, lam)[0])


# valid sponges with compatible data: the catalog entries and two reduced cubes
PIPELINE_BASES = {
    **{name: cache(lambda name=name: load(name).data) for name in names() + ["local-model-2", "local-model-5"]},
    **{f"reduced-cube-{n}": cache(lambda n=n: _reduced_cube_data(n)) for n in (3, 4)},
}
STAGES = ["sponge", "mu", "compatibility", "cocycle", "euler-cycle"]


class TestCheckPipeline:
    def test_stages_run_in_order_and_only_when_asked(self, monkeypatch):
        cd = load("f3").data
        assert [stage for stage, _ in chardata._checks(cd)] == STAGES

        def unasked(cd):
            raise AssertionError("a later stage ran")

        monkeypatch.setattr(chardata, "cocycle_check", unasked)
        assert [stage for stage, _ in islice(chardata._checks(cd), 3)] == STAGES[:3]

    def test_compare_runs_no_cocycle_check(self, monkeypatch):
        def unasked(cd):
            raise AssertionError("compare ran the cocycle check")

        monkeypatch.setattr(chardata, "cocycle_check", unasked)
        cd = load("f3").data
        assert compare(cd, cd).equivalent

    def test_euler_cycle_names_the_first_failed_prerequisite(self):
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 2)])
        stages = dict(chardata._checks(cd))
        assert stages["compatibility"].ok and not stages["cocycle"].ok
        assert stages["euler-cycle"].entries == (CheckResult("euler-cycle", "fail", "cocycle relations fail"),)
        cd = lm3_data([vec(1, 0), vec(0, 1), vec(1, 2)], {"c1": 1, "c2": 0, "c3": 1})
        stages = dict(chardata._checks(cd))
        assert stages["euler-cycle"].entries == (CheckResult("euler-cycle", "fail", "compatibility fails"),)

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(PIPELINE_BASES)), data=st.data())
    def test_euler_cycle_is_the_cycle_flag_of_the_chain(self, name, data):
        # the pipeline reads euler-cycle off the cocycle report: on a valid
        # sponge with compatible data it must be the assembled chain's cycle
        # flag, here after Euler signs are flipped and mu values negated or swapped
        cd = PIPELINE_BASES[name]()
        mu, signs = dict(cd.mu), dict(cd.euler_sign)
        facets = sorted(mu)
        for f in data.draw(st.lists(st.sampled_from(facets), max_size=4, unique=True)):
            change = data.draw(st.sampled_from(("flip", "negate", "swap")))
            if change == "flip":
                signs[f] = -signs[f]
            elif change == "negate":
                mu[f] = -mu[f]
            else:
                g = data.draw(st.sampled_from(facets))
                mu[f], mu[g] = mu[g], mu[f]
        changed = CharacteristicData(cd.sponge, mu, signs, cd.ambient)
        stages = dict(chardata._checks(changed))
        assert stages["sponge"].ok and stages["compatibility"].ok
        assert stages["euler-cycle"].ok == euler_cycle_by_boundary(changed)


# Two 0-cells u, v joined by three edges: for n = 3 the edges are the facets,
# and the pair of edge e at a 0-cell is the two other edges of its chart.
THETA = SpongeComplex.from_covers(
    3, [("u", 0), ("v", 0), ("e1", 1), ("e2", 1), ("e3", 1)], {e: ["u", "v"] for e in ("e1", "e2", "e3")}
)
DIAGONAL = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(-1, -1)))  # all pairs Hopf
ANTI = WeightSystem(3, (vec(1, 0), vec(0, 1), vec(1, 1)))  # pair (1, 2) anti-Hopf
NONSTRICT = WeightSystem(3, (vec(2, 0), vec(0, 2), vec(-1, -1)))
DEGENERATE = WeightSystem(3, (vec(1, 0), vec(2, 0), vec(-1, -1)))  # not in general position
LM3 = local_model_sponge(3)
_NOT_STRICT = "hopf_type requires a strictly appropriate system"
_NOT_GENERAL = "weight system is not in general position"
_NO_PAIR = "facet {} meets {} rays at o, cannot form a chart pair"
_DISAGREE = "charts disagree on the %s of facet e1"


@st.composite
def _mutated_data(draw):
    """A datum of PIPELINE_BASES with its mu replaced, mapped or projected, a sign flipped, or a cover
    dropped or added."""
    cd = PIPELINE_BASES[draw(st.sampled_from(sorted(PIPELINE_BASES)))]()
    s, k = cd.sponge, cd.n - 1
    cells, incidence = list(s.cells), {key: list(v) for key, v in s.incidence.items()}
    mu, signs = dict(cd.mu), dict(cd.euler_sign)
    facets = sorted(s.facet_ids)
    small = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    kind = draw(st.sampled_from(("replace", "map", "project", "flip", "drop", "add")))
    if kind == "replace":
        # by another facet's +-mu, which makes a parallel pair, or by any small vector
        fid = draw(st.sampled_from(facets))
        other = cd.mu[draw(st.sampled_from(facets))]
        mu[fid] = draw(st.sampled_from((other, -other, IntVector(tuple(draw(small))))))
    elif kind == "map":
        # a linear map keeps every three-term relation; a singular one lowers the ranks
        a = [draw(small) for _ in range(k)]
        mu = {f: IntVector(tuple(sum(x * y for x, y in zip(row, v.entries)) for row in a)) for f, v in mu.items()}
    elif kind == "project":
        # along a direction w with last entry 1: the relations stay and the rank drops
        w = [draw(st.integers(-1, 1)) for _ in range(k - 1)] + [1]
        mu = {f: IntVector(tuple(x - v[-1] * y for x, y in zip(v.entries, w))) for f, v in mu.items()}
    elif kind == "flip":
        fid = draw(st.sampled_from(facets))
        signs[fid] = -signs[fid]
    elif kind == "drop":
        keys = sorted(key for key, v in incidence.items() if v)
        assume(keys)  # n = 2 has no covers
        key = draw(st.sampled_from(keys))
        incidence[key].pop(draw(st.integers(0, len(incidence[key]) - 1)))
    else:
        uppers = [c for c in cells if c.dim >= 1]
        assume(uppers)
        upper = draw(st.sampled_from(uppers))
        listed = {x for x, _ in incidence[upper.id]}
        lower = [c.id for c in s.cells_of_dim(upper.dim - 1) if c.id not in listed]
        assume(lower)
        incidence[upper.id].append((draw(st.sampled_from(lower)), draw(st.sampled_from((1, -1)))))
    return CharacteristicData(SpongeComplex(s.n, tuple(cells), incidence), mu, signs, cd.ambient)


class TestMuRankAtTheFixedPoints:
    """validate_mu decides mu-rank at the 0-cells, and its reports are the per-cell loop's."""

    @settings(max_examples=300, deadline=None)
    @given(cd=_mutated_data())
    def test_reports_match_the_loop_over_every_cell(self, cd):
        report = validate_mu(cd)
        head = tuple(e for e in report.entries if e.check != "mu-rank")
        if all(e.status == "pass" for e in head):
            assert report.entries == head + CheckResult.from_violations("mu-rank", mu_rank_by_cells(cd))
        else:
            assert report.entries == head

    @pytest.mark.parametrize("name", sorted(PIPELINE_BASES))
    def test_valid_data_pass_like_the_loop(self, name):
        cd = PIPELINE_BASES[name]()
        assert validate_mu(cd).ok and mu_rank_by_cells(cd) == []


def _theta_charts(at_u, at_v, rays_at_v):
    """Charts on THETA: at_u with rays e1, e2, e3 at u, and at_v with the given rays at v."""
    return {"u": Chart(at_u, ("e1", "e2", "e3")), "v": Chart(at_v, rays_at_v)}


def _random_strict_system(rng, n):
    """A basis of Z^(n-1), minus a +-1 sum of it, each weight's sign chosen at random."""
    unimodular = random_unimodular(rng, n - 1)
    basis = [unimodular.row(r) for r in range(n - 1)]
    last = IntVector((0,) * (n - 1))
    for row in basis:
        last = last - row.scale(rng.choice((1, -1)))
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return WeightSystem(n, tuple(w.scale(s) for w, s in zip((*basis, last), signs)))


class TestChartSweep:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 7), rng=st.randoms(use_true_random=False))
    def test_pairs_match_the_kernel_line(self, n, rng):
        ws = _random_strict_system(rng, n)
        lines = chardata._pair_lines(ws)
        want = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    direction, sign = local_euler_by_kernel(ws, i, j)
                    assert lines(i, j) == (primitive(direction).entries, sign)
                    want[i, j] = primitive(direction)
        # the local model's facet c<I> misses the rays outside I, so its pair is their indices
        cd = local_model_data(ws)
        for fid in cd.sponge.facet_ids:
            inside = {int(t) - 1 for t in fid[1:].split(".")} if fid != "o" else set()
            assert cd.mu[fid] == want[tuple(t for t in range(n) if t not in inside)]


def _recorded_builds(build, monkeypatch):
    """(arguments, result) of each data_from_charts call that build() makes."""
    calls = []

    def recording(*args):
        calls.append((args, data_from_charts(*args)))
        return calls[-1][1]

    for module in (chardata, catalog, quasitoric):
        monkeypatch.setattr(module, "data_from_charts", recording)
    build()
    return calls


def _data_from_torus():
    m = torus_three_hexagons()
    tops = sorted(t for t, d in m.cells if d == 2)
    return quasitoric.cell_manifold_data(m, dict(zip(tops, [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])))


ORACLE_BUILDS = {
    **{name: (lambda name=name: load(name)) for name in names() + ["local-model-2", "local-model-5"]},
    **{f"reduced-cube-{n}": (lambda n=n: _reduced_cube_data(n)) for n in range(3, 7)},
    "torus-cell-manifold": _data_from_torus,
}


class TestDataFromCharts:
    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDS))
    def test_matches_facet_by_facet_assembly(self, name, monkeypatch):
        calls = _recorded_builds(ORACLE_BUILDS[name], monkeypatch)
        assert calls
        for args, got in calls:
            want = data_from_charts_by_facets(*args)
            assert list(got.mu.items()) == list(want.mu.items())
            assert list(got.euler_sign.items()) == list(want.euler_sign.items())
            assert got.ambient == want.ambient

    def test_reads_each_ray_upper_set_once(self, monkeypatch):
        # a ray's facets are read once, off the index: no upper set is searched
        ws = load("local-model-10").weight_systems["o"]
        rays = {f"c{i}" for i in range(1, 11)}
        reads, searched = [], []
        facets_containing, upper_set = SpongeComplex.facets_containing, SpongeComplex.upper_set

        def counting(self, cell_id):
            reads.append(cell_id)
            return facets_containing(self, cell_id)

        monkeypatch.setattr(SpongeComplex, "facets_containing", counting)
        monkeypatch.setattr(SpongeComplex, "upper_set", lambda s, c: searched.append(c) or upper_set(s, c))
        cd = local_model_data(ws)
        assert sorted(r for r in reads if r in rays) == sorted(rays)
        assert searched == [] and "_upper_sets" not in vars(cd.sponge)

    def test_facet_needs_two_rays_outside_it(self):
        charts = {"o": Chart(DIAGONAL, ("c1", "c1", "c2"))}
        with pytest.raises(ConsistencyError, match="^facet c1 meets 2 rays at o, cannot form a chart pair$"):
            data_from_charts(local_model_sponge(3), charts, Ambient("abstract"))

    def test_charts_disagree_on_a_direction(self):
        # at v, e1 pairs with the edges at indices 0 and 2, so its direction
        # is the line killing (0, 1), not (1, 0) as at u
        charts = {"u": Chart(DIAGONAL, ("e1", "e2", "e3")), "v": Chart(DIAGONAL, ("e2", "e1", "e3"))}
        with pytest.raises(ConsistencyError, match="^charts disagree on the direction of facet e1$"):
            data_from_charts(THETA, charts, Ambient("abstract"))

    def test_charts_disagree_on_a_hopf_sign(self):
        charts = {"u": Chart(DIAGONAL, ("e1", "e2", "e3")), "v": Chart(ANTI, ("e1", "e2", "e3"))}
        with pytest.raises(ConsistencyError, match="^charts disagree on the Hopf sign of facet e1$"):
            data_from_charts(THETA, charts, Ambient("abstract"))

    def test_facet_without_a_zero_cell(self):
        base = local_model_sponge(3)
        sponge = SpongeComplex(3, (*base.cells, Cell("x", 1)), base.incidence)
        charts = {"o": Chart(DIAGONAL, ("c1", "c2", "c3"))}
        with pytest.raises(ConsistencyError, match="^facet x has no vertex in its closure$"):
            data_from_charts(sponge, charts, Ambient("abstract"))

    def test_missing_chart(self):
        with pytest.raises(ConsistencyError, match="^0-cell o lies in a facet but has no chart$"):
            data_from_charts(local_model_sponge(3), {}, Ambient("abstract"))
        with pytest.raises(ConsistencyError, match="^0-cell v lies in a facet but has no chart$"):
            data_from_charts(THETA, {"u": Chart(DIAGONAL, ("e1", "e2", "e3"))}, Ambient("abstract"))

    @pytest.mark.parametrize(
        "sponge, charts, error, message",
        [
            # the texts and the order of the checks are those of the per-pair assembly
            (LM3, {"o": Chart(NONSTRICT, ("c1", "c2", "c3"))}, PreconditionError, _NOT_STRICT),
            (LM3, {"o": Chart(DEGENERATE, ("c1", "c2", "c3"))}, PreconditionError, _NOT_GENERAL),
            (LM3, {"o": Chart(DIAGONAL, ("c1", "c2", "zz"))}, ConsistencyError, _NO_PAIR.format("c3", 0)),
            # a ray off the sponge lacks every facet; c1's pair is formed, then strictness fails
            (LM3, {"o": Chart(NONSTRICT, ("c1", "zz", "c3"))}, PreconditionError, _NOT_STRICT),
            # the first facet's pair fails before the chart's strictness is read
            (LM3, {"o": Chart(NONSTRICT, ("c1", "c1", "c2"))}, ConsistencyError, _NO_PAIR.format("c1", 2)),
            (THETA, _theta_charts(DIAGONAL, NONSTRICT, ("e1", "e2", "e3")), PreconditionError, _NOT_STRICT),
            (THETA, _theta_charts(DIAGONAL, DIAGONAL, ("e2", "e1", "e3")), ConsistencyError, _DISAGREE % "direction"),
            (THETA, _theta_charts(DIAGONAL, ANTI, ("e1", "e2", "e3")), ConsistencyError, _DISAGREE % "Hopf sign"),
        ],
        ids=[
            "non-strict",
            "not-general",
            "ray-off-sponge",
            "ray-off-then-non-strict",
            "pair-before-strictness",
            "second-chart-non-strict",
            "disagree-direction",
            "disagree-sign",
        ],
    )
    def test_malformed_chart_messages(self, sponge, charts, error, message):
        with pytest.raises(error) as info:
            data_from_charts(sponge, charts, Ambient("abstract"))
        assert type(info.value) is error and str(info.value) == message
        with pytest.raises(error) as oracle:
            data_from_charts_by_facets(sponge, charts, Ambient("abstract"))
        assert str(oracle.value) == message

    def test_zero_cell_without_a_facet_needs_no_chart(self):
        base = local_model_sponge(4)
        sponge = SpongeComplex(4, (*base.cells, Cell("lone", 0)), base.incidence)
        ws = WeightSystem(4, (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1), vec(-1, -1, -1)))
        cd = data_from_charts(sponge, {"o": Chart(ws, ("c1", "c2", "c3", "c4"))}, Ambient("abstract"))
        assert cd.mu == local_model_data(ws).mu
