"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line
per criterion with its runtime.
"""

import hashlib
import json
import random
import time
from functools import lru_cache
from itertools import product
from math import lcm

from complexity_one.catalog import load, octahedron_sponge, simplex_lambda, simplex_polytope, verify
from complexity_one.chardata import _checks, cocycle_check, compatibility_check, validate_mu
from complexity_one.classify import compare, verify_witness
from complexity_one.io import canonical_json, chardata_from_dict, chardata_to_dict
from complexity_one.lattice import IntMatrix, determinant, smith_normal_form, vec
from complexity_one.quasitoric import (
    SimplePolytope,
    CharacteristicFunction,
    coloring_pullback,
    find_strict_subtorus,
    reduce,
)
from complexity_one.sponge import homology, validate_sponge
from complexity_one.weights import (
    WeightSystem,
    cramer_coefficients,
    is_strictly_appropriate,
    stabilizer_structure,
)
from conftest import euler_cycle_verdicts, random_general_position_system, random_unimodular, transformed
from oracles import (
    cofactor_det,
    coset_order,
    euler_cycle_by_boundary,
    graph_betti,
    invariant_factors_from_minors,
)

# sha256 of the canonical JSON of the reduced 8-cube (coloring lambda, first alpha found)
CUBE_8_DIGEST = "e06426c6e9a768636265269b1f974665e19cdb7b235eec33b4ff6a199b0b0b9b"


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}: {detail} ({time.monotonic() - t0:.3f}s)")
    assert ok, detail


def test_criterion_1_grassmannian_pipeline():
    t0 = time.monotonic()
    ws = WeightSystem(4, (vec(1, 0, -1), vec(0, 1, -1), vec(-1, 0, -1), vec(0, -1, -1)))
    cc = cramer_coefficients(ws)
    ok = cc.c in ((1, -1, 1, -1), (-1, 1, -1, 1))
    ok = ok and is_strictly_appropriate(ws)
    sponge_ok = validate_sponge(octahedron_sponge(squares=True)).ok
    ok = ok and sponge_ok
    entry = load("g42")
    cycle = euler_cycle_verdicts(entry.data) == (True, True)
    ok = ok and cycle
    dt = time.monotonic() - t0
    ok = ok and dt < 1.0
    _report(
        1,
        ok,
        f"c={list(cc.c)}, strict, octahedron+squares valid={sponge_ok}, cycle={cycle}",
        t0,
    )


def test_criterion_2_flag_pipeline():
    t0 = time.monotonic()
    ws = WeightSystem(3, (vec(1, 0), vec(1, 1), vec(0, 1)))
    cc = cramer_coefficients(ws)
    ok = cc.c in ((1, -1, 1), (-1, 1, -1))
    ok = ok and is_strictly_appropriate(ws)
    entry = load("f3")
    s = entry.data.sponge
    ok = ok and validate_sponge(s).ok
    ok = ok and all(len(s.facets_containing(v.id)) == 3 for v in s.cells_of_dim(0))
    betti = homology(s).betti
    vertices = [c.id for c in s.cells_of_dim(0)]
    edges = [tuple(x for x, _ in s.boundary(e.id)) for e in s.cells_of_dim(1)]
    oracle = graph_betti(vertices, edges)
    ok = ok and betti == (1, 4) == oracle
    dt = time.monotonic() - t0
    ok = ok and dt < 1.0
    _report(2, ok, f"c={list(cc.c)}, K33 valid, betti={list(betti)} = oracle {list(oracle)}", t0)


def test_criterion_3_reduction_closure():
    t0 = time.monotonic()
    simplex = simplex_polytope()
    cube = SimplePolytope(
        3,
        ("xm", "xp", "ym", "yp", "zm", "zp"),
        tuple(
            frozenset({"x" + sx, "y" + sy, "z" + sz})
            for sx in "mp"
            for sy in "mp"
            for sz in "mp"
        ),
    )
    prism = SimplePolytope(
        3,
        ("t", "b", "s1", "s2", "s3"),
        tuple(
            frozenset(v)
            for v in [
                ("t", "s1", "s2"),
                ("t", "s2", "s3"),
                ("t", "s1", "s3"),
                ("b", "s1", "s2"),
                ("b", "s2", "s3"),
                ("b", "s1", "s3"),
            ]
        ),
    )
    cases = [
        (simplex, simplex_lambda()),
        (cube, coloring_pullback(cube, {"xm": 1, "xp": 1, "ym": 2, "yp": 2, "zm": 3, "zp": 3})),
        (
            prism,
            CharacteristicFunction(
                {
                    "t": vec(0, 0, 1),
                    "b": vec(0, 0, 1),
                    "s1": vec(1, 0, 0),
                    "s2": vec(0, 1, 0),
                    "s3": vec(1, 1, 1),
                }
            ),
        ),
    ]
    runs = 0
    for p, lam in cases:
        subtori = find_strict_subtorus(p, lam, 1)
        assert subtori, "no strict subtorus found"
        for st in subtori:
            assert all(abs(st.pairing(lam[f])) == 1 for f in p.facets)
            cd = reduce(p, lam, st)
            assert validate_mu(cd).ok
            assert compatibility_check(cd)
            assert cocycle_check(cd).ok
            assert euler_cycle_verdicts(cd) == (True, True)
            runs += 1
    dt = time.monotonic() - t0
    ok = runs >= 3 and dt < 5.0
    _report(3, ok, f"{runs}/{runs} pipeline runs pass all validators on simplex, cube, prism", t0)


def test_criterion_4_stabilizer_suite():
    t0 = time.monotonic()
    rng = random.Random(101)
    mismatches = 0
    total = 0
    for _ in range(500):
        n = rng.randint(3, 6)
        ws = random_general_position_system(rng, n, bound=4)
        total += 1
        c = cramer_coefficients(ws).c
        strict = is_strictly_appropriate(ws)
        singleton_trivial = True
        for i in range(n):
            st = stabilizer_structure(ws, [i])
            want = (abs(c[i]),) if abs(c[i]) > 1 else ()
            if st.finite_orders != want or st.torus_rank != 0:
                mismatches += 1
            if st.finite_orders:
                singleton_trivial = False
        if strict != singleton_trivial:
            mismatches += 1
    ok = total >= 500 and mismatches == 0
    _report(4, ok, f"{total} systems, {mismatches} mismatches", t0)


def test_criterion_5_cramer_fuzz():
    t0 = time.monotonic()
    rng = random.Random(102)
    failures = 0
    systems = []
    for _ in range(400):
        n = rng.randint(3, 6)
        ws = random_general_position_system(rng, n, bound=4)
        systems.append(ws)
        cc = cramer_coefficients(ws)  # Cramer identity asserted internally
        total = ws.weights[0].scale(0)
        for ci, a in zip(cc.c_tilde, ws.weights):
            total = total + a.scale(ci)
        if not total.is_zero():
            failures += 1
    # sign covariance on 200 transformed instances
    for ws in systems[:200]:
        n = ws.n
        base = cramer_coefficients(ws).c_tilde
        i = rng.randrange(n)
        flipped = WeightSystem(
            n, tuple(w.scale(-1) if t == i else w for t, w in enumerate(ws.weights))
        )
        new = cramer_coefficients(flipped).c_tilde
        if new[i] != base[i] or any(new[j] != -base[j] for j in range(n) if j != i):
            failures += 1
    # GL invariance on 200 transformed instances
    for ws in systems[200:400]:
        a = random_unimodular(rng, ws.n - 1)
        moved = WeightSystem(ws.n, tuple(a @ w for w in ws.weights))
        c1 = cramer_coefficients(ws).c
        c2 = cramer_coefficients(moved).c
        if c1 != c2 and tuple(-x for x in c1) != c2:
            failures += 1
        if is_strictly_appropriate(moved) != is_strictly_appropriate(ws):
            failures += 1
    ok = failures == 0
    _report(5, ok, f"400 identity checks, 200 sign-covariance, 200 GL-invariance, {failures} failures", t0)


def test_criterion_6_smith_oracle():
    t0 = time.monotonic()
    rng = random.Random(103)
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(m, n, tuple(rng.randint(-5, 5) for _ in range(m * n)))
        dec = smith_normal_form(a)
        prod = dec.u @ a @ dec.v
        assert prod.entries == dec.d.entries
        assert determinant(dec.u) in (1, -1) and determinant(dec.v) in (1, -1)
        diag = dec.diagonal()
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0

    # torsion readout against the brute-force oracles on small matrices
    checked_orders = 0
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        a = IntMatrix.from_rows(rows)
        dec = smith_normal_form(a)
        oracle_factors = invariant_factors_from_minors(rows)
        assert list(dec.diagonal()[: len(oracle_factors)]) == oracle_factors
        assert tuple(x for x in oracle_factors if x > 1) == dec.torsion()
        if m == n and cofactor_det(rows) != 0:
            det = abs(cofactor_det(rows))
            prodd = 1
            for x in dec.diagonal():
                prodd *= x
            assert prodd == det
            # orders of the images of the basis vectors in the quotient group
            exponent = dec.diagonal()[-1]
            orders = []
            for i in range(m):
                e = [1 if t == i else 0 for t in range(m)]
                order = coset_order(rows, e, bound=det + 1)
                assert order is not None and exponent % order == 0
                orders.append(order)
            assert lcm(*orders) == exponent
            checked_orders += 1
    ok = checked_orders > 20
    _report(
        6,
        ok,
        f"1000 decompositions checked, 200 minor-gcd torsion oracles, {checked_orders} coset-order enumerations",
        t0,
    )


def test_criterion_7_classifier():
    t0 = time.monotonic()
    rng = random.Random(104)
    entries = ["f3", "cp3-reduction", "local-model-4", "g42"]
    counts = {"f3": 15, "cp3-reduction": 15, "local-model-4": 10, "g42": 10}
    pairs = 0
    for name in entries:
        cd = load(name).data
        for _ in range(counts[name]):
            ids = [c.id for c in cd.sponge.cells]
            target = [f"c{idx:03d}" for idx in range(len(ids))]
            rng.shuffle(target)
            relabel = dict(zip(ids, target))
            a = random_unimodular(rng, cd.n - 1)
            moved = transformed(cd, matrix=a, relabel=relabel)
            res = compare(cd, moved)
            assert res.equivalent, f"{name}: self-pair not recognized"
            assert verify_witness(cd, moved, res.witness), f"{name}: witness fails substitution"
            pairs += 1
    g42 = load("g42").data
    flipped = transformed(g42, flip={sorted(g42.sponge.facet_ids)[0]})
    res = compare(g42, flipped)
    assert res.verdict == "inequivalent"
    dt = time.monotonic() - t0
    ok = pairs == 50 and dt < 10.0
    _report(7, ok, f"{pairs} verified self-pairs, flipped Hopf sign inequivalent", t0)


def test_criterion_8_cocycle_relations():
    t0 = time.monotonic()
    data = [load(name).data for name in ("g42", "f3", "cp3-reduction", "local-model-4", "local-model-5")]
    # pipeline-produced data
    simplex = simplex_polytope()
    for st in find_strict_subtorus(simplex, simplex_lambda(), 1):
        data.append(reduce(simplex, simplex_lambda(), st))
    violations = 0
    faces = 0
    for cd in data:
        report = cocycle_check(cd)
        violations += len(report.failures())
        if cd.n >= 3:
            faces += len(cd.sponge.cells_of_dim(cd.n - 3))
        if not euler_cycle_by_boundary(cd):
            violations += 1
    ok = violations == 0 and faces > 0
    _report(8, ok, f"{faces} codimension-one faces over {len(data)} data sets, {violations} violations", t0)


def test_criterion_9_validate_mu_speed():
    cd = load("local-model-7").data
    t0 = time.monotonic()
    report = validate_mu(cd)
    dt = time.monotonic() - t0
    ok = report.ok and dt < 0.2
    _report(9, ok, f"validate_mu(local-model-7) ok={report.ok} in {dt:.3f}s (bound 0.2s)", t0)


def test_criterion_10_local_model_5_flip():
    cd = load("local-model-5").data
    flipped = transformed(cd, flip={sorted(cd.sponge.facet_ids)[0]})
    t0 = time.monotonic()
    res = compare(cd, flipped)
    dt = time.monotonic() - t0
    ok = res.verdict == "inequivalent" and "(240 gauge assignments tried)" in res.certificate and dt < 2.0
    _report(10, ok, f"compare(local-model-5, flipped) {res.verdict}: {res.certificate} in {dt:.3f}s (bound 2s)", t0)


def _colored_cube(n):
    """The n-cube, facets m<i> and p<i>, with the characteristic function of its coloring by i + 1."""
    facets = tuple(f"{s}{i}" for i in range(n) for s in "mp")
    verts = tuple(
        frozenset(f"{s}{i}" for i, s in enumerate(signs)) for signs in product("mp", repeat=n)
    )
    cube = SimplePolytope(n, facets, verts)
    return cube, coloring_pullback(cube, {f"{s}{i}": i + 1 for i in range(n) for s in "mp"})


@lru_cache(maxsize=None)
def _cube_8_reduction():
    """reduce of the 8-cube with alpha searched, alpha and the seconds both took."""
    cube, lam = _colored_cube(8)
    t0 = time.monotonic()
    st = find_strict_subtorus(cube, lam)[0]
    cd = reduce(cube, lam, st)
    return cd, st, time.monotonic() - t0


def test_criterion_11_cube_6_reduce():
    cube, lam = _colored_cube(6)
    t0 = time.monotonic()
    st = find_strict_subtorus(cube, lam)[0]
    cd = reduce(cube, lam, st)
    dt = time.monotonic() - t0
    ok = validate_mu(cd).ok and cocycle_check(cd).ok and dt < 0.6
    _report(11, ok, f"reduce(6-cube, alpha={list(st.alpha)}): {len(cd.sponge.cells)} cells in {dt:.3f}s (bound 0.6s)", t0)


def test_criterion_12_cube_6_homology():
    cube, lam = _colored_cube(6)
    s = reduce(cube, lam, find_strict_subtorus(cube, lam)[0]).sponge
    t0 = time.monotonic()
    h = homology(s)
    dt = time.monotonic() - t0
    ok = len(s.cells) == 716 and h.betti == (1, 0, 0, 0, 11) and dt < 0.5
    _report(12, ok, f"homology(reduced 6-cube, {len(s.cells)} cells): betti={list(h.betti)} in {dt:.3f}s (bound 0.5s)", t0)


def test_criterion_13_local_model_10_verify():
    entry = load("local-model-10")
    t0 = time.monotonic()
    report = verify(entry)
    dt = time.monotonic() - t0
    ok = report.ok and dt < 0.4
    _report(13, ok, f"catalog.verify(local-model-10) ok={report.ok} in {dt:.3f}s (bound 0.4s)", t0)


def test_criterion_14_reduced_cube_7_self_compare():
    cube, lam = _colored_cube(7)
    cd = reduce(cube, lam, find_strict_subtorus(cube, lam)[0])
    stats = {}
    t0 = time.monotonic()
    res = compare(cd, cd, stats=stats)
    dt = time.monotonic() - t0
    cells = len(cd.sponge.cells)
    ok = cells == 2172 and res.equivalent and stats["nodes"] == cells and dt < 1.5
    _report(14, ok, f"compare(reduced 7-cube, itself), {cells} cells: {res.verdict} in {dt:.3f}s (bound 1.5s)", t0)


def test_criterion_15_cube_8_reduce():
    t0 = time.monotonic()
    cd, st, dt = _cube_8_reduction()
    digest = hashlib.sha256(canonical_json(chardata_to_dict(cd)).encode()).hexdigest()
    cells = len(cd.sponge.cells)
    ok = cells == 6544 and digest == CUBE_8_DIGEST and dt < 1.5
    _report(15, ok, f"reduce(8-cube, alpha={list(st.alpha)}): {cells} cells in {dt:.3f}s (bound 1.5s)", t0)


def test_criterion_16_renamed_cube_8_homology():
    # compare reads its inputs with whatever ids they carry, and homology's
    # elimination order follows the ids: before each boundary dropped the rows
    # pivoted one dimension down, these renamed cells took 8-9 s on a 2-vCPU
    # VM, against 0.11-0.15 s after
    cd = _cube_8_reduction()[0]
    ids = [c.id for c in cd.sponge.cells]
    fresh = random.Random(1).sample(range(len(ids)), len(ids))
    s = transformed(cd, relabel={x: f"c{k:05d}" for x, k in zip(ids, fresh)}).sponge
    s.boundary_squared_defects  # validation's share of the work, cached on the complex
    t0 = time.monotonic()
    h = homology(s)
    dt = time.monotonic() - t0
    ok = h.betti == (1, 0, 0, 0, 0, 0, 15) and not any(h.torsion) and dt < 1.0
    _report(16, ok, f"homology(renamed reduced 8-cube, {len(s.cells)} cells): betti={list(h.betti)} in {dt:.3f}s (bound 1.0s)", t0)


def test_criterion_17_cube_8_checks_at_the_fixed_points(monkeypatch):
    # the check pipeline decides mu-rank with one elimination per 0-cell:
    # 256 on the reduced 8-cube, where the per-cell loop made 6,432.  On a
    # 2-vCPU VM the checks took 0.44-0.76 s before and 0.28-0.52 s after; the
    # count tells the two apart, and the bound leaves room for a slower host.
    # The stars, the facets through each cell and the structure are read off
    # the sponge's int index, so no upper set is built
    import complexity_one.chardata as chardata

    text = canonical_json(chardata_to_dict(_cube_8_reduction()[0]))
    cd = chardata_from_dict(json.loads(text))
    calls = []
    count = chardata.independent_rows
    monkeypatch.setattr(chardata, "independent_rows", lambda rows, k: calls.append(k) or count(rows, k))
    t0 = time.monotonic()
    stages = dict(_checks(cd))
    dt = time.monotonic() - t0
    failed = [stage for stage, report in stages.items() if not report.ok]
    # the checks read the sponge's int index: no upper set is searched
    searched = "_upper_sets" in vars(cd.sponge)
    ok = not failed and len(calls) == 256 and not searched and dt < 1.0
    _report(
        17,
        ok,
        f"checks of the reduced 8-cube read back: failed {failed}, {len(calls)} eliminations, "
        f"upper sets built: {searched}, in {dt:.3f}s (bound 1.0s)",
        t0,
    )


def test_criterion_18_local_model_6_flip(monkeypatch):
    # compare solves one transform per pair of gauges g and -g, and checks
    # every facet on plain ints before it takes a determinant: 720 solves and
    # no determinant on this flip, where a solve per gauge made 1,440 of
    # each.  On a 2-vCPU VM, in 10 alternating process pairs, the compare
    # took 0.47-0.69 s before and 0.15-0.21 s after; the counts tell the two
    # apart, and the bound leaves room for a slower host
    import complexity_one.classify as classify

    cd = load("local-model-6").data
    flipped = transformed(cd, flip={sorted(cd.sponge.facet_ids)[0]})
    solves, determinants = [], []
    solve, det = classify._solve_transform, classify.determinant
    monkeypatch.setattr(classify, "_solve_transform", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(classify, "determinant", lambda a: determinants.append(1) or det(a))
    t0 = time.monotonic()
    res = compare(cd, flipped)
    dt = time.monotonic() - t0
    ok = res.verdict == "inequivalent" and "(1440 gauge assignments tried)" in res.certificate
    ok = ok and len(solves) == 720 and not determinants and dt < 0.6
    _report(
        18,
        ok,
        f"compare(local-model-6, flipped) {res.verdict}: {len(solves)} transform solves, "
        f"{len(determinants)} determinants in {dt:.3f}s (bound 0.6s)",
        t0,
    )


def test_criterion_19_cube_8_read_back_self_compare(monkeypatch):
    # compare reads both sponges through their int indices, one build each:
    # the checks, the fingerprint and the search build no upper set, and the
    # gauges are signed along one walk.  On a 2-vCPU VM, in 5 alternating
    # process pairs, this compare took 0.82-0.91 s before the string-keyed
    # incidence left the package and 0.75-0.98 s after; the bound leaves 2x
    import complexity_one.classify as classify
    import complexity_one.sponge as sponge

    text = canonical_json(chardata_to_dict(_cube_8_reduction()[0]))
    cd1, cd2 = chardata_from_dict(json.loads(text)), chardata_from_dict(json.loads(text))
    builds, walks = [], []
    build, walk = sponge._Index.of, classify.sign_walk
    monkeypatch.setattr(sponge._Index, "of", staticmethod(lambda by_id, inc: builds.append(by_id) or build(by_id, inc)))
    monkeypatch.setattr(classify, "sign_walk", lambda *args: walks.append(1) or walk(*args))
    t0 = time.monotonic()
    res = compare(cd1, cd2)
    dt = time.monotonic() - t0
    searched = [cd.sponge for cd in (cd1, cd2) if "_upper_sets" in vars(cd.sponge)]
    per_sponge = len(builds) == 2 and {id(b) for b in builds} == {id(cd1.sponge.by_id), id(cd2.sponge.by_id)}
    ok = res.equivalent and not searched and len(walks) == 1 and per_sponge and dt < 2.0
    _report(
        19,
        ok,
        f"compare(reduced 8-cube read back, itself) {res.verdict}: {len(searched)} upper sets built, "
        f"{len(walks)} sign walks, {len(builds)} index builds in {dt:.3f}s (bound 2.0s)",
        t0,
    )


def test_criterion_20_cube_8_reduce_sign_propagations(monkeypatch):
    # reduce orients the 8-cube's boundary cell by cell, one propagation per
    # cell of dim >= 2 through signed_incidence, and then solves the Euler
    # signs with one more: 5,264 and 1 calls, the count that reading the
    # orientation off the polytope would cut.  On a 2-vCPU VM, in 8
    # alternating process pairs, the search and the reduce took 0.38-0.57 s
    # (0.42-0.63 s in unpaired runs on a slower host); the bound leaves 2x
    import complexity_one.chardata as chardata
    import complexity_one.sponge as sponge

    oriented, solved = [], []
    for module, calls in ((sponge, oriented), (chardata, solved)):
        propagate = module.propagate_signs
        monkeypatch.setattr(module, "propagate_signs", lambda *args, f=propagate, c=calls: c.append(1) or f(*args))
    cube, lam = _colored_cube(8)
    t0 = time.monotonic()
    cd = reduce(cube, lam, find_strict_subtorus(cube, lam)[0])
    dt = time.monotonic() - t0
    cells = len(cd.sponge.cells)
    ok = cells == 6544 and len(oriented) == 5264 and len(solved) == 1 and dt < 1.5
    _report(
        20,
        ok,
        f"reduce(8-cube): {cells} cells, {len(oriented)} propagations in signed_incidence and "
        f"{len(solved)} in the Euler sign solve in {dt:.3f}s (bound 1.5s)",
        t0,
    )
