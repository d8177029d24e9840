"""Checks on the package source itself."""

import ast
from pathlib import Path

import complexity_one

SOURCES = sorted(Path(complexity_one.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so self-checks must raise package errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _uses(name):
    """(module, top-level definition) of every load of `name` in the package; imports are not uses."""
    found = []
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
                    found.append((path.stem, owner))
    return found


def test_smith_only_where_invariant_factors_are_the_answer():
    # ranks and determinants use Bareiss elimination, square solves and
    # inverses its reduced form, kernels the Hermite form, and a stabilizer's
    # one relation the gcd of its entries; a Smith form is built only for
    # invariant factors: the residual of homology's unit-pivot elimination
    # and basis extension
    allowed = {
        ("sponge", "_rank_and_torsion"),
        ("lattice", "is_unimodular_extension"),
    }
    uses = set(_uses("smith_normal_form"))
    assert uses and uses <= allowed, sorted(uses - allowed)


def test_normal_forms_verify_their_results():
    assert ("lattice", "smith_normal_form") in _uses("_check_smith")
    assert ("lattice", "hermite_normal_form") in _uses("_check_hermite")
    # adjugate and minors_and_adjugate share one elimination beside the identity, which checks its result
    assert set(_uses("_check_adjugate")) == {("lattice", "_beside_identity")}
    assert set(_uses("_beside_identity")) == {("lattice", "adjugate"), ("lattice", "minors_and_adjugate")}


def test_one_unimodular_elimination():
    # the Smith form alternates the Hermite row pass on D and on its
    # transpose, so the worker needs row operations only: no column
    # operation and no column tracker
    tree = ast.parse((Path(complexity_one.__file__).parent / "lattice.py").read_text())
    worker = next(top for top in tree.body if getattr(top, "name", None) == "_Worker")
    methods = {node.name for node in worker.body if isinstance(node, ast.FunctionDef)}
    assert "rot_rows" in methods and not [m for m in methods if "col" in m], sorted(methods)
    fields = {
        target.attr
        for node in ast.walk(worker)
        if isinstance(node, ast.Assign)
        for target in ast.walk(node)
        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
    }
    assert fields == {"m", "n", "d", "u"}, sorted(fields)
    for name in ("smith_normal_form", "hermite_normal_form"):
        assert ("lattice", name) in _uses("_hermite_rows"), name
    assert ("lattice", "smith_normal_form") in _uses("_check_smith")


def test_one_adjugate():
    # every square solve and inverse reads lattice.adjugate; nothing builds
    # cofactors from determinants or signed maximal minors by hand, and a
    # weight system's Cramer minors and the one adjugate its chart's
    # stabilizer lines come from are one elimination
    assert set(_uses("adjugate")) == {
        ("weights", "SubtorusChoice"),
        ("weights", "induced_weights"),
        ("quasitoric", "_strict_subtori"),
        ("classify", "_SpanFactor"),
    }
    assert set(_uses("minors_and_adjugate")) == {("weights", "WeightSystem")}
    # a determinant is loaded only where it is the answer itself
    assert set(_uses("determinant")) == {
        ("lattice", "_check_smith"),
        ("lattice", "_check_hermite"),
        ("quasitoric", "_star_failures"),
        ("classify", "_solve_transform"),
        ("classify", "verify_witness"),
    }


def test_one_basis_condition():
    # validate_star and cell_manifold_data decide the star condition through
    # one helper: determinants at the vertices, basis extension elsewhere
    for name in ("determinant", "is_unimodular_extension"):
        assert {owner for module, owner in _uses(name) if module == "quasitoric"} == {"_star_failures"}, name


def test_hermite_form_only_for_lattices():
    # the Hermite form answers kernel lattices; solve_exact lives on only as
    # the tests' independent oracle
    assert set(_uses("hermite_normal_form")) == {("lattice", "integer_kernel")}
    assert _uses("solve_exact") == []


def test_subtorus_frame_has_one_owner():
    # the kernel basis of a subtorus character is computed by SubtorusChoice
    # alone; every other caller reads st.complement
    assert set(_uses("kernel_complement")) == {("weights", "SubtorusChoice")}
    tree = ast.parse((Path(complexity_one.__file__).parent / "weights.py").read_text())
    cls = next(top for top in tree.body if getattr(top, "name", None) == "SubtorusChoice")
    members = {
        member.name
        for member in cls.body
        for node in ast.walk(member)
        if getattr(node, "id", None) == "kernel_complement"
    }
    assert members == {"complement"}


def test_integer_kernel_only_frames_a_subtorus():
    # orientations propagate signs and stabilizer lines are signed maximal
    # minors; the one kernel left is the frame of a subtorus character
    assert set(_uses("integer_kernel")) == {("lattice", "kernel_complement")}


def test_one_sign_propagation():
    # cell orientations, Euler signs and compare's gauges share one walk,
    # sign_walk, and one signing pass along it, signs_along: propagate_signs
    # runs both for the orientations and the Euler signs, compare walks its
    # first sponge once and _solve_gauge signs the walk per bijection.  The
    # signs the Euler relations and the cocycle read, [F : face], come off
    # the int index through one reader, and compare walks the index's ints
    assert set(_uses("propagate_signs")) == {
        ("sponge", "signed_incidence"),
        ("chardata", "_euler_signs"),
    }
    assert set(_uses("sign_walk")) == {("sponge", "propagate_signs"), ("classify", "compare")}
    assert set(_uses("signs_along")) == {("sponge", "propagate_signs"), ("classify", "_solve_gauge")}
    assert set(_function_uses("_coefficient")) == {("chardata", "cocycle_report"), ("chardata", "_euler_signs")}
    coefficient = _method("sponge", "SpongeComplex", "_coefficient")
    assert _loads(coefficient) >= {"bnd", "pos"} and not _loads(coefficient) & {"incidence", "boundary", "by_id"}
    [walk] = _calls(_function("classify", "compare"), "sign_walk")
    assert _calls(walk.args[0], "range"), ast.unparse(walk)


def test_compare_walks_once():
    # the incidence graph the gauges are signed on is the first sponge's
    # whatever the bijection: compare builds its relations and its walk
    # before the search, and the per-bijection code only signs them.  The
    # second sponge's signs per cell are built once too, and a bijection and
    # its gauge become id dicts only for a witness
    compare = _function("classify", "compare")
    [search] = [
        node for node in ast.walk(compare) if isinstance(node, ast.For) and _calls(node.iter, "_poset_bijections")
    ]
    assert len(_calls(compare, "sign_walk")) == 1 and _calls(search, "sign_walk") == []
    for name in ("_solve_gauge", "_solve_transform", "_poset_bijections"):
        assert _calls(_function("classify", name), "sign_walk") == [], name
        assert _calls(_function("classify", name), "propagate_signs") == [], name
    assert _calls(compare, "dict") and _calls(search, "dict") == []
    [witness] = _calls(search, "EquivalenceWitness")
    [found] = [node for node in ast.walk(search) if isinstance(node, ast.If) and ast.unparse(node.test) == "a is None"]
    id_reads = [node for node in ast.walk(search) if getattr(node, "id", None) in ("ids1", "ids2")]
    assert id_reads and all(found.lineno < node.lineno <= witness.lineno for node in id_reads)


def test_eliminations_read_plain_rows():
    # Bareiss elimination and what reads it work on lists of ints; building
    # an IntVector or IntMatrix per row or per minor is waste
    names = (
        "_bareiss",
        "_minors",
        "adjugate",
        "minors_and_adjugate",
        "_beside_identity",
        "independent_rows",
    )
    tree = ast.parse((Path(complexity_one.__file__).parent / "lattice.py").read_text())
    kernels = [top for top in tree.body if getattr(top, "name", None) in names]
    assert len(kernels) == len(names)
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for top in kernels
        for node in ast.walk(top)
    }
    assert not used & {"row", "from_rows", "stack_rows"}, sorted(used & {"row", "from_rows", "stack_rows"})


def test_one_reduction_pipeline():
    # reduce and cell_manifold_data share one chart builder, whose charts
    # _reduce hands on without building any, and the cp3 catalog entry reads
    # them; a face of the polytope is named by one helper
    for name in ("induced_weights", "data_from_charts"):
        assert {owner for module, owner in _uses(name) if module == "quasitoric"} == {"_reduction_data"}, name
    assert {owner for module, owner in _uses("Chart") if module == "quasitoric"} == {"_reduction_data", "_reduce"}
    assert _calls(_function("quasitoric", "_reduce"), "Chart") == []
    assert {owner for module, owner in _uses("induced_weights") if module == "catalog"} == {"_build_local_model"}
    face_ids = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("g:")
    ]
    assert len(face_ids) == 1, face_ids


def test_validators_read_plain_rows():
    # the mu-rank check and the three-term relation read the tuples of mu;
    # a matrix per cell or a scaled vector per sign combination is waste
    names = {
        "validate_mu",
        "cocycle_report",
        "_vanishing_pattern",
        "_three_term_faces",
        "solve_euler_signs",
        "_euler_signs",
    }
    tree = ast.parse((Path(complexity_one.__file__).parent / "chardata.py").read_text())
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    assert {node.name for node in found} == names
    banned = {"stack_rows", "from_rows", "scale", "IntMatrix"}
    used = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for top in found
        for node in ast.walk(top)
    }
    assert not used & banned, sorted(used & banned)


def test_one_check_pipeline_for_characteristic_data():
    # chardata._checks orders and gates the chardata checks; the reports of
    # cli and catalog and compare's preconditions read its stages and run no
    # validator of their own
    validators = ("validate_mu", "compatibility_check", "cocycle_check")
    for name in validators:
        loaded_by = {module for module, _ in _uses(name)}
        assert not loaded_by & {"cli", "catalog", "classify"}, (name, sorted(loaded_by))
    assert {module for module, _ in _uses("_checks")} == {"cli", "catalog", "classify"}


def test_no_chain_cycle_check():
    # with its prerequisites passed, the cocycle report decides whether the
    # Euler chain is a cycle; no module builds the chain or sums its boundary
    # (tests/oracles.py keeps that sum as the reference)
    names = {"assemble_euler_cycle", "EulerCycle", "weighted_cycle_check"}
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]
    assert defined == []
    for name in names:
        assert _uses(name) == [], name
        assert not hasattr(complexity_one, name), name


def test_one_owner_per_chardata_rule():
    # the three-term relation is read at the codimension-one faces by one
    # helper, which a datum's three_term_faces and the Euler sign solve
    # share, and a datum built from charts takes the faces its sign solve
    # read; the per-facet mu-domain rule is one helper too
    assert set(_uses("_vanishing_pattern")) == {("chardata", "_three_term_faces")}
    assert set(_uses("_three_term_faces")) == {
        ("chardata", "CharacteristicData"),
        ("chardata", "_euler_signs"),
    }
    assert set(_uses("_euler_signs")) == {("chardata", "solve_euler_signs"), ("chardata", "data_from_charts")}
    # a datum reads its faces once: mu-rank's gate, cocycle and the pair indices share them
    assert set(_uses("three_term_faces")) == {
        ("chardata", "CharacteristicData"),
        ("chardata", "validate_mu"),
        ("classify", "canonical_invariants"),
    }
    assert {owner for module, owner in _uses("is_primitive") if module == "chardata"} == {"_mu_defect"}
    # one pass of it per datum, cached, which validate_mu and compatibility_check share
    assert set(_uses("_mu_defect")) == {("chardata", "CharacteristicData")}
    assert set(_uses("mu_defects")) == {("chardata", "validate_mu"), ("chardata", "compatibility_check")}


def test_no_field_the_data_fix():
    # a datum's n is its sponge's; compare settles n and the ambient before
    # it reads a fingerprint, and then compares every fingerprint field
    from dataclasses import fields

    from complexity_one.chardata import CharacteristicData
    from complexity_one.classify import Fingerprint
    from complexity_one.sponge import local_model_sponge

    assert [f.name for f in fields(CharacteristicData) if f.init] == ["sponge", "mu", "euler_sign", "ambient"]
    assert CharacteristicData(local_model_sponge(3), {}, {}).n == 3
    assert [f.name for f in fields(Fingerprint)] == ["cells_per_dim", "betti", "torsion", "pair_indices"]
    assert ("classify", "compare") in _uses("fields") and ("classify", "compare") in _uses("Fingerprint")
    for name in ("LocalModel", "local_model"):
        assert _uses(name) == [] and not hasattr(complexity_one, name), name


def test_catalog_entries_keep_what_differs():
    # what every worked example shares (strict weights, unit Cramer
    # coefficients, an Euler cycle, as many fixed points as 0-cells) is code in
    # catalog.verify, and the weights at the fixed points come from the charts
    from dataclasses import fields

    from complexity_one.catalog import CatalogEntry

    assert [f.name for f in fields(CatalogEntry)] == ["name", "data", "weight_systems", "cells_per_dim", "betti"]
    assert _uses("expected") == []


def _function_uses(name):
    """(module, innermost enclosing function) of every load of `name` in the package."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "id", None) == name or getattr(child, "attr", None) == name:
                found.append((module, owner))
            visit(child, module, child.name if isinstance(child, ast.FunctionDef) else owner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def _function(module, name):
    tree = ast.parse((Path(complexity_one.__file__).parent / f"{module}.py").read_text())
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def _calls(fn, name):
    return [node for node in ast.walk(fn) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


def test_face_star_is_one_bit():
    # catalog.verify reads only whether a star is local, so face_star returns
    # that bit and sorts nothing; the old 4-tuple lives on as the tests' oracle.
    # face_star and stars_local run one star test, on atom bit masks
    from complexity_one.sponge import face_star, local_model_sponge

    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "FaceStar"
    ]
    assert defined == [] and _uses("FaceStar") == [] and not hasattr(complexity_one, "FaceStar")
    s = local_model_sponge(4)
    assert [type(face_star(s, c.id)) for c in s.cells] == [bool] * len(s.cells)
    assert _calls(_function("sponge", "face_star"), "sorted") == []
    assert set(_function_uses("_star_local_at")) == {("sponge", "stars_local"), ("sponge", "face_star")}
    loaded = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(_function("sponge", "face_star"))}
    assert not loaded & {"frozenset", "Counter", "comb", "upper_set"}, sorted(loaded & {"frozenset", "Counter", "comb", "upper_set"})


def test_defects_found_once():
    # the complex finds its dimension and boundary-squared defects once;
    # validation_report and homology read the same cached tuples
    from functools import cached_property

    from complexity_one.sponge import SpongeComplex

    for name in ("cell_dim_defects", "boundary_squared_defects"):
        assert isinstance(vars(SpongeComplex)[name], cached_property), name
        assert set(_function_uses(name)) == {("sponge", "validation_report"), ("sponge", "homology")}, name
        called = [
            f"{path.name}:{node.lineno}"
            for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
        ]
        assert called == [], (name, called)


def test_reduction_edges_from_covers():
    # a 0-cell's edges come from the covers of the 1-cells, and the top cells
    # through a cell from the one mask builder: no closure walk is left, nor
    # the sponge's per-cell facet filter (tests/oracles.py keeps both)
    names = {"closure", "_top_cells_by_cell", "_facets_by_cell"}
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]
    assert defined == []
    for name in sorted(names):
        assert _uses(name) == [], name


def test_one_mask_builder():
    # the facets above a sponge cell and the top cells above a manifold cell
    # are one top-down bit-mask builder over the maximal cells, read back by
    # one helper; the sponge's masks stand on its int index alone
    assert set(_function_uses("_masks_above")) == {("sponge", "_facet_masks"), ("quasitoric", "_top_cell_masks")}
    assert set(_function_uses("_masked")) == {("sponge", "facets_containing"), ("quasitoric", "top_cells_containing")}
    assert set(_function_uses("_facet_masks")) == {("sponge", "facets_containing")}
    assert set(_function_uses("_top_cell_masks")) == {("quasitoric", "top_cells_containing")}
    masks = _method("sponge", "SpongeComplex", "_facet_masks")
    loaded = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(masks)}
    banned = {"cofaces", "upper_set", "_upper_sets", "by_id"}
    assert not loaded & banned, sorted(loaded & banned)


def test_upper_sets_only_off_the_valid_path():
    # the valid path reads the index: the upper sets are one int search up
    # its cofaces, made only for upper_set, which only the upper-counts loop
    # behind a failed star calls, and for a star where incidence-structure
    # fails; compare, the checks and the charts never name it, and facets
    # are read off the masks, malformed complexes too
    from complexity_one.sponge import local_model_sponge

    assert set(_function_uses("_upper_sets")) == {("sponge", "upper_set"), ("sponge", "_star_local_at")}
    assert set(_function_uses("upper_set")) == {("sponge", "validation_report")}
    search = _method("sponge", "SpongeComplex", "_upper_sets")
    assert "cof" in _loads(search) and not _loads(search) & {"incidence", "boundary", "by_id", "cells_of_dim"}
    assert type(local_model_sponge(4)._upper_sets) is list
    star = _method("sponge", "SpongeComplex", "_star_local_at")
    [guarded] = [node for node in ast.walk(star) if isinstance(node, ast.BoolOp) and "_upper_sets" in _loads(node)]
    assert isinstance(guarded.op, ast.Or) and ast.unparse(guarded.values[0]) == "index.structured"


def test_search_indices_built_once():
    # the gauge relations are read off the int indices, built once per
    # complex in id order, and each cell's candidates are a lazy walk of its
    # signature class, not a sorted copy of it; the bijections, the gauges
    # and the transforms are ints throughout, with no id dict read per step
    assert _calls(_function("classify", "_solve_gauge"), "sorted") == []
    search = _function("classify", "_poset_bijections")
    assert _calls(search, "sorted") == []
    per_cell_lists = [
        node.lineno
        for node in ast.walk(search)
        if isinstance(node, ast.ListComp) and any(getattr(n, "id", None) == "sig2" for n in ast.walk(node))
    ]
    assert per_cell_lists == []
    id_dicts = {"pos", "ids", "by_id", "boundary", "incidence", "cells_of_dim", "facet_ids", "mapping"}
    for fn in (_function("classify", "_solve_gauge"), _function("classify", "_solve_transform"), _function("sponge", "homology")):
        assert not _loads(fn) & id_dicts, (fn.name, sorted(_loads(fn) & id_dicts))


def test_one_incidence_representation():
    # the int index is the one incidence structure: it is built for every
    # complex, and no string-keyed twin of it is left; each structural query
    # has one body, with no branch on whether the index built
    for name in ("boundary_signs", "cofaces"):
        assert _uses(name) == [] and _function_uses(name) == [], name
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("boundary_signs", "cofaces")
    ]
    assert defined == []
    for name in ("_star_local_at", "boundary_squared_defects", "facets_containing", "_facet_masks", "_upper_sets"):
        fn = _method("sponge", "SpongeComplex", name)
        none_tests = [
            node.lineno
            for node in ast.walk(fn)
            if isinstance(node, ast.Compare) and any(getattr(c, "value", 0) is None for c in node.comparators)
        ]
        assert none_tests == [] and not _loads(fn) & {"boundary", "incidence", "cells_of_dim"}, name
    assert "_index" not in _loads(_function("chardata", "data_from_charts"))
    assert "upper_set" not in _loads(_function("chardata", "data_from_charts"))


def _loads(node):
    """The names and attributes loaded anywhere under an AST node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} - {None}


def _method(module, cls, name):
    tree = ast.parse((Path(complexity_one.__file__).parent / f"{module}.py").read_text())
    owner = next(top for top in tree.body if getattr(top, "name", None) == cls)
    return next(node for node in owner.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_constructors_own_their_ids():
    # an id that is not a string raises InputFormatError naming the entry;
    # no constructor renames it with str()
    checked = [
        _method("sponge", "Cell", "__post_init__"),
        _method("sponge", "SpongeComplex", "__post_init__"),
        _method("quasitoric", "SimplePolytope", "__post_init__"),
        _method("quasitoric", "CharacteristicFunction", "__post_init__"),
        _method("quasitoric", "CellManifold", "__post_init__"),
        _method("chardata", "CharacteristicData", "__post_init__"),
        _method("chardata", "Chart", "__post_init__"),
        _function("quasitoric", "cell_manifold_data"),
    ]
    for fn in checked:
        assert _calls(fn, "str") == [] and _calls(fn, "as_id"), fn.lineno


def test_only_the_reader_skips_the_checks():
    # the constructors that take checked fields without __post_init__ are
    # called by io's readers alone, one each; every other caller checks
    assert sorted(_uses("_from_checked")) == [("io", "chardata_from_dict"), ("io", "sponge_from_dict")]
    # the reader hands over by_id, and the complex builds its index from it on
    # first use: the reader builds no index of its own
    assert "io" not in {module for module, _ in _uses("_Index") + _uses("_index")}


def test_chart_lines_in_one_sweep():
    # data_from_charts checks a chart's strictness and reads its c and its
    # adjugate columns once, through _pair_lines, the one reader of the
    # strict coefficients
    assert set(_uses("_pair_lines")) == {("chardata", "data_from_charts")}
    sweep = _function("chardata", "data_from_charts")
    for name in ("hopf_type", "primitive", "cramer_coefficients", "is_strictly_appropriate"):
        assert _calls(sweep, name) == [], name
    assert set(_uses("strict_coefficients")) == {("chardata", "_pair_lines")}


def test_no_function_that_nothing_calls():
    # the filtration, orbit types, one-pair Hopf signs and local Euler data
    # and the bare signed maximal minors had no caller in the package; their
    # rules live on in cells_of_dim, validate_mu's mu-rank, strict_coefficients,
    # _pair_lines and minors_and_adjugate
    names = {
        "filtration",
        "orbit_types",
        "OrbitType",
        "hopf_type",
        "local_euler_from_weights",
        "signed_maximal_minors",
    }
    defined = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    ]
    assert defined == []
    for name in sorted(names):
        assert _uses(name) == [] and not hasattr(complexity_one, name), name


def test_reduction_reads_plain_rows():
    # induced weights are the adjugate's columns in the complement frame, on
    # plain rows: no inverse matrix, no matrix product, no column re-wrapped;
    # reduce's facet-pair cross-check compares plain lines too
    weights = _function("weights", "induced_weights")
    loaded = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(weights)}
    assert not loaded & {"inverse", "col", "from_cols"}, sorted(loaded & {"inverse", "col", "from_cols"})
    assert not [node for node in ast.walk(weights) if isinstance(node, ast.MatMult)]
    for name in ("reduce", "induced_mu"):
        assert _calls(_function("quasitoric", name), "primitive") == [], name
    induced = {getattr(node, "attr", None) for node in ast.walk(_function("quasitoric", "induced_mu"))}
    assert not induced & {"scale", "is_zero"}, sorted(induced & {"scale", "is_zero"})
    matmul = _method("lattice", "IntMatrix", "__matmul__")
    assert not [node for node in ast.walk(matmul) if getattr(node, "attr", None) == "row_list"]


def _literal_templates():
    """(module, Class.function or function, text) of every string literal in the package, a
    formatted value of an f-string as {}."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in child.values)
                found.append((module, owner, text))
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                found.append((module, owner, child.value))
            inner = owner
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, ast.FunctionDef):
                inner = f"{owner}.{child.name}" if owner else child.name
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_one_walk_names_the_incidence_structure():
    # the index's walk decides incidence-structure and formats each of its
    # texts, once, as it finds the fault; validation_report only orders them
    # and walks the incidence no second time
    from complexity_one.sponge import SpongeComplex, local_model_sponge

    texts = {
        "0-cell {} has boundary entries",
        "{}-cell {} has no boundary",
        "{} references unknown cell {}",
        "{} (dim {}) lists {} of dim {}",
        "incidence {}->{} has coefficient {}",
        "{} lists {} twice",
        "incidence key {} is not a cell",
    }
    literals = _literal_templates()
    for text in sorted(texts):
        assert [(m, o) for m, o, t in literals if t == text] == [("sponge", "_Index.of")], text
    for phrase in ("has boundary entries", "has no boundary", "references unknown cell", "has coefficient"):
        assert [(m, o) for m, o, t in literals if phrase in t] == [("sponge", "_Index.of")], phrase
    assert not _loads(_method("sponge", "SpongeComplex", "validation_report")) & {"boundary", "incidence"}
    # structured stays the index's attribute: no faults
    s = local_model_sponge(4)
    broken = SpongeComplex(s.n, s.cells, {**s.incidence, "ghost": ()})
    assert s._index.structured is True and s._index.faults == []
    assert broken._index.structured is False and broken._index.faults == [(len(s.cells), "incidence key ghost is not a cell")]


def test_one_grouping_by_dimension():
    # the index's walk groups the cells by dimension, in id order; the
    # complex's dimension, its cells per dimension, its facet masks and its
    # homology read that grouping and sort or filter no cell again
    for fn in (
        _method("sponge", "SpongeComplex", "dim"),
        _method("sponge", "SpongeComplex", "_cells_by_dim"),
        _method("sponge", "SpongeComplex", "_facet_masks"),
        _function("sponge", "homology"),
    ):
        assert "by_dim" in _loads(fn) and _calls(fn, "sorted") == [], fn.name
        # no loop or comprehension runs over the cells or filters them by dim
        scans = [
            node.lineno
            for loop in ast.walk(fn)
            if isinstance(loop, (ast.For, ast.comprehension))
            for part in [loop.iter, *getattr(loop, "ifs", ())]
            for node in ast.walk(part)
            if isinstance(node, ast.Attribute) and node.attr in ("cells", "dims", "cells_of_dim")
        ]
        assert scans == [], (fn.name, scans)
