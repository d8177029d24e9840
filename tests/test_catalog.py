import hashlib
from dataclasses import replace

import pytest

from complexity_one.catalog import CATALOG_ENV, load, names, verify
from complexity_one.errors import UnknownEntryError
from complexity_one.io import canonical_json, chardata_to_dict
from complexity_one.sponge import homology
from complexity_one.weights import cramer_coefficients, is_strictly_appropriate
from conftest import euler_cycle_verdicts


def canonical_sign(c):
    lead = next(x for x in c if x != 0)
    return tuple(x if lead > 0 else -x for x in c)


class TestEntries:
    @pytest.mark.parametrize("name", ["g42", "f3", "cp3-reduction", "local-model-4", "local-model-3"])
    def test_self_verifying(self, name):
        entry = load(name)
        rep = verify(entry)
        assert rep.ok, [e.detail for e in rep.failures()]

    def test_unknown_name(self):
        with pytest.raises(UnknownEntryError):
            load("g53")

    def test_names_listing(self):
        assert set(names()) >= {"g42", "f3", "cp3-reduction", "local-model-4"}

    @pytest.mark.parametrize(
        "field, value, failing",
        [
            ("cells_per_dim", [6, 8], {"cells-per-dim"}),
            ("cells_per_dim", [5, 9], {"cells-per-dim", "fixed-points"}),
            ("betti", [1, 3], {"betti"}),
        ],
    )
    def test_wrong_shape_fails(self, field, value, failing):
        rep = verify(replace(load("f3"), **{field: value}))
        assert {e.check for e in rep.failures()} == failing


# sha256 of the canonical JSON of verify(load(name)).to_dict(), pinned when
# the per-entry expectations became two typed fields
VERIFY_DIGESTS = {
    "g42": "a6ed35540754130d4f412a8dd4a4c1135e992eedf8959ddfa019ce9beb8458ad",
    "f3": "82eaa742993fad9a7477c994142a73218584bad0fc6ee53956f7b3e256164680",
    "cp3-reduction": "14acfe41c730bb8eeff6fabc99191fddb0dea611cbf6b2981d594bda0dfcc102",
    "local-model-2": "18def21fc419b10b530ac7a6183884b5e5f22b3935e5ba29747abda94bbff0aa",
    "local-model-3": "0a2c5d1f8fbab017fe1e3da98ecfbf76d5b3dafea02ad5e47d7e7ef2ad540c4d",
    "local-model-4": "bc962e337b0b9c917ce76b434bdbf3fd26d19428a238b6719e76b74e4e629823",
    "local-model-5": "ecd03ef5946de34191555e5c458f280d66a4beb71ca382bfc4df0eb9e925eacb",
    "local-model-6": "32e76e4cc68a0b286c89b4cf2c82bd70beb0ec632eb0af6883e17cab3a4f820e",
    "local-model-7": "deeca9e29043795757e8fae4e83fbbdf2b7c9b3f416b7b0e17f0230d743e3e3a",
    "local-model-8": "a27423a5cdb34765f7edbc41dc0e7ae58b3a9cf021cd8bc1404de030bbfa1d23",
    "local-model-9": "cf16d859be12c7a5bcfce37aacefb3267048031bf23018aaa140400fb39251dc",
    "local-model-10": "4a68ff533d51bd413d8328c922948cc7ea85a351b3e1af036212a9473d1449a5",
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_reports_are_pinned(name):
    report = canonical_json(verify(load(name)).to_dict())
    assert hashlib.sha256(report.encode()).hexdigest() == VERIFY_DIGESTS[name]


def test_cp3_weight_systems_are_the_reduction_charts(monkeypatch):
    # the entry reads the weight systems its reduction built, one
    # induced_weights per fixed point, and builds none of its own
    import complexity_one.catalog as catalog
    import complexity_one.quasitoric as quasitoric

    calls = []
    for module in (catalog, quasitoric):
        induced = module.induced_weights
        monkeypatch.setattr(module, "induced_weights", lambda rows, st, f=induced: calls.append(rows) or f(rows, st))
    entry = load("cp3-reduction")
    assert len(calls) == len(entry.weight_systems) == len(entry.data.sponge.cells_of_dim(0)) == 4


class TestG42:
    def setup_method(self):
        self.entry = load("g42")

    def test_six_fixed_points(self):
        assert len(self.entry.data.sponge.cells_of_dim(0)) == 6
        assert len(self.entry.weight_systems) == 6

    def test_sponge_shape(self):
        counts = [len(self.entry.data.sponge.cells_of_dim(d)) for d in range(3)]
        assert counts == [6, 12, 11]  # octahedron plus three squares

    def test_weights_strict_with_unit_pattern(self):
        for vid, ws in self.entry.weight_systems.items():
            cc = cramer_coefficients(ws)
            assert is_strictly_appropriate(ws), vid
            assert sorted(cc.c) == [-1, -1, 1, 1], vid

    def test_euler_chain_is_cycle(self):
        assert euler_cycle_verdicts(self.entry.data) == (True, True)

    def test_betti(self):
        assert homology(self.entry.data.sponge).betti == (1, 0, 4)


class TestF3:
    def setup_method(self):
        self.entry = load("f3")

    def test_six_fixed_points_on_k33(self):
        s = self.entry.data.sponge
        assert len(s.cells_of_dim(0)) == 6
        assert len(s.cells_of_dim(1)) == 9
        for v in s.cells_of_dim(0):
            assert len(s.facets_containing(v.id)) == 3

    def test_weights_pattern(self):
        for vid, ws in self.entry.weight_systems.items():
            cc = cramer_coefficients(ws)
            assert sorted(abs(x) for x in cc.c) == [1, 1, 1]
            assert is_strictly_appropriate(ws)
            # two coefficients share a sign, one differs
            assert abs(sum(cc.c)) == 1

    def test_betti_and_cycle(self):
        assert homology(self.entry.data.sponge).betti == (1, 4)
        assert euler_cycle_verdicts(self.entry.data) == (True, True)


class TestLocalModel:
    def test_face_counts(self):
        entry = load("local-model-4")
        counts = [len(entry.data.sponge.cells_of_dim(d)) for d in range(3)]
        assert counts == [1, 4, 6]

    def test_stars_valid(self):
        from complexity_one.sponge import face_star

        entry = load("local-model-4")
        for c in entry.data.sponge.cells:
            assert face_star(entry.data.sponge, c.id)


class TestOverride:
    def test_external_entry_takes_precedence(self, tmp_path, monkeypatch):
        cd = load("cp3-reduction").data
        path = tmp_path / "mine.json"
        path.write_text(canonical_json(chardata_to_dict(cd)), encoding="ascii")
        monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
        entry = load("mine")
        assert entry.data.n == cd.n
        report = verify(entry)
        assert report.ok
        # a file gives data alone, so no check of a known shape or of weights runs
        assert [e.check for e in report.entries] == [
            "sponge-valid", "mu-valid", "compatibility", "cocycle", "euler-cycle", "face-stars"
        ]

    def test_override_does_not_shadow_builtin_without_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
        assert load("g42").name == "g42"
