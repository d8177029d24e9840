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
        assert verify(entry).ok

    def test_override_does_not_shadow_builtin_without_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CATALOG_ENV, str(tmp_path))
        assert load("g42").name == "g42"
