"""Ping-pong witness families: member construction, separation guarantees,
and validation of malformed inputs — with the profile shortcut cross-checked
against exact pairwise orbit distances."""

import math
from fractions import Fraction

import pytest

from coarseentropy import (
    CapExceededError,
    DeltaPath,
    IntLine,
    InvalidInputError,
    TreeLine,
    WitnessFamily,
    build_witness,
    catalog_pingpong,
    orbit_distance,
    pad_arms,
    pingpong_witness,
    spot_check_members,
    validate_path,
)
from coarseentropy.entropy import witness


def toy_family(p=2, R=10):
    """Hand-built family on the integer line: hub 0, arms to +5 and -5."""
    sp = IntLine(max_abs=50)
    base = DeltaPath((0,), 5)
    arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]
    return sp, build_witness(sp, base, arms, p, R)


class TestWitnessFamily:
    def test_member_shape(self):
        sp, fam = toy_family(p=2)
        assert fam.size == 4
        assert fam.arm_count == 2 and fam.arm_length == 1
        assert fam.n == 0 + 2 * 2 * 1
        # word 01: out-and-back on arm 0 then arm 1
        i = [fam.word_at(k) for k in range(4)].index((0, 1))
        assert fam.path_at(i).points == (0, 5, 0, -5, 0)

    def test_words_enumerate_base_arm_count(self):
        sp, fam = toy_family(p=3)
        words = [fam.word_at(i) for i in range(fam.size)]
        assert len(set(words)) == 8
        assert words[0] == (0, 0, 0) and words[-1] == (1, 1, 1)
        with pytest.raises(InvalidInputError):
            fam.word_at(8)
        with pytest.raises(InvalidInputError):
            fam.word_at(-1)

    def test_members_are_valid_paths_from_the_basepoint(self):
        sp, fam = toy_family(p=2)
        for path in fam.iter_paths():
            assert path.start == 0
            assert path.length == fam.n
            assert validate_path(path.points, fam.delta, sp)

    def test_profile_bound_matches_exact_orbit_distance(self):
        sp, fam = toy_family(p=2)
        paths = list(fam.iter_paths())
        for i in range(fam.size):
            for j in range(fam.size):
                exact = orbit_distance(paths[i], paths[j], sp)
                bound = fam.pair_distance_bound(i, j)
                assert bound <= exact
                if i != j:
                    assert exact >= fam.R

    def test_check_pairwise_separated_counts_ordered_pairs(self):
        sp, fam = toy_family(p=2)
        assert fam.check_pairwise_separated() == fam.size * fam.size

    @pytest.mark.parametrize("entry", [Fraction(1499, 1000), Fraction(3, 2)])
    def test_separation_is_the_smallest_off_diagonal_profile_entry(self, entry):
        # three arms, p = 2: words (1, 0) and (2, 0) are members 3 and 6
        sp = IntLine(max_abs=50)
        arms = tuple(DeltaPath((0, k), 1) for k in (1, 0, -1))
        fam = WitnessFamily(space=sp, base=DeltaPath((0,), 1), arms=arms, p=2,
                            R=Fraction(3, 2),
                            profile=((0, 2, 2), (2, 0, entry), (2, entry, 0)))
        if entry < fam.R:
            with pytest.raises(InvalidInputError,
                               match=r"witness members 3 and 6 are only 1499/1000 apart, "
                                     r"below R=3/2"):
                fam.check_pairwise_separated()
        else:
            assert fam.check_pairwise_separated() == 81

    def test_rate_bound_formula(self):
        sp, fam = toy_family(p=3)
        assert fam.rate_bound == pytest.approx(3 * math.log(2) / fam.n)

    def test_to_orbit_set_and_limit(self, monkeypatch):
        sp, fam = toy_family(p=2)
        # 4 members of 5 points each
        monkeypatch.setattr(witness, "_MATERIALIZE_POINTS", 20)
        orbits = fam.to_orbit_set()
        assert len(orbits) == 4 and orbits.n == fam.n
        monkeypatch.setattr(witness, "_MATERIALIZE_POINTS", 19)
        with pytest.raises(CapExceededError, match="needs 20 points, above the budget 19"):
            fam.to_orbit_set()

    def test_jsonable_summary(self):
        sp, fam = toy_family(p=2)
        doc = fam.to_jsonable()
        assert doc["size"] == 4 and doc["arms"] == 2 and doc["p"] == 2
        assert doc["R"] == 10


class TestBuildWitnessValidation:
    def setup_method(self):
        self.sp = IntLine(max_abs=50)
        self.base = DeltaPath((0,), 5)
        self.arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]

    def test_rejects_bad_p_and_empty_arms(self):
        with pytest.raises(InvalidInputError):
            build_witness(self.sp, self.base, self.arms, 0, 10)
        with pytest.raises(InvalidInputError):
            build_witness(self.sp, self.base, [], 1, 10)

    def test_rejects_invalid_base(self):
        bad_base = DeltaPath((0, 40), 5)  # a 40-jump is not a 5-step
        with pytest.raises(InvalidInputError):
            build_witness(self.sp, bad_base, self.arms, 1, 10)

    def test_rejects_length_mismatch_and_suggests_padding(self):
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5, -5), 5)]
        with pytest.raises(InvalidInputError, match="pad_arms"):
            build_witness(self.sp, self.base, arms, 1, 10)
        fixed = pad_arms(arms)
        assert {a.length for a in fixed} == {2}
        fam = build_witness(self.sp, self.base, fixed, 1, 10)
        assert fam.size == 2

    def test_rejects_zero_length_arms(self):
        with pytest.raises(InvalidInputError):
            build_witness(self.sp, self.base, [DeltaPath((0,), 5)], 1, 10)

    def test_rejects_arm_not_anchored_at_hub(self):
        arms = [DeltaPath((0, 5), 5), DeltaPath((1, -4), 5)]
        with pytest.raises(InvalidInputError, match="starts at"):
            build_witness(self.sp, self.base, arms, 1, 10)

    def test_rejects_delta_mismatch(self):
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 6)]
        with pytest.raises(InvalidInputError, match="delta"):
            build_witness(self.sp, self.base, arms, 1, 10)

    def test_rejects_close_endpoints(self):
        with pytest.raises(InvalidInputError, match="arm endpoints"):
            build_witness(self.sp, self.base, self.arms, 1, 11)

    def test_rejects_invalid_arm_step(self):
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -40), 5)]
        with pytest.raises(InvalidInputError, match="arm 1"):
            build_witness(self.sp, self.base, arms, 1, 10)


class TestPingpongWitness:
    def test_materializes_orbits_with_rate(self):
        sp = IntLine(max_abs=50)
        base = DeltaPath((0,), 5)
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]
        orbits, rate = pingpong_witness(sp, 0, base, arms, 2, 10)
        assert len(orbits) == 4
        assert rate == pytest.approx(2 * math.log(2) / 4)

    def test_rejects_wrong_basepoint(self):
        sp = IntLine(max_abs=50)
        base = DeltaPath((0,), 5)
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]
        with pytest.raises(InvalidInputError):
            pingpong_witness(sp, 1, base, arms, 1, 10)

    def test_point_budget(self, monkeypatch):
        sp = IntLine(max_abs=50)
        base = DeltaPath((0,), 5)
        arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]
        monkeypatch.setattr(witness, "_MATERIALIZE_POINTS", 10)
        with pytest.raises(CapExceededError):
            pingpong_witness(sp, 0, base, arms, 3, 10)


class TestCatalogPingpong:
    def test_small_tree_line_family(self):
        sp = TreeLine(max_tree=4, schedule="2^n")
        for p in (1, 2):
            fam = catalog_pingpong(sp, delta=1, R=2, p=p)
            assert fam.arm_count == 4
            assert fam.size == 4 ** p
            # base runs to the attachment of tree 2R = 4 at 2**4 = 16
            assert fam.base.length == 16
            assert fam.arm_length == 4
            assert fam.n == 16 + 2 * p * 4
            assert fam.rate_bound == pytest.approx(p * math.log(4) / fam.n)
            fam.check_pairwise_separated()

    def test_members_verified_exactly_on_small_family(self):
        sp = TreeLine(max_tree=4, schedule="2^n")
        fam = catalog_pingpong(sp, delta=1, R=2, p=1)
        paths = list(fam.iter_paths())
        for i, u in enumerate(paths):
            for v in paths[i + 1:]:
                assert orbit_distance(u, v, sp) >= 2

    def test_spot_check_members(self):
        sp = TreeLine(max_tree=4, schedule="2^n")
        fam = catalog_pingpong(sp, delta=1, R=2, p=2)
        rep = spot_check_members(fam, [0, fam.size // 2, fam.size - 1])
        assert rep["checked"] == 3
        assert rep["min_pairwise"] >= fam.R

    def test_spaces_without_arms_are_rejected(self):
        sp = IntLine(max_abs=10)
        with pytest.raises(InvalidInputError):
            catalog_pingpong(sp, delta=1, R=2, p=1)

    def test_coarser_steps_shorten_the_family(self):
        sp = TreeLine(max_tree=4, schedule="2^n")
        fam = catalog_pingpong(sp, delta=2, R=2, p=1)
        assert fam.base.length == 8  # ceil(16 / 2)
        assert fam.arm_length == 2  # ceil(4 / 2)
        fam.check_pairwise_separated()
