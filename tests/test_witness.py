"""Ping-pong witness families: member construction, separation guarantees,
and validation of malformed inputs — with the profile shortcut cross-checked
against exact pairwise orbit distances."""

import contextlib
import io
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable

import pytest

from coarseentropy import (
    CapExceededError,
    CoarseEntropyError,
    DeltaPath,
    IntLine,
    InvalidInputError,
    TreeLine,
    UnknownPointError,
    WitnessFamily,
    build_weighted_graph,
    build_witness,
    catalog_pingpong,
    make_example,
    orbit_distance,
    pad_arms,
    pingpong_witness,
    spot_check_members,
    validate_path,
)
from coarseentropy import cli
from coarseentropy.entropy import witness


def toy_family(p=2, R=10):
    """Hand-built family on the integer line: hub 0, arms to +5 and -5."""
    sp = IntLine(max_abs=50)
    base = DeltaPath((0,), 5)
    arms = [DeltaPath((0, 5), 5), DeltaPath((0, -5), 5)]
    return sp, build_witness(sp, base, arms, p, R)


def weighted_family(p=2):
    """Three two-step arms from hub "h" on a graph with Fraction weights; the
    a-b endpoint distance, 1/2 + 1/3 + 2/3 + 1/2, is the Fraction 2."""
    sp = build_weighted_graph([("h", "a1", Fraction(1, 2)), ("a1", "a2", Fraction(1, 3)),
                               ("h", "b1", Fraction(2, 3)), ("b1", "b2", Fraction(1, 2)),
                               ("h", "c1", Fraction(3, 4)), ("c1", "c2", Fraction(1, 4))])
    arms = [DeltaPath(("h", f"{k}1", f"{k}2"), 1) for k in "abc"]
    return sp, build_witness(sp, DeltaPath(("h",), 1), arms, p, Fraction(3, 2))


def _shared_prefix(u, v):
    """Number of leading points u and v share."""
    return next((k for k, (a, b) in enumerate(zip(u, v)) if a != b), min(len(u), len(v)))


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
        tree_line = make_example("tree_line")
        # arms that turn back: the profile entry, 10, is at the first step,
        # not at the endpoints, which are 6 apart
        line = IntLine(max_abs=50)
        turning = build_witness(line, DeltaPath((0,), 5),
                                [DeltaPath((0, 5, 3), 5), DeltaPath((0, -5, -3), 5)], 1, 6)
        families = [toy_family(p=2), weighted_family(p=2), (line, turning)] + [
            (tree_line, catalog_pingpong(tree_line, delta=delta, R=R, p=1))
            for delta in (1, 2, 3) for R in (1, 2, 3, 4)]
        for sp, fam in families:
            # every profile entry is the exact orbit distance of its arms
            for a, u in enumerate(fam.arms):
                for b, v in enumerate(fam.arms):
                    exact = orbit_distance(u, v, sp)
                    assert fam.profile[a][b] == exact
                    assert type(fam.profile[a][b]) is type(exact)
            if fam.size > 16:
                continue
            paths = [path.points for path in fam.iter_paths()]
            start = len(fam.base.points)
            assert all(points[:start] == fam.base.points for points in paths)
            for i in range(fam.size):
                for j in range(fam.size):
                    # the pair's points agree up to k, where they are 0 apart,
                    # so the sup over the positions from k on is the whole one
                    k = start + _shared_prefix(paths[i][start:], paths[j][start:])
                    exact = orbit_distance(paths[i][k:], paths[j][k:], sp)
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

    @pytest.mark.parametrize("R, text", [(9, "9"), (Fraction(17, 2), "17/2")])
    def test_names_the_first_close_endpoint_pair_in_row_order(self, R, text):
        # endpoints 5, -5, -4, 4: pairs (0,3) and (1,2) are 1 apart and (2,3)
        # 8; row order meets (0,3) first, column order (1,2)
        arms = [DeltaPath((0, end), 5) for end in (5, -5, -4, 4)]
        with pytest.raises(InvalidInputError) as err:
            build_witness(self.sp, self.base, arms, 1, R)
        assert str(err.value) == f"arm endpoints 0 and 3 are only 1 apart, below R={text}"

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


@dataclass(frozen=True)
class TamperedFamily(WitnessFamily):
    """A witness family whose members pass through ``tamper(index, points)``."""

    tamper: Callable = None

    def path_at(self, index):
        path = super().path_at(index)
        return DeltaPath(tuple(self.tamper(index, list(path.points))), path.delta)


def tampered(fam, tamper):
    return TamperedFamily(**{f.name: getattr(fam, f.name) for f in fields(fam) if f.init},
                          tamper=tamper)


def detour_family():
    """Unit steps on the integer line: a base from 0 out to 5 and back, and
    arms to +2 and -2, so p = 2 gives members of 19 points that share the
    base's 11 and then make two round trips.  The spot check takes members
    0, 2 and 3, words (0, 0), (1, 0) and (1, 1)."""
    sp = IntLine(max_abs=20)
    base = DeltaPath((0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0), 1)
    arms = [DeltaPath((0, 1, 2), 1), DeltaPath((0, -1, -2), 1)]
    return build_witness(sp, base, arms, 2, 4)


def at(members, position, value):
    """Tamper that sets one position of the given members."""
    def tamper(index, points):
        if index in members:
            points[position] = value(points[position])
        return points
    return tamper


def reshaped(members, edit):
    """Tamper that replaces the point lists of the given members."""
    def tamper(index, points):
        return edit(points) if index in members else points
    return tamper


def spot_check_oracle(fam, indices):
    """The spot check with every member validated whole and every pair
    measured over all its positions (the spaces here compare exactly)."""
    paths = {}
    for i in indices:
        path = fam.path_at(i)
        if not validate_path(path.points, fam.delta, fam.space):
            raise InvalidInputError(f"witness member {i} is not a valid delta-path")
        if path.start != fam.base.start:
            raise InvalidInputError("witness member does not start at the basepoint")
        if path.length != fam.n:
            raise InvalidInputError("witness member has the wrong length")
        paths[i] = path
    idx = sorted(paths)
    min_pair = None
    for k, i in enumerate(idx):
        for j in idx[k + 1:]:
            d = orbit_distance(paths[i], paths[j], fam.space)
            bound = fam.pair_distance_bound(i, j)
            if d != bound:
                raise InvalidInputError(
                    f"members {i},{j}: exact distance {d} != profile value {bound}")
            if min_pair is None or d < min_pair:
                min_pair = d
    return {"checked": len(idx), "min_pairwise": min_pair}


def outcome(check, fam, indices):
    try:
        result = check(fam, indices)
    except CoarseEntropyError as exc:
        return type(exc), str(exc)
    return result, type(result["min_pairwise"])


class TestSpotCheckMembers:
    """The spot check validates each member from where it leaves a member
    already validated and measures each pair after its shared prefix; every
    fault must still raise for the first failing member, with its message."""

    BAD_STEP = "witness member {} is not a valid delta-path"
    OUTSIDE = "point must be an integer with |x| <= 20: 21"

    @pytest.mark.parametrize("tamper, error, message", [
        # a point outside the window, in the base and after the divergence
        pytest.param(at({2}, 5, lambda v: 21), UnknownPointError, OUTSIDE, id="outside-base"),
        pytest.param(at({3}, 16, lambda v: 21), UnknownPointError, OUTSIDE, id="outside-arm"),
        # a step longer than delta; in every member's base the first fails
        pytest.param(at({2}, 5, lambda v: v + 3), InvalidInputError, BAD_STEP.format(2),
                     id="step-base"),
        pytest.param(at({0, 2, 3}, 5, lambda v: v + 3), InvalidInputError, BAD_STEP.format(0),
                     id="step-every-base"),
        pytest.param(at({3}, 16, lambda v: v + 3), InvalidInputError, BAD_STEP.format(3),
                     id="step-arm"),
        pytest.param(at({2, 3}, 18, lambda v: v + 3), InvalidInputError, BAD_STEP.format(2),
                     id="step-last"),
        # a valid path from the wrong start
        pytest.param(at({2}, 0, lambda v: 1), InvalidInputError,
                     "witness member does not start at the basepoint", id="start"),
        # one step too many, in the base and at the end, or one too few
        pytest.param(reshaped({3}, lambda p: p[:3] + p[2:]), InvalidInputError,
                     "witness member has the wrong length", id="length-base"),
        pytest.param(reshaped({2}, lambda p: p + [0]), InvalidInputError,
                     "witness member has the wrong length", id="length-end"),
        pytest.param(reshaped({2}, lambda p: p[:-1]), InvalidInputError,
                     "witness member has the wrong length", id="length-short"),
        # valid members that disagree with the profile: a mirrored base,
        # 10 apart at its turn, and an arm turned back early
        pytest.param(reshaped({2}, lambda p: [-v for v in p[:11]] + p[11:]), InvalidInputError,
                     "members 0,2: exact distance 10 != profile value 4", id="profile-base"),
        pytest.param(at({3}, 16, lambda v: 0), InvalidInputError,
                     "members 2,3: exact distance 2 != profile value 4", id="profile-arm"),
    ])
    def test_faults_raise_for_the_first_failing_member(self, tamper, error, message):
        fam = tampered(detour_family(), tamper)
        for check in (spot_check_members, spot_check_oracle):
            with pytest.raises(error) as exc:
                check(fam, [0, 2, 3])
            assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("indices", [[0, 2, 3], [3, 2, 0], [2, 0, 2, 3], [1, 3]])
    def test_faults_raise_in_any_member_order(self, indices):
        # one-point faults at every position of one member, of all of them,
        # or of every member checked after the first
        fam = detour_family()
        faults = [lambda v: 21, lambda v: v + 3, lambda v: v + 1, lambda v: -v, lambda v: 0]
        raised = 0
        for members in ({0}, {1}, {2}, {3}, {0, 1, 2, 3}, set(indices[1:])):
            for position in range(fam.n + 1):
                for fault in faults:
                    bad = tampered(fam, at(members, position, fault))
                    expected = outcome(spot_check_oracle, bad, indices)
                    assert outcome(spot_check_members, bad, indices) == expected, (
                        members, position)
                    raised += isinstance(expected[0], type)
        assert raised

    @pytest.mark.parametrize("max_tree", [4, 6])
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("p", [1, 2])
    def test_every_member_matches_the_whole_path_recomputation(self, max_tree, delta, p):
        sp = TreeLine(max_tree=max_tree, schedule="2^n")
        for R in (1, max_tree // 2):
            fam = catalog_pingpong(sp, delta=delta, R=R, p=p)
            members = list(range(fam.size))
            for indices in (members, members[::-1]):
                result = outcome(spot_check_members, fam, indices)
                assert result == outcome(spot_check_oracle, fam, indices)
                assert result[0] == {"checked": fam.size, "min_pairwise": 2 * R + 2}

    def test_cli_members_match_the_whole_path_recomputation(self):
        # the `witness --space tree_line --p 3` family at its default scales
        fam = catalog_pingpong(make_example("tree_line"), delta=4, R=4, p=3)
        indices = sorted({0, fam.size // 2, fam.size - 1})
        assert indices == [0, 2048, 4095] and fam.n == 16_396
        result = outcome(spot_check_members, fam, indices)
        assert result == outcome(spot_check_oracle, fam, indices)
        assert result == ({"checked": 3, "min_pairwise": 16}, int)

    def test_cli_members_measure_their_shared_base_once(self, monkeypatch):
        # one whole member, then each other member's steps and each pair's
        # positions after the 16,385-point base: at most 2pD + 1 apiece
        fam = catalog_pingpong(make_example("tree_line"), delta=4, R=4, p=3)
        calls = [0]
        distance = TreeLine.distance

        def counted(self, a, b):
            calls[0] += 1
            return distance(self, a, b)

        monkeypatch.setattr(TreeLine, "distance", counted)
        spot_check_members(fam, sorted({0, fam.size // 2, fam.size - 1}))
        bound = fam.n + 5 * (2 * fam.p * fam.arm_length + 1)
        assert bound == 16_461
        assert calls[0] <= bound

    def test_cli_command_measures_the_base_once(self, monkeypatch):
        # build_witness validates the 16,385-point base and the spot check
        # starts each member past it: 33,232 calls when both walked it.
        # Every TreeLine distance is measured by step_distance, which
        # validate_path calls on points it has checked
        calls = [0]
        step_distance = TreeLine.step_distance

        def counted(self, a, b):
            calls[0] += 1
            return step_distance(self, a, b)

        monkeypatch.setattr(TreeLine, "step_distance", counted)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["witness", "--space", "tree_line", "--p", "3"]) == 0
        assert err.getvalue() == ""
        assert 16_385 < calls[0] <= 17_000

    @pytest.mark.parametrize("build", ["constructor", "replace"])
    def test_a_base_build_witness_did_not_validate_is_validated_whole(self, build):
        fam = detour_family()
        bad = DeltaPath(fam.base.points[:5] + (8,) + fam.base.points[6:], 1)
        if build == "constructor":
            fam = WitnessFamily(space=fam.space, base=bad, arms=fam.arms, p=fam.p, R=fam.R,
                                profile=fam.profile)
        else:
            fam = replace(fam, base=bad)
        for check in (spot_check_members, spot_check_oracle):
            with pytest.raises(InvalidInputError) as exc:
                check(fam, [0, 2, 3])
            assert str(exc.value) == self.BAD_STEP.format(0)
