"""Tests for deterministic report rendering and the orbit/edge file formats.

Expected JSON texts and CSV rows are recomputed here with the stdlib json
and csv modules, never copied from the module under test.
"""

import csv
import io
import json
import math
from fractions import Fraction

import pytest

from coarseentropy import cli, serialize
from coarseentropy.errors import InvalidInputError
from coarseentropy.numbers import dist_to_jsonable
from coarseentropy.paths import DeltaPath, OrbitSet, enumerate_orbits
from coarseentropy.serialize import (
    SCHEMA_VERSION,
    envelope,
    orbits_from_json_lines,
    orbits_to_json_lines,
    point_from_jsonable,
    point_to_jsonable,
    to_csv,
    to_json,
    write_report,
)
from coarseentropy.spaces import load_edges_csv, make_example


class TestEnvelope:
    def test_structure(self):
        doc = envelope("growth", {"sizes": [1, 3, 5]})
        assert doc == {
            "schema": SCHEMA_VERSION,
            "kind": "growth",
            "report": {"sizes": [1, 3, 5]},
        }

    def test_schema_version_is_v1(self):
        assert SCHEMA_VERSION == "v1"

    def test_empty_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            envelope("", {})

    def test_nonstring_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            envelope(7, {})


class TestToJson:
    def test_sorted_keys_two_space_indent_trailing_newline(self):
        doc = {"b": 1, "a": {"z": 2, "y": 3}}
        text = to_json(doc)
        assert text == json.dumps(
            {"a": {"y": 3, "z": 2}, "b": 1}, sort_keys=True, indent=2
        ) + "\n"
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_byte_identical_across_calls(self):
        doc = {"k": [1, Fraction(1, 3), "s"], "m": {"x": 2.5}}
        assert to_json(doc) == to_json(doc)

    def test_fraction_renders_as_ratio_string(self):
        parsed = json.loads(to_json({"r": Fraction(17, 4)}))
        assert parsed["r"] == "17/4"

    def test_whole_fraction_renders_as_int(self):
        # Dist normalization turns Fraction(8,4) into the integer 2.
        parsed = json.loads(to_json({"r": Fraction(8, 4)}))
        assert parsed["r"] == 2

    def test_infinities_render_as_strings(self):
        parsed = json.loads(to_json({"a": math.inf, "b": -math.inf}))
        assert parsed == {"a": "inf", "b": "-inf"}

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            to_json({"a": math.nan})

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInputError, match="cannot serialize"):
            to_json({"a": object()})

    def test_set_becomes_sorted_list(self):
        parsed = json.loads(to_json({"tags": {"b", "a", "c"}}))
        assert parsed["tags"] == ["a", "b", "c"]

    def test_tuple_becomes_list(self):
        parsed = json.loads(to_json({"p": (1, (2, 3))}))
        assert parsed["p"] == [1, [2, 3]]

    def test_to_jsonable_hook_used(self):
        class Box:
            def to_jsonable(self):
                return {"w": Fraction(1, 2)}

        parsed = json.loads(to_json({"box": Box()}))
        assert parsed["box"] == {"w": "1/2"}

    def test_nonstring_keys_coerced(self):
        parsed = json.loads(to_json({"m": {3: "a", 10: "b"}}))
        assert parsed["m"] == {"3": "a", "10": "b"}

    def test_bool_stays_bool(self):
        parsed = json.loads(to_json({"flag": True, "other": False}))
        assert parsed["flag"] is True and parsed["other"] is False


class TestToCsv:
    def _rows(self, doc):
        return list(csv.reader(io.StringIO(to_csv(doc))))

    def test_header_row(self):
        rows = self._rows({"a": 1})
        assert rows[0] == ["field", "value", "decimal"]

    def test_flattening_paths(self):
        rows = self._rows({"top": {"list": [5, {"inner": 6}], "plain": "x"}})
        fields = [r[0] for r in rows[1:]]
        assert fields == ["top.list[0]", "top.list[1].inner", "top.plain"]

    def test_value_column_is_exact_json_token(self):
        doc = {"i": 7, "f": 2.5, "s": "word", "frac": Fraction(1, 3), "none": None}
        rows = {r[0]: r[1] for r in self._rows(doc)[1:]}
        assert rows["i"] == json.dumps(7)
        assert rows["f"] == json.dumps(2.5)
        assert rows["s"] == json.dumps("word")
        assert rows["frac"] == json.dumps("1/3")
        assert rows["none"] == json.dumps(None)

    def test_decimal_column_for_numerics(self):
        doc = {"i": 7, "f": 2.5, "frac": Fraction(1, 4)}
        rows = {r[0]: r[2] for r in self._rows(doc)[1:]}
        assert rows["i"] == repr(7.0)
        assert rows["f"] == repr(2.5)
        assert rows["frac"] == repr(0.25)

    def test_decimal_blank_for_nonnumerics(self):
        doc = {"s": "word", "flag": True, "none": None, "inf": math.inf}
        rows = {r[0]: r[2] for r in self._rows(doc)[1:]}
        # "inf" serializes as the token "inf" whose decimal reading is inf.
        assert rows == {"s": "", "flag": "", "none": "", "inf": repr(math.inf)}

    def test_json_and_csv_carry_identical_numeric_values(self):
        doc = envelope("demo", {"count": 34681, "rate": Fraction(3, 7), "x": 0.125})
        parsed = json.loads(to_json(doc))
        csv_rows = {r[0]: r[1] for r in self._rows(doc)[1:]}
        for field, leaf in (
            ("report.count", parsed["report"]["count"]),
            ("report.rate", parsed["report"]["rate"]),
            ("report.x", parsed["report"]["x"]),
        ):
            assert json.loads(csv_rows[field]) == leaf

    def test_deterministic_row_order(self):
        doc = {"b": 1, "a": 2, "c": {"y": 3, "x": 4}}
        fields = [r[0] for r in self._rows(doc)[1:]]
        assert fields == ["a", "b", "c.x", "c.y"]
        assert to_csv(doc) == to_csv(doc)


class TestWriteReport:
    def test_json_to_file(self, tmp_path):
        doc = envelope("demo", {"n": 3})
        out = tmp_path / "report.json"
        text = write_report(doc, str(out), "json")
        assert out.read_text(encoding="utf-8") == text == to_json(doc)

    def test_csv_to_file(self, tmp_path):
        doc = envelope("demo", {"n": 3})
        out = tmp_path / "report.csv"
        text = write_report(doc, str(out), "csv")
        assert out.read_text(encoding="utf-8") == text == to_csv(doc)

    def test_stdout_when_no_path(self, capsys):
        doc = envelope("demo", {"n": 3})
        text = write_report(doc, None, "json")
        assert capsys.readouterr().out == text == to_json(doc)

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError, match="format"):
            write_report({"a": 1}, None, "xml")


class TestPointEncoding:
    def test_int_and_str_pass_through(self):
        assert point_to_jsonable(5) == 5
        assert point_to_jsonable("line") == "line"
        assert point_from_jsonable(5) == 5
        assert point_from_jsonable("line") == "line"

    def test_nested_tuple_round_trip(self):
        point = ("tree", 2, (0, 1))
        encoded = point_to_jsonable(point)
        assert encoded == ["tree", 2, [0, 1]]
        assert point_from_jsonable(encoded) == point

    def test_fraction_coordinate_encodes_exactly(self):
        assert point_to_jsonable((0, Fraction(1, 2))) == [0, "1/2"]

    def test_unknown_point_type_rejected(self):
        with pytest.raises(InvalidInputError):
            point_to_jsonable(object())


def orbit_file(path_line, **header_changes):
    """A one-path orbit file with n = 2 and x0 = 0; a header change to None
    drops that field."""
    header = {"schema": SCHEMA_VERSION, "kind": "orbit-set", "x0": 0, "n": 2, "delta": 1,
              "count": 1, "exhaustive": False, "map_label": "identity"}
    header.update(header_changes)
    header = {key: value for key, value in header.items() if value is not None}
    return json.dumps(header) + "\n" + path_line + "\n"


class TestOrbitJsonLines:
    def _int_line_orbits(self):
        space = make_example("int_line")
        return enumerate_orbits(space, 0, n=2, delta=1)

    def test_header_then_one_line_per_path(self):
        orbits = self._int_line_orbits()
        lines = orbits_to_json_lines(orbits).splitlines()
        header = json.loads(lines[0])
        assert header == {
            "schema": SCHEMA_VERSION,
            "kind": "orbit-set",
            "x0": 0,
            "n": 2,
            "delta": 1,
            "count": len(orbits.paths),
            "exhaustive": True,
            "map_label": "identity",
        }
        assert len(lines) == 1 + len(orbits.paths)
        for line, path in zip(lines[1:], orbits.paths):
            assert tuple(json.loads(line)) == path.points

    def test_round_trip_int_points(self):
        orbits = self._int_line_orbits()
        back = orbits_from_json_lines(orbits_to_json_lines(orbits))
        assert back.point_rows() == orbits.point_rows()
        assert (back.x0, back.n, back.delta) == (orbits.x0, orbits.n, orbits.delta)
        assert back.exhaustive == orbits.exhaustive
        assert back.map_label == orbits.map_label

    def test_round_trip_tuple_points(self):
        space = make_example("ultrametric_product", {"max_index": 3})
        orbits = enumerate_orbits(space, space.basepoint, n=1, delta=1)
        back = orbits_from_json_lines(orbits_to_json_lines(orbits))
        assert back.point_rows() == orbits.point_rows()
        assert all(isinstance(p, tuple) for row in back.point_rows() for p in row)

    def test_round_trip_fractional_delta(self):
        path = DeltaPath((0, Fraction(1, 2), 1), Fraction(1, 2))
        orbits = OrbitSet((path,), x0=0, n=2, delta=Fraction(1, 2))
        text = orbits_to_json_lines(orbits)
        assert json.loads(text.splitlines()[0])["delta"] == "1/2"
        back = orbits_from_json_lines(text)
        assert back.delta == Fraction(1, 2)
        assert back.paths[0].points == (0, "1/2", 1)  # fraction coords stay tokens

    def test_round_trip_custom_map_label(self):
        path = DeltaPath((0, 1), 1)
        orbits = OrbitSet((path,), x0=0, n=1, delta=1,
                          exhaustive=False, map_label="pseudo-orbit-of-map")
        back = orbits_from_json_lines(orbits_to_json_lines(orbits))
        assert back.map_label == "pseudo-orbit-of-map"
        assert back.exhaustive is False

    def test_empty_text_rejected(self):
        with pytest.raises(InvalidInputError, match="empty"):
            orbits_from_json_lines("")

    def test_wrong_header_kind_rejected(self):
        bad = json.dumps({"schema": SCHEMA_VERSION, "kind": "growth"})
        with pytest.raises(InvalidInputError, match="header"):
            orbits_from_json_lines(bad + "\n")

    def test_wrong_schema_rejected(self):
        header = json.dumps({"schema": "v0", "kind": "orbit-set", "x0": 0,
                             "n": 1, "delta": 1, "count": 0,
                             "exhaustive": False, "map_label": "identity"})
        with pytest.raises(InvalidInputError, match="schema"):
            orbits_from_json_lines(header + "\n")

    def test_count_mismatch_rejected(self):
        orbits = self._int_line_orbits()
        lines = orbits_to_json_lines(orbits).splitlines()
        truncated = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(InvalidInputError, match="announces"):
            orbits_from_json_lines(truncated)

    @staticmethod
    def _two_step_file(*paths):
        header = json.dumps({"schema": SCHEMA_VERSION, "kind": "orbit-set", "x0": 0,
                             "n": 2, "delta": 1, "count": len(paths),
                             "exhaustive": False, "map_label": "identity"})
        return "\n".join([header] + [json.dumps(p) for p in paths]) + "\n"

    def test_path_of_the_wrong_length_rejected(self):
        text = self._two_step_file([0, 1, 2], [0, 1])
        with pytest.raises(InvalidInputError) as err:
            orbits_from_json_lines(text)
        assert str(err.value) == ("orbit file line 3: a path of 2 points, where the "
                                  "header's n = 2 needs 3")

    @pytest.mark.parametrize("text, message", [
        (orbit_file("5"), "orbit file line 2: a path must be a JSON list"),
        (orbit_file("[0, 1"), "orbit file line 2 is not JSON: "),
        (orbit_file("[0, {\"a\": 1}, 2]"), "orbit file line 2: cannot decode point {'a': 1}"),
        (orbit_file("[0, 1, null]"), "orbit file line 2: cannot decode point None"),
        ("{\"schema\": \"v1\", \"kind\"\n[0, 1, 2]\n", "orbit file line 1 is not JSON: "),
        (orbit_file("[0, 1, 2]", n=None), "orbit file header has no 'n' field"),
        (orbit_file("[0, 1, 2]", delta=None), "orbit file header has no 'delta' field"),
        (orbit_file("[0, 1, 2]", x0=None), "orbit file header has no 'x0' field"),
        (orbit_file("[0, 1, 2]", n="x"),
         "orbit file header field 'n' must be a nonnegative integer: 'x'"),
        (orbit_file("[0, 1, 2]", n=-1),
         "orbit file header field 'n' must be a nonnegative integer: -1"),
        (orbit_file("[0, 1, 2]", delta="abc"),
         "orbit file header field 'delta': cannot parse distance 'abc'"),
        (orbit_file("[0, 1, 2]", delta=[1]),
         "orbit file header field 'delta': cannot interpret [1] as a distance"),
        (orbit_file("[0, 1, 2]", x0={"a": 1}),
         "orbit file header field 'x0': cannot decode point {'a': 1}"),
    ], ids=["int-path", "truncated-path", "object-point", "null-point", "header-not-json",
            "no-n", "no-delta", "no-x0", "n-not-a-number", "negative-n", "delta-not-a-number",
            "delta-a-list", "object-x0"])
    def test_malformed_input_rejected(self, text, message):
        with pytest.raises(InvalidInputError) as err:
            orbits_from_json_lines(text)
        assert str(err.value).startswith(message)

    def test_path_away_from_x0_rejected(self):
        # blank lines count: the error names the line of the file
        text = self._two_step_file([0, 1, 2], [5, 6, 7]).replace("\n", "\n\n", 1)
        with pytest.raises(InvalidInputError) as err:
            orbits_from_json_lines(text)
        assert str(err.value) == "orbit file line 4: the path does not start at x0 = 0"


def reference_json_lines(orbits):
    """The orbit file rendered path by path, one json.dumps per path."""
    header = {
        "schema": SCHEMA_VERSION, "kind": "orbit-set", "x0": point_to_jsonable(orbits.x0),
        "n": orbits.n, "delta": dist_to_jsonable(orbits.delta), "count": len(orbits.paths),
        "exhaustive": orbits.exhaustive, "map_label": orbits.map_label,
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    for path in orbits.paths:
        lines.append(json.dumps([point_to_jsonable(p) for p in path.points],
                                sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def assert_matches_reference(orbits):
    got, want = orbits_to_json_lines(orbits), reference_json_lines(orbits)
    # compare as one bool: pytest's diff of two long texts can take minutes
    same = got == want
    assert same, next(((k, a, b) for k, (a, b) in enumerate(
        zip(got.splitlines(), want.splitlines())) if a != b), "line counts differ")


class TestOrbitJsonLinesBytes:
    def test_int_points(self):
        assert_matches_reference(enumerate_orbits(make_example("int_line"), 0, n=5, delta=2))

    def test_tuple_points(self):
        space = make_example("regular_tree")
        assert_matches_reference(enumerate_orbits(space, space.basepoint, n=4, delta=1))

    def test_fraction_token_points(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        paths = (DeltaPath((0, half, 1, Fraction(3, 2)), half),
                 DeltaPath((0, third, (half, third), "x"), half),
                 DeltaPath((0, 0, Fraction(4, 2), -half), half))
        orbits = OrbitSet(paths, x0=0, n=3, delta=half)
        assert_matches_reference(orbits)
        assert '["1/2", "1/3"]' in orbits_to_json_lines(orbits)

    def test_mixed_delta_family(self):
        paths = (DeltaPath((0, 0), 1), DeltaPath((0, 3), 3), DeltaPath((0, -1), 1))
        assert_matches_reference(OrbitSet(paths, x0=0, n=1, delta=3, exhaustive=False,
                                          map_label="pseudo-orbit-of-map"))

    def test_empty_family(self):
        assert_matches_reference(OrbitSet((), x0=0, n=1, delta=1))

    @pytest.mark.parametrize("rows_per_block", [1, 7, 4096])
    def test_row_blocks(self, monkeypatch, rows_per_block):
        # 6,561 int_line paths and exactly 4,096 tree paths, cut into blocks
        # that end on and off the family's last row
        monkeypatch.setattr(serialize, "_PATH_ROWS_PER_BLOCK", rows_per_block)
        tree = make_example("regular_tree")
        assert_matches_reference(enumerate_orbits(make_example("int_line"), 0, n=8, delta=1))
        assert_matches_reference(enumerate_orbits(tree, tree.basepoint, n=6, delta=1))
        one = OrbitSet((DeltaPath((0,), 1),), x0=0, n=0, delta=1)
        assert_matches_reference(one)


class TestEdgeFiles:
    """The CSV edge lists the CLI reads with ``--edges``."""

    def test_unweighted_file_gives_pairs(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n0,1\n1,2\n", encoding="utf-8")
        edges, weighted = load_edges_csv(str(path))
        assert weighted is False
        assert edges == [(0, 1), (1, 2)]

    def test_weighted_rational_weights_exact(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\na,b,1/2\nb,c,0.25\n", encoding="utf-8")
        edges, weighted = load_edges_csv(str(path))
        assert weighted is True
        assert edges == [("a", "b", Fraction(1, 2)), ("b", "c", Fraction(1, 4))]

    def test_header_only_file_rejected_by_the_cli(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n", encoding="utf-8")
        assert cli.main(["growth", "--edges", str(path)]) == 1
        assert capsys.readouterr().err == f"error: edge file {str(path)!r} contains no edges\n"
