import copy
import random
from collections import Counter

import pytest

from oracles import make_table, missing_cells_oracle, with_cells_oracle
from webimpute import MISSING, MaskSpec, Table, load_table, mask_random, write_table
from webimpute.rules import parse_rules
from webimpute.tabular import (
    MaskError,
    TableError,
    read_ground_truth,
    to_csv_text,
    write_ground_truth,
)


class TestLoad:
    def test_nba_fixture(self, nba_table):
        assert nba_table.columns == [
            "ID", "Team", "Start-End", "Arena", "Location", "Capacity", "Coach",
        ]
        assert len(nba_table.rows) == 5
        assert nba_table.cell(3, "Team") is MISSING
        assert nba_table.cell(3, "Location") is MISSING
        assert nba_table.cell(0, "Location") == "SanFrancsicoCA"

    def test_line_breaks_inside_quoted_cells_kept_byte_exact(self, tmp_path):
        # CR LF rows; cells holding CR LF, a lone CR, U+2028 and U+0085, none
        # of which may split or change a record
        path = tmp_path / "breaks.csv"
        path.write_bytes(
            'a,b\r\n"x\r\ny",1\r\n"p\u2028q","r\rs"\r\n"t\x85u",\r\n'.encode("utf-8")
        )
        table = load_table(path)
        assert table.rows == [["x\r\ny", "1"], ["p\u2028q", "r\rs"], ["t\x85u", MISSING]]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        table = load_table(path)
        assert table.columns == ["a", "b", "c"]
        assert table.rows == []

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # only the mark that opens the file goes; one inside a cell is data
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffA,B\r\n\ufeffx,2\r\n".encode("utf-8"))
        table = load_table(path)
        assert table.columns == ["A", "B"]
        assert table.rows == [["\ufeffx", "2"]]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_bytes(b"")
        with pytest.raises(TableError, match="empty file, expected a header row"):
            load_table(path)

    def test_empty_column_name_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("a,,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TableError, match=r"empty column name in header \(row 1\)"):
            load_table(path)

    def test_blank_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "trailing.csv"
        path.write_text("a,b\n1,2\n\n", encoding="utf-8")
        assert load_table(path).rows == [["1", "2"]]

    def test_ragged_row_cites_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,c,d,e,f,g\n1,2,3,4,5,6,7\n1,2,3,4,5,6\n", encoding="utf-8")
        with pytest.raises(TableError, match="row 3"):
            load_table(path)

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TableError, match="duplicate header"):
            load_table(path)

    def test_cells_preserved_exactly(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('a,b\n"  spaced  ","x,y"\n', encoding="utf-8")
        table = load_table(path)
        assert table.cell(0, "a") == "  spaced  "
        assert table.cell(0, "b") == "x,y"

    def test_missing_distinct_from_empty_string(self):
        table = make_table(["a", "b"], [[MISSING, ""]])
        assert table.cell(0, "a") is MISSING
        assert table.cell(0, "b") == ""
        assert table.cell(0, "a") != table.cell(0, "b")


@pytest.mark.parametrize(
    "columns, rows, message",
    [
        (["a", ""], [], "column names must be non-empty"),
        (["a", "b", "a"], [], "column names must be unique"),
        (["a", "b"], [["1", "2"], ["3"]], "row 2 has 1 cells, expected 2"),
        (["a", "b"], [["1", "2"], ["3", "4"], ["5"], ["6", "7", "8"]], "row 3 has 1 cells"),
    ],
    ids=["empty-name", "duplicate-name", "ragged-row", "ragged-later-row"],
)
def test_table_constructor_rejects_bad_shape(columns, rows, message):
    with pytest.raises(TableError, match=message):
        Table("t", columns, rows)


def test_with_cells_equals_folded_with_cell():
    rng = random.Random(31)
    columns = ["a", "b", "c"]
    for _ in range(100):
        rows = [[f"{c}{rng.randint(0, 3)}" for c in columns] for _ in range(rng.randint(1, 6))]
        table = make_table(columns, rows)
        # updates may hit one cell twice: the later one wins
        updates = [
            (rng.randrange(len(rows)), rng.choice(columns), rng.choice([MISSING, "x", "y"]))
            for _ in range(rng.randint(0, 8))
        ]
        folded = table
        for row, attr, value in updates:
            folded = folded.with_cell(row, attr, value)
        batched = table.with_cells(updates)
        assert batched.columns == folded.columns
        assert batched.rows == folded.rows
        assert table.rows == rows  # the source table is untouched


def test_with_cells_shares_unwritten_rows_and_matches_oracle():
    rng = random.Random(2110)
    seen = Counter()
    for _ in range(600):
        columns = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        n_rows = rng.randint(0, 6)
        rows = [
            [rng.choice([MISSING, f"{c}{rng.randint(0, 2)}"]) for c in columns]
            for _ in range(n_rows)
        ]
        table = make_table(columns, rows)
        listed_first = rng.random() < 0.5
        if listed_first:  # the source lists its missing cells before deriving
            list(table.missing_cells())
        snapshot = copy.deepcopy(table.rows)
        updates = [
            (rng.randrange(-n_rows, n_rows), rng.choice(columns), rng.choice([MISSING, "x", "y"]))
            for _ in range(rng.choice([0, 1, 3, 8]) if n_rows else 0)
        ]
        expected_columns, expected_rows = with_cells_oracle(table, updates)
        derived = table.with_cells(iter(updates))
        assert derived.columns == expected_columns
        assert derived.rows == expected_rows
        written = {row % n_rows for row, _, _ in updates}
        for r in range(n_rows):
            assert (derived.rows[r] is table.rows[r]) == (r not in written)
        assert table.rows == snapshot
        assert list(table.missing_cells()) == missing_cells_oracle(columns, snapshot)
        assert list(derived.missing_cells()) == missing_cells_oracle(columns, expected_rows)
        cells = [(row % n_rows, attr) for row, attr, _ in updates]
        seen["empty updates"] += not updates
        seen["one cell written twice"] += len(set(cells)) < len(cells)
        seen["one row written twice"] += len({r for r, _ in set(cells)}) < len(set(cells))
        seen["negative row"] += any(row < 0 for row, _, _ in updates)
        seen["missing written"] += any(value is MISSING for _, _, value in updates)
        seen["listed before deriving"] += listed_first and bool(updates)
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


def test_with_cells_rejects_a_bad_update():
    table = make_table(["a", "b"], [["1", "2"], ["3", "4"]])
    with pytest.raises(TableError, match="unknown attribute 'z'"):
        table.with_cells([(0, "a", "x"), (1, "z", "y")])
    with pytest.raises(IndexError):
        table.with_cells([(2, "a", "x")])
    assert table.rows == [["1", "2"], ["3", "4"]]


def test_round_trip_is_field_equivalent(nba_table, tmp_path):
    out = tmp_path / "out.csv"
    write_table(nba_table, out)
    again = load_table(out)
    assert again.columns == nba_table.columns
    assert again.rows == nba_table.rows


class TestMask:
    def setup_method(self):
        rng = random.Random(99)
        self.table = make_table(
            ["ID", "X", "Y", "Z"],
            [
                [f"id{i}", f"x{rng.randint(0, 4)}", f"y{rng.randint(0, 4)}", f"z{i}"]
                for i in range(51)
            ],
        )

    def test_count_is_floor_of_ratio(self):
        spec = MaskSpec(ratio=0.05, seed=1, protected_attrs={"ID"})
        masked, truth = mask_random(self.table, spec)
        assert len(truth) == int(0.05 * 51 * 3)  # floor over maskable cells

    @pytest.mark.parametrize("rows", [5, 10, 18, 30])
    def test_count_of_a_ratio_in_hundredths_is_exact(self, rows):
        # ten maskable cells a row, so up to 0.9 is feasible; a plain float
        # floor undercounts (0.41, 300) and (0.58, 50) among others, because
        # 0.41 * 300 == 122.99999999999999
        columns = ["ID"] + [f"C{j}" for j in range(10)]
        cells = [[f"r{i}"] + [f"v{i}.{j}" for j in range(10)] for i in range(rows)]
        table = make_table(columns, cells)
        n = rows * 10
        for hundredths in range(91):
            spec = MaskSpec(hundredths / 100, 1, frozenset({"ID"}))
            _, truth = mask_random(table, spec)
            assert len(truth) == hundredths * n // 100, (hundredths, n)

    def test_deterministic(self):
        spec = MaskSpec(ratio=0.2, seed=7, protected_attrs={"ID"})
        a_table, a_truth = mask_random(self.table, spec)
        b_table, b_truth = mask_random(self.table, spec)
        assert to_csv_text(a_table) == to_csv_text(b_table)
        assert a_truth == b_truth

    def test_ratio_zero_is_identity(self):
        masked, truth = mask_random(self.table, MaskSpec(ratio=0.0, seed=1))
        assert masked.rows == self.table.rows
        assert truth == []

    def test_protected_untouched(self):
        spec = MaskSpec(ratio=0.5, seed=3, protected_attrs={"ID"})
        masked, truth = mask_random(self.table, spec)
        assert all(e.attr != "ID" for e in truth)
        for r in range(len(masked.rows)):
            assert masked.cell(r, "ID") == self.table.cell(r, "ID")

    def test_differences_are_exactly_ground_truth(self):
        # every difference is value -> MISSING, and there are |truth| of them
        for seed in range(5):
            spec = MaskSpec(ratio=0.3, seed=seed, protected_attrs={"ID"})
            masked, truth = mask_random(self.table, spec)
            diffs = [
                (r, c)
                for r in range(len(self.table.rows))
                for c in self.table.columns
                if masked.cell(r, c) != self.table.cell(r, c)
            ]
            assert len(diffs) == len(truth)
            assert {(e.row, e.attr) for e in truth} == set(diffs)
            for e in truth:
                assert masked.cell(e.row, e.attr) is MISSING
                assert self.table.cell(e.row, e.attr) == e.value

    def test_every_row_keeps_one_unmasked_cell(self):
        spec = MaskSpec(ratio=0.6, seed=11, protected_attrs={"ID"})
        masked, _ = mask_random(self.table, spec)
        for row in masked.rows:
            assert any(v is not MISSING for v in row[1:])

    def test_infeasible_ratio_rejected(self):
        table = make_table(["ID", "only"], [["a", "1"], ["b", "2"]])
        spec = MaskSpec(ratio=1.0, seed=1, protected_attrs={"ID"})
        with pytest.raises(MaskError):
            mask_random(table, spec)

    def test_masking_incomplete_table_rejected(self):
        table = make_table(["a", "b"], [["1", MISSING]])
        with pytest.raises(TableError, match="already missing"):
            mask_random(table, MaskSpec(ratio=0.5, seed=1))

    def test_already_missing_names_the_first_unprotected_cell(self):
        # row-major: the missing protected cell in row 0 is skipped, and of
        # row 2's two holes the earlier column is named
        table = make_table(
            ["ID", "X", "Y"],
            [[MISSING, "x0", "y0"], ["b", "x1", "y1"], ["c", MISSING, MISSING]],
        )
        spec = MaskSpec(ratio=0.5, seed=1, protected_attrs={"ID"})
        with pytest.raises(TableError) as info:
            mask_random(table, spec)
        assert str(info.value) == "cannot mask: cell (row 2, X) is already missing"
        protected_only = make_table(["ID", "X", "Y"], [[MISSING, "x0", "y0"], ["b", "x1", "y1"]])
        _, truth = mask_random(protected_only, spec)
        assert len(truth) == 2

    def test_rules_keep_an_lhs_attribute(self):
        rules = parse_rules("r1: B -> A")
        table = make_table(
            ["A", "B", "C"],
            [[f"a{i}", f"b{i}", f"c{i}"] for i in range(30)],
        )
        for seed in range(5):
            spec = MaskSpec(ratio=0.5, seed=seed)
            masked, truth = mask_random(table, spec, rules=rules)
            by_row = {}
            for e in truth:
                by_row.setdefault(e.row, set()).add(e.attr)
            for attrs in by_row.values():
                if "A" in attrs:
                    assert "B" not in attrs  # A's only determinant survives

    def test_unknown_protected_attr(self):
        with pytest.raises(TableError, match="protected"):
            mask_random(self.table, MaskSpec(ratio=0.1, seed=1, protected_attrs={"nope"}))


def test_ground_truth_json_round_trip(tmp_path):
    table = make_table(["a", "b"], [["1", "2"], ["3", "4"]])
    masked, truth = mask_random(table, MaskSpec(ratio=0.5, seed=5))
    path = tmp_path / "truth.json"
    write_ground_truth(truth, path)
    assert read_ground_truth(path) == truth


def test_bad_ratio_rejected():
    for ratio in (1.5, -0.1, True, "0.3"):
        with pytest.raises(ValueError, match="ratio"):
            MaskSpec(ratio=ratio, seed=0)
