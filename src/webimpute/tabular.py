"""Relational tables with explicit missing-cell markers, and the file boundary.

Tables are loaded from RFC-4180-style CSV with a header row.  An empty CSV
field becomes the in-memory :data:`MISSING` marker; every other cell is kept
byte-exact.  Tables are treated as immutable after construction, which makes
them safe to share across threads: no row list is ever written in place.  All
"mutation" happens by deriving a new table (see :meth:`Table.with_cell`,
:meth:`Table.with_cells` and :func:`mask_random`), which copies only the rows
it writes and shares every other row list with its source, so deriving costs
what changes, not the table.  A table lists its missing cells once, the first
time it is asked.

Every file the package reads goes through :func:`read_text`, so a file that
is not UTF-8 is an error naming it; every JSON text it writes is laid out by
:func:`dump_json`, and every JSON file is streamed into its open file by
:func:`write_json` in the same layout.  Every count an entry point takes is
checked by :func:`check_count` (an ``int``, not a ``bool``) and every ratio
by :func:`check_ratio` (in [0, 1]).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from .rules import Rule

T = TypeVar("T")

MISSING = None
"""Marker for an absent cell value, distinct from the empty string."""

Cell = Optional[str]


class TableError(ValueError):
    """Malformed table input or an operation violating a table contract."""


class MaskError(ValueError):
    """Requested mask cannot be produced without stripping a row bare."""


def check_count(name: str, value: object, least: int = 1) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_ratio(name: str, value: object) -> None:
    if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a number in [0,1], got {value!r}")


@dataclass
class Table:
    """An in-memory relational table of string cells.

    A row list is never written in place once it is in a table, so tables
    derived by :meth:`with_cells` share the rows they do not write.

    Attributes:
        name: identifier for reports (usually the source file stem).
        columns: ordered, unique, non-empty attribute names.
        rows: list of rows; every row has exactly ``len(columns)`` cells.
    """

    name: str
    columns: list[str]
    rows: list[list[Cell]]

    def __post_init__(self) -> None:
        if not all(self.columns):
            raise TableError("column names must be non-empty")
        if len(set(self.columns)) != len(self.columns):
            raise TableError("column names must be unique")
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(self.rows) if len(r) != width)
            raise TableError(f"row {i + 1} has {len(row)} cells, expected {width}")
        self._index = {c: i for i, c in enumerate(self.columns)}

    def column_index(self, attr: str) -> int:
        try:
            return self._index[attr]
        except KeyError:
            raise TableError(f"unknown attribute {attr!r}") from None

    def cell(self, row: int, attr: str) -> Cell:
        return self.rows[row][self.column_index(attr)]

    def with_cell(self, row: int, attr: str, value: Cell) -> "Table":
        """A new table with one cell replaced."""
        return self.with_cells([(row, attr, value)])

    def with_cells(self, updates: Iterable[tuple[int, str, Cell]]) -> "Table":
        """A new table with each (row, attr, value) update applied in order.

        A row is copied the first time an update writes to it; every row no
        update writes is the same list object as in this table.
        """
        source = self.rows
        rows = list(source)
        for row, attr, value in updates:
            if rows[row] is source[row]:
                rows[row] = list(rows[row])
            rows[row][self.column_index(attr)] = value
        return Table(self.name, list(self.columns), rows)

    def missing_cells(self) -> Iterator[tuple[int, str]]:
        """(row, attr) pairs of missing cells, in row-major order.

        The table scans its rows once, the first time it is asked; a table
        derived from it is a new object and scans its own.
        """
        return iter(self._missing)

    @cached_property
    def _missing(self) -> list[tuple[int, str]]:
        rows = enumerate(self.rows)
        return [(r, c) for r, row in rows for c, v in zip(self.columns, row) if v is MISSING]


@dataclass(frozen=True)
class MaskSpec:
    """How to knock values out of a complete table for an experiment.

    ``protected_attrs`` are never masked (key attributes stay intact).
    """

    ratio: float
    seed: int
    protected_attrs: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        check_ratio("ratio", self.ratio)
        object.__setattr__(self, "protected_attrs", frozenset(self.protected_attrs))


@dataclass(frozen=True)
class MaskedCell:
    """Ground-truth record for one masked cell."""

    row: int
    attr: str
    value: str

    def __post_init__(self) -> None:
        check_count("row", self.row, least=0)
        if {type(self.attr), type(self.value)} != {str}:
            raise TypeError(f"attr and value must be strings: {self}")


def load_table(path: str | Path) -> Table:
    """Load a CSV file (UTF-8, header row) into a :class:`Table`.

    Empty fields become :data:`MISSING`.  Ragged rows and duplicate headers
    raise :class:`TableError` naming the offending row.
    """
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TableError(f"{path}: empty file, expected a header row") from None
    if len(set(header)) != len(header):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise TableError(f"{path}: duplicate header (row 1): {', '.join(dupes)}")
    if not all(header):
        raise TableError(f"{path}: empty column name in header (row 1)")
    rows: list[list[Cell]] = []
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue  # blank trailing line
        if len(record) != len(header):
            raise TableError(
                f"{path}: row {lineno} has {len(record)} fields, expected {len(header)}"
            )
        rows.append([f if f != "" else MISSING for f in record])
    return Table(path.stem, header, rows)


def write_table(table: Table, path: str | Path) -> None:
    Path(path).write_bytes(to_csv_text(table).encode("utf-8"))


def to_csv_text(table: Table) -> str:
    """Render a table back to CSV; missing cells become empty fields."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(["" if v is MISSING else v for v in row])
    return buf.getvalue()


def read_text(path: str | Path) -> str:
    """A whole UTF-8 file, line ends kept and a leading byte-order mark dropped;
    a ValueError naming it if not UTF-8."""
    try:
        # not "utf-8-sig": that codec is a Python module each new process imports
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 file: {exc}") from None


def _encode_json(data: object, fh: TextIO) -> None:
    # json.dump hands ``fh`` each chunk as it is encoded; json.dumps would
    # hold every chunk in one list until its final join
    json.dump(data, fh, indent=2, sort_keys=True, ensure_ascii=False)
    fh.write("\n")


def dump_json(data: object) -> str:
    """The layout of every JSON text written: sorted keys, 2-space indent,
    non-ASCII kept, a trailing newline."""
    buf = io.StringIO()
    _encode_json(data, buf)
    return buf.getvalue()


def write_json(data: object, path: str | Path) -> None:
    """``dump_json(data)`` streamed into the UTF-8 file ``path``, its line
    ends written as they are, as :func:`write_table` writes them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _encode_json(data, fh)


def write_ground_truth(entries: Sequence[MaskedCell], path: str | Path) -> None:
    write_json([asdict(e) for e in entries], path)


def read_json_list(path: str | Path, kind: str, build: Callable[[dict], T]) -> list[T]:
    """``build`` applied to each entry of a JSON list file.

    A file that is not UTF-8 JSON or not a list, or an entry ``build``
    rejects (KeyError, TypeError, ValueError), is a ValueError naming the
    file and, for an entry, the entry.
    """
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of {kind} entries")
    entries = []
    for i, d in enumerate(data):
        try:
            entries.append(build(d))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad {kind} entry {i}: {exc!r}") from None
    return entries


def read_ground_truth(path: str | Path) -> list[MaskedCell]:
    """A ground-truth file's entries; a cell named twice is a ValueError."""
    truth = read_json_list(
        path, "ground-truth", lambda d: MaskedCell(d["row"], d["attr"], d["value"])
    )
    first: dict[tuple[int, str], int] = {}
    for i, cell in enumerate(truth):
        if (j := first.setdefault((cell.row, cell.attr), i)) != i:
            raise ValueError(
                f"{path}: bad ground-truth entry {i}: cell (row {cell.row}, {cell.attr!r})"
                f" is named by entry {j} too"
            )
    return truth


def mask_random(
    table: Table,
    spec: MaskSpec,
    rules: Iterable["Rule"] | None = None,
) -> tuple[Table, list[MaskedCell]]:
    """Mask ``floor(ratio * maskable_cells)`` cells at seeded-random positions.

    The product is rounded to 9 decimals before the floor, so a ratio in
    hundredths masks exactly ``ratio * 100 * maskable_cells // 100`` cells:
    0.41 of 300 is 123, although ``0.41 * 300`` is 122.99999999999999.

    Protected attributes are untouched.  Every row keeps at least one
    unmasked non-protected cell, so a masked cell always has neighbouring
    evidence left in its tuple; when ``rules`` are given, the stronger check
    is applied: every masked cell keeps at least one unmasked LHS attribute
    among the rules that cover it.  If the ratio makes that impossible a
    :class:`MaskError` is raised.

    Deterministic: positions are shuffled with ``spec.seed`` and taken in that
    order, skipping any that breaks a check, so (table, spec, rules) fix the mask.
    """
    unknown = spec.protected_attrs - set(table.columns)
    if unknown:
        raise TableError(f"protected attributes not in table: {sorted(unknown)}")
    maskable_cols = [c for c in table.columns if c not in spec.protected_attrs]
    positions = [(r, c) for r in range(len(table.rows)) for c in maskable_cols]
    for r, c in table.missing_cells():
        if c not in spec.protected_attrs:
            raise TableError(
                f"cannot mask: cell (row {r}, {c}) is already missing"
            )
    count = math.floor(round(spec.ratio * len(positions), 9))
    random.Random(spec.seed).shuffle(positions)

    covering = None  # column -> the LHS sets of the rules that cover it
    if rules is not None:
        rules = list(rules)  # it may be a one-shot iterator
        covering = {c: [set(ru.lhs) for ru in rules if c in ru.rhs] for c in maskable_cols}

    masked: list[set[str]] = [set() for _ in table.rows]  # row -> masked columns
    chosen: list[tuple[int, str]] = []
    for r, c in positions:
        if len(chosen) == count:
            break
        row_masked = masked[r]
        if len(row_masked) >= len(maskable_cols) - 1:  # one must stay unmasked
            continue
        if covering is not None:
            tentative = row_masked | {c}
            if any(
                covering[a] and all(lhs <= tentative for lhs in covering[a])
                for a in tentative
            ):
                continue
        chosen.append((r, c))
        row_masked.add(c)
    if len(chosen) < count:
        raise MaskError(
            f"ratio {spec.ratio} would mask every non-protected cell of some row "
            f"(wanted {count} cells, only {len(chosen)} can be masked)"
        )

    chosen.sort(key=lambda rc: (rc[0], table.column_index(rc[1])))
    truth = [MaskedCell(r, c, table.cell(r, c)) for r, c in chosen]
    return table.with_cells((r, c, MISSING) for r, c in chosen), truth
