"""Synthetic university dataset with a matching noise-free corpus.

Generates a complete table (University / City / Address / Principal), a
JSON-Lines corpus containing one sentence per cell fact, a rule file, and
per-attribute dictionary files covering every value.  University names are
unique and every fact appears in exactly one sentence, so a sweep over this
fixture measures the machinery rather than the data.

Run as a module to write the fixture to disk::

    python -m webimpute.synth --out data/university --rows 100 --seed 7
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from .tabular import Table, check_count, write_table

_PLACES = [
    "Ashford", "Brookfield", "Carlton", "Daleview", "Eastmere", "Fairhaven",
    "Glenport", "Hartwell", "Inverness", "Juniper", "Kingsley", "Larkspur",
    "Marlowe", "Northgate", "Oakridge", "Pinehurst", "Quarry", "Redmond",
    "Silverton", "Thornbury",
]
_STREETS = [
    "Maple", "Birch", "Cedar", "Willow", "Aspen", "Linden", "Rowan", "Alder",
    "Hazel", "Laurel", "Poplar", "Spruce",
]
_FIRST = [
    "Maria", "Chen", "Amara", "Viktor", "Sofia", "Tariq", "Ingrid", "Mateo",
    "Yuki", "Priya", "Oskar", "Leila", "Dmitri", "Hana", "Rafael", "Astrid",
]
_LAST = [
    "Okafor", "Lindqvist", "Navarro", "Takahashi", "Bennett", "Petrova",
    "Moreau", "Kaplan", "Osei", "Vargas", "Nakamura", "Sorensen",
]

RULES_TEXT = """# dependencies of the synthetic university table
u1: University -> City
u2: University -> Address
u3: University -> Principal
"""


def make_university_dataset(
    rows: int = 100, seed: int = 7
) -> tuple[Table, list[tuple[str, str]], dict[str, list[str]]]:
    """Returns (table, corpus docs, per-attribute dictionary values)."""
    check_count("rows", rows)
    rng = random.Random(seed)
    columns = ["University", "City", "Address", "Principal"]
    records: list[list[str]] = []
    for i in range(rows):
        place = rng.choice(_PLACES)
        university = f"{place}TechUniversity{i:03d}"
        city = rng.choice(_PLACES)
        address = f"{100 + i} {rng.choice(_STREETS)}Street"
        principal = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
        records.append([university, city, address, principal])
    table = Table("university", columns, records)

    corpus: list[tuple[str, str]] = []
    for i, (university, city, address, principal) in enumerate(records):
        corpus.append(
            (f"city-{i:03d}", f"{university} is located in the city of {city}.")
        )
        corpus.append(
            (f"addr-{i:03d}", f"The campus of {university} is at {address}.")
        )
        corpus.append(
            (f"prin-{i:03d}", f"{principal} is the principal of {university}.")
        )

    dictionaries = {
        "City": sorted({r[1] for r in records}),
        "Address": sorted({r[2] for r in records}),
        "Principal": sorted({r[3] for r in records}),
    }
    return table, corpus, dictionaries


def write_university_fixture(
    out_dir: str | Path, rows: int = 100, seed: int = 7
) -> dict[str, Path]:
    """Write table, rules, corpus and dictionary files; returns the paths."""
    table, corpus, dictionaries = make_university_dataset(rows, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths = {
        "table": out / "university.csv",
        "rules": out / "university.rules",
        "corpus": out / "university_corpus.jsonl",
    }
    write_table(table, paths["table"])
    paths["rules"].write_text(RULES_TEXT, encoding="utf-8")
    with paths["corpus"].open("w", encoding="utf-8") as fh:
        for doc_id, text in corpus:
            fh.write(json.dumps({"id": doc_id, "text": text}, ensure_ascii=False) + "\n")
    for attr, values in dictionaries.items():
        path = out / f"university_{attr.lower()}.dict"
        path.write_text("\n".join(values) + "\n", encoding="utf-8")
        paths[f"dict:{attr}"] = path
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--rows", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    try:
        check_count("rows", args.rows)
    except ValueError as exc:
        parser.error(str(exc))
    paths = write_university_fixture(args.out, args.rows, args.seed)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
