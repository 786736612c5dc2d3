"""Input generators for the benchmark's four workloads.

Each generator writes a workload's inputs (table, rules, corpus, ground
truth, dictionaries) into a directory once and returns a JSON-able spec that
tells ``worker.py`` what to load and which library call to time.  Everything
is derived from the benchmark seed, so the same seed gives the same files.

Paths inside a spec are relative to the checkout root, because the
dictionary paths end up in the run report and therefore in its digest.

Workloads and why they were chosen:

* ``univ-impute`` - retrieval-bound: every keyword query is distinct, so a
  faster corpus scan shows here and a query memo does not.
* ``univ-sweep`` - the acceptance grid's ratios and seeds; most queries
  repeat, so memoisation shows, and masking, rule estimation and scoring
  run 35 times.
* ``roster-internal`` - the naive-Bayes pass does nearly all the work and
  fills every cell; retrieval is idle (empty corpus).
* ``rule-chain`` - exhaustive single-sink subgraph enumeration dominates
  (3 rules per level gives 3**depth subgraphs per cell).
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from webimpute.rules import parse_rules
from webimpute.synth import write_university_fixture
from webimpute.tabular import (
    MISSING,
    MaskedCell,
    MaskSpec,
    Table,
    load_table,
    mask_random,
    write_ground_truth,
    write_table,
)

# The university fixture's own thresholds (see tests/test_acceptance.py),
# with as many query threads as the 2-core reference machine has cores.
UNIVERSITY_CONFIG = {
    "bayes_threshold": 0.5,
    "group_threshold": 0.8,
    "pattern_support": 3,
    "pages": 2,
    "sample": 5,
    "max_concurrent_queries": 2,
}
UNIVERSITY_DICTS = ("City", "Address", "Principal")

SWEEP_RATIOS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
SWEEP_SEEDS = [1, 2, 3, 4, 5]

# Full sizes are what the benchmark measures.  They are chosen so that one
# iteration takes about 1.5 s on a 2-core machine: with the reference kernel
# timed around each one, a 30 s run then yields some 12 samples, which its
# median needs on a noisy shared host.  Tiny
# sizes keep the smoke test to a few seconds.
SIZES = {
    "full": {
        "univ-impute": {"rows": 400},
        "univ-sweep": {"rows": 60, "ratios": SWEEP_RATIOS, "seeds": SWEEP_SEEDS},
        "roster-internal": {"rows": 1000, "teams": 40, "chain_every": 70},
        "rule-chain": {"depth": 8, "fanout": 3, "complete": 40, "holes": 4},
    },
    "tiny": {
        "univ-impute": {"rows": 40},
        "univ-sweep": {"rows": 20, "ratios": [0.1, 0.3], "seeds": [1, 2]},
        "roster-internal": {"rows": 140, "teams": 6, "chain_every": 20},
        "rule-chain": {"depth": 3, "fanout": 3, "complete": 8, "holes": 3},
    },
}


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the inputs of ``workload`` under ``out`` and return its spec."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    params = SIZES[size][workload]
    make = {
        "univ-impute": _univ_impute,
        "univ-sweep": _univ_sweep,
        "roster-internal": _roster_internal,
        "rule-chain": _rule_chain,
    }[workload]
    spec = make(out, seed, **params)
    spec.update(workload=workload, seed=seed, size=size)
    (out / "spec.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    return spec


def _university_config(paths: dict) -> dict:
    config = dict(UNIVERSITY_CONFIG)
    config["dictionaries"] = {a: str(paths[f"dict:{a}"]) for a in UNIVERSITY_DICTS}
    return config


def _univ_impute(out: Path, seed: int, rows: int) -> dict:
    paths = write_university_fixture(out / "fixture", rows=rows, seed=seed)
    complete = load_table(paths["table"])
    spec = MaskSpec(ratio=0.3, seed=seed, protected_attrs=frozenset({"University"}))
    rules = parse_rules(paths["rules"].read_text(encoding="utf-8"))
    masked, truth = mask_random(complete, spec, rules=rules)
    table_path = out / "university.csv"
    write_table(masked, table_path)
    write_ground_truth(truth, out / "truth.json")
    return {
        "kind": "impute",
        "table": str(table_path),
        "rules": str(paths["rules"]),
        "corpus": str(paths["corpus"]),
        "truth": str(out / "truth.json"),
        "config": _university_config(paths),
    }


def _univ_sweep(out: Path, seed: int, rows: int, ratios: list, seeds: list) -> dict:
    paths = write_university_fixture(out / "fixture", rows=rows, seed=seed)
    return {
        "kind": "sweep",
        "table": str(paths["table"]),
        "rules": str(paths["rules"]),
        "corpus": str(paths["corpus"]),
        "config": _university_config(paths),
        "ratios": ratios,
        "seeds": seeds,
        "protected": ["University"],
    }


_SYLLABLES = [
    "ka", "lo", "mi", "ren", "tas", "vo", "bel", "dor", "fin", "gal", "hu",
    "jor", "nes", "pra", "quil", "sor", "tul", "wen", "xan", "yel", "zor",
]


def _names(rng: random.Random, count: int, suffix: str) -> list[str]:
    """``count`` distinct capitalised pseudo-words ending in ``suffix``."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        name = word.capitalize() + suffix
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


ROSTER_RULES = """# a team plays in one arena; an arena sits in one city, a city in one state
r1: Team -> Arena
r2: Arena -> City
r3: City -> State
r4: Arena -> Team
"""


def _roster_internal(
    out: Path, seed: int, rows: int, teams: int, chain_every: int
) -> dict:
    """Many rows over few repeated teams; holes only the table can fill.

    After a random mask, about one row in ``chain_every`` keeps only its
    team: its arena fills in round 1, which unlocks the city in round 2 and
    the state in round 3.  The corpus is empty, so retrieval stays idle.
    """
    rng = random.Random(seed)
    team_names = _names(rng, teams, "Club")
    arenas = dict(zip(team_names, _names(rng, teams, "Arena")))
    cities = _names(rng, max(2, teams * 3 // 4), "ville")
    states = _names(rng, max(2, teams // 3), "land")
    arena_city = {a: rng.choice(cities) for a in arenas.values()}
    city_state = {c: rng.choice(states) for c in cities}
    records = []
    for i in range(rows):
        team = team_names[i % teams] if i < teams else rng.choice(team_names)
        arena = arenas[team]
        city = arena_city[arena]
        records.append([team, arena, city, city_state[city]])
    columns = ["Team", "Arena", "City", "State"]
    complete = Table("roster", columns, records)
    rules = parse_rules(ROSTER_RULES)
    masked, truth = mask_random(complete, MaskSpec(ratio=0.3, seed=seed), rules=rules)

    truth_cells = {(c.row, c.attr): c for c in truth}
    rows_out = [list(r) for r in masked.rows]
    for r in range(chain_every // 2, rows, chain_every):
        if rows_out[r][0] is MISSING:
            continue  # the chain starts from a known team
        for c, attr in enumerate(columns[1:], start=1):
            if rows_out[r][c] is not MISSING:
                truth_cells[(r, attr)] = MaskedCell(r, attr, records[r][c])
                rows_out[r][c] = MISSING
    order = {c: i for i, c in enumerate(columns)}
    truth = sorted(truth_cells.values(), key=lambda c: (c.row, order[c.attr]))

    write_table(Table("roster", columns, rows_out), out / "roster.csv")
    (out / "roster.rules").write_text(ROSTER_RULES, encoding="utf-8")
    (out / "roster_corpus.jsonl").write_text("", encoding="utf-8")
    write_ground_truth(truth, out / "truth.json")
    return {
        "kind": "impute",
        "table": str(out / "roster.csv"),
        "rules": str(out / "roster.rules"),
        "corpus": str(out / "roster_corpus.jsonl"),
        "truth": str(out / "truth.json"),
        "config": dict(UNIVERSITY_CONFIG),
    }


_LEVEL_WORDS = ["amber", "birch", "coral", "dune", "ember", "fjord"]


def _rule_chain(
    out: Path, seed: int, depth: int, fanout: int, complete: int, holes: int
) -> dict:
    """A key plus ``depth`` levels, each derivable from the one above it by
    ``fanout`` interchangeable rules, so a row missing every level yields
    ``fanout**d`` subgraphs for the cell at level ``d``.

    Hole rows have unseen keys, so the internal pass abstains everywhere and
    every level goes to retrieval.  Each fact is one corpus sentence whose
    key and value sit more than the pattern window (8 tokens) apart, so
    mining finds no pattern and every cell is read by dictionary distance.
    """
    rng = random.Random(seed)
    levels = [f"L{i}" for i in range(1, depth + 1)]
    columns = ["Key"] + levels
    keys = [f"Item{n:04d}" for n in rng.sample(range(10000), complete + holes)]
    vocab = [[f"{w}{i}" for w in _LEVEL_WORDS] for i in range(1, depth + 1)]
    records = [[k] + [rng.choice(v) for v in vocab] for k in keys[:complete]]
    seen = [sorted({r[i + 1] for r in records}) for i in range(depth)]
    records += [[k] + [rng.choice(s) for s in seen] for k in keys[complete:]]

    rows_out = [list(r) for r in records[:complete]]
    truth = []
    for r, record in enumerate(records[complete:], start=complete):
        rows_out.append([record[0]] + [MISSING] * depth)
        truth += [MaskedCell(r, a, v) for a, v in zip(levels, record[1:])]

    lines = ["# every level follows from the one above it, three ways over"]
    for i, attr in enumerate(levels):
        parent = columns[i]
        for j in range(fanout):
            lines.append(f"c{i + 1}{chr(97 + j)}: {parent} -> {attr} @ 1.0")
    rules_text = "\n".join(lines) + "\n"

    with (out / "chain_corpus.jsonl").open("w", encoding="utf-8") as fh:
        for record in records:
            for attr, value in zip(levels, record[1:]):
                text = (
                    f"{record[0]} appears in the registry, and after review the "
                    f"archived value recorded for its {attr} field is {value}."
                )
                fh.write(json.dumps({"id": f"{record[0]}-{attr}", "text": text}) + "\n")
    write_table(Table("chain", columns, rows_out), out / "chain.csv")
    (out / "chain.rules").write_text(rules_text, encoding="utf-8")
    write_ground_truth(truth, out / "truth.json")
    return {
        "kind": "impute",
        "table": str(out / "chain.csv"),
        "rules": str(out / "chain.rules"),
        "corpus": str(out / "chain_corpus.jsonl"),
        "truth": str(out / "truth.json"),
        "config": dict(UNIVERSITY_CONFIG),
    }
