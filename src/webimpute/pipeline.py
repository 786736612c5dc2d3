"""End-to-end imputation: internal pass, then per-cell web extraction.

Phase 1 fills what the table's own dependencies can justify.  Phase 2 walks
the remaining missing cells in row-major order, in the table's column order
within a row: select the optimal keyword group (abstain if its weight is
below the group threshold), try mined patterns for the group's (source, sink)
attribute pairs, and fall back to keyword-group extraction when no pattern
produces a value.  Rules and dictionaries may name only table columns, and
every dictionary file is read when the run's :class:`SweepMemo` is made:
before phase 1, or before the first mask of the sweep that hands the run
its memo.  Phase 2 runs serially, one cell at a time; every cell is
evaluated against the phase-1 snapshot and its fill is applied afterwards,
so no phase-2 fill influences another cell.
Provider failures mark the cell abstained and never abort a run.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .bayes import BayesDecision, impute_internal
from .depgraph import build_dependency_graph
from .extract import Dictionary, build_dictionary, dictionary_values, extract_by_keywords
from .keywords import (
    SinkGraph,
    enumerate_single_sink_graphs,
    render_keywords,
    select_optimal,
)
from .patterns import (
    MAX_GAP,
    MiningError,
    Pattern,
    extract_by_pattern,
    load_patterns,
    mine_patterns,
    mining_sample,
    save_patterns,
)
from .providers import PAGE_SIZE, ProviderError, Query, SearchProvider
from .rules import RuleSet
from .tabular import Table, check_count, check_ratio, dump_json, read_text

log = logging.getLogger(__name__)

FILLED_INTERNAL = "filled-internal"
FILLED_PATTERN = "filled-pattern"
FILLED_KEYWORD = "filled-keyword"
ABSTAINED = "abstained"


_COUNT_FIELDS = {  # integer RunConfig fields -> least allowed value
    "pattern_support": 1, "pages": 1, "sample": 1, "max_rounds": 1,
    "max_concurrent_queries": 1, "max_gap": 1, "page_size": 1, "query_retries": 0,
}


@dataclass
class RunConfig:
    """Thresholds and knobs for one imputation run."""

    bayes_threshold: float = 0.5   # min posterior for an internal fill
    group_threshold: float = 0.8   # min keyword-group weight
    pattern_support: int | None = None  # None: half the per-query document budget
    pages: int = 5
    sample: int = 5                # clean tuples mined per attribute pair
    max_rounds: int = 10
    max_concurrent_queries: int = 4  # accepted and echoed only: phase 2 is serial
    max_gap: int = MAX_GAP
    page_size: int = PAGE_SIZE
    query_retries: int = 2         # extra attempts after a retryable failure
    dictionaries: dict[str, str] = field(default_factory=dict)  # attr -> extra file
    pattern_cache: str | None = None
    reiterate: bool = False
    # provider choice + settings, e.g. {"kind": "local", "corpus": "c.jsonl"} or
    # {"kind": "http", "url_template": "...", "delay_ms": 1000}
    provider: dict | None = None

    def __post_init__(self) -> None:
        for name in ("bayes_threshold", "group_threshold"):
            check_ratio(name, getattr(self, name))
        for name, least in _COUNT_FIELDS.items():
            value = getattr(self, name)
            if name != "pattern_support" or value is not None:
                check_count(name, value, least)
        if self.provider is not None and not isinstance(self.provider, dict):
            raise ValueError("provider must be a mapping of provider settings")
        if not isinstance(self.dictionaries, dict) or not all(
            isinstance(a, str) and isinstance(path, str)
            for a, path in self.dictionaries.items()
        ):
            raise ValueError("dictionaries must map attribute names to path strings")
        if self.pattern_cache is not None and not isinstance(self.pattern_cache, str):
            raise ValueError(
                f"pattern_cache must be a path string or None, got {self.pattern_cache!r}"
            )
        if not isinstance(self.reiterate, bool):
            raise ValueError(f"reiterate must be true or false, got {self.reiterate!r}")

    @property
    def effective_pattern_support(self) -> int:
        if self.pattern_support is not None:
            return self.pattern_support
        return max(1, math.ceil(0.5 * self.pages * self.page_size))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**data)


@dataclass
class CellOutcome:
    row: int
    attr: str
    outcome: str
    value: str | None = None
    reason: str | None = None
    keyword_group: list[str] | None = None
    group_weight: float | None = None
    pattern: dict | None = None
    alternatives: list[dict] | None = None


@dataclass
class RunReport:
    table_name: str
    initial_missing: int
    outcomes: list[CellOutcome]
    internal_decisions: list[BayesDecision]
    config: dict
    timings: dict[str, float]

    @property
    def counts(self) -> dict[str, int]:
        counts = {
            FILLED_INTERNAL: 0,
            FILLED_PATTERN: 0,
            FILLED_KEYWORD: 0,
            ABSTAINED: 0,
        }
        for outcome in self.outcomes:
            counts[outcome.outcome] += 1
        return counts

    def to_dict(self, include_timings: bool = True) -> dict:
        data = {
            "table": self.table_name,
            "initial_missing": self.initial_missing,
            "counts": self.counts,
            "outcomes": [asdict(o) for o in self.outcomes],
            "internal_decisions": [d.to_dict() for d in self.internal_decisions],
            "config": self.config,
        }
        if include_timings:
            data["timings"] = self.timings
        return data

    def to_json(self, include_timings: bool = True) -> str:
        return dump_json(self.to_dict(include_timings))

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


_UNSET = object()


class SweepMemo:
    """Work that repeats across the imputation runs of one sweep, done once.

    ``evalharness.sweep`` makes one for its whole grid; a lone ``impute``
    makes its own.  A memo is made for one provider and one configuration,
    and ``impute`` refuses it, with a ``ValueError`` before any query, for
    another provider object or a configuration unequal to the one it was
    made with, one changed in place since included.  It reads each
    ``dictionaries`` file when it is made.  It is the provider that phase 2
    queries: a retryable failure gets ``query_retries`` more attempts.

    The configuration being fixed, each table is keyed by the rest of the
    input of the work it replaces: a ``Dictionary`` by (attribute, value
    set); a provider's answer by ``Query``; a pair's mined patterns by (pair,
    mining sample values); the first ``(pattern, value)`` a pair's patterns
    extract, or None, by (patterns, ``Dictionary``) and then by known value,
    so a cell pays one lookup per source attribute.  Answers, mining and
    extraction results are kept only for a provider that is not ``live``
    (see ``SearchProvider``); errors never are.  A miss asks the provider or
    calls this module's ``build_dictionary``, ``mine_patterns`` or
    ``extract_by_pattern``.  Nothing outlives the memo: separate sweeps, or
    separate lone ``impute`` calls, share no answer.
    """

    def __init__(self, provider: SearchProvider, config: RunConfig) -> None:
        self._provider = provider
        self._live = getattr(provider, "live", False)
        self.config = config
        self._settings = asdict(config)
        paths = dict.fromkeys(config.dictionaries.values())  # a file named twice is read once
        read = {path: read_text(path).splitlines() for path in paths}
        self._extra = {attr: read[path] for attr, path in config.dictionaries.items()}
        self._dictionaries: dict[tuple[str, frozenset[str]], Dictionary] = {}
        self._answers: dict[Query, list] = {}
        self._mined: dict[tuple, tuple[Pattern, ...]] = {}
        self._fills: dict[tuple, dict[str, tuple[Pattern, str] | None]] = {}

    def query(self, q: Query) -> list:
        """The provider's answer to ``q``, as a list of the caller's own."""
        if (found := self._answers.get(q)) is not None:
            return list(found)
        retries = self.config.query_retries
        for attempt in range(retries + 1):
            try:
                found = self._provider.query(q)
                break
            except ProviderError:
                if attempt == retries:
                    raise
        if not self._live:
            self._answers[q] = found
        return list(found)

    def dictionary(self, table: Table, attr: str) -> Dictionary:
        key = (attr, dictionary_values(table, attr, self._extra.get(attr, [])))
        if (found := self._dictionaries.get(key)) is None:
            found = self._dictionaries[key] = build_dictionary(*key)
        return found

    def mine(self, table: Table, pair: tuple[str, str]) -> tuple[Pattern, ...]:
        """``mine_patterns`` for ``pair``, or () where the table has no evidence."""
        c = self.config
        key = (pair, mining_sample(table, pair, c.sample))
        if (found := self._mined.get(key)) is None:
            try:
                found = tuple(mine_patterns(
                    self, table, pair, c.effective_pattern_support, c.sample, c.pages, c.max_gap
                ))
            except MiningError:
                found = ()
            if not self._live:
                self._mined[key] = found
        return found

    def extractor(
        self, patterns: tuple[Pattern, ...], dictionary: Dictionary
    ) -> Callable[[str], tuple[Pattern, str] | None]:
        """known value -> the first ``(pattern, value)`` that a pair's
        ``patterns`` extract through its sink's ``dictionary``, or None."""
        done = self._fills.setdefault((patterns, dictionary), {})
        pages, max_gap = self.config.pages, self.config.max_gap

        def first_fill(known_value: str) -> tuple[Pattern, str] | None:
            if (found := done.get(known_value, _UNSET)) is _UNSET:
                found = None
                for pattern in patterns:
                    value = extract_by_pattern(
                        pattern, known_value, self, dictionary, pages, max_gap
                    )
                    if value is not None:
                        found = pattern, value
                        break
                if not self._live:
                    done[known_value] = found
            return found

        return first_fill


def _mine_needed_patterns(
    pairs: list[tuple[str, str]], table: Table, memo: SweepMemo
) -> dict[tuple[str, str], tuple[Pattern, ...]]:
    cache_path = Path(memo.config.pattern_cache) if memo.config.pattern_cache else None
    mined: dict[tuple[str, str], list[Pattern]] = {}
    if cache_path is not None and cache_path.exists():
        for pattern in load_patterns(cache_path):
            mined.setdefault((pattern.attr1, pattern.attr2), []).append(pattern)
        log.info("loaded %d cached pattern pairs from %s", len(mined), cache_path)
    found = {pair: tuple(patterns) for pair, patterns in mined.items()}
    for pair in pairs:
        if pair in found:
            continue
        try:
            found[pair] = memo.mine(table, pair)
        except ProviderError as exc:
            log.warning("pattern mining for %s failed: %s", pair, exc)
            found[pair] = ()
    if cache_path is not None:
        flat = [p for patterns in found.values() for p in patterns]
        flat.sort(key=lambda p: (p.attr1, p.attr2, -p.support, " ".join(p.context)))
        save_patterns(flat, cache_path)
    return found


def _extract_cell(
    cell: tuple[int, str],
    graph: SinkGraph,
    alternatives: list[dict],
    memo: SweepMemo,
    extractors: dict[tuple[str, str], Callable[[str], tuple[Pattern, str] | None]],
    dictionary: Dictionary,
) -> CellOutcome:
    row, attr = cell
    keywords = render_keywords(graph)
    base = dict(
        row=row,
        attr=attr,
        keyword_group=keywords,
        group_weight=graph.weight,
        alternatives=alternatives,
    )
    try:
        for source, known_value in zip(graph.source_attrs, graph.source_values):
            if (extract := extractors.get((source, attr))) is not None:
                if (fill := extract(known_value)) is not None:
                    pattern, value = fill
                    return CellOutcome(
                        outcome=FILLED_PATTERN,
                        value=value,
                        pattern=pattern.to_dict(),
                        **base,
                    )
        documents = memo.query(Query(tuple(keywords), memo.config.pages))
        value = extract_by_keywords(documents, keywords, dictionary)
        if value is not None:
            return CellOutcome(outcome=FILLED_KEYWORD, value=value, **base)
        return CellOutcome(outcome=ABSTAINED, reason="no extraction", **base)
    except ProviderError as exc:
        log.warning("provider failed for cell (%d, %s): %s", row, attr, exc)
        return CellOutcome(outcome=ABSTAINED, reason="provider error", **base)


def impute(
    table: Table,
    ruleset: RuleSet,
    config: RunConfig,
    provider: SearchProvider,
    memo: SweepMemo | None = None,
) -> tuple[Table, RunReport]:
    """Run the full flow and report one outcome per initially-missing cell.

    ``memo`` holds work shared with other runs on the same provider and
    configuration (see :class:`SweepMemo`); by default the run makes its own.
    """
    for named, attrs in [
        ("rules reference", ruleset.referenced_attrs()), ("dictionaries name", config.dictionaries)
    ]:
        if unknown := sorted(set(attrs) - set(table.columns)):
            raise ValueError(f"{named} attributes not in table: {', '.join(unknown)}")
    settings = asdict(config)
    if memo is None:
        memo = SweepMemo(provider, config)
    elif provider is not memo._provider or settings != memo._settings:
        raise ValueError("a SweepMemo serves only the provider and configuration it was made for")
    t_start = time.perf_counter()
    initial_missing = list(table.missing_cells())

    graph = build_dependency_graph(ruleset)
    internal_table, decisions = impute_internal(
        table, graph, config.bayes_threshold, config.max_rounds
    )
    t_internal = time.perf_counter()

    outcomes: dict[tuple[int, str], CellOutcome] = {}
    for decision in decisions:
        if decision.chosen is not None:
            outcomes[(decision.row, decision.attr)] = CellOutcome(
                decision.row, decision.attr, FILLED_INTERNAL, value=decision.chosen
            )

    # Keyword planning against the phase-1 snapshot.
    plans: dict[tuple[int, str], tuple[SinkGraph, list[dict]]] = {}
    for row, attr in initial_missing:
        if (row, attr) in outcomes:
            continue
        # the best 8 subgraphs: the first is the plan, all are its alternatives
        graphs = enumerate_single_sink_graphs(graph, internal_table, row, attr)
        best = select_optimal(graphs, config.group_threshold)
        alternatives = [{"weight": g.weight, "attrs": list(g.attrs)} for g in graphs]
        if best is None:
            reason = "below K" if graphs else "no feasible keyword group"
            outcomes[(row, attr)] = CellOutcome(
                row, attr, ABSTAINED, reason=reason, alternatives=alternatives
            )
        else:
            plans[(row, attr)] = (best, alternatives)

    dictionaries = {
        attr: memo.dictionary(internal_table, attr)
        for attr in dict.fromkeys(attr for _, attr in plans)
    }

    needed_pairs = sorted({
        (source, attr)
        for (_, attr), (best, _) in plans.items()
        for source in best.source_attrs
    })
    mined = _mine_needed_patterns(needed_pairs, internal_table, memo)
    extractors = {
        pair: memo.extractor(mined[pair], dictionaries[pair[1]])
        for pair in needed_pairs
        if mined[pair]
    }

    fills = []
    for cell, (best, alternatives) in plans.items():  # row-major, as initial_missing
        outcome = _extract_cell(cell, best, alternatives, memo, extractors, dictionaries[cell[1]])
        outcomes[cell] = outcome
        if outcome.value is not None:
            fills.append((outcome.row, outcome.attr, outcome.value))
    final = internal_table.with_cells(fills)

    if config.reiterate:
        refilled, extra_decisions = impute_internal(
            final, graph, config.bayes_threshold, max_rounds=1
        )
        for decision in extra_decisions:
            if decision.chosen is not None:
                final = refilled
                outcomes[(decision.row, decision.attr)] = CellOutcome(
                    decision.row,
                    decision.attr,
                    FILLED_INTERNAL,
                    value=decision.chosen,
                    reason="reiterate",
                )
                decisions.append(decision)

    t_end = time.perf_counter()
    ordered = [outcomes[cell] for cell in initial_missing]
    report = RunReport(
        table_name=table.name,
        initial_missing=len(initial_missing),
        outcomes=ordered,
        internal_decisions=decisions,
        config=settings,
        timings={
            "internal_s": t_internal - t_start,
            "web_s": t_end - t_internal,
            "total_s": t_end - t_start,
        },
    )
    return final, report
