"""Query DSL: parse -> plan -> execute.

Grammar (whitespace-separated, keywords upper-case, field names lower-case):

    query    := lastseen | present | did | duration | wheremost
    lastseen := "LAST_SEEN" entity
    present  := "PRESENT" entity range
    did      := "DID" act [subj] range
    duration := "DURATION" act [subj] range ["BY" ("hour"|"day")]
    wheremost:= "WHERE_MOST" act [subj] range
    entity   := ("object"|"person") "=" STRING
    act      := "activity" "=" STRING
    subj     := "subject" "=" STRING
    range    := "FROM" ISO8601 "TO" ISO8601

Execution is a pure read. Answers derived from warm/cold summaries carry
coarse=True. Activity queries that find no records over a range that was
never analyzed come back as NeedsReprocess rather than a silent "no".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Optional

from .errors import QuerySemanticError, QuerySyntaxError
from .model import (
    Answer,
    BoolAnswer,
    Did,
    Duration,
    DurationAnswer,
    LastSeen,
    LocationAnswer,
    NeedsReprocess,
    NotFound,
    PlaceAnswer,
    Present,
    QueryAST,
    TimeRange,
    WhereMost,
    ts_format,
    ts_parse,
    ts_to_micros,
    ts_from_micros,
)
from .refine import RefinePolicy, existence_probability, observation_from_detection
from .reprocess import DEFAULT_BUDGET, select_frames
from .store import DAY_US, HOUR_US, Store, bucket_seconds


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"[^"]*")
      | (?P<ts>\d{4}-\d{2}-\d{2}[0-9T:.+\-Z]*)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<eq>=)
    )""",
    re.VERBOSE,
)


# a token is a (kind, text, pos) tuple; kind is string | ts | word | eq | eof
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    match = _TOKEN_RE.match
    while pos < len(text):
        m = match(text, pos)
        if m is None or m.end() == pos:
            stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise QuerySyntaxError(stripped, "a token")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_word(self, *options: str) -> str:
        kind, text, pos = self.next()
        if kind != "word" or text not in options:
            raise QuerySyntaxError(pos, " or ".join(options))
        return text

    def expect_string(self) -> str:
        kind, text, pos = self.next()
        if kind != "string":
            raise QuerySyntaxError(pos, "a quoted string")
        value = text[1:-1].lower()
        if not value:
            raise QuerySemanticError("labels must be non-empty")
        return value

    def expect_eq(self) -> None:
        kind, _text, pos = self.next()
        if kind != "eq":
            raise QuerySyntaxError(pos, "'='")

    def expect_ts(self) -> datetime:
        kind, text, pos = self.next()
        if kind != "ts":
            raise QuerySyntaxError(pos, "an ISO-8601 timestamp")
        try:
            return ts_parse(text)
        except ValueError:
            raise QuerySyntaxError(pos, "a valid ISO-8601 timestamp") from None

    def field(self, name: str) -> str:
        self.expect_word(name)
        self.expect_eq()
        return self.expect_string()

    def entity(self) -> tuple[str, str]:
        kind = self.expect_word("object", "person")
        self.expect_eq()
        return kind, self.expect_string()

    def at_word(self, word: str) -> bool:
        return self.peek()[:2] == ("word", word)

    def maybe_subject(self) -> Optional[str]:
        return self.field("subject") if self.at_word("subject") else None

    def time_range(self) -> TimeRange:
        self.expect_word("FROM")
        start = self.expect_ts()
        self.expect_word("TO")
        end = self.expect_ts()
        if start > end:
            raise QuerySemanticError("range start is after range end")
        return TimeRange(start, end)

    def eof(self) -> None:
        kind, _text, pos = self.peek()
        if kind != "eof":
            raise QuerySyntaxError(pos, "end of query")


def parse_query(text: str) -> QueryAST:
    p = _Parser(text)
    head = p.expect_word("LAST_SEEN", "PRESENT", "DID", "DURATION", "WHERE_MOST")
    if head == "LAST_SEEN":
        kind, label = p.entity()
        ast: QueryAST = LastSeen(kind=kind, label=label)
    elif head == "PRESENT":
        kind, label = p.entity()
        ast = Present(kind=kind, label=label, range=p.time_range())
    elif head == "DID":
        act = p.field("activity")
        subj = p.maybe_subject()
        ast = Did(activity=act, subject=subj, range=p.time_range())
    elif head == "DURATION":
        act = p.field("activity")
        subj = p.maybe_subject()
        rng = p.time_range()
        bucket = None
        if p.at_word("BY"):
            p.next()
            bucket = p.expect_word("hour", "day")
        ast = Duration(activity=act, subject=subj, range=rng, bucket=bucket)
    else:
        act = p.field("activity")
        subj = p.maybe_subject()
        ast = WhereMost(activity=act, subject=subj, range=p.time_range())
    p.eof()
    return ast


def format_query(ast: QueryAST) -> str:
    """Canonical DSL text; parse(format_query(ast)) == ast."""
    def rng(r: TimeRange) -> str:
        return f"FROM {ts_format(r.start)} TO {ts_format(r.end)}"

    def subj(s: Optional[str]) -> str:
        return f' subject="{s}"' if s is not None else ""

    if isinstance(ast, LastSeen):
        return f'LAST_SEEN {ast.kind}="{ast.label}"'
    if isinstance(ast, Present):
        return f'PRESENT {ast.kind}="{ast.label}" {rng(ast.range)}'
    if isinstance(ast, Did):
        return f'DID activity="{ast.activity}"{subj(ast.subject)} {rng(ast.range)}'
    if isinstance(ast, Duration):
        by = f" BY {ast.bucket}" if ast.bucket else ""
        return f'DURATION activity="{ast.activity}"{subj(ast.subject)} {rng(ast.range)}{by}'
    if isinstance(ast, WhereMost):
        return f'WHERE_MOST activity="{ast.activity}"{subj(ast.subject)} {rng(ast.range)}'
    raise TypeError(f"not a query AST: {ast!r}")


# ---------------------------------------------------------------------------
# planner

@dataclass(frozen=True)
class Plan:
    """A parsed query and the executor for its AST type."""
    ast: QueryAST
    executor: Callable[..., Answer]


def plan_query(ast: QueryAST) -> Plan:
    executor = _EXECUTORS.get(type(ast))
    if executor is None:
        raise TypeError(f"not a query AST: {ast!r}")
    return Plan(ast, executor)


# ---------------------------------------------------------------------------
# executors: one per AST type, each called as (ast, store, policy, now, budget)

def _noisy_or(probs) -> float:
    miss = 1.0
    for p in probs:
        miss *= (1.0 - p)
    return min(max(1.0 - miss, 0.0), 1.0)


def _exec_last_seen(ast: LastSeen, store: Store, policy: RefinePolicy,
                    now: Optional[datetime], _budget: int) -> Answer:
    hits = store.find_by_label(ast.label, order="desc", limit=1, kind=ast.kind)
    if not hits:
        return NotFound()
    hit = hits[0]
    if hit.coarse:
        return LocationAnswer(loc=hit.loc, ts=hit.ts, frame_id=hit.frame_id,
                              confidence=hit.confidence, coarse=True)
    track = store.track_for(ast.label, ast.kind, hit.frame_id)
    if track is not None:
        anchor = now if now is not None else hit.ts
        return LocationAnswer(loc=track.loc, ts=hit.ts, frame_id=hit.frame_id,
                              confidence=existence_probability(track, anchor, policy))
    loc = observation_from_detection(hit.detection, hit.frame, policy)
    return LocationAnswer(loc=loc, ts=hit.ts, frame_id=hit.frame_id,
                          confidence=hit.confidence)


def _exec_present(ast: Present, store: Store, *_) -> Answer:
    hits = store.find_by_label(ast.label, rng=ast.range, kind=ast.kind)
    if hits:
        frames = {f for h in hits for f in h.frame_ids}
        prob = _noisy_or(h.confidence for h in hits)
        return BoolAnswer(value=True, prob=prob, supporting_frames=tuple(sorted(frames)),
                          coarse=any(h.coarse for h in hits))
    if store.frames_in_range(ast.range):
        return BoolAnswer(value=False, prob=0.0, supporting_frames=())
    return NotFound()


def _activity_executor(reduce, none: Answer):
    """The executor of one activity question type.

    It gathers the raw events and summary rows that meet the range and
    reduces them. With neither, a range that was analyzed answers `none`; one
    that never was asks for frames to reprocess rather than a silent "no"."""
    def execute(ast, store: Store, _policy, _now, budget: int) -> Answer:
        events = store.activities(name=ast.activity, subject=ast.subject, rng=ast.range)
        summaries = store.activity_summaries(name=ast.activity, subject=ast.subject,
                                             rng=ast.range)
        if events or summaries:
            return reduce(ast, store, events, summaries)
        if store.is_covered(ast.subject, ast.activity, ast.range):
            return none
        return NeedsReprocess(request=select_frames(
            store, predicate_label=ast.subject, rng=ast.range, budget=budget, query=ast))
    return execute


def _summary_overlap_seconds(s, rng: TimeRange) -> float:
    """Clip a summary bucket's seconds to the query range, proportionally.

    Exact when the range covers whole buckets; an approximation otherwise,
    which is the price of having dropped the raw events."""
    lo = max(s.bucket_us, ts_to_micros(rng.start))
    hi = min(s.bucket_us + s.width_us, ts_to_micros(rng.end))
    if hi <= lo:
        return 0.0
    return s.seconds * (hi - lo) / s.width_us


def _reduce_did(ast: Did, store: Store, events, summaries) -> Answer:
    total = sum(ast.range.overlap_seconds(e.start, e.end) for e in events)
    total += sum(_summary_overlap_seconds(s, ast.range) for s in summaries)
    frames: set[int] = set()
    for e in events:
        lo = max(e.start, ast.range.start)
        hi = min(e.end, ast.range.end)
        if lo <= hi:
            frames.update(store.frames_in_range(TimeRange(lo, hi)))
    prob = max([e.prob for e in events] + [s.prob for s in summaries])
    return BoolAnswer(value=total > 0, prob=prob if total > 0 else 0.0,
                      supporting_frames=tuple(sorted(frames)),
                      coarse=bool(summaries))


def _reduce_duration(ast: Duration, _store, events, summaries) -> Answer:
    total = 0.0
    buckets: dict[int, float] = {}
    width = HOUR_US if ast.bucket == "hour" else DAY_US
    for e in events:
        lo = max(e.start, ast.range.start)
        hi = min(e.end, ast.range.end)
        if hi <= lo:
            continue
        total += (hi - lo).total_seconds()
        if ast.bucket:
            for b, secs in bucket_seconds(ts_to_micros(lo), ts_to_micros(hi), width):
                buckets[b] = buckets.get(b, 0.0) + secs
    for s in summaries:
        secs = _summary_overlap_seconds(s, ast.range)
        total += secs
        if ast.bucket and secs > 0:
            b = s.bucket_us - s.bucket_us % width
            buckets[b] = buckets.get(b, 0.0) + secs
    per_bucket = tuple((ts_from_micros(b), buckets[b]) for b in sorted(buckets))
    return DurationAnswer(total_seconds=total, per_bucket=per_bucket,
                          coarse=bool(summaries))


def _reduce_where_most(ast: WhereMost, _store, events, summaries) -> Answer:
    parts = [(e.loc, ast.range.overlap_seconds(e.start, e.end)) for e in events]
    parts += [(s.loc, _summary_overlap_seconds(s, ast.range)) for s in summaries]
    cells: dict[tuple[int, int], float] = {}
    for loc, secs in parts:
        if loc is None or secs <= 0:
            continue
        cell = (math.floor(loc.mean[0]), math.floor(loc.mean[1]))
        cells[cell] = cells.get(cell, 0.0) + secs
    if not cells:
        return NotFound(coarse=bool(summaries))
    best = min(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    (i, j), secs = best
    return PlaceAnswer(cell=(i, j), cell_center=(i + 0.5, j + 0.5), seconds=secs,
                       coarse=bool(summaries))


_EXECUTORS = {
    LastSeen: _exec_last_seen,
    Present: _exec_present,
    Did: _activity_executor(_reduce_did, BoolAnswer(value=False, prob=0.0, supporting_frames=())),
    Duration: _activity_executor(_reduce_duration, DurationAnswer(total_seconds=0.0)),
    WhereMost: _activity_executor(_reduce_where_most, NotFound()),
}


def execute_plan(plan: Plan, store: Store, policy: RefinePolicy = RefinePolicy(),
                 now: Optional[datetime] = None, budget: int = DEFAULT_BUDGET) -> Answer:
    return plan.executor(plan.ast, store, policy, now, budget)


def run_query(text_or_ast, store: Store, policy: RefinePolicy = RefinePolicy(),
              now: Optional[datetime] = None, budget: int = DEFAULT_BUDGET) -> Answer:
    ast = parse_query(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    return execute_plan(plan_query(ast), store, policy=policy, now=now, budget=budget)
