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
from datetime import datetime, timedelta
from typing import Optional

from .errors import QuerySemanticError, QuerySyntaxError
from .model import (
    Answer,
    BoolAnswer,
    Detection,
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
from .store import HOUR_US, DAY_US, Store


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


@dataclass(frozen=True)
class _Token:
    kind: str  # string | ts | word | eq | eof
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stripped >= len(text):
                break
            raise QuerySyntaxError(stripped, "a token")
        for kind in ("string", "ts", "word", "eq"):
            val = m.group(kind)
            if val is not None:
                tokens.append(_Token(kind, val, m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
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

    def expect_word(self, *options: str) -> _Token:
        tok = self.next()
        if tok.kind != "word" or tok.text not in options:
            raise QuerySyntaxError(tok.pos, " or ".join(options))
        return tok

    def expect_string(self) -> str:
        tok = self.next()
        if tok.kind != "string":
            raise QuerySyntaxError(tok.pos, "a quoted string")
        value = tok.text[1:-1].lower()
        if not value:
            raise QuerySemanticError("labels must be non-empty")
        return value

    def expect_eq(self) -> None:
        tok = self.next()
        if tok.kind != "eq":
            raise QuerySyntaxError(tok.pos, "'='")

    def expect_ts(self) -> datetime:
        tok = self.next()
        if tok.kind != "ts":
            raise QuerySyntaxError(tok.pos, "an ISO-8601 timestamp")
        try:
            return ts_parse(tok.text)
        except ValueError:
            raise QuerySyntaxError(tok.pos, "a valid ISO-8601 timestamp") from None

    def field(self, name: str) -> str:
        self.expect_word(name)
        self.expect_eq()
        return self.expect_string()

    def entity(self) -> tuple[str, str]:
        tok = self.expect_word("object", "person")
        self.expect_eq()
        return tok.text, self.expect_string()

    def maybe_subject(self) -> Optional[str]:
        if self.peek().kind == "word" and self.peek().text == "subject":
            return self.field("subject")
        return None

    def time_range(self) -> TimeRange:
        self.expect_word("FROM")
        start = self.expect_ts()
        self.expect_word("TO")
        end = self.expect_ts()
        if start > end:
            raise QuerySemanticError("range start is after range end")
        return TimeRange(start, end)

    def eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise QuerySyntaxError(tok.pos, "end of query")


def parse_query(text: str) -> QueryAST:
    p = _Parser(text)
    head = p.expect_word("LAST_SEEN", "PRESENT", "DID", "DURATION", "WHERE_MOST")
    if head.text == "LAST_SEEN":
        kind, label = p.entity()
        ast: QueryAST = LastSeen(kind=kind, label=label)
    elif head.text == "PRESENT":
        kind, label = p.entity()
        ast = Present(kind=kind, label=label, range=p.time_range())
    elif head.text == "DID":
        act = p.field("activity")
        subj = p.maybe_subject()
        ast = Did(activity=act, subject=subj, range=p.time_range())
    elif head.text == "DURATION":
        act = p.field("activity")
        subj = p.maybe_subject()
        rng = p.time_range()
        bucket = None
        if p.peek().kind == "word" and p.peek().text == "BY":
            p.next()
            bucket = p.expect_word("hour", "day").text
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
class PlanStep:
    op: str
    label: Optional[str] = None
    kind: Optional[str] = None
    subject: Optional[str] = None
    activity: Optional[str] = None
    range: Optional[TimeRange] = None
    order: str = "asc"
    limit: Optional[int] = None


@dataclass(frozen=True)
class Plan:
    ast: QueryAST
    steps: tuple[PlanStep, ...]
    reducer: str  # latest | exists | sum_by_bucket | argmax_by_cell


def plan_query(ast: QueryAST) -> Plan:
    if isinstance(ast, LastSeen):
        return Plan(ast, (
            PlanStep("probe_label", label=ast.label, kind=ast.kind, order="desc", limit=1),
            PlanStep("track_lookup", label=ast.label),
        ), reducer="latest")
    if isinstance(ast, Present):
        return Plan(ast, (
            PlanStep("probe_label", label=ast.label, kind=ast.kind, range=ast.range),
            PlanStep("frame_coverage", range=ast.range),
        ), reducer="exists")
    steps = (
        PlanStep("activity_scan", activity=ast.activity, subject=ast.subject, range=ast.range),
        PlanStep("activity_summary_scan", activity=ast.activity, subject=ast.subject, range=ast.range),
        PlanStep("escalate_if_uncovered", activity=ast.activity, subject=ast.subject, range=ast.range),
    )
    if isinstance(ast, Did):
        return Plan(ast, steps, reducer="exists")
    if isinstance(ast, Duration):
        return Plan(ast, steps, reducer="sum_by_bucket")
    if isinstance(ast, WhereMost):
        return Plan(ast, steps, reducer="argmax_by_cell")
    raise TypeError(f"not a query AST: {ast!r}")


# ---------------------------------------------------------------------------
# executor

def _noisy_or(probs) -> float:
    miss = 1.0
    for p in probs:
        miss *= (1.0 - p)
    return min(max(1.0 - miss, 0.0), 1.0)


def _exec_last_seen(ast: LastSeen, store: Store, policy: RefinePolicy,
                    now: Optional[datetime]) -> Answer:
    hits = store.find_by_label(ast.label, order="desc", limit=1, kind=ast.kind)
    if not hits:
        return NotFound()
    hit = hits[0]
    if hit.coarse:
        return LocationAnswer(loc=hit.loc, ts=hit.ts, frame_id=hit.frame_id,
                              confidence=hit.detection.confidence, coarse=True)
    track = store.track_for(ast.label, hit.frame_id)
    if track is not None:
        anchor = now if now is not None else hit.ts
        return LocationAnswer(loc=track.loc, ts=hit.ts, frame_id=hit.frame_id,
                              confidence=existence_probability(track, anchor, policy))
    loc = observation_from_detection(hit.detection, hit.frame, policy)
    return LocationAnswer(loc=loc, ts=hit.ts, frame_id=hit.frame_id,
                          confidence=hit.detection.confidence)


def _exec_present(ast: Present, store: Store) -> Answer:
    hits = store.find_by_label(ast.label, rng=ast.range, kind=ast.kind)
    if hits:
        frames: set[int] = set()
        coarse = False
        for h in hits:
            if h.coarse:
                coarse = True
                frames.add(h.summary.first_frame)
                frames.add(h.summary.last_frame)
            else:
                frames.add(h.detection.frame_id)
        prob = _noisy_or(h.detection.confidence for h in hits)
        return BoolAnswer(value=True, prob=prob,
                          supporting_frames=tuple(sorted(frames)), coarse=coarse)
    if store.frames_in_range(ast.range):
        return BoolAnswer(value=False, prob=0.0, supporting_frames=())
    return NotFound()


def _bucket_start_us(ts_us: int, bucket: str) -> int:
    width = HOUR_US if bucket == "hour" else DAY_US
    return ts_us - ts_us % width


def _gather_activity(ast, store: Store):
    """Raw events plus summary rows for one activity query."""
    events = store.activities(name=ast.activity, subject=ast.subject, rng=ast.range)
    summaries = store.activity_summaries(name=ast.activity, subject=ast.subject, rng=ast.range)
    return events, summaries


def _summary_overlap_seconds(s, rng: TimeRange) -> float:
    """Clip a summary bucket's seconds to the query range, proportionally.

    Exact when the range covers whole buckets; an approximation otherwise,
    which is the price of having dropped the raw events."""
    width = HOUR_US if s.tier == "hourly" else DAY_US
    lo = max(s.bucket_us, ts_to_micros(rng.start))
    hi = min(s.bucket_us + width, ts_to_micros(rng.end))
    if hi <= lo:
        return 0.0
    return s.seconds * (hi - lo) / width


def _escalate(ast, store: Store, budget: int) -> NeedsReprocess:
    request = select_frames(store, predicate_label=ast.subject,
                            rng=ast.range, budget=budget, query=ast)
    return NeedsReprocess(request=request)


def _exec_did(ast: Did, store: Store, budget: int) -> Answer:
    events, summaries = _gather_activity(ast, store)
    if events or summaries:
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
    if store.is_covered(ast.subject, ast.activity, ast.range):
        return BoolAnswer(value=False, prob=0.0, supporting_frames=())
    return _escalate(ast, store, budget)


def _exec_duration(ast: Duration, store: Store, budget: int) -> Answer:
    events, summaries = _gather_activity(ast, store)
    if not events and not summaries:
        if store.is_covered(ast.subject, ast.activity, ast.range):
            return DurationAnswer(total_seconds=0.0)
        return _escalate(ast, store, budget)

    total = 0.0
    buckets: dict[int, float] = {}
    for e in events:
        lo = max(e.start, ast.range.start)
        hi = min(e.end, ast.range.end)
        if hi <= lo:
            continue
        total += (hi - lo).total_seconds()
        if ast.bucket:
            width = HOUR_US if ast.bucket == "hour" else DAY_US
            b = _bucket_start_us(ts_to_micros(lo), ast.bucket)
            while b < ts_to_micros(hi):
                seg_lo = max(ts_to_micros(lo), b)
                seg_hi = min(ts_to_micros(hi), b + width)
                buckets[b] = buckets.get(b, 0.0) + (seg_hi - seg_lo) / 1e6
                b += width
    for s in summaries:
        secs = _summary_overlap_seconds(s, ast.range)
        total += secs
        if ast.bucket and secs > 0:
            b = _bucket_start_us(s.bucket_us, ast.bucket)
            buckets[b] = buckets.get(b, 0.0) + secs
    per_bucket = tuple((ts_from_micros(b), buckets[b]) for b in sorted(buckets))
    return DurationAnswer(total_seconds=total, per_bucket=per_bucket,
                          coarse=bool(summaries))


def _exec_where_most(ast: WhereMost, store: Store, budget: int) -> Answer:
    events, summaries = _gather_activity(ast, store)
    if not events and not summaries:
        if store.is_covered(ast.subject, ast.activity, ast.range):
            return NotFound()
        return _escalate(ast, store, budget)

    cells: dict[tuple[int, int], float] = {}
    for e in events:
        if e.loc is None:
            continue
        secs = ast.range.overlap_seconds(e.start, e.end)
        if secs <= 0:
            continue
        cell = (math.floor(e.loc.mean[0]), math.floor(e.loc.mean[1]))
        cells[cell] = cells.get(cell, 0.0) + secs
    for s in summaries:
        if s.loc is None:
            continue
        secs = _summary_overlap_seconds(s, ast.range)
        if secs <= 0:
            continue
        cell = (math.floor(s.loc.mean[0]), math.floor(s.loc.mean[1]))
        cells[cell] = cells.get(cell, 0.0) + secs
    if not cells:
        return NotFound(coarse=bool(summaries))
    best = min(cells.items(), key=lambda kv: (-kv[1], kv[0]))
    (i, j), secs = best
    return PlaceAnswer(cell=(i, j), cell_center=(i + 0.5, j + 0.5), seconds=secs,
                       coarse=bool(summaries))


def execute_plan(plan: Plan, store: Store, policy: RefinePolicy = RefinePolicy(),
                 now: Optional[datetime] = None, budget: int = DEFAULT_BUDGET) -> Answer:
    ast = plan.ast
    if plan.reducer == "latest":
        return _exec_last_seen(ast, store, policy, now)
    if plan.reducer == "exists" and isinstance(ast, Present):
        return _exec_present(ast, store)
    if plan.reducer == "exists":
        return _exec_did(ast, store, budget)
    if plan.reducer == "sum_by_bucket":
        return _exec_duration(ast, store, budget)
    if plan.reducer == "argmax_by_cell":
        return _exec_where_most(ast, store, budget)
    raise ValueError(f"unknown reducer {plan.reducer}")


def run_query(text_or_ast, store: Store, policy: RefinePolicy = RefinePolicy(),
              now: Optional[datetime] = None, budget: int = DEFAULT_BUDGET) -> Answer:
    ast = parse_query(text_or_ast) if isinstance(text_or_ast, str) else text_or_ast
    return execute_plan(plan_query(ast), store, policy=policy, now=now, budget=budget)
