"""Embedded long-term robot memory engine.

Ingests per-frame perception records, stores them compactly with temporal and
label indexes, refines object/person location and presence estimates in the
background, and answers spatiotemporal queries, escalating to a bounded frame
reprocessing request when the stored data cannot answer.
"""

from .errors import (
    CorruptSegment,
    InvalidRecord,
    MigrationConflict,
    OutOfOrderFrame,
    ParseError,
    QuerySemanticError,
    QuerySyntaxError,
    ReprocessorFailure,
    RoboMemError,
)
from .ingest import IngestReport, ingest_stream, parse_feed_line, read_feed, write_feed
from .model import (
    ActivityEvent,
    Answer,
    BoolAnswer,
    Detection,
    Did,
    Duration,
    DurationAnswer,
    FrameMeta,
    LastSeen,
    LocationAnswer,
    LocationEstimate,
    NeedsReprocess,
    NotFound,
    PlaceAnswer,
    Pose,
    Present,
    QueryAST,
    ReprocessRequest,
    TimeRange,
    Track,
    WhereMost,
    answer_to_json,
    validate_record,
)
from .query import execute_plan, format_query, parse_query, plan_query, run_query
from .refine import (
    RefinePolicy,
    RefinementReport,
    existence_probability,
    fuse,
    observation_from_detection,
    run_refinement_pass,
)
from .reprocess import OracleReprocessor, ReprocessReport, run_reprocess, select_frames
from .scenario import ActivitySpec, GroundTruth, ScenarioConfig, generate_scenario
from .store import Store, StoreStats, TierPolicy

__version__ = "0.1.0"
