"""Synthetic scenario generator.

Stands in for the robot's perception stack in tests and benchmarks: a robot
random-walks a rectangular world, static objects and wandering persons become
detections whenever they are within visibility range, thinned by a recall
knob and corrupted by a label-noise knob. Everything is deterministic in the
seed, and the generator also returns the ground truth so tests can score
engine answers against reality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from typing import Optional

from .model import (
    OBJECT,
    PERSON,
    ActivityEvent,
    Detection,
    FeedRecord,
    FrameMeta,
    LocationEstimate,
    Pose,
    TimeRange,
)

OBJECT_LABELS = ("remote", "cup", "book", "plant", "keys", "picture", "phone", "bottle")
PERSON_LABELS = ("ifrah", "steve", "dad", "grandson", "patient")

DEFAULT_START = datetime(2019, 6, 1, 0, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class ActivitySpec:
    subject: str
    name: str
    start_min: float
    end_min: float
    location: tuple[float, float]


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration_minutes: float = 5.0
    fps: float = 6.0
    world: tuple[float, float] = (12.0, 10.0)
    n_objects: int = 4
    n_persons: int = 2
    detection_recall: float = 0.9
    label_noise: float = 0.0
    visibility_radius_m: float = 2.0
    activity_schedule: tuple[ActivitySpec, ...] = ()
    include_activity_records: bool = False
    start_time: datetime = DEFAULT_START

    def validate(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.duration_minutes <= 0:
            raise ValueError("duration_minutes must be positive")
        for name in ("detection_recall", "label_noise"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if self.n_objects > len(OBJECT_LABELS) or self.n_persons > len(PERSON_LABELS):
            raise ValueError("not enough distinct labels for requested entity count")

    @property
    def frame_count(self) -> int:
        return round(self.duration_minutes * 60.0 * self.fps)

    @property
    def frame_period(self) -> timedelta:
        return timedelta(microseconds=round(1e6 / self.fps))


@dataclass
class GroundTruth:
    config: ScenarioConfig
    frame_ts: list[datetime]
    robot_path: list[tuple[float, float, float]]  # (x, y, yaw)
    object_positions: dict[str, tuple[float, float]]
    person_paths: dict[str, list[tuple[float, float]]]
    visibility: list[list[tuple[str, str]]]       # per frame: (kind, label)
    activities: list[ActivityEvent] = field(default_factory=list)

    def range(self) -> TimeRange:
        return TimeRange(self.frame_ts[0], self.frame_ts[-1])


class _Walker:
    """Bounded random walk with per-step heading jitter."""

    def __init__(self, rng: random.Random, world: tuple[float, float], step: float):
        self.world = world
        self.step = step
        self.x = rng.uniform(0.5, world[0] - 0.5)
        self.y = rng.uniform(0.5, world[1] - 0.5)
        self.heading = rng.uniform(-math.pi, math.pi)

    def advance(self, rng: random.Random) -> None:
        self.heading += rng.uniform(-0.5, 0.5)
        nx = self.x + self.step * math.cos(self.heading)
        ny = self.y + self.step * math.sin(self.heading)
        if not 0.2 <= nx <= self.world[0] - 0.2:
            self.heading = math.pi - self.heading
            nx = self.x
        if not 0.2 <= ny <= self.world[1] - 0.2:
            self.heading = -self.heading
            ny = self.y
        self.x, self.y = nx, ny


def _corrupt_label(rng: random.Random, label: str, pool: tuple[str, ...]) -> str:
    others = [l for l in pool if l != label]
    return rng.choice(others) if others else label


def generate_scenario(cfg: ScenarioConfig) -> tuple[GroundTruth, list[FeedRecord]]:
    """Build (ground truth, feed records) deterministically from cfg.seed."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    objects = {
        OBJECT_LABELS[i]: (rng.uniform(0.5, cfg.world[0] - 0.5),
                           rng.uniform(0.5, cfg.world[1] - 0.5))
        for i in range(cfg.n_objects)
    }
    persons = {PERSON_LABELS[i]: _Walker(rng, cfg.world, step=0.15)
               for i in range(cfg.n_persons)}
    robot = _Walker(rng, cfg.world, step=0.25)

    activities = [
        ActivityEvent(
            subject=spec.subject, name=spec.name,
            start=cfg.start_time + timedelta(minutes=spec.start_min),
            end=cfg.start_time + timedelta(minutes=spec.end_min),
            loc=LocationEstimate(mean=spec.location, cov=((1.0, 0.0), (0.0, 1.0))),
            prob=1.0,
        )
        for spec in cfg.activity_schedule
    ]

    gt = GroundTruth(
        config=cfg, frame_ts=[], robot_path=[],
        object_positions=objects,
        person_paths={label: [] for label in persons},
        visibility=[], activities=activities,
    )

    records: list[FeedRecord] = []
    r2 = cfg.visibility_radius_m ** 2
    for f in range(cfg.frame_count):
        ts = cfg.start_time + f * cfg.frame_period
        gt.frame_ts.append(ts)
        gt.robot_path.append((robot.x, robot.y, math.degrees(robot.heading)))
        yaw = math.degrees(robot.heading)
        yaw = (yaw + 180.0) % 360.0 - 180.0
        records.append(FrameMeta(
            frame_id=f, ts=ts,
            pose=Pose(x=robot.x, y=robot.y, z=0.0, roll=0.0, pitch=0.0, yaw=yaw),
        ))

        visible: list[tuple[str, str]] = []
        for label, (ox, oy) in objects.items():
            if (ox - robot.x) ** 2 + (oy - robot.y) ** 2 <= r2:
                visible.append((OBJECT, label))
        for label, w in persons.items():
            gt.person_paths[label].append((w.x, w.y))
            if (w.x - robot.x) ** 2 + (w.y - robot.y) ** 2 <= r2:
                visible.append((PERSON, label))
        gt.visibility.append(visible)

        for kind, label in visible:
            if rng.random() >= cfg.detection_recall:
                continue
            emitted = label
            if cfg.label_noise > 0 and rng.random() < cfg.label_noise:
                pool = OBJECT_LABELS if kind == OBJECT else PERSON_LABELS
                emitted = _corrupt_label(rng, label, pool)
            conf = round(rng.uniform(0.6, 1.0), 3)
            records.append(Detection(frame_id=f, label=emitted, kind=kind, confidence=conf))

        robot.advance(rng)
        for w in persons.values():
            w.advance(rng)

    if cfg.include_activity_records:
        records.extend(activities)
    return gt, records


# ---------------------------------------------------------------------------
# ground-truth (de)serialization, so `gen` can hand the oracle to later runs

def config_to_json(cfg: ScenarioConfig) -> dict:
    return {
        "seed": cfg.seed,
        "duration_minutes": cfg.duration_minutes,
        "fps": cfg.fps,
        "world": list(cfg.world),
        "n_objects": cfg.n_objects,
        "n_persons": cfg.n_persons,
        "detection_recall": cfg.detection_recall,
        "label_noise": cfg.label_noise,
        "visibility_radius_m": cfg.visibility_radius_m,
        "activity_schedule": [
            {"subject": s.subject, "name": s.name, "start_min": s.start_min,
             "end_min": s.end_min, "location": list(s.location)}
            for s in cfg.activity_schedule
        ],
        "include_activity_records": cfg.include_activity_records,
        "start_time": cfg.start_time.isoformat(),
    }


def config_from_json(d: dict) -> ScenarioConfig:
    return ScenarioConfig(
        seed=d["seed"],
        duration_minutes=d["duration_minutes"],
        fps=d["fps"],
        world=tuple(d["world"]),
        n_objects=d["n_objects"],
        n_persons=d["n_persons"],
        detection_recall=d["detection_recall"],
        label_noise=d["label_noise"],
        visibility_radius_m=d["visibility_radius_m"],
        activity_schedule=tuple(
            ActivitySpec(subject=s["subject"], name=s["name"], start_min=s["start_min"],
                         end_min=s["end_min"], location=tuple(s["location"]))
            for s in d["activity_schedule"]
        ),
        include_activity_records=d["include_activity_records"],
        start_time=datetime.fromisoformat(d["start_time"]),
    )


def regenerate_truth(cfg: ScenarioConfig) -> GroundTruth:
    """Ground truth is a pure function of the config; rebuild it on demand."""
    gt, _records = generate_scenario(cfg)
    return gt
