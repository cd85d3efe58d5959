"""End-to-end orchestration: mine negatives, flag positives, correct labels.

The three stages always execute in the same order; each can be toggled off,
in which case records pass through unchanged.  A run computes everything in
memory first and only then writes its outputs, each file atomically, so a
failed run leaves no partial dataset behind.  Wall-clock timings are kept
out of the report file and written to a separate sidecar, keeping report
bytes reproducible across runs.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from tripletclean.core import (
    DEFAULT_HEAD_MIN,
    DEFAULT_TAIL_MAX,
    Dataset,
    DatasetError,
    Part,
    atomic_write_text,
    dataset_to_text,
    jsonl_text,
    load_dataset,
    partition_predicates,
    read_json,
    read_jsonl,
    save_vocab,
)
from tripletclean.correction import (
    CorrectionConfig,
    CorrectionRecord,
    correct,
    ledger_to_text,
    load_ledger,  # noqa: F401  re-exported beside load_mined for eval
)
from tripletclean.density import (
    DensityConfig,
    DensityReport,
    density_report_to_text,
    detect_noisy_positives,
    load_flagged,  # noqa: F401  re-exported beside load_mined for eval
)
from tripletclean.negatives import (
    ConfidenceModel,
    MinerConfig,
    Promotions,
    detect_noisy_negatives,
    save_model,
    train,
)
from tripletclean.synthetic import SynthConfig

logger = logging.getLogger(__name__)

CLEANED_FILE = "cleaned.jsonl"
VOCAB_FILE = "vocab.json"
REPORT_FILE = "report.json"
MINED_FILE = "mined.jsonl"
DENSITY_FILE = "density_report.jsonl"
LEDGER_FILE = "correction_ledger.jsonl"
MODEL_FILE = "model.json"
TIMINGS_FILE = "timings.json"
# written by the synth command
DATA_FILE = "data.jsonl"
TRUTH_FILE = "truth.jsonl"


class PipelineError(Exception):
    """A stage failed; the message names the stage."""


@dataclass(frozen=True)
class IOConfig:
    """Where a run reads its dataset and writes its outputs."""

    input: str | None = None
    vocab: str | None = None
    out_dir: str = "out"


@dataclass(frozen=True)
class PartitionConfig:
    """Training-count boundaries of the head/body/tail predicate bands."""

    head_min: int = DEFAULT_HEAD_MIN
    tail_max: int = DEFAULT_TAIL_MAX


@dataclass(frozen=True)
class StagesConfig:
    """Which stages run; a stage turned off passes its records through."""

    neg_nsd: bool = True
    pos_nsd: bool = True
    nsc: bool = True

    def __post_init__(self):
        if not (self.neg_nsd or self.pos_nsd or self.nsc):
            logger.warning("all stages disabled; run will re-serialize the input")


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved settings for one cleaning run, shaped like the config file:
    ``config.stages.nsc`` is the setting at JSON path ``stages.nsc``."""

    io: IOConfig = field(default_factory=IOConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    seed: int = 0
    stages: StagesConfig = field(default_factory=StagesConfig)
    neg_nsd: MinerConfig = field(default_factory=MinerConfig)
    pos_nsd: DensityConfig = field(default_factory=DensityConfig)
    nsc: CorrectionConfig = field(default_factory=CorrectionConfig)
    synth: SynthConfig | None = None

    def __post_init__(self):
        # a stage seed set in the file does not take the global one, so
        # check the global seed here, not only where a stage copies it
        if self.seed < 0:
            raise DatasetError(f"seed must be non-negative, got {self.seed}")


# dataclass field -> JSON key, where the two differ
JSON_NAMES = {"lam": "lambda"}
# the JSON values each annotated type accepts, named as errors name them
JSON_KINDS = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    tuple: ((list, tuple), "a list"),
}


def _coerce(value: Any, tp: Any, where: str) -> Any:
    """Check one JSON value against a field annotation and convert it.

    A dataclass reads an object holding only its fields' JSON names; map
    keys are parsed from their JSON strings into parts or ints; a boolean
    never passes as a number, nor a number as a boolean, and a number must
    be finite (``json`` reads ``NaN`` and ``Infinity``).
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _coerce(value, inner, where)
    accepted, kind = JSON_KINDS[dict if is_dataclass(tp) else origin or tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise DatasetError(f"{where} must be {kind}, got {value!r}")
    if is_dataclass(tp):
        names = {JSON_NAMES.get(f.name, f.name): f.name for f in fields(tp)}
        unknown = set(value) - set(names)
        if unknown:
            raise DatasetError(f"unknown keys in {where}: {sorted(unknown)}")
        hints = get_type_hints(tp)
        # the file's top-level keys are named bare in errors
        path = lambda key: key if tp is PipelineConfig else f"{where}.{key}"
        kwargs = {names[k]: _coerce(v, hints[names[k]], path(k)) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except DatasetError as exc:  # a section's own check names the section
            raise exc if tp is PipelineConfig else DatasetError(f"{where}: {exc}") from None
    if origin is tuple:
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise DatasetError(f"{where} must have {len(args)} items, got {value!r}")
        return tuple(
            _coerce(v, t, f"{where}[{i}]")
            for i, (v, t) in enumerate(zip(value, item_types))
        )
    if origin is dict:
        key_tp, value_tp = args
        try:
            return {
                key_tp(k): _coerce(v, value_tp, f"{where}.{k}") for k, v in value.items()
            }
        except ValueError:
            keys = " or ".join(repr(p.value) for p in Part) if key_tp is Part else "integers"
            raise DatasetError(f"{where} keys must be {keys}: {sorted(value)}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise DatasetError(f"{where} must be a finite number, got {value!r}")
    return tp(value)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a validated config from the config file's JSON tree.

    Keys and value types come from the fields of ``PipelineConfig`` and of
    the dataclasses it nests.  A stage seed left unset takes the global seed.
    """
    config = _coerce(raw, PipelineConfig, "config")
    seeded = {
        name: replace(getattr(config, name), seed=config.seed)
        for name in ("neg_nsd", "synth")
        if getattr(config, name) is not None and "seed" not in raw.get(name, {})
    }
    return replace(config, **seeded)


def load_config(path: str) -> PipelineConfig:
    return config_from_dict(read_json(path, "config"))


def _to_json(value: Any) -> Any:
    if is_dataclass(value):
        return {
            JSON_NAMES.get(f.name, f.name): _to_json(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, dict):
        return {
            k.value if isinstance(k, Part) else str(k): _to_json(v)
            for k, v in value.items()
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(config: PipelineConfig) -> dict:
    """Canonical nested form, also used as the report's config echo.

    Only ``synth`` can be None at the top level; it is then left out.
    """
    return {key: value for key, value in _to_json(config).items() if value is not None}


def _banded(dataset: Dataset, config: PipelineConfig) -> Dataset:
    """``dataset`` with its head/body/tail bands drawn by ``config.partition``."""
    bands = partition_predicates(dataset.labels, len(dataset.vocab), **asdict(config.partition))
    return replace(dataset, partition=bands)


def load_input(config: PipelineConfig) -> Dataset:
    """The dataset that ``config.io`` names, banded by ``config.partition``."""
    if config.io.input is None:
        raise DatasetError("no dataset given: set io.input in the config")
    return _banded(load_dataset(config.io.input, config.io.vocab), config)


@dataclass(frozen=True)
class CleaningReport:
    """Record-count bookkeeping for one run; identities hold by construction."""

    total: int
    positives: int
    negatives: int
    mined_negatives: int
    kept_negatives: int
    composed: int
    flagged: int
    unflagged: int
    relabeled: int
    kept_flagged: int
    config_echo: dict
    artifacts: dict[str, str]

    def validate(self) -> None:
        checks = (
            self.composed == self.positives + self.mined_negatives,
            self.flagged + self.unflagged == self.composed,
            self.relabeled + self.kept_flagged == self.flagged,
            self.total == self.unflagged + self.flagged + self.kept_negatives,
        )
        if not all(checks):
            raise PipelineError(f"report identities violated: {self.counts()}")

    def counts(self) -> dict[str, int]:
        """Every field but the config echo and the artifacts listing."""
        skip = ("config_echo", "artifacts")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}

    def to_text(self) -> str:
        payload = {
            "counts": self.counts(),
            "config": self.config_echo,
            "artifacts": self.artifacts,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class RunResult:
    """A run's cleaned dataset and audit trail.

    Promoted rows carry pseudo labels in ``dataset``; a flagged row was
    corrected when its ledger entry is ``changed`` and kept otherwise.
    """

    dataset: Dataset
    report: CleaningReport
    model: ConfidenceModel | None
    promoted: Promotions
    density: DensityReport
    ledger: tuple[CorrectionRecord, ...]
    timings: dict[str, float]

    @property
    def mined(self) -> dict[str, str]:
        """Promoted negative id -> pseudo label name."""
        names, ids = self.dataset.vocab.names, self.dataset.ids
        rows, labels = self.promoted.rows.tolist(), self.promoted.labels.tolist()
        return {ids[r]: names[k] for r, k in zip(rows, labels)}


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time one stage into ``timings``; a failure names the stage and stays a
    DatasetError when the input was invalid, else becomes a PipelineError."""
    t0 = time.perf_counter()
    try:
        yield
    except DatasetError as exc:
        raise DatasetError(f"{name}: {exc}") from exc
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc
    timings[name] = time.perf_counter() - t0


def run(config: PipelineConfig, dataset: Dataset | None = None) -> RunResult:
    """Execute the enabled stages on the input and report set sizes.

    A given dataset is re-banded by ``config.partition``, like a loaded
    one.  Nothing touches the filesystem here; use :func:`write_outputs`
    for persistence.  A stage failure names the stage: invalid input raises
    DatasetError, anything else PipelineError.
    """
    dataset = load_input(config) if dataset is None else _banded(dataset, config)

    timings: dict[str, float] = {}
    started = time.perf_counter()
    positives = dataset.positives()
    negatives = dataset.negatives()

    model: ConfidenceModel | None = None
    promoted = Promotions(negatives[:0], negatives[:0], np.empty(0))
    if config.stages.neg_nsd and negatives.size:
        with _stage("neg_nsd", timings):
            model = train(dataset, positives, config.neg_nsd)
            promoted = detect_noisy_negatives(model, negatives, dataset, config.neg_nsd)

    labels = dataset.labels.copy()
    labels[promoted.rows] = promoted.labels
    working = replace(dataset, labels=labels)
    # annotated positives in row order, then the promoted rows in id order
    composed = np.concatenate([positives, promoted.rows])

    if config.stages.pos_nsd:
        with _stage("pos_nsd", timings):
            density = detect_noisy_positives(working, composed, config.pos_nsd)
    else:
        density = DensityReport((), composed[:0], composed, working.ids)

    ledger: tuple[CorrectionRecord, ...] = ()
    if config.stages.nsc:
        with _stage("nsc", timings):
            working, ledger = correct(
                density.noisy_rows, working, density.clean_rows, config.nsc
            )

    timings["total"] = time.perf_counter() - started

    relabeled = sum(1 for entry in ledger if entry.changed)
    report = CleaningReport(
        total=len(dataset),
        positives=len(positives),
        negatives=len(negatives),
        mined_negatives=len(promoted.rows),
        kept_negatives=len(negatives) - len(promoted.rows),
        composed=len(composed),
        flagged=len(density.noisy_rows),
        unflagged=len(density.clean_rows),
        relabeled=relabeled,
        kept_flagged=len(density.noisy_rows) - relabeled,
        config_echo=config_to_dict(config),
        artifacts={
            "cleaned": CLEANED_FILE,
            "vocab": VOCAB_FILE,
            "mined": MINED_FILE,
            "density_report": DENSITY_FILE,
            "correction_ledger": LEDGER_FILE,
            "model": MODEL_FILE if model is not None else "",
            "timings": TIMINGS_FILE,
        },
    )
    report.validate()
    return RunResult(
        dataset=working,
        report=report,
        model=model,
        promoted=promoted,
        density=density,
        ledger=ledger,
        timings=timings,
    )


def mined_to_text(promoted: Promotions, dataset: Dataset) -> str:
    """Promoted negatives in id order: pseudo label name and confidence."""
    names = dataset.vocab.names
    return jsonl_text(
        {"id": dataset.ids[row], "predicate": names[label], "confidence": confidence}
        for row, label, confidence in zip(
            promoted.rows.tolist(), promoted.labels.tolist(), promoted.confidence.tolist()
        )
    )


def load_mined(path: str) -> dict[str, str]:
    """Promoted negative id -> pseudo label name, from a mined file."""
    rows = read_jsonl(path, {"id": str, "predicate": str})
    return {row["id"]: row["predicate"] for _, row in rows}


def write_outputs(result: RunResult, out_dir: str) -> None:
    """Persist the run; every file lands atomically, timings separately."""
    join = lambda name: os.path.join(out_dir, name)
    atomic_write_text(join(CLEANED_FILE), dataset_to_text(result.dataset))
    save_vocab(result.dataset.vocab.names, join(VOCAB_FILE))
    atomic_write_text(join(REPORT_FILE), result.report.to_text())
    atomic_write_text(join(MINED_FILE), mined_to_text(result.promoted, result.dataset))
    atomic_write_text(join(DENSITY_FILE), density_report_to_text(result.density))
    atomic_write_text(join(LEDGER_FILE), ledger_to_text(result.ledger))
    if result.model is not None:
        save_model(result.model, join(MODEL_FILE))
    atomic_write_text(
        join(TIMINGS_FILE), json.dumps(result.timings, sort_keys=True) + "\n"
    )
    logger.info("outputs written to %s", out_dir)

