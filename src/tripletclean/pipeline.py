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
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from types import UnionType
from typing import Any, Mapping, Union, get_args, get_origin, get_type_hints

from tripletclean.core import (
    DEFAULT_HEAD_MIN,
    DEFAULT_TAIL_MAX,
    Dataset,
    DatasetError,
    LabelState,
    Part,
    TripletRecord,
    atomic_write_text,
    compose_positive_set,
    dataset_to_text,
    jsonl_text,
    load_dataset,
    read_json,
    read_jsonl,
    record_to_dict,
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
class PipelineConfig:
    """Resolved settings for one cleaning run."""

    input_path: str | None = None
    vocab_path: str | None = None
    out_dir: str = "out"
    head_min: int = DEFAULT_HEAD_MIN
    tail_max: int = DEFAULT_TAIL_MAX
    seed: int = 0
    enable_neg: bool = True
    enable_pos: bool = True
    enable_nsc: bool = True
    miner: MinerConfig = field(default_factory=MinerConfig)
    density: DensityConfig = field(default_factory=DensityConfig)
    corrector: CorrectionConfig = field(default_factory=CorrectionConfig)
    synth: SynthConfig | None = None

    def __post_init__(self):
        if not (self.enable_neg or self.enable_pos or self.enable_nsc):
            logger.warning("all stages disabled; run will re-serialize the input")


# JSON path -> PipelineConfig field, for the sections of plain values
FLAT_KEYS = {
    "io": {"input": "input_path", "vocab": "vocab_path", "out_dir": "out_dir"},
    "partition": {"head_min": "head_min", "tail_max": "tail_max"},
    "stages": {"neg_nsd": "enable_neg", "pos_nsd": "enable_pos", "nsc": "enable_nsc"},
}
# JSON section -> (PipelineConfig field, the dataclass whose fields it holds)
STAGE_SECTIONS = {
    "neg_nsd": ("miner", MinerConfig),
    "pos_nsd": ("density", DensityConfig),
    "nsc": ("corrector", CorrectionConfig),
    "synth": ("synth", SynthConfig),
}
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


def _expect_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise DatasetError(f"unknown keys in {where}: {sorted(unknown)}")


def _coerce(value: Any, tp: Any, where: str) -> Any:
    """Check one JSON value against a field annotation and convert it.

    A part map must name every part and reads ``"disabled"`` as null; int
    map keys are parsed from their JSON strings; a boolean never passes as
    a number, nor a number as a boolean.
    """
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _coerce(value, inner, where)
    accepted, kind = JSON_KINDS[origin or tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise DatasetError(f"{where} must be {kind}, got {value!r}")
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
        if key_tp is Part:
            if set(value) != {p.value for p in Part}:
                parts = [p.value for p in Part]
                raise DatasetError(f"{where} must define exactly {parts}: {sorted(value)}")
            value = {
                p.value: None if value[p.value] == "disabled" else value[p.value]
                for p in Part
            }
        try:
            return {
                key_tp(k): _coerce(v, value_tp, f"{where}.{k}") for k, v in value.items()
            }
        except ValueError:
            raise DatasetError(f"{where} keys must be integers: {sorted(value)}") from None
    return tp(value)


def _json_names(cls) -> dict[str, str]:
    return {JSON_NAMES.get(f.name, f.name): f.name for f in fields(cls)}


def _read_section(raw: dict, section: str, names: dict[str, str], hints: dict) -> dict:
    values = raw.get(section, {})
    if not isinstance(values, dict):
        raise DatasetError(f"{section} must be an object, got {values!r}")
    _expect_keys(values, names, section)
    return {
        name: _coerce(values[key], hints[name], f"{section}.{key}")
        for key, name in names.items()
        if key in values
    }


def config_from_dict(raw: dict, seed_override: int | None = None) -> PipelineConfig:
    """Build a validated config from nested key-value data.

    Keys and value types come from the fields of ``PipelineConfig`` and of
    the stage dataclasses.  A stage seed left unset takes the global seed.
    """
    _expect_keys(raw, [*FLAT_KEYS, "seed", *STAGE_SECTIONS], "config")
    seed = seed_override
    if seed is None:
        seed = _coerce(raw.get("seed", 0), int, "seed")
    hints = get_type_hints(PipelineConfig)
    kwargs: dict[str, Any] = {"seed": seed}
    for section, names in FLAT_KEYS.items():
        kwargs.update(_read_section(raw, section, names, hints))
    for section, (name, cls) in STAGE_SECTIONS.items():
        if section in raw or cls is not SynthConfig:  # synth stays None unless given
            names = _json_names(cls)
            values = _read_section(raw, section, names, get_type_hints(cls))
            if "seed" in names:
                values.setdefault("seed", seed)
            kwargs[name] = cls(**values)
    return PipelineConfig(**kwargs)


def load_config(path: str, seed_override: int | None = None) -> PipelineConfig:
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: config must be an object")
    return config_from_dict(raw, seed_override)


def _to_json(value: Any) -> Any:
    if isinstance(value, dict):
        return {
            k.value if isinstance(k, Part) else str(k): _to_json(v)
            for k, v in value.items()
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_to_dict(config: PipelineConfig) -> dict:
    """Canonical nested form, also used as the report's config echo."""
    out: dict[str, Any] = {
        section: {key: getattr(config, name) for key, name in names.items()}
        for section, names in FLAT_KEYS.items()
    }
    out["seed"] = config.seed
    for section, (name, cls) in STAGE_SECTIONS.items():
        stage = getattr(config, name)
        if stage is not None:
            out[section] = {
                key: _to_json(getattr(stage, f)) for key, f in _json_names(cls).items()
            }
    return out


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
    dataset: Dataset
    report: CleaningReport
    model: ConfidenceModel | None
    mined: dict[str, str]
    density: DensityReport
    ledger: tuple[CorrectionRecord, ...]
    timings: dict[str, float]


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time one stage into ``timings``; any failure becomes a PipelineError."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc
    timings[name] = time.perf_counter() - t0


def run(config: PipelineConfig, dataset: Dataset | None = None) -> RunResult:
    """Execute the enabled stages on the input and report set sizes.

    Nothing touches the filesystem here; use :func:`write_outputs` for
    persistence.  Stage failures surface as PipelineError naming the stage.
    """
    if dataset is None:
        if config.input_path is None:
            raise DatasetError("config has no input path and no dataset was given")
        dataset = load_dataset(
            config.input_path,
            vocab_path=config.vocab_path,
            head_min=config.head_min,
            tail_max=config.tail_max,
        )

    timings: dict[str, float] = {}
    started = time.perf_counter()
    positives = dataset.positives()
    negatives = dataset.negatives()

    model: ConfidenceModel | None = None
    mined: tuple[TripletRecord, ...] = ()
    if config.enable_neg and negatives:
        with _stage("neg_nsd", timings):
            model = train(positives, len(dataset.vocab), config.miner)
            mined, _ = detect_noisy_negatives(
                model, negatives, config.miner, dataset.partition
            )

    working = dataset.with_records({r.id: r for r in mined})
    try:
        composed = compose_positive_set(positives, mined)
    except DatasetError as exc:
        raise PipelineError(f"compose: {exc}") from exc

    if config.enable_pos:
        with _stage("pos_nsd", timings):
            density = detect_noisy_positives(composed, config.density, working.partition)
    else:
        density = DensityReport(
            classes=(), noisy_ids=(), clean_ids=tuple(r.id for r in composed)
        )

    ledger: tuple[CorrectionRecord, ...] = ()
    if config.enable_nsc:
        with _stage("nsc", timings):
            working, ledger = correct(
                density.noisy_ids, working, density.clean_ids, config.corrector
            )
    elif density.noisy_ids:
        by_id = working.by_id()
        working = working.with_records(
            {
                rid: replace(by_id[rid], label_state=LabelState.CLEAN_KEPT)
                for rid in density.noisy_ids
            }
        )

    timings["total"] = time.perf_counter() - started

    relabeled = sum(1 for entry in ledger if entry.changed)
    report = CleaningReport(
        total=len(dataset),
        positives=len(positives),
        negatives=len(negatives),
        mined_negatives=len(mined),
        kept_negatives=len(negatives) - len(mined),
        composed=len(composed),
        flagged=len(density.noisy_ids),
        unflagged=len(density.clean_ids),
        relabeled=relabeled,
        kept_flagged=len(density.noisy_ids) - relabeled,
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
    mined_names = {r.id: dataset.vocab.names[r.label] for r in mined}
    return RunResult(
        dataset=working,
        report=report,
        model=model,
        mined=mined_names,
        density=density,
        ledger=ledger,
        timings=timings,
    )


def mined_to_text(mined: dict[str, str], records: Mapping[str, TripletRecord]) -> str:
    """Promoted negatives in id order: pseudo label name and the confidence
    each carries in ``records``."""
    return jsonl_text(
        {"id": rid, "predicate": mined[rid], "confidence": records[rid].confidence}
        for rid in sorted(mined)
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
    atomic_write_text(join(MINED_FILE), mined_to_text(result.mined, result.dataset.by_id()))
    atomic_write_text(join(DENSITY_FILE), density_report_to_text(result.density))
    atomic_write_text(join(LEDGER_FILE), ledger_to_text(result.ledger))
    if result.model is not None:
        save_model(result.model, join(MODEL_FILE))
    atomic_write_text(
        join(TIMINGS_FILE), json.dumps(result.timings, sort_keys=True) + "\n"
    )
    logger.info("outputs written to %s", out_dir)


def export_embeddings(dataset: Dataset) -> str:
    """Features plus final labels for external projection tooling."""
    rows = (record_to_dict(rec, dataset.vocab) for rec in dataset.records)
    return jsonl_text(
        {"id": row["id"], "label": row["predicate"], "feature": row["feature"]}
        for row in rows
    )
