"""Command-line entry points for dataset cleaning and the synthetic bench.

Exit codes, the same for every subcommand: 0 success, 1 invalid input or
arguments (a DatasetError or a missing file), 2 any other failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from tripletclean.core import (
    DatasetError,
    atomic_write_text,
    load_dataset,
    read_json,
    save_dataset,
    save_vocab,
)
from tripletclean.correction import correct, ledger_to_text, load_ledger
from tripletclean.density import density_report_to_text, detect_noisy_positives, load_flagged
from tripletclean.negatives import (
    detect_noisy_negatives,
    load_model,
    save_model,
    train,
)
from tripletclean.pipeline import (
    CLEANED_FILE,
    DATA_FILE,
    DENSITY_FILE,
    LEDGER_FILE,
    MINED_FILE,
    MODEL_FILE,
    TRUTH_FILE,
    VOCAB_FILE,
    PipelineConfig,
    config_from_dict,
    load_input,
    load_mined,
    mined_to_text,
    run,
    write_outputs,
)
from tripletclean.synthetic import generate, load_truth, save_truth, score

logger = logging.getLogger(__name__)


class CliParser(argparse.ArgumentParser):
    """Argument errors exit 1 (argparse defaults to 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _toggle(item: str) -> tuple[str, bool]:
    stage, _, state = item.partition("=")
    if state not in ("on", "off"):
        raise DatasetError(f"bad stage toggle {item!r}, expected STAGE=on|off")
    return stage, state == "on"


def _load_cli_config(args) -> PipelineConfig:
    """Apply the flags to the config file's JSON tree, then validate it.

    A flag sets the key it stands for, so a bad value fails like the same
    mistake in the file.  A section that is not an object is left for the
    validation to reject.
    """
    raw = read_json(args.config, "config") if args.config else {}
    if isinstance(raw, dict):
        if args.seed is not None:
            raw["seed"] = args.seed
        edits = [("io", "input", getattr(args, "data", None)), ("io", "out_dir", args.out)]
        edits += [("stages", *_toggle(item)) for item in getattr(args, "stage_toggle", [])]
        for section, key, value in edits:
            if value in (None, ""):
                continue
            node = raw.setdefault(section, {})
            if isinstance(node, dict):
                node[key] = value
    return config_from_dict(raw)


def cmd_run(args) -> int:
    config = _load_cli_config(args)
    result = run(config)
    write_outputs(result, config.io.out_dir)
    for key, value in result.report.counts().items():
        print(f"{key}: {value}")
    print(f"written: {config.io.out_dir}")
    return 0


def cmd_train(args) -> int:
    config = _load_cli_config(args)
    dataset = load_input(config)
    positives = dataset.positives()
    model = train(dataset, positives, config.neg_nsd)
    out_path = os.path.join(config.io.out_dir, MODEL_FILE)
    save_model(model, out_path)
    print(f"trained on {len(positives)} positives; model: {out_path}")
    return 0


def cmd_detect_neg(args) -> int:
    config = _load_cli_config(args)
    dataset = load_input(config)
    model = load_model(args.model)
    negatives = dataset.negatives()
    promoted = detect_noisy_negatives(model, negatives, dataset, config.neg_nsd)
    atomic_write_text(
        os.path.join(config.io.out_dir, MINED_FILE), mined_to_text(promoted, dataset)
    )
    print(f"promoted {len(promoted.rows)} of {len(negatives)} negatives")
    return 0


def cmd_detect_pos(args) -> int:
    config = _load_cli_config(args)
    dataset = load_input(config)
    positives = dataset.positives()
    report = detect_noisy_positives(dataset, positives, config.pos_nsd)
    atomic_write_text(
        os.path.join(config.io.out_dir, DENSITY_FILE), density_report_to_text(report)
    )
    print(f"flagged {len(report.noisy_rows)} of {len(positives)} labeled records")
    return 0


def cmd_correct(args) -> int:
    config = _load_cli_config(args)
    dataset = load_input(config)
    flagged = load_flagged(args.density_report)
    unknown = flagged - set(dataset.ids)
    if unknown:
        raise DatasetError(f"unknown record ids: {sorted(unknown)[:5]}")
    is_flagged = np.array([rid in flagged for rid in dataset.ids], dtype=bool)
    clean = np.flatnonzero(~is_flagged & (dataset.labels >= 0))
    fixed, ledger = correct(np.flatnonzero(is_flagged), dataset, clean, config.nsc)
    save_dataset(fixed, os.path.join(config.io.out_dir, CLEANED_FILE))
    atomic_write_text(os.path.join(config.io.out_dir, LEDGER_FILE), ledger_to_text(ledger))
    changed = sum(1 for e in ledger if e.changed)
    print(f"relabeled {changed} of {len(ledger)} flagged records")
    return 0


def cmd_synth(args) -> int:
    config = _load_cli_config(args)
    synth_config = config.synth
    if synth_config is None:
        raise DatasetError("config has no synth section")
    dataset, truth = generate(synth_config)
    save_dataset(dataset, os.path.join(config.io.out_dir, DATA_FILE))
    save_vocab(dataset.vocab.names, os.path.join(config.io.out_dir, VOCAB_FILE))
    save_truth(truth, dataset, os.path.join(config.io.out_dir, TRUTH_FILE))
    print(f"generated {len(dataset)} records into {config.io.out_dir}")
    return 0


def cmd_eval(args) -> int:
    _load_cli_config(args)  # checked like every command's, though score reads none of it
    run_dir = args.run_dir
    cleaned = load_dataset(
        os.path.join(run_dir, CLEANED_FILE), vocab_path=os.path.join(run_dir, VOCAB_FILE)
    )
    truth = load_truth(args.truth)
    mined = load_mined(os.path.join(run_dir, MINED_FILE))
    flagged = load_flagged(os.path.join(run_dir, DENSITY_FILE))
    ledger = load_ledger(os.path.join(run_dir, LEDGER_FILE))
    metrics = score(cleaned, truth, mined, flagged, ledger)
    out_dir = args.out or run_dir
    atomic_write_text(
        os.path.join(out_dir, "metrics.json"),
        json.dumps(metrics.to_dict(), sort_keys=True, indent=2) + "\n",
    )
    for key, value in metrics.to_dict().items():
        print(f"{key}: {value:.4f}" if isinstance(value, float) else f"{key}: {value}")
    return 0


# flag -> its add_argument options; every subcommand takes the first three
FLAGS = {
    "--config": dict(help="path to the JSON config file"),
    "--seed": dict(type=int, help="override the global seed"),
    "--out": dict(help="output directory"),
    "--data": dict(help="dataset file (defaults to io.input)"),
    "--stage-toggle": dict(
        action="append",
        default=[],
        metavar="STAGE=on|off",
        help="override a stage toggle (neg_nsd, pos_nsd, nsc); repeatable",
    ),
    "--model": dict(required=True, help="trained model file"),
    "--density-report": dict(required=True, help="flag file from detect-pos"),
    "--run-dir": dict(required=True, help="directory written by run"),
    "--truth": dict(required=True, help="truth sidecar file"),
}
# name, handler, help, and the flags beyond the first three
COMMANDS = (
    ("run", cmd_run, "execute the full cleaning pipeline", "--stage-toggle"),
    ("train-negnsd", cmd_train, "train the confidence model only", "--data"),
    ("detect-neg", cmd_detect_neg, "score negatives with a trained model", "--data", "--model"),
    ("detect-pos", cmd_detect_pos, "flag labeled records by local density", "--data"),
    ("correct", cmd_correct, "re-vote labels of flagged records", "--data", "--density-report"),
    ("synth", cmd_synth, "generate a synthetic noisy dataset"),
    ("eval", cmd_eval, "score a run directory against a truth file", "--run-dir", "--truth"),
)


def build_parser() -> CliParser:
    parser = CliParser(prog="tripletclean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)
    for name, handler, help_text, *flags in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag in ("--config", "--seed", "--out", *flags):
            command.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        logging.basicConfig(level=os.environ.get("TRIPLETCLEAN_LOGLEVEL", "WARNING"))
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # one stderr line; the traceback is logged at DEBUG
        logger.debug("command failed", exc_info=True)
        if isinstance(exc, (DatasetError, FileNotFoundError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
