"""Command-line entry points for dataset cleaning and the synthetic bench.

Exit codes: 0 success, 1 invalid input or arguments, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from tripletclean.core import (
    DatasetError,
    atomic_write_text,
    load_dataset,
    save_dataset,
    save_vocab,
)
from tripletclean.correction import correct, load_ledger, save_ledger
from tripletclean.density import detect_noisy_positives, load_flagged, save_density_report
from tripletclean.negatives import (
    TrainingError,
    detect_noisy_negatives,
    load_model,
    save_model,
    train,
)
from tripletclean.pipeline import (
    CLEANED_FILE,
    DATA_FILE,
    DENSITY_FILE,
    FLAT_KEYS,
    LEDGER_FILE,
    MINED_FILE,
    MODEL_FILE,
    TRUTH_FILE,
    VOCAB_FILE,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    load_config,
    load_mined,
    export_embeddings,
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


def _add_common(parser):
    parser.add_argument("--config", help="path to the JSON config file")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--out", help="output directory")


def build_parser() -> CliParser:
    parser = CliParser(prog="tripletclean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p_run = sub.add_parser("run", help="execute the full cleaning pipeline")
    _add_common(p_run)
    p_run.add_argument(
        "--stage-toggle",
        action="append",
        default=[],
        metavar="STAGE=on|off",
        help="override a stage toggle (neg_nsd, pos_nsd, nsc); repeatable",
    )

    p_train = sub.add_parser("train-negnsd", help="train the confidence model only")
    _add_common(p_train)
    p_train.add_argument("--data", help="dataset file (defaults to io.input)")

    p_dneg = sub.add_parser("detect-neg", help="score negatives with a trained model")
    _add_common(p_dneg)
    p_dneg.add_argument("--data", help="dataset file (defaults to io.input)")
    p_dneg.add_argument("--model", required=True, help="trained model file")

    p_dpos = sub.add_parser("detect-pos", help="flag labeled records by local density")
    _add_common(p_dpos)
    p_dpos.add_argument("--data", help="dataset file (defaults to io.input)")

    p_corr = sub.add_parser("correct", help="re-vote labels of flagged records")
    _add_common(p_corr)
    p_corr.add_argument("--data", help="dataset file (defaults to io.input)")
    p_corr.add_argument(
        "--density-report", required=True, help="flag file from detect-pos"
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic noisy dataset")
    _add_common(p_synth)

    p_eval = sub.add_parser("eval", help="score a run directory against a truth file")
    _add_common(p_eval)
    p_eval.add_argument("--run-dir", required=True, help="directory written by run")
    p_eval.add_argument("--truth", required=True, help="truth sidecar file")

    p_emb = sub.add_parser("export-embed", help="export features plus final labels")
    _add_common(p_emb)
    p_emb.add_argument("--data", required=True, help="dataset file to export")
    p_emb.add_argument("--vocab", help="vocabulary sidecar for the dataset")

    return parser


def _load_cli_config(args) -> PipelineConfig:
    if args.config:
        config = load_config(args.config, seed_override=args.seed)
    else:
        config = config_from_dict({}, seed_override=args.seed)
    if args.out:
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def _apply_toggles(config: PipelineConfig, toggles) -> PipelineConfig:
    mapping = FLAT_KEYS["stages"]
    updates = {}
    for item in toggles:
        if "=" not in item:
            raise DatasetError(f"bad stage toggle {item!r}, expected STAGE=on|off")
        stage, _, state = item.partition("=")
        if stage not in mapping or state not in ("on", "off"):
            raise DatasetError(f"bad stage toggle {item!r}, expected STAGE=on|off")
        updates[mapping[stage]] = state == "on"
    return dataclasses.replace(config, **updates)


def _dataset_from(args, config: PipelineConfig):
    path = getattr(args, "data", None) or config.input_path
    if path is None:
        raise DatasetError("no dataset given: pass --data or set io.input in the config")
    return load_dataset(
        path,
        vocab_path=config.vocab_path,
        head_min=config.head_min,
        tail_max=config.tail_max,
    )


def cmd_run(args) -> int:
    config = _apply_toggles(_load_cli_config(args), args.stage_toggle)
    result = run(config)
    write_outputs(result, config.out_dir)
    for key, value in result.report.counts().items():
        print(f"{key}: {value}")
    print(f"written: {config.out_dir}")
    return 0


def cmd_train(args) -> int:
    config = _load_cli_config(args)
    dataset = _dataset_from(args, config)
    positives = dataset.positives()
    model = train(positives, len(dataset.vocab), config.miner)
    out_path = os.path.join(config.out_dir, MODEL_FILE)
    save_model(model, out_path)
    print(f"trained on {len(positives)} positives; model: {out_path}")
    return 0


def cmd_detect_neg(args) -> int:
    config = _load_cli_config(args)
    dataset = _dataset_from(args, config)
    model = load_model(args.model)
    mined, kept = detect_noisy_negatives(
        model, dataset.negatives(), config.miner, dataset.partition
    )
    names = {r.id: dataset.vocab.names[r.label] for r in mined}
    atomic_write_text(
        os.path.join(config.out_dir, MINED_FILE),
        mined_to_text(names, {r.id: r for r in mined}),
    )
    print(f"promoted {len(mined)} of {len(mined) + len(kept)} negatives")
    return 0


def cmd_detect_pos(args) -> int:
    config = _load_cli_config(args)
    dataset = _dataset_from(args, config)
    report = detect_noisy_positives(dataset.labeled(), config.density, dataset.partition)
    save_density_report(report, os.path.join(config.out_dir, DENSITY_FILE))
    print(f"flagged {len(report.noisy_ids)} of {len(dataset.labeled())} labeled records")
    return 0


def cmd_correct(args) -> int:
    config = _load_cli_config(args)
    dataset = _dataset_from(args, config)
    flagged = load_flagged(args.density_report)
    labeled_ids = {r.id for r in dataset.labeled()}
    clean_ids = sorted(labeled_ids - flagged)
    fixed, ledger = correct(sorted(flagged), dataset, clean_ids, config.corrector)
    save_dataset(fixed, os.path.join(config.out_dir, CLEANED_FILE))
    save_ledger(ledger, os.path.join(config.out_dir, LEDGER_FILE))
    changed = sum(1 for e in ledger if e.changed)
    print(f"relabeled {changed} of {len(ledger)} flagged records")
    return 0


def cmd_synth(args) -> int:
    config = _load_cli_config(args)
    synth_config = config.synth
    if synth_config is None:
        raise DatasetError("config has no synth section")
    dataset, truth = generate(synth_config)
    save_dataset(dataset, os.path.join(config.out_dir, DATA_FILE))
    save_vocab(dataset.vocab.names, os.path.join(config.out_dir, VOCAB_FILE))
    save_truth(truth, dataset, os.path.join(config.out_dir, TRUTH_FILE))
    print(f"generated {len(dataset)} records into {config.out_dir}")
    return 0


def cmd_eval(args) -> int:
    config = _load_cli_config(args)
    run_dir = args.run_dir
    cleaned = load_dataset(
        os.path.join(run_dir, CLEANED_FILE),
        vocab_path=os.path.join(run_dir, VOCAB_FILE),
        head_min=config.head_min,
        tail_max=config.tail_max,
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
        if key != "tag_counts":
            print(f"{key}: {value:.4f}")
    print(f"tag_counts: {metrics.tag_counts}")
    return 0


def cmd_export_embed(args) -> int:
    config = _load_cli_config(args)
    dataset = load_dataset(
        args.data,
        vocab_path=args.vocab,
        head_min=config.head_min,
        tail_max=config.tail_max,
    )
    out_path = os.path.join(config.out_dir, "embed.jsonl")
    atomic_write_text(out_path, export_embeddings(dataset))
    print(f"exported {len(dataset)} rows: {out_path}")
    return 0


HANDLERS = {
    "run": cmd_run,
    "train-negnsd": cmd_train,
    "detect-neg": cmd_detect_neg,
    "detect-pos": cmd_detect_pos,
    "correct": cmd_correct,
    "synth": cmd_synth,
    "eval": cmd_eval,
    "export-embed": cmd_export_embed,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("TRIPLETCLEAN_LOGLEVEL", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return HANDLERS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DatasetError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, TrainingError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
