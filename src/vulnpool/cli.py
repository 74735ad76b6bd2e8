"""Command-line surface for the full pipeline.

Subcommands: preprocess | build-vocab | synth | train | eval | sweep |
export-embeddings | report. Exit codes: 0 success, 1 usage or configuration
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import corpus, evaluate as ev, tokenizer as tok, trainer
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, build_model, build_run_config, build_train_config
from .corpus import CorpusError
from .tokenizer import TokenizerError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# config keys whose flag is not the key itself; every other key K is --K with dashes
_SHORT_FLAGS = {
    "prompt_len": "lp",
    "lam": "lambda",
    "top_k": "topk",
    "matrices_per_language": "mpl",
    "n_layers": "layers",
    "n_heads": "heads",
    "n_per_language": "n",
}


def _add_config_flags(p: _Parser):
    p.add_argument("--config", help="key = value config file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + _SHORT_FLAGS.get(f.name, f.name).replace("_", "-")
        p.add_argument(flag, dest=f.name, metavar="VALUE",
                       help=f"config key {f.name} (default {f.default})")


def _run_config(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    return build_run_config(args.config, overrides)


def _require(**fields):
    for name, value in fields.items():
        if value is None:
            raise ConfigError(f"missing required setting: {name}")


def _load_corpus_dir(cfg: RunConfig):
    """Read a preprocess output directory into (split, vocab)."""
    root = cfg.resolve_path(cfg.data)
    parts = {}
    for name in corpus.SPLIT_NAMES:
        path = os.path.join(root, f"{name}.jsonl")
        parts[name] = corpus.load_records(path) if os.path.exists(path) else []
    vocab_path = cfg.resolve_path(cfg.vocab) or os.path.join(root, "vocab.txt")
    vocab = tok.load_vocab(vocab_path)
    return corpus.DatasetSplit(parts["train"], parts["val"], parts["test"]), vocab


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = _run_config(args)
    _require(out=cfg.out)
    samples = corpus.generate_synthetic(cfg.n_per_language, cfg.vuln_rate, cfg.seed)
    corpus.save_records(samples, cfg.resolve_path(cfg.out))
    print(f"wrote {len(samples)} samples to {cfg.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data, out=cfg.out)
    out_dir = cfg.resolve_path(cfg.out)
    os.makedirs(out_dir, exist_ok=True)

    samples = corpus.load_records(cfg.resolve_path(cfg.data))
    stripped, empty = [], []
    for s in samples:
        code = corpus.strip_comments(s.code, s.language)
        if code.strip():
            stripped.append(corpus.CodeSample(s.id, s.language, code, s.label,
                                              cwe=s.cwe, cve=s.cve, split=s.split))
        else:
            empty.append(s)

    if cfg.vocab:
        vocab = tok.load_vocab(cfg.resolve_path(cfg.vocab))
        vocab_source = cfg.vocab
    else:
        vocab = tok.build_vocab(stripped, cfg.vocab_size)
        vocab_source = "built from input corpus"
    tok.save_vocab(vocab, os.path.join(out_dir, "vocab.txt"))

    kept, dropped = corpus.filter_by_length(stripped, cfg.max_tokens)
    split = corpus.split_dataset(kept, cfg.ratios, cfg.seed)
    for name in corpus.SPLIT_NAMES:
        corpus.save_records(getattr(split, name), os.path.join(out_dir, f"{name}.jsonl"))
    corpus.save_records(dropped + empty, os.path.join(out_dir, "dropped.jsonl"))

    st = corpus.CorpusStats.from_split(split)
    with open(os.path.join(out_dir, "stats.txt"), "w", encoding="utf-8") as f:
        f.write(st.render() + "\n")
    with open(os.path.join(out_dir, "stats.json"), "w", encoding="utf-8") as f:
        json.dump(st.to_record(), f, indent=2, sort_keys=True)
    meta = {
        "input": cfg.data,
        "tokenizer": "word-boundary",
        "vocab_source": vocab_source,
        "vocab_hash": trainer.vocab_hash(vocab),
        "max_tokens": cfg.max_tokens,
        "dropped_too_long": len(dropped),
        "dropped_empty_after_strip": len(empty),
        "seed": cfg.seed,
    }
    with open(os.path.join(out_dir, "preprocess_meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
    print(st.render())
    print(f"dropped {len(dropped)} over-length and {len(empty)} empty samples")
    return 0


def cmd_build_vocab(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data, out=cfg.out)
    samples = corpus.load_records(cfg.resolve_path(cfg.data))
    vocab = tok.build_vocab(samples, cfg.vocab_size)
    tok.save_vocab(vocab, cfg.resolve_path(cfg.out))
    print(f"wrote vocabulary of {vocab.size} tokens to {cfg.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data, out=cfg.out)
    split, vocab = _load_corpus_dir(cfg)
    run_dir = cfg.resolve_path(cfg.out)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.txt"), "w", encoding="utf-8") as f:
        f.write(cfg.snapshot())

    model = build_model(cfg, vocab)
    best, history = trainer.train(
        model, split, build_train_config(cfg), run_dir=run_dir, log=print
    )
    report, predictions = ev.evaluate_model(best, split.test)
    _write_reports(run_dir, report, predictions, split.test)
    print(ev.render_metrics(report, name=cfg.mode))
    return 0


def _write_reports(run_dir, report, predictions, samples) -> list:
    """Write metrics.jsonl and metrics.txt; return the per-language and
    per-CWE breakdowns they hold."""
    labels = [s.label for s in samples]
    breakdowns = [ev.breakdown(predictions, labels, samples, by=by) for by in ("language", "cwe")]
    with open(os.path.join(run_dir, "metrics.jsonl"), "w", encoding="utf-8") as f:
        f.write(json.dumps({"scope": "overall", **report.to_record()}, sort_keys=True) + "\n")
        for bd in breakdowns:
            f.write(json.dumps({"scope": bd.by, **bd.to_record()}, sort_keys=True) + "\n")
    with open(os.path.join(run_dir, "metrics.txt"), "w", encoding="utf-8") as f:
        f.write(ev.render_metrics(report) + "\n\n")
        for bd in breakdowns:
            f.write(ev.render_breakdown(bd) + "\n\n")
    return breakdowns


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data)
    run_dir = cfg.resolve_path(args.run)
    split, vocab = _load_corpus_dir(cfg)
    model, _, _ = trainer.load_checkpoint(os.path.join(run_dir, "best.ckpt"), vocab)
    report, predictions = ev.evaluate_model(model, split.test)
    breakdowns = _write_reports(run_dir, report, predictions, split.test)
    print(ev.render_metrics(report))
    for bd in breakdowns:
        print()
        print(ev.render_breakdown(bd))
    return 0


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data, out=cfg.out)
    if not args.axis:
        raise ConfigError("missing required setting: axis")
    split, vocab = _load_corpus_dir(cfg)
    out_dir = cfg.resolve_path(cfg.out)
    os.makedirs(out_dir, exist_ok=True)
    result = trainer.sweep(split, vocab, cfg, args.axis, log=print)
    table = result.render()
    with open(os.path.join(out_dir, f"sweep_{args.axis}.txt"), "w", encoding="utf-8") as f:
        f.write(table + "\n")
    with open(os.path.join(out_dir, f"sweep_{args.axis}.jsonl"), "w", encoding="utf-8") as f:
        for rec in result.to_records():
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    print(table)
    return 0


def cmd_export_embeddings(args) -> int:
    cfg = _run_config(args)
    _require(data=cfg.data, out=cfg.out)
    run_dir = cfg.resolve_path(args.run)
    split, vocab = _load_corpus_dir(cfg)
    model, _, _ = trainer.load_checkpoint(os.path.join(run_dir, "best.ckpt"), vocab)
    n = ev.export_embeddings(model, split.test, cfg.resolve_path(cfg.out))
    print(f"wrote {n} rows to {cfg.out}")
    return 0


_EPOCH_FIELDS = ("epoch", "train_loss", "val_recall", "val_precision", "val_f1")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_report(args) -> int:
    cfg = _run_config(args)
    run_dir = cfg.resolve_path(args.run)
    history_path = os.path.join(run_dir, "history.jsonl")
    if os.path.exists(history_path):
        rows = []
        with open(history_path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(
                        f"{history_path}: line {lineno}: malformed record: {exc.msg}"
                    ) from None
                fields = rec if isinstance(rec, dict) else {}
                missing = [key for key in _EPOCH_FIELDS if not _is_number(fields.get(key))]
                if missing:
                    raise CorpusError(f"{history_path}: line {lineno}: not an epoch record: "
                                      f"no number in {', '.join(missing)}")
                rows.append([
                    rec["epoch"], f"{rec['train_loss']:.4f}", f"{100 * rec['val_recall']:.2f}%",
                    f"{100 * rec['val_precision']:.2f}%", f"{100 * rec['val_f1']:.2f}%",
                ])
        print(ev.render_rows(["Epoch", "Train loss", "Val Recall", "Val Precision", "Val F1"],
                             rows))
    metrics_path = os.path.join(run_dir, "metrics.txt")
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as f:
            print()
            print(f.read().rstrip())
    if not os.path.exists(history_path) and not os.path.exists(metrics_path):
        raise CorpusError(f"{run_dir}: no history.jsonl or metrics.txt found")
    return 0


# ---------------------------------------------------------------------------

def make_parser() -> _Parser:
    parser = _Parser(prog="vulnpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": cmd_synth,
        "preprocess": cmd_preprocess,
        "build-vocab": cmd_build_vocab,
        "train": cmd_train,
        "eval": cmd_eval,
        "sweep": cmd_sweep,
        "export-embeddings": cmd_export_embeddings,
        "report": cmd_report,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name, parents=[], add_help=True)
        _add_config_flags(p)
        if name in ("eval", "export-embeddings", "report"):
            p.add_argument("--run", required=True, help="run directory with checkpoints")
        if name == "sweep":
            p.add_argument("--axis", choices=sorted(trainer.SWEEP_AXES))
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"vulnpool: config error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, TokenizerError, CheckpointError, FileNotFoundError,
            IsADirectoryError) as exc:
        print(f"vulnpool: data error: {exc}", file=sys.stderr)
        return 2
    except trainer.TrainingDivergedError as exc:
        print(f"vulnpool: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
