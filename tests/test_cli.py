import argparse
import dataclasses
import json
import typing

import pytest

from vulnpool import cli, config as cfgmod, corpus
from vulnpool.corpus import Language
from vulnpool.config import ConfigError, RunConfig, build_run_config


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def corpus_dir(tmp_path):
    """synth + preprocess into a ready-to-train directory."""
    raw = tmp_path / "raw.jsonl"
    out = tmp_path / "data"
    assert run_cli("synth", "--n", "12", "--vuln-rate", "0.5", "--seed", "3",
                   "--out", str(raw)) == 0
    assert run_cli("preprocess", "--data", str(raw), "--out", str(out),
                   "--seed", "3", "--max-tokens", "96", "--vocab-size", "512") == 0
    return out


# ---------------------------------------------------------------------------
# config machinery

def test_defaults_validate():
    RunConfig().validate()


def test_config_rejects_out_of_range_values():
    with pytest.raises(ConfigError, match="prompt_len"):
        RunConfig(prompt_len=65).validate()
    with pytest.raises(ConfigError, match="pool_size"):
        RunConfig(pool_size=0).validate()
    with pytest.raises(ConfigError, match="top_k"):
        RunConfig(top_k=9, pool_size=7).validate()
    with pytest.raises(ConfigError, match="ratios"):
        RunConfig(ratios=(0.5, 0.2, 0.2)).validate()
    with pytest.raises(ConfigError, match="max_positions"):
        RunConfig(max_positions=100).validate()
    for max_tokens in (0, 1):
        with pytest.raises(ConfigError, match="max_tokens"):
            RunConfig(max_tokens=max_tokens).validate()


def test_config_file_then_flag_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("prompt_len = 3\nlam = 0.3\nseed = 11  # comment\n")
    merged = build_run_config(str(cfg_file), {"prompt_len": 7})
    assert merged.prompt_len == 7  # flag wins
    assert merged.lam == 0.3  # file wins over default
    assert merged.seed == 11


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="frobnicate"):
        build_run_config(str(cfg_file), {})


def test_config_ratios_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("ratios = 0.7,0.2,0.1\n")
    merged = build_run_config(str(cfg_file), {})
    assert merged.ratios == (0.7, 0.2, 0.1)


def test_data_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cfgmod.DATA_ROOT_ENV, str(tmp_path))
    cfg = RunConfig(data="corpus.jsonl")
    assert cfg.resolve_path("corpus.jsonl") == str(tmp_path / "corpus.jsonl")
    assert cfg.resolve_path("/abs/path.jsonl") == "/abs/path.jsonl"


def test_snapshot_round_trips_through_parser(tmp_path):
    cfg = RunConfig(prompt_len=7, lam=0.03, seed=5, ratios=(0.7, 0.2, 0.1))
    path = tmp_path / "snap.cfg"
    path.write_text(cfg.snapshot())
    again = build_run_config(str(path), {})
    assert again == cfg


# a valid value other than the default for every config key, as a flag string;
# a key missing here fails test_every_config_key_has_one_flag
NON_DEFAULT = {
    "data": "corpus.jsonl", "out": "runs/x", "vocab": "vocab.txt", "seed": "7",
    "ratios": "0.7,0.2,0.1", "vocab_size": "100", "max_tokens": "64", "n_layers": "1",
    "n_heads": "4", "d_model": "64", "d_ffn": "32", "max_positions": "600",
    "dropout": "0.1", "mode": "pool_query", "lam": "0.3", "prompt_len": "3",
    "pool_size": "14", "top_k": "2", "matrices_per_language": "2",
    "query_from": "embed_cls", "epochs": "2", "batch_size": "8", "lr": "0.001",
    "beta1": "0.8", "beta2": "0.99", "eps": "1e-6", "grad_clip": "1.0",
    "n_per_language": "10", "vuln_rate": "0.3",
}
# other settings a value needs to be valid: in the default pool_masked mode,
# top_k may not exceed the matrices per language
NEEDS = {"top_k": {"matrices_per_language": "2"}}
HINTS = typing.get_type_hints(RunConfig)
FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig)
              if float in (HINTS[f.name], *typing.get_args(HINTS[f.name]))]


def config_flags(name):
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    return [opt for a in parser._actions if a.dest == name for opt in a.option_strings]


@pytest.mark.parametrize("field", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_every_config_key_has_one_flag(field, tmp_path):
    flags = config_flags(field.name)
    assert len(flags) == 1, flags
    settings = {field.name: NON_DEFAULT[field.name], **NEEDS.get(field.name, {})}
    argv = ["synth"] + [arg for key, value in settings.items()
                        for arg in (config_flags(key)[0], value)]
    cfg = cli._run_config(cli.make_parser().parse_args(argv))
    assert getattr(cfg, field.name) != field.default
    assert cfg == dataclasses.replace(
        RunConfig(), **{key: cfgmod._parse_value(key, value) for key, value in settings.items()})
    snap = tmp_path / "snap.cfg"
    snap.write_text(cfg.snapshot())
    assert build_run_config(str(snap), {}) == cfg


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_setting_exits_1(key, value, tmp_path, capsys):
    raw = f"{value},0.5,0.5" if key == "ratios" else value
    with pytest.raises(ConfigError, match=key):
        build_run_config(None, {key: raw})
    assert run_cli("synth", "--out", str(tmp_path / "x.jsonl"),
                   f"{config_flags(key)[0]}={raw}") == 1
    err = capsys.readouterr().err
    assert "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("max_tokens", ["0", "1"])
def test_max_tokens_below_frame_exits_1(max_tokens, tmp_path, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "x.jsonl"),
                   "--max-tokens", max_tokens) == 1
    err = capsys.readouterr().err
    assert "max_tokens" in err and err.count("\n") == 1


def test_config_file_out_of_range_dropout_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("dropout = 1.5\n")
    assert run_cli("train", "--config", str(cfg_file), "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert "dropout" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# subcommands

def test_synth_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli("synth", "--n", "100", "--seed", "1", "--out", str(a)) == 0
    assert run_cli("synth", "--n", "100", "--seed", "1", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_preprocess_outputs(corpus_dir):
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.txt", "stats.txt",
                 "stats.json", "dropped.jsonl", "preprocess_meta.json"):
        assert (corpus_dir / name).exists(), name
    stats = json.loads((corpus_dir / "stats.json").read_text())
    assert stats["total"] == 84
    meta = json.loads((corpus_dir / "preprocess_meta.json").read_text())
    assert meta["tokenizer"] == "word-boundary"


def test_preprocess_changes_only_the_code(tmp_path):
    raw = tmp_path / "raw.jsonl"
    samples = corpus.generate_synthetic(4, 0.5, seed=2)
    for i, s in enumerate(samples):
        s.code = f"// header {i}\n{s.code}" if s.language is not Language.PYTHON else s.code
        s.cwe = "CWE-79" if i % 2 else None
        s.cve = f"CVE-2024-{i:04d}" if i % 3 else None
        s.split = corpus.SPLIT_NAMES[i % 3]
    samples.append(corpus.CodeSample("only-comment", Language.C, "/* nothing */", 0,
                                     split="train"))
    corpus.save_records(samples, raw)
    out = tmp_path / "data"
    assert run_cli("preprocess", "--data", str(raw), "--out", str(out)) == 0

    by_id = {s.id: s for s in samples}
    kept = [s for name in corpus.SPLIT_NAMES
            for s in corpus.load_records(out / f"{name}.jsonl")]
    assert sorted(s.id for s in kept) == sorted(set(by_id) - {"only-comment"})
    for s in kept:
        original = by_id[s.id]
        assert s == dataclasses.replace(original, code=s.code), s.id
        assert s.code == corpus.strip_comments(original.code, original.language), s.id
    assert [s.id for s in corpus.load_records(out / "dropped.jsonl")] == ["only-comment"]


def test_build_vocab_command(tmp_path):
    raw = tmp_path / "raw.jsonl"
    out = tmp_path / "vocab.txt"
    run_cli("synth", "--n", "4", "--seed", "0", "--out", str(raw))
    assert run_cli("build-vocab", "--data", str(raw), "--out", str(out),
                   "--vocab-size", "64") == 0
    assert out.read_text().startswith("[CLS]\n[EOS]\n[PAD]\n[UNK]\n")


TINY_TRAIN_FLAGS = [
    "--epochs", "2", "--batch-size", "8", "--lr", "0.001", "--max-tokens", "64",
    "--d-model", "16", "--d-ffn", "32", "--layers", "1", "--heads", "2",
    "--vocab-size", "512",
]


def test_train_eval_report_pipeline(corpus_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(run_dir),
                   "--seed", "1", *TINY_TRAIN_FLAGS) == 0
    for name in ("config.txt", "history.jsonl", "best.ckpt", "epoch_0.ckpt",
                 "epoch_1.ckpt", "metrics.txt", "metrics.jsonl"):
        assert (run_dir / name).exists(), name
    out = capsys.readouterr().out
    assert "Recall" in out and "F1-score" in out

    assert run_cli("eval", "--run", str(run_dir), "--data", str(corpus_dir),
                   "--max-tokens", "64") == 0
    out = capsys.readouterr().out
    assert "Language" in out and "CWE" in out

    assert run_cli("report", "--run", str(run_dir)) == 0
    out = capsys.readouterr().out
    assert "Epoch" in out and "Val F1" in out


def test_train_run_dir_snapshot_replays(corpus_dir, tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(run_a),
                   "--seed", "7", *TINY_TRAIN_FLAGS) == 0
    # replay purely from the stored snapshot
    assert run_cli("train", "--config", str(run_a / "config.txt"),
                   "--out", str(run_b)) == 0
    assert (run_a / "best.ckpt").read_bytes() == (run_b / "best.ckpt").read_bytes()
    assert (run_a / "history.jsonl").read_text() == (run_b / "history.jsonl").read_text()


def test_export_embeddings_command(corpus_dir, tmp_path):
    run_dir = tmp_path / "run"
    out = tmp_path / "emb.tsv"
    run_cli("train", "--data", str(corpus_dir), "--out", str(run_dir),
            "--seed", "1", *TINY_TRAIN_FLAGS)
    assert run_cli("export-embeddings", "--run", str(run_dir),
                   "--data", str(corpus_dir), "--out", str(out),
                   "--max-tokens", "64") == 0
    lines = out.read_text().strip().split("\n")
    assert sum(1 for l in lines if l.startswith("key\t")) == 7


def test_sweep_command_mode_axis(corpus_dir, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--axis", "mode", "--data", str(corpus_dir),
                   "--out", str(out_dir), "--seed", "1", "--epochs", "1",
                   *TINY_TRAIN_FLAGS[2:]) == 0
    table = (out_dir / "sweep_mode.txt").read_text()
    for mode in ("pool_query", "pool_masked", "backbone_only"):
        assert mode in table
    records = [json.loads(l) for l in (out_dir / "sweep_mode.jsonl").read_text().splitlines()]
    assert len(records) == 3


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as info:
        run_cli()  # no subcommand at all
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run_cli("eval")  # missing required --run flag
    assert info.value.code == 1


@pytest.mark.parametrize("command,flag,value,key", [
    ("synth", "--n", "1", "n_per_language"),
    ("synth", "--vuln-rate", "1.5", "vuln_rate"),
    ("build-vocab", "--vocab-size", "4", "max_size"),
    ("preprocess", "--vocab-size", "4", "max_size"),
])
def test_out_of_range_synthesis_and_vocabulary_settings_exit_1(command, flag, value, key,
                                                               tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    assert run_cli("synth", "--n", "4", "--out", str(raw)) == 0
    capsys.readouterr()
    assert run_cli(command, "--data", str(raw), "--out", str(tmp_path / "out"),
                   flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vulnpool: config error: {key} must") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("train_file", ["missing", "empty"])
def test_empty_training_split_exits_2(command, train_file, corpus_dir, tmp_path, capsys):
    if train_file == "missing":
        (corpus_dir / "train.jsonl").unlink()
    else:
        (corpus_dir / "train.jsonl").write_text("")
    capsys.readouterr()
    extra = ["--axis", "mode"] if command == "sweep" else []
    assert run_cli(command, "--data", str(corpus_dir), "--out", str(tmp_path / "run"),
                   *extra, *TINY_TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert err == "vulnpool: data error: training split is empty\n"


def test_missing_required_setting_exits_1(tmp_path):
    assert run_cli("synth") == 1  # no --out
    assert run_cli("sweep") == 1  # no --data/--out/--axis


def test_config_error_exits_1(tmp_path):
    raw = tmp_path / "raw.jsonl"
    run_cli("synth", "--n", "4", "--seed", "0", "--out", str(raw))
    assert run_cli("train", "--data", str(raw), "--out", str(tmp_path / "r"),
                   "--lp", "65") == 1


def test_data_error_exits_2(tmp_path):
    assert run_cli("build-vocab", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "v.txt")) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert run_cli("build-vocab", "--data", str(bad),
                   "--out", str(tmp_path / "v.txt")) == 2


def test_non_utf8_records_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes('{"id":"a","language":"C","code":"caf\u00e9","label":0}\n'
                       .encode("latin-1"))
    assert run_cli("build-vocab", "--data", str(latin1),
                   "--out", str(tmp_path / "v.txt")) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and err.count("\n") == 1


def test_non_utf8_config_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n# caf\xff\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        cfgmod.load_config_file(bad)
    assert run_cli("synth", "--config", str(bad), "--out", str(tmp_path / "raw.jsonl")) == 1
    err = capsys.readouterr().err
    assert "UTF-8" in err and err.count("\n") == 1


def test_non_utf8_vocab_file_exits_2(tmp_path, capsys):
    from vulnpool import tokenizer as tok

    raw = tmp_path / "raw.jsonl"
    assert run_cli("synth", "--n", "4", "--seed", "0", "--out", str(raw)) == 0
    bad = tmp_path / "vocab.txt"
    bad.write_bytes(b"[CLS]\n[EOS]\n[PAD]\n[UNK]\nint\n\xff\n")
    with pytest.raises(tok.TokenizerError, match="UTF-8"):
        tok.load_vocab(bad)
    capsys.readouterr()
    assert run_cli("preprocess", "--data", str(raw), "--out", str(tmp_path / "data"),
                   "--vocab", str(bad)) == 2
    err = capsys.readouterr().err
    assert "UTF-8" in err and err.count("\n") == 1


def test_eval_bad_manifest_setting_exits_2(corpus_dir, tmp_path, capsys):
    from vulnpool import checkpoint as ckpt

    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(run_dir),
                   "--seed", "1", *TINY_TRAIN_FLAGS) == 0
    arrays, meta = ckpt.load_arrays(run_dir / "best.ckpt")
    for key, edit in (("mode", lambda m: m["model"].update(mode="nope")),
                      ("vocabulary hash", lambda m: m.pop("vocab_hash")),
                      ("assignment", lambda m: m["assignment"].update(
                          C=m["assignment"]["Go"], Go=m["assignment"]["C"]))):
        broken = json.loads(json.dumps(meta))
        edit(broken)
        ckpt.save_arrays(run_dir / "best.ckpt", arrays, broken)
        capsys.readouterr()
        assert run_cli("eval", "--run", str(run_dir), "--data", str(corpus_dir),
                       "--max-tokens", "64") == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1


def test_eval_mixed_dtype_checkpoint_exits_2(corpus_dir, tmp_path, capsys):
    # a model computes in its parameters' dtype, so they must share one
    from vulnpool import checkpoint as ckpt

    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(run_dir),
                   "--seed", "1", *TINY_TRAIN_FLAGS) == 0
    arrays, meta = ckpt.load_arrays(run_dir / "best.ckpt")
    arrays["embed.tok"] = arrays["embed.tok"].astype("<f8")
    ckpt.save_arrays(run_dir / "best.ckpt", arrays, meta)
    capsys.readouterr()
    assert run_cli("eval", "--run", str(run_dir), "--data", str(corpus_dir),
                   "--max-tokens", "64") == 2
    err = capsys.readouterr().err
    assert "one floating-point dtype, found <f4, <f8" in err and err.count("\n") == 1


def test_eval_non_string_cwe_exits_2(corpus_dir, tmp_path, capsys):
    # a list is unhashable and mixed int/str keys do not sort: the per-CWE
    # breakdown used to raise TypeError
    run_dir = tmp_path / "run"
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(run_dir),
                   "--seed", "1", *TINY_TRAIN_FLAGS) == 0
    records = [dict(json.loads(line), id=f"t{i}") for i, line
               in enumerate((corpus_dir / "val.jsonl").read_text().splitlines())]
    for key, value in (("cwe", ["CWE-79"]), ("cwe", 79), ("cve", 2021)):
        broken = [dict(records[0], **{key: value})] + records[1:]
        (corpus_dir / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in broken))
        capsys.readouterr()
        assert run_cli("eval", "--run", str(run_dir), "--data", str(corpus_dir),
                       "--max-tokens", "64") == 2
        err = capsys.readouterr().err
        assert repr(key) in err and err.count("\n") == 1


def test_non_string_record_id_exits_2(tmp_path, capsys):
    # ids were stringified, so two records with a null id collided as "None"
    raw = tmp_path / "raw.jsonl"
    for value in (None, ["a"], 7):
        raw.write_text(json.dumps({"id": value, "language": "C", "code": "int x;",
                                   "label": 0}) + "\n")
        capsys.readouterr()
        assert run_cli("build-vocab", "--data", str(raw), "--out", str(tmp_path / "v.txt")) == 2
        err = capsys.readouterr().err
        assert "line 1: field 'id' must be a string" in err and err.count("\n") == 1


def test_report_truncated_history_exits_2(tmp_path, capsys):
    record = json.dumps({"epoch": 0, "train_loss": 0.5, "val_recall": 1.0,
                         "val_precision": 0.5, "val_f1": 0.6})
    (tmp_path / "history.jsonl").write_text(record + "\n" + record[:30])  # cut mid-write
    assert run_cli("report", "--run", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "history.jsonl: line 2: malformed record" in err and err.count("\n") == 1


@pytest.mark.parametrize("line", ['[1, 2]', '{"epoch": 0}', '"epoch"', 'null',
                                  '{"epoch": 0, "train_loss": "0.5", "val_recall": 1.0, '
                                  '"val_precision": 0.5, "val_f1": 0.6}'])
def test_report_history_line_that_is_not_an_epoch_record_exits_2(line, tmp_path, capsys):
    record = json.dumps({"epoch": 0, "train_loss": 0.5, "val_recall": 1.0,
                         "val_precision": 0.5, "val_f1": 0.6})
    (tmp_path / "history.jsonl").write_text(record + "\n" + line + "\n")
    assert run_cli("report", "--run", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "history.jsonl: line 2: not an epoch record" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--heads", "0"), ("--heads", "-2"),
                                        ("--d-model", "0"), ("--d-ffn", "0")])
def test_encoder_size_below_one_exits_1(flag, value, tmp_path, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "x.jsonl"), flag, value) == 1
    err = capsys.readouterr().err
    key = {"--heads": "n_heads", "--d-model": "d_model", "--d-ffn": "d_ffn"}[flag]
    assert err.startswith(f"vulnpool: config error: {key} must be >= 1, got {value}")
    assert err.count("\n") == 1
    assert not (tmp_path / "x.jsonl").exists()


def test_masked_top_k_above_block_exits_1(corpus_dir, tmp_path, capsys):
    # masked training selects top_k within the language's block, so the block
    # must hold top_k matrices; a sweep checks every value before training any
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
                   "--mode", "pool_masked", "--topk", "2", *TINY_TRAIN_FLAGS) == 1
    err = capsys.readouterr().err
    assert "matrices_per_language 1 in pool_masked mode" in err and err.count("\n") == 1
    assert run_cli("sweep", "--axis", "topk", "--data", str(corpus_dir),
                   "--out", str(tmp_path / "s"), *TINY_TRAIN_FLAGS) == 1
    out, err = capsys.readouterr()
    assert "training" not in out and err.count("\n") == 1


def test_masked_pool_without_language_blocks_exits_1(corpus_dir, tmp_path, capsys):
    # masked training needs one block per language; a smaller pool is a config
    # error before any training, in a sweep as well as in a single run
    assert run_cli("train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
                   "--mode", "pool_masked", "--pool-size", "3", *TINY_TRAIN_FLAGS) == 1
    out, err = capsys.readouterr()
    assert err.startswith("vulnpool: config error: pool_size 3 cannot hold 7 languages")
    assert err.count("\n") == 1 and "epoch" not in out
    assert run_cli("sweep", "--axis", "mode", "--pool-size", "3", "--data", str(corpus_dir),
                   "--out", str(tmp_path / "s"), *TINY_TRAIN_FLAGS) == 1
    out, err = capsys.readouterr()
    assert "training" not in out and err.count("\n") == 1


def test_numerical_failure_exits_3(corpus_dir, tmp_path, monkeypatch):
    # the op set is numerically stable by design, so divergence is injected
    # rather than provoked; the trainer-side detection has its own unit test
    from vulnpool import cli as cli_mod
    from vulnpool import trainer

    def explode(*args, **kw):
        raise trainer.TrainingDivergedError("non-finite loss nan at epoch 0 batch 1",
                                            epoch=0, batch=1, sample_ids=["c-0001"])

    monkeypatch.setattr(cli_mod.trainer, "train", explode)
    code = run_cli("train", "--data", str(corpus_dir), "--out", str(tmp_path / "r"),
                   "--seed", "1", *TINY_TRAIN_FLAGS)
    assert code == 3
