"""Write the golden batch oracle with the per-sample model path.

The files in this directory were written by this script at commit 9e39d6c,
the last commit in which every sample built its own graph:

    git archive 9e39d6c | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/data/golden_batch/make_golden.py tests/data/golden_batch

It uses that commit's API (`VulnPoolModel.forward(sample)`), so it does not
run against later code. Each case is one `mulvuln-ckpt-v1` file holding the
model parameters (`param.<name>`), the per-sample logits of one training
forward pass (`logits`), the batch loss (`loss`, the mean of the per-sample
joint losses), the selected pool indices (`selections`, one row per
sample) and the gradient of the batch loss for every parameter that
received one (`grad.<name>`). The manifest carries the samples, the
vocabulary and the configs, so the oracle does not depend on the corpus
generator or on parameter initialisation.
"""

import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from vulnpool import checkpoint as ckpt
from vulnpool import corpus, numcore as nc, tokenizer as tok
from vulnpool.encoder import EncoderConfig
from vulnpool.model import ModelConfig, VulnPoolModel

PARENT_COMMIT = "9e39d6c"
# unequal lengths over six languages; with max_tokens 48 the C, C++ and C#
# functions (52, 62 and 59 framed tokens) are truncated
SAMPLE_IDS = ("c-0000", "cpp-0000", "go-0000", "java-0001", "python-0000",
              "python-0001", "javascript-0002", "csharp-0002")
MAX_TOKENS = 48
PROMPT_LEN = 3
CASES = {
    "pool_masked": dict(mode="pool_masked", top_k=1),
    "pool_query_top2": dict(mode="pool_query", top_k=2),
    "backbone_only": dict(mode="backbone_only", top_k=1),
}


def batch_samples():
    by_id = {s.id: s for s in corpus.generate_synthetic(3, 0.5, seed=5)}
    return [by_id[i] for i in SAMPLE_IDS]


def write_case(out_dir: Path, name: str, samples, vocab):
    kw = CASES[name]
    model_cfg = ModelConfig(mode=kw["mode"], lam=0.1, top_k=kw["top_k"],
                            prompt_len=PROMPT_LEN, pool_size=7, max_tokens=MAX_TOKENS)
    enc_cfg = EncoderConfig(n_layers=2, n_heads=2, d_model=16, d_ffn=32,
                            max_positions=MAX_TOKENS + kw["top_k"] * PROMPT_LEN)
    model = VulnPoolModel(model_cfg, enc_cfg, vocab, seed=11)
    arrays = {f"param.{n}": p.data.copy() for n, p in model.parameters()}

    logits, losses, selections = [], [], []
    for s in samples:
        out = model.forward(s, train_mode=True)
        logits.append(out.logits.data.copy())
        losses.append(model.loss(out.logits, s.label, out.phi))
        if out.selection is not None:
            selections.append(out.selection.indices)
    loss = nc.scale(nc.add_n(losses), 1.0 / len(losses))
    nc.backward(loss)

    arrays["logits"] = np.stack(logits)
    arrays["loss"] = np.array(loss.item())
    if selections:
        arrays["selections"] = np.array(selections, dtype=np.int64)
    for n, p in model.parameters():
        if p.grad is not None:
            arrays[f"grad.{n}"] = p.grad
    meta = {
        "written_at": PARENT_COMMIT,
        "case": name,
        "model": asdict(model_cfg),
        "encoder": asdict(enc_cfg),
        "vocab": vocab.id_to_token,
        "samples": [
            {"id": s.id, "language": s.language.tag, "label": s.label, "code": s.code}
            for s in samples
        ],
    }
    ckpt.save_arrays(out_dir / f"{name}.ckpt", arrays, meta)


def main(out_dir: str):
    samples = batch_samples()
    vocab = tok.build_vocab(samples, max_size=64)
    for name in CASES:
        write_case(Path(out_dir), name, samples, vocab)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).parent))
