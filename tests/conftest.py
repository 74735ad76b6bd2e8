import pytest

from vulnpool import corpus, tokenizer as tok
from vulnpool.encoder import EncoderConfig
from vulnpool.model import ModelConfig, VulnPoolModel


def build_tiny_model(samples, mode="pool_query", seed=0, **kw):
    """Small model wired to a vocabulary built from `samples`."""
    vocab = tok.build_vocab(samples, max_size=512)
    model_kw = dict(mode=mode, lam=0.1, top_k=1, prompt_len=3, pool_size=7,
                    matrices_per_language=1, max_tokens=64)
    model_kw.update({k: v for k, v in kw.items() if k in model_kw})
    enc_kw = dict(n_layers=1, n_heads=2, d_model=16, d_ffn=32,
                  max_positions=64 + model_kw["top_k"] * model_kw["prompt_len"],
                  dropout_rate=0.0)
    enc_kw.update({k: v for k, v in kw.items() if k in enc_kw})
    model = VulnPoolModel(ModelConfig(**model_kw), EncoderConfig(**enc_kw), vocab, seed=seed)
    return model


@pytest.fixture(scope="session")
def small_corpus():
    return corpus.generate_synthetic(6, 0.5, seed=0)
