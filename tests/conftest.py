import pytest

from vulnpool import corpus, tokenizer as tok
from vulnpool.config import RunConfig
from vulnpool.model import VulnPoolModel

# the unit tests' small model; every setting not named is RunConfig's default
TINY = dict(mode="pool_query", prompt_len=3, max_tokens=64, n_layers=1, d_model=16, d_ffn=32)


def tiny_config(**kw) -> RunConfig:
    """The unit tests' settings, `kw` changing any RunConfig field; tests take
    the component configs from it (`.model_config()`, `.encoder_config()`,
    `.train_config()`), so that each default is declared once, in RunConfig."""
    return RunConfig(**{**TINY, **kw})


def build_tiny_model(samples, seed=0, **kw):
    """Small model wired to a vocabulary built from `samples`."""
    vocab = tok.build_vocab(samples, max_size=512)
    cfg = tiny_config(**kw)
    return VulnPoolModel(cfg.model_config(), cfg.encoder_config(), vocab, seed=seed)


@pytest.fixture(scope="session")
def small_corpus():
    return corpus.generate_synthetic(6, 0.5, seed=0)
