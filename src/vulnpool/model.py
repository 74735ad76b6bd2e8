"""Full detection model: embedding, parameter pool, encoder stack, classifier.

The forward pass embeds the token sequence, derives a query vector, selects
prompt matrices from the pool (restricted to the input language's indices
during masked training), prepends them, runs the encoder, mean-pools the
outputs at the prompt positions and applies an affine classifier. The joint
loss is cross-entropy minus a weighted query/key match term. A backbone-only
mode bypasses the pool and classifies from the [CLS] output row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from . import pool as pl
from . import tokenizer as tok
from .corpus import CodeSample
from .encoder import Encoder, EncoderConfig
from .numcore import Tensor

MODES = ("pool_query", "pool_masked", "backbone_only")
QUERY_SOURCES = ("embed_mean", "embed_cls")


@dataclass
class ModelConfig:
    mode: str = "pool_masked"
    lam: float = 0.1  # weight of the query/key match term in the joint loss
    top_k: int = 1
    prompt_len: int = 5
    pool_size: int = 7
    matrices_per_language: int = 1
    query_from: str = "embed_mean"
    max_tokens: int = 512

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.query_from not in QUERY_SOURCES:
            raise ValueError(
                f"query_from must be one of {QUERY_SOURCES}, got {self.query_from!r}"
            )
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.prompt_len < 1 or self.pool_size < 1:
            raise ValueError(
                f"prompt_len and pool_size must be >= 1, got {self.prompt_len} "
                f"and {self.pool_size}"
            )
        if not 1 <= self.top_k <= self.pool_size:
            raise ValueError(f"top_k must lie in [1, {self.pool_size}], got {self.top_k}")


@dataclass
class ForwardResult:
    logits: Tensor
    selection: pl.Selection | None
    phi: Tensor | None  # differentiable match score of the selected key(s)


@dataclass
class Prediction:
    logits: np.ndarray
    prob_vulnerable: float
    label: int
    selection: pl.Selection | None = None


class VulnPoolModel:
    def __init__(
        self,
        config: ModelConfig,
        enc_config: EncoderConfig,
        vocab: tok.Vocabulary,
        seed: int = 0,
    ):
        self.config = config
        self.vocab = vocab
        self.encoder = Encoder.init_random(enc_config, vocab.size, seed=seed)
        rng = np.random.default_rng([seed, 1])
        self.pool = pl.ParameterPool.init_random(
            config.pool_size, config.prompt_len, enc_config.d_model, rng
        )
        self.keys = pl.KeySet.init_random(config.pool_size, enc_config.d_model, rng)
        self.classifier_w = nc.parameter(rng.normal(0.0, 0.02, size=(enc_config.d_model, 2)))
        self.classifier_b = nc.parameter(np.zeros(2))
        if config.pool_size >= len(pl.LANGUAGES) * config.matrices_per_language:
            self.assignment = pl.LanguageAssignment.default(config.matrices_per_language)
            self.assignment.validate(config.pool_size)
        else:
            self.assignment = None
        self._dropout_rng = np.random.default_rng([seed, 2])

    # ------------------------------------------------------------------
    # parameter access

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = list(self.encoder.parameters())
        named += [(f"pool.P.{i}", m) for i, m in enumerate(self.pool.matrices)]
        named += [(f"pool.k.{i}", k) for i, k in enumerate(self.keys.keys)]
        named += [("cls.w", self.classifier_w), ("cls.b", self.classifier_b)]
        return named

    def zero_grad(self):
        for _, p in self.parameters():
            p.grad = None

    def snapshot_params(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters()}

    def load_params(self, arrays: dict[str, np.ndarray]):
        for name, p in self.parameters():
            if name not in arrays:
                raise KeyError(f"missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r}: expected shape {p.data.shape}, "
                    f"got {arrays[name].shape}"
                )
            p.data[...] = arrays[name]
            p.grad = None

    def copy(self) -> "VulnPoolModel":
        clone = VulnPoolModel(self.config, self.encoder.config, self.vocab)
        clone.load_params(self.snapshot_params())
        return clone

    # ------------------------------------------------------------------
    # forward / loss / predict

    def query_vector(self, x_e: Tensor) -> Tensor:
        if self.config.query_from == "embed_cls":
            return pl.query(x_e)
        return nc.mean_rows(x_e)

    def forward(self, sample: CodeSample, train_mode: bool = False) -> ForwardResult:
        seq = tok.encode(sample.code, self.vocab, self.config.max_tokens)
        x_e = self.encoder.embed(seq.ids)

        if self.config.mode == "backbone_only":
            h = self.encoder.encode(x_e, train_mode=train_mode, rng=self._dropout_rng)
            pooled = nc.select_row(h, 0)
            logits = nc.add(nc.vec_matmul(pooled, self.classifier_w), self.classifier_b)
            return ForwardResult(logits=logits, selection=None, phi=None)

        q = self.query_vector(x_e)
        if self.config.mode == "pool_masked" and train_mode:
            if self.assignment is None:
                raise pl.PoolError(
                    "pool_masked training requires a language assignment "
                    f"(pool_size {self.config.pool_size} cannot cover "
                    f"{len(pl.LANGUAGES)} x {self.config.matrices_per_language})"
                )
            selection = pl.select_masked(
                q, self.keys, self.assignment.indices_for(sample.language)
            )
        else:
            selection = pl.select(q, self.keys, k=self.config.top_k)

        adapted = pl.adapt(selection, self.pool, x_e)
        h = self.encoder.encode(adapted.matrix, train_mode=train_mode, rng=self._dropout_rng)
        pooled = nc.mean_rows(nc.slice_rows(h, 0, adapted.prompt_len))
        logits = nc.add(nc.vec_matmul(pooled, self.classifier_w), self.classifier_b)
        phi = pl.surrogate_similarity(q, self.keys, selection)
        return ForwardResult(logits=logits, selection=selection, phi=phi)

    def loss(self, logits: Tensor, label: int, phi: Tensor | None) -> Tensor:
        ce = nc.cross_entropy_logits(logits, label)
        if phi is None or self.config.lam == 0.0:
            return ce
        return nc.sub(ce, nc.scale(phi, self.config.lam))

    def sample_loss(self, sample: CodeSample, train_mode: bool = True) -> Tensor:
        out = self.forward(sample, train_mode=train_mode)
        return self.loss(out.logits, sample.label, out.phi)

    def predict(self, sample: CodeSample) -> Prediction:
        with nc.no_grad():
            out = self.forward(sample, train_mode=False)
        values = out.logits.data
        shifted = values - values.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        label = 1 if values[1] > values[0] else 0  # exact ties resolve to 0
        return Prediction(
            logits=values.copy(),
            prob_vulnerable=float(probs[1]),
            label=label,
            selection=out.selection,
        )

    def predict_many(self, samples) -> list[Prediction]:
        return [self.predict(s) for s in samples]
