"""Full detection model: embedding, parameter pool, encoder stack, classifier.

The forward pass builds one graph per mini-batch. It embeds the token
sequences packed back to back, derives a query vector per sample, selects
prompt matrices from the pool (restricted to the input language's indices
during masked training), prepends them to each sequence, runs the encoder
once over all rows, mean-pools each sample's outputs at its prompt positions
and applies an affine classifier. The encoder's last layer computes only the
rows the classifier reads (see `forward`). The joint loss is cross-entropy
minus a weighted query/key match term, averaged over the batch. A
backbone-only mode bypasses the pool and classifies from the [CLS] output
row. Prediction packs samples into forwards of at most PREDICT_ROWS rows, and
every row comes out as it would for its sample alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numcore as nc
from . import pool as pl
from . import tokenizer as tok
from .corpus import CodeSample
from .encoder import Encoder, EncoderConfig
from .numcore import Tensor

MODES = ("pool_query", "pool_masked", "backbone_only")
QUERY_SOURCES = ("embed_mean", "embed_cls")

# Packed rows, prompt rows included, of one predict_many forward; a sample
# longer than this runs alone. Desk-scale evaluate throughput was flat from
# 512 to 2048 rows, and long inputs gained nothing from more.
PREDICT_ROWS = 1024


@dataclass
class ModelConfig:
    mode: str
    lam: float  # weight of the query/key match term in the joint loss
    top_k: int
    prompt_len: int
    pool_size: int
    matrices_per_language: int
    query_from: str
    max_tokens: int

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
        if self.mode == "pool_masked":
            # masked training selects top_k within the language's own block,
            # and the pool must hold every language's block
            if self.pool_size < len(pl.LANGUAGES) * self.matrices_per_language:
                raise ValueError(
                    f"pool_size {self.pool_size} cannot hold {len(pl.LANGUAGES)} languages x "
                    f"matrices_per_language {self.matrices_per_language} in pool_masked mode"
                )
            if self.top_k > self.matrices_per_language:
                raise ValueError(
                    f"top_k {self.top_k} exceeds matrices_per_language "
                    f"{self.matrices_per_language} in pool_masked mode"
                )
        if self.max_tokens < 2:
            raise ValueError(
                f"max_tokens must be >= 2 to hold the [CLS]/[EOS] frame, got {self.max_tokens}"
            )


@dataclass
class ForwardResult:
    """One forward pass over a mini-batch of B samples."""

    logits: Tensor  # (B, 2)
    selections: list[pl.Selection] | None = None  # one per sample; None without a pool
    query: Tensor | None = None  # (B, d) query rows the selections were made from
    keys: list[Tensor] | None = None

    @cached_property
    def phi(self) -> Tensor | None:
        """(B,) differentiable match score of the selected key(s); None without
        a pool. Built on first read, in that read's grad mode: only the loss
        needs it, so prediction never pays for it."""
        if self.selections is None:
            return None
        return pl.surrogate_similarity(self.query, self.keys, self.selections)


@dataclass
class Prediction:
    logits: np.ndarray
    prob_vulnerable: float
    label: int
    selection: pl.Selection | None  # None without a pool


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
        self.pool = pl.init_random(config.pool_size, (config.prompt_len, enc_config.d_model), rng)
        self.keys = pl.init_random(config.pool_size, (enc_config.d_model,), rng)
        self.classifier_w = nc.parameter(rng.normal(0.0, 0.02, size=(enc_config.d_model, 2)))
        self.classifier_b = nc.parameter(np.zeros(2))
        self.flat = _flatten(self.parameters(), np.float32)  # drawn in float64, cast
        if config.pool_size >= len(pl.LANGUAGES) * config.matrices_per_language:
            self.assignment = pl.LanguageAssignment.default(config.matrices_per_language)
            # row l masks the pool indices assigned to pl.LANGUAGES[l]
            self._language_masks = np.zeros((len(pl.LANGUAGES), config.pool_size), dtype=bool)
            for row, language in zip(self._language_masks, pl.LANGUAGES):
                row[list(self.assignment.indices_for(language))] = True
        else:
            self.assignment = None
        self._dropout_rng = np.random.default_rng([seed, 2])

    # ------------------------------------------------------------------
    # parameter access

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every parameter by name, each a view, in this order, of the 1-D
        buffer `self.flat`, which `trainer.adam_step` updates."""
        named = self.encoder.parameters()
        named += [(f"pool.P.{i}", m) for i, m in enumerate(self.pool)]
        named += [(f"pool.k.{i}", k) for i, k in enumerate(self.keys)]
        named += [("cls.w", self.classifier_w), ("cls.b", self.classifier_b)]
        return named

    def snapshot_params(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.parameters()}

    def load_params(self, arrays: dict[str, np.ndarray]):
        """Copy the stored arrays into a new flat buffer of their dtype, which
        they must share: the model then computes in that dtype (a float64
        checkpoint predicts in float64)."""
        named = self.parameters()
        for name, p in named:
            if name not in arrays:
                raise KeyError(f"missing parameter {name!r}")
            if arrays[name].shape != p.data.shape:
                raise ValueError(
                    f"parameter {name!r}: expected shape {p.data.shape}, "
                    f"got {arrays[name].shape}"
                )
        dtypes = {arrays[name].dtype for name, _ in named}
        if len(dtypes) != 1:
            raise ValueError(f"parameter arrays must share one dtype, found "
                             f"{', '.join(sorted(d.str for d in dtypes))}")
        for name, p in named:
            p.data = arrays[name]
            p.grad = None
        self.flat = _flatten(named, dtypes.pop())

    def copy(self) -> "VulnPoolModel":
        clone = VulnPoolModel(self.config, self.encoder.config, self.vocab)
        clone.load_params(self.snapshot_params())
        return clone

    # ------------------------------------------------------------------
    # forward / loss / predict

    def tokenize(self, samples) -> list[list[int]]:
        """Each sample's framed, truncated token ids."""
        return [tok.encode(s.code, self.vocab, self.config.max_tokens).ids for s in samples]

    def embed(self, seqs) -> tuple[Tensor, list[tuple[int, int]]]:
        """Embed the token id lists `seqs` back to back: the packed (rows, d)
        embeddings and each sequence's (start, stop) rows."""
        ids: list[int] = []
        segments = []
        for seq in seqs:
            segments.append((len(ids), len(ids) + len(seq)))
            ids.extend(seq)
        return self.encoder.embed(ids, segments), segments

    def query_vector(self, x_e: Tensor, segments) -> Tensor:
        """The (B, d) queries of the packed sequences `segments` of `x_e`: each
        one's [CLS]-position row, or the mean of its rows."""
        if self.config.query_from == "embed_cls":
            return nc.gather_rows(x_e, [lo for lo, _ in segments], unique=True)
        return nc.segment_mean(x_e, segments)

    def _classify(self, pooled: Tensor) -> Tensor:
        # row-invariant, so a sample's logits do not depend on its batch
        return nc.add(nc.matmul_rowwise(pooled, self.classifier_w), self.classifier_b)

    def _allowed(self, samples) -> np.ndarray:
        """(B, N) mask of each sample's language-assigned pool indices."""
        return self._language_masks[[pl.LANGUAGES.index(s.language) for s in samples]]

    def _prompt_rows(self) -> int:
        """Prompt rows the pool prepends to each sequence; 0 without a pool."""
        if self.config.mode == "backbone_only":
            return 0
        return self.config.top_k * self.config.prompt_len

    def forward(self, samples, seqs, train_mode: bool = False) -> ForwardResult:
        """One packed graph over the mini-batch `samples` and their token ids
        `seqs`, from `tokenize`; see ForwardResult.

        The encoder returns the first `keep` rows of each sequence, one block
        per sample: the prompt rows the classifier pools, or the [CLS] row
        without a pool. Never fewer than 2, so that the last layer's products
        have two rows or more for a sample alone too (see `predict_many`)."""
        samples = list(samples)
        x_e, segments = self.embed(seqs)
        rng = self._dropout_rng
        keep = max(2, self._prompt_rows())
        blocks = range(0, keep * len(segments), keep)

        if self.config.mode == "backbone_only":
            h = self.encoder.encode(x_e, segments, keep, train_mode=train_mode, rng=rng)
            logits = self._classify(nc.gather_rows(h, blocks, unique=True))
            return ForwardResult(logits=logits)

        q = self.query_vector(x_e, segments)
        if self.config.mode == "pool_masked" and train_mode:
            selections = pl.select(q.data, self.keys, self.config.top_k, self._allowed(samples))
        else:
            selections = pl.select(q.data, self.keys, self.config.top_k)
        adapted = pl.adapt(selections, self.pool, x_e, segments)
        h = self.encoder.encode(adapted.matrix, adapted.segments, keep, train_mode=train_mode,
                                rng=rng)
        prompts = [(lo, lo + adapted.prompt_len) for lo in blocks]
        logits = self._classify(nc.segment_mean(h, prompts))
        return ForwardResult(logits=logits, selections=selections, query=q, keys=self.keys)

    def loss(self, logits: Tensor, labels, phi: Tensor | None) -> Tensor:
        """Mean joint loss over the batch: cross-entropy minus lam times the
        match score. A (2,) logit vector with one label is a batch of one."""
        ce = nc.cross_entropy_logits(logits, labels)
        n = ce.data.size
        mean_ce = nc.scale(nc.sum_all(ce), 1.0 / n)
        if phi is None or self.config.lam == 0.0:
            return mean_ce
        return nc.sub(mean_ce, nc.scale(nc.sum_all(phi), self.config.lam / n))

    def predict(self, sample: CodeSample) -> Prediction:
        return self.predict_many([sample])[0]

    def predict_many(self, samples, seqs=None) -> list[Prediction]:
        """Predict `samples` in order, in packed forwards of at most
        PREDICT_ROWS rows each. `seqs`, the samples' ids from `tokenize`,
        saves tokenizing again.

        Each prediction is bit-equal to predicting its sample alone. Attention,
        pooling and selection read one sample's rows at a time, row-wise ops
        are exact per row, and the products are row-invariant: the classifier
        uses `matmul_rowwise`, and an encoder product always has two rows or
        more (the [CLS]/[EOS] frame, and at least two kept rows in the last
        layer), where BLAS computes a row alike in products of any row count
        (tested in float32 and float64; a one-row product is not)."""
        samples = list(samples)
        seqs = self.tokenize(samples) if seqs is None else seqs
        prompt = self._prompt_rows()
        predictions: list[Prediction] = []
        lo = 0
        while lo < len(samples):
            hi, rows = lo + 1, len(seqs[lo]) + prompt
            while hi < len(samples) and rows + len(seqs[hi]) + prompt <= PREDICT_ROWS:
                rows += len(seqs[hi]) + prompt
                hi += 1
            with nc.no_grad():
                out = self.forward(samples[lo:hi], seqs=seqs[lo:hi])
            predictions += _predictions(out)
            lo = hi
        return predictions


def parameter_views(buffer: np.ndarray, named):
    """(name, view) of the 1-D `buffer` for each (name, tensor) pair of
    `named`, in order, shaped like the tensor: the layout of
    `VulnPoolModel.flat`, and of any buffer laid out like it."""
    offset = 0
    for name, t in named:
        yield name, buffer[offset:offset + t.data.size].reshape(t.data.shape)
        offset += t.data.size


def _flatten(named, dtype) -> np.ndarray:
    """Copy the arrays of the (name, tensor) pairs `named` into one new 1-D
    `dtype` buffer, in order, make each tensor's array its view of it and
    return the buffer."""
    flat = np.empty(sum(t.data.size for _, t in named), dtype=dtype)
    for (_, t), (_, view) in zip(named, parameter_views(flat, named)):
        view[...] = t.data
        t.data = view
    return flat


def _predictions(out: ForwardResult) -> list[Prediction]:
    logits = out.logits.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e[:, 1] / e.sum(axis=1)
    selections = out.selections or [None] * len(logits)
    return [  # an exact tie of the two logits resolves to label 0
        Prediction(logits=values, prob_vulnerable=float(p), label=int(values[1] > values[0]),
                   selection=selection)
        for values, p, selection in zip(logits, probs, selections)
    ]
