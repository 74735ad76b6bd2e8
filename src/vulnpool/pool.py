"""Language-specific parameter pool with key-based retrieval.

A pool of learnable prompt matrices, one key vector per matrix. An input's
query vector is matched against the keys by cosine similarity; the winning
matrices are prepended to the token embeddings. Training may restrict the
candidate set to the input language's assigned indices, while inference
always selects over the full pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .corpus import LANGUAGES, Language
from .numcore import Tensor


# standard deviation of the normal draws of pool matrices and keys
INIT_STD = 0.02


class PoolError(ValueError):
    pass


def init_random(size: int, shape: tuple[int, ...], rng) -> list[Tensor]:
    """`size` learnable arrays of `shape` drawn from normal(0, INIT_STD): the
    pool matrices (prompt_len, d_model) or the keys (d_model,). Each is its
    own parameter, so an unselected one gets no gradient and Adam leaves it be."""
    return [nc.parameter(rng.normal(0.0, INIT_STD, size=shape)) for _ in range(size)]


def reinit_zero_keys(keys: list[Tensor], rng) -> list[int]:
    """Re-draw any key whose norm underflowed to zero, which `select` would
    reject; returns their indices. The norms are one einsum, as in `select`."""
    kd = np.stack([k.data for k in keys])
    redone = np.flatnonzero(np.sqrt(np.einsum("nd,nd->n", kd, kd)) < 1e-12).tolist()
    for i in redone:
        keys[i].data[...] = rng.normal(0.0, INIT_STD, size=keys[i].data.shape)
        keys[i].grad = None
    return redone


@dataclass
class LanguageAssignment:
    """Maps each language to its reserved pool indices (contiguous blocks)."""

    mapping: dict[Language, tuple[int, ...]]

    @classmethod
    def default(cls, per_language: int = 1) -> "LanguageAssignment":
        return cls({
            lang: tuple(range(i * per_language, (i + 1) * per_language))
            for i, lang in enumerate(LANGUAGES)
        })

    def indices_for(self, language: Language) -> tuple[int, ...]:
        if language not in self.mapping:
            raise PoolError(f"language {language.tag} has no assigned pool indices")
        return self.mapping[language]

    def to_record(self) -> dict:
        return {lang.tag: list(idxs) for lang, idxs in self.mapping.items()}


@dataclass
class Selection:
    """Chosen pool indices with their match scores, best first."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]

    @property
    def i_star(self) -> int:
        return self.indices[0]


@dataclass
class AdaptedEmbedding:
    """Packed sequences, each its selected prompt rows followed by its tokens."""

    matrix: Tensor
    segments: list[tuple[int, int]]  # each sequence's (start, stop) rows
    prompt_len: int  # prompt rows at the head of every sequence


def select(q: np.ndarray, keys: list[Tensor], k: int = 1, allowed: np.ndarray | None = None
           ) -> list[Selection]:
    """Instance-wise selection for each query row of `q` (B, d): the k
    best-matching keys by cosine, best first, ties to the lowest index.

    `allowed`, a (B, N) boolean mask over the N keys, restricts each row's
    candidates (language-aware masked training). The (B, N) cosines come
    from one einsum, which sums each element in one fixed order, so a row
    selects the same alone as in any batch."""
    if not 1 <= k <= len(keys):
        raise PoolError(f"k must lie in [1, {len(keys)}], got {k}")
    kd = np.stack([key.data for key in keys])
    k_norms = np.sqrt(np.einsum("nd,nd->n", kd, kd))
    if k_norms.min() < 1e-12:
        raise PoolError(f"key {np.flatnonzero(k_norms < 1e-12)[0]} is a zero vector")
    q_norms = np.sqrt(np.einsum("bd,bd->b", q, q))
    if q_norms.min() < 1e-12:
        raise PoolError("query is a zero vector")
    scores = np.einsum("bd,nd->bn", q, kd) / np.outer(q_norms, k_norms)
    ranked = scores
    if allowed is not None:
        if not allowed.any(axis=1).all():
            raise PoolError("allowed index set is empty")
        ranked = np.where(allowed, scores, -np.inf)
    order = np.argsort(-ranked, axis=1, kind="stable")[:, :k].tolist()
    return [Selection(tuple(row), tuple([s[i] for i in row]))
            for row, s in zip(order, scores.tolist())]


def adapt(selections: list[Selection], pool: list[Tensor], x_e: Tensor,
          segments) -> AdaptedEmbedding:
    """Stack each sequence's selected prompt matrices above its token embeddings.

    `x_e` holds the sequences back to back, one Selection per (start, stop)
    in `segments`. The result packs the sequences in the same order, placed
    by one `numcore.prepend_rows`. Gradients flow only into the selected
    matrices; the embedding rows are carried through unchanged.
    """
    spans = list(segments)
    if len(spans) != len(selections):
        raise PoolError(f"{len(selections)} selections for {len(spans)} sequences")
    lp, width = pool[0].shape
    if x_e.shape[1] != width:
        raise PoolError(f"embedding width {x_e.shape[1]} does not match pool width {width}")
    if len({len(s.indices) for s in selections}) != 1:
        raise PoolError("every sequence of a batch must select the same number of matrices")
    picks = [s.indices for s in selections]
    outside = [i for row in picks for i in row if not 0 <= i < len(pool)]
    if outside:
        raise PoolError(f"selected index {outside[0]} out of range [0, {len(pool)})")
    prompt_len = len(picks[0]) * lp
    return AdaptedEmbedding(
        matrix=nc.prepend_rows(x_e, spans, pool, picks),
        segments=[(b * prompt_len + lo, (b + 1) * prompt_len + hi)
                  for b, (lo, hi) in enumerate(spans)],
        prompt_len=prompt_len,
    )


def surrogate_similarity(q: Tensor, keys: list[Tensor], selections: list[Selection]) -> Tensor:
    """Differentiable query/key match term, (B,): for each query row of `q`
    (B, d), the mean cosine to the keys of its Selection."""
    used = sorted({i for s in selections for i in s.indices})
    slot = {i: j for j, i in enumerate(used)}
    key_rows = nc.gather_rows(
        nc.concat_rows([keys[i] for i in used]),
        [slot[i] for s in selections for i in s.indices],
    )
    counts = [len(s.indices) for s in selections]
    if max(counts) == 1:  # one key per query: the rows already pair up
        return nc.cosine_similarity(q, key_rows)
    query_rows = nc.gather_rows(q, [b for b, n in enumerate(counts) for _ in range(n)])
    ends = np.cumsum(counts)
    return nc.segment_mean(nc.cosine_similarity(query_rows, key_rows), zip(ends - counts, ends))
