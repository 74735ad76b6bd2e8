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


class PoolError(ValueError):
    pass


class ParameterPool:
    """`size` learnable matrices of shape (prompt_len, d_model)."""

    def __init__(self, matrices: list[Tensor]):
        if not matrices:
            raise PoolError("pool must contain at least one matrix")
        shape = matrices[0].shape
        if len(shape) != 2:
            raise PoolError(f"pool matrices must be 2-D, got {shape}")
        for m in matrices[1:]:
            if m.shape != shape:
                raise PoolError(f"inconsistent pool matrix shapes: {shape} vs {m.shape}")
        self.matrices = matrices

    @classmethod
    def init_random(cls, size: int, prompt_len: int, d_model: int, rng) -> "ParameterPool":
        return cls([
            nc.parameter(rng.normal(0.0, 0.02, size=(prompt_len, d_model)))
            for _ in range(size)
        ])

    @property
    def size(self) -> int:
        return len(self.matrices)

    @property
    def prompt_len(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def d_model(self) -> int:
        return self.matrices[0].shape[1]


class KeySet:
    """One learnable key vector per pool matrix."""

    def __init__(self, keys: list[Tensor]):
        if not keys:
            raise PoolError("key set must contain at least one key")
        for k in keys:
            if len(k.shape) != 1:
                raise PoolError(f"keys must be vectors, got shape {k.shape}")
        self.keys = keys

    @classmethod
    def init_random(cls, size: int, d_k: int, rng) -> "KeySet":
        return cls([nc.parameter(rng.normal(0.0, 0.02, size=(d_k,))) for _ in range(size)])

    @property
    def size(self) -> int:
        return len(self.keys)

    def reinit_zero_keys(self, rng, scale: float = 0.02) -> list[int]:
        """Re-draw any key whose norm underflowed to zero; returns indices."""
        redone = []
        for i, k in enumerate(self.keys):
            if float(np.linalg.norm(k.data)) < 1e-12:
                k.data[...] = rng.normal(0.0, scale, size=k.data.shape)
                k.grad = None
                redone.append(i)
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

    def validate(self, pool_size: int):
        seen: dict[int, Language] = {}
        for lang in LANGUAGES:
            if lang not in self.mapping:
                raise PoolError(f"language {lang.tag} missing from assignment")
            idxs = self.mapping[lang]
            if not idxs:
                raise PoolError(f"language {lang.tag} has an empty index list")
            for i in idxs:
                if not 0 <= i < pool_size:
                    raise PoolError(f"index {i} for {lang.tag} out of range [0, {pool_size})")
                if i in seen:
                    raise PoolError(
                        f"index {i} assigned to both {seen[i].tag} and {lang.tag}"
                    )
                seen[i] = lang

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


def query(x_e: Tensor, segments=None) -> Tensor:
    """The [CLS]-position row of the embedded sequence, or of each packed
    sequence's (start, stop) `segments` as (B, d)."""
    if x_e.shape[0] == 0:
        raise PoolError("cannot take a query from an empty sequence")
    return nc.gather_rows(x_e, 0 if segments is None else [lo for lo, _ in segments])


def key_norms(keys: KeySet) -> np.ndarray:
    """The norm of every key; a batch computes them once for all its queries.
    Each is np.linalg.norm's arithmetic for a vector, sqrt(k . k), without
    its per-call overhead."""
    norms = np.sqrt([k.data.dot(k.data) for k in keys.keys])
    if norms.min() < 1e-12:
        raise PoolError(f"key {np.flatnonzero(norms < 1e-12)[0]} is a zero vector")
    return norms


def match_scores(q, keys: KeySet, norms: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarity of the query against every key (values only).
    `norms` are the keys' `key_norms`, computed here when not given."""
    qd = q.data if isinstance(q, Tensor) else np.asarray(q, dtype=float)
    qn = np.linalg.norm(qd)
    if qn < 1e-12:
        raise PoolError("query is a zero vector")
    if norms is None:
        norms = key_norms(keys)
    out = np.empty(keys.size)
    for i, k in enumerate(keys.keys):
        out[i] = float(qd @ k.data) / (qn * norms[i])
    return out


def _ranked(scores: np.ndarray, candidates) -> list[int]:
    # ties break toward the lowest index
    return sorted(candidates, key=lambda i: (-scores[i], i))


def select(q, keys: KeySet, k: int = 1, norms: np.ndarray | None = None) -> Selection:
    """Instance-wise selection: the k best-matching keys, best first.
    `norms` as in `match_scores`."""
    if not 1 <= k <= keys.size:
        raise PoolError(f"k must lie in [1, {keys.size}], got {k}")
    scores = match_scores(q, keys, norms)
    order = _ranked(scores, range(keys.size))[:k]
    return Selection(tuple(order), tuple(float(scores[i]) for i in order))


def select_masked(q, keys: KeySet, allowed, norms: np.ndarray | None = None) -> Selection:
    """Selection restricted to the language's candidate indices.
    `norms` as in `match_scores`."""
    allowed = list(allowed)
    if not allowed:
        raise PoolError("allowed index list is empty")
    for i in allowed:
        if not 0 <= i < keys.size:
            raise PoolError(f"allowed index {i} out of range [0, {keys.size})")
    scores = match_scores(q, keys, norms)
    best = _ranked(scores, allowed)[0]
    return Selection((best,), (float(scores[best]),))


def _batch(selections) -> list[Selection]:
    return [selections] if isinstance(selections, Selection) else list(selections)


def adapt(selections, pool: ParameterPool, x_e: Tensor, segments=None) -> AdaptedEmbedding:
    """Stack each sequence's selected prompt matrices above its token embeddings.

    `x_e` holds one sequence with one Selection, or several back to back with
    one Selection per (start, stop) in `segments`. The result packs the
    sequences in the same order, built as one row gather over the selected
    matrices and `x_e`. Gradients flow only into the selected matrices; the
    embedding rows are carried through unchanged.
    """
    selections = _batch(selections)
    spans = [(0, x_e.shape[0])] if segments is None else list(segments)
    if len(spans) != len(selections):
        raise PoolError(f"{len(selections)} selections for {len(spans)} sequences")
    if x_e.shape[1] != pool.d_model:
        raise PoolError(
            f"embedding width {x_e.shape[1]} does not match pool width {pool.d_model}"
        )
    for selection in selections:
        for i in selection.indices:
            if not 0 <= i < pool.size:
                raise PoolError(f"selected index {i} out of range [0, {pool.size})")
    if len({len(s.indices) for s in selections}) != 1:
        raise PoolError("every sequence of a batch must select the same number of matrices")

    used = sorted({i for s in selections for i in s.indices})
    lp = pool.prompt_len
    first_row = {i: j * lp for j, i in enumerate(used)}
    tokens_at = len(used) * lp
    rows: list[int] = []
    packed = []
    for selection, (lo, hi) in zip(selections, spans):
        start = len(rows)
        for i in selection.indices:
            rows.extend(range(first_row[i], first_row[i] + lp))
        rows.extend(range(tokens_at + lo, tokens_at + hi))
        packed.append((start, len(rows)))
    table = nc.concat_rows([pool.matrices[i] for i in used] + [x_e])
    return AdaptedEmbedding(
        matrix=nc.gather_rows(table, rows),
        segments=packed,
        prompt_len=len(selections[0].indices) * lp,
    )


def surrogate_similarity(q: Tensor, keys: KeySet, selections) -> Tensor:
    """Differentiable query/key match term, (B,): for each query row of `q`
    (B, d), the mean cosine to the keys of its Selection. A lone (d,) query
    takes one Selection and gives (1,)."""
    selections = _batch(selections)
    if q.data.ndim == 1:
        q = nc.concat_rows([q])
    used = sorted({i for s in selections for i in s.indices})
    slot = {i: j for j, i in enumerate(used)}
    key_rows = nc.gather_rows(
        nc.concat_rows([keys.keys[i] for i in used]),
        [slot[i] for s in selections for i in s.indices],
    )
    counts = [len(s.indices) for s in selections]
    if max(counts) == 1:  # one key per query: the rows already pair up
        return nc.cosine_similarity(q, key_rows)
    query_rows = nc.gather_rows(q, [b for b, n in enumerate(counts) for _ in range(n)])
    ends = np.cumsum(counts)
    return nc.segment_mean(nc.cosine_similarity(query_rows, key_rows), zip(ends - counts, ends))
