"""Compact transformer encoder: token/position embedding plus a pre-norm
multi-head self-attention stack.

Stands in for a pretrained code encoder at desk scale; weights initialize
from a seeded normal(0, 0.02) and load with the rest of the model from a
training checkpoint. Prompt rows prepended by the pool receive no positional
term, so `embed` indexes positions over code tokens only. A mini-batch is
packed, not padded: its sequences sit back to back in one (rows, d) matrix,
every row-wise layer runs once over all rows, and the fused attention op
keeps each sequence to itself. A caller that reads only the first rows of
each sequence asks `encode` for them: the last layer then runs its queries
and everything after attention on those rows alone, while every row stays a
key and a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import Tensor


@dataclass
class EncoderConfig:
    n_layers: int = 2
    n_heads: int = 2
    d_model: int = 32
    d_ffn: int = 64
    max_positions: int = 517
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


def _param_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple]:
    d, f = config.d_model, config.d_ffn
    shapes = {
        "embed.tok": (vocab_size, d),
        "embed.pos": (config.max_positions, d),
    }
    for i in range(config.n_layers):
        p = f"enc.{i}."
        shapes.update(
            {
                p + "ln1.g": (d,),
                p + "ln1.b": (d,),
                p + "attn.wq": (d, d),
                p + "attn.bq": (d,),
                p + "attn.wk": (d, d),
                p + "attn.bk": (d,),
                p + "attn.wv": (d, d),
                p + "attn.bv": (d,),
                p + "attn.wo": (d, d),
                p + "attn.bo": (d,),
                p + "ln2.g": (d,),
                p + "ln2.b": (d,),
                p + "ffn.w1": (d, f),
                p + "ffn.b1": (f,),
                p + "ffn.w2": (f, d),
                p + "ffn.b2": (d,),
            }
        )
    shapes["enc.lnf.g"] = (d,)
    shapes["enc.lnf.b"] = (d,)
    return shapes


class Encoder:
    """Embedding layer + attention stack over adapted embeddings."""

    def __init__(self, config: EncoderConfig, vocab_size: int, params: dict[str, Tensor]):
        self.config = config
        self.vocab_size = vocab_size
        self.params = params

    @classmethod
    def init_random(cls, config: EncoderConfig, vocab_size: int, seed: int = 0) -> "Encoder":
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in _param_shapes(config, vocab_size).items():
            leaf = name.rsplit(".", 1)[-1]
            if leaf == "g":
                data = np.ones(shape)
            elif leaf in ("b", "bq", "bk", "bv", "bo", "b1", "b2"):
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, 0.02, size=shape)
            params[name] = nc.parameter(data)
        return cls(config, vocab_size, params)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    # ------------------------------------------------------------------
    # forward

    def _segments(self, segments, rows: int) -> list[tuple[int, int]]:
        """Each sequence's (start, stop) rows; they must tile all `rows`."""
        spans = [(int(lo), int(hi)) for lo, hi in segments]
        starts = [0] + [hi for _, hi in spans[:-1]]
        if not spans or [lo for lo, _ in spans] != starts or spans[-1][1] != rows:
            raise ValueError(f"segments {spans} do not tile {rows} rows")
        longest = max(hi - lo for lo, hi in spans)
        if longest > self.config.max_positions:
            raise ValueError(
                f"sequence length {longest} exceeds max_positions {self.config.max_positions}"
            )
        return spans

    def embed(self, ids, segments) -> Tensor:
        """Token embedding plus learned absolute positions over code tokens.

        `ids` holds the sequences back to back, `segments` each one's
        (start, stop); positions restart at 0 in every sequence.
        """
        spans = self._segments(segments, len(ids))
        positions = np.arange(len(ids)) - np.array([lo for lo, _ in spans]).repeat(
            [hi - lo for lo, hi in spans])
        tok_rows = nc.gather_rows(self.params["embed.tok"], ids)  # range-checks the ids
        pos_rows = nc.gather_rows(self.params["embed.pos"], positions)
        return nc.add(tok_rows, pos_rows)

    def _linear(self, x: Tensor, w: str, b: str) -> Tensor:
        return nc.linear(x, self.params[w], self.params[b])

    def encode(self, x: Tensor, segments, keep: int | None = None, train_mode: bool = False,
               rng=None) -> Tensor:
        """Run the pre-norm encoder stack over sequences packed back to back
        as `segments` (see `embed`); rows attend only within their own
        sequence.

        Without `keep` the output has the input's shape. With `keep`, the
        output is the first `keep` rows of each sequence, sequence after
        sequence: (len(segments) * keep, d). Every row is a key and a value
        in every layer, but the last layer runs its queries, attention
        output, FFN and final norm on the kept rows only; a kept row comes
        out as in the full stack, up to rounding."""
        spans = self._segments(segments, x.shape[0])
        if keep is not None and not 1 <= keep <= min(hi - lo for lo, hi in spans):
            raise ValueError(f"keep {keep} must lie in [1, shortest sequence] for {spans}")
        drop = self.config.dropout_rate if train_mode else 0.0
        q_spans = None  # the queries are the key rows, until the last layer with `keep`
        for layer in range(self.config.n_layers):
            p = f"enc.{layer}."
            normed = nc.layer_norm(x, self.params[p + "ln1.g"], self.params[p + "ln1.b"])
            k = self._linear(normed, p + "attn.wk", p + "attn.bk")
            v = self._linear(normed, p + "attn.wv", p + "attn.bv")
            if keep is not None and layer == self.config.n_layers - 1:
                rows = (np.array([lo for lo, _ in spans])[:, None] + np.arange(keep)).ravel()
                x = nc.gather_rows(x, rows, unique=True)
                normed = nc.gather_rows(normed, rows, unique=True)
                q_spans = [(i * keep, (i + 1) * keep) for i in range(len(spans))]
            q = self._linear(normed, p + "attn.wq", p + "attn.bq")
            merged = nc.attention(q, k, v, spans, self.config.n_heads, q_spans)
            attn_out = self._linear(merged, p + "attn.wo", p + "attn.bo")
            if drop > 0.0:
                attn_out = nc.dropout(attn_out, drop, rng)
            x = nc.add(x, attn_out)
            normed = nc.layer_norm(x, self.params[p + "ln2.g"], self.params[p + "ln2.b"])
            hidden = nc.gelu(self._linear(normed, p + "ffn.w1", p + "ffn.b1"))
            ffn_out = self._linear(hidden, p + "ffn.w2", p + "ffn.b2")
            if drop > 0.0:
                ffn_out = nc.dropout(ffn_out, drop, rng)
            x = nc.add(x, ffn_out)
        return nc.layer_norm(x, self.params["enc.lnf.g"], self.params["enc.lnf.b"])
