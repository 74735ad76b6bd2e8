"""Word-boundary tokenization with [CLS]/[EOS] framing.

The vocabulary is built from corpus frequencies (deterministic: frequency
then lexicographic order) or loaded from a plain-text file, one token per
line, specials on the first four lines. Selection of pool parameters reads
position 0, so truncation always preserves the [CLS]/[EOS] frame.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

CLS_TOKEN = "[CLS]"
EOS_TOKEN = "[EOS]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
SPECIALS = (CLS_TOKEN, EOS_TOKEN, PAD_TOKEN, UNK_TOKEN)

# identifiers and numbers as atoms, any other non-space character alone
_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+(?:\.\d+)?|[^\sA-Za-z0-9_]")


class TokenizerError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Split text into word/number/punctuation atoms."""
    return _TOKEN_RE.findall(text)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    cls_id: int = 0
    eos_id: int = 1
    pad_id: int = 2
    unk_id: int = 3

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id


def check_vocab_size(max_size: int):
    if max_size < 8:
        raise TokenizerError(f"max_size must be >= 8, got {max_size}")


def build_vocab(corpus, max_size: int) -> Vocabulary:
    """Build a vocabulary from the `max_size - 4` most frequent corpus tokens.

    `corpus` is an iterable of objects with a `.code` attribute or raw
    strings. Ties in frequency break lexicographically; id assignment is a
    pure function of (corpus, max_size).
    """
    check_vocab_size(max_size)
    texts = [getattr(s, "code", s) for s in corpus]
    if not texts:
        raise TokenizerError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for text in texts:
        counts.update(tokenize(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - len(SPECIALS)]]
    id_to_token = list(SPECIALS) + kept
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )


def encode(code: str, vocab: Vocabulary, max_tokens: int) -> list[int]:
    """Encode text as the ids of [CLS] + body + [EOS], truncating the body
    from the right."""
    if max_tokens < 2:
        raise TokenizerError(f"max_tokens must be >= 2 to hold the [CLS]/[EOS] frame, "
                             f"got {max_tokens}")
    lookup, unk = vocab.token_to_id.get, vocab.unk_id
    body = [lookup(tok, unk) for tok in tokenize(code)[: max_tokens - 2]]
    return [vocab.cls_id] + body + [vocab.eos_id]


def token_length(code: str) -> int:
    """Framed token count ([CLS] + body + [EOS]) without truncation."""
    return len(tokenize(code)) + 2


def save_vocab(vocab: Vocabulary, path):
    with open(path, "w", encoding="utf-8") as f:
        for tok in vocab.id_to_token:
            f.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    """Load a one-token-per-line vocabulary (external pretrained files welcome)."""
    try:
        with open(path, encoding="utf-8") as f:
            id_to_token = [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as exc:
        raise TokenizerError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if len(id_to_token) < len(SPECIALS):
        raise TokenizerError(f"vocabulary file too small: {len(id_to_token)} lines")
    if tuple(id_to_token[:4]) != SPECIALS:
        raise TokenizerError(
            f"first four lines must be {SPECIALS}, got {tuple(id_to_token[:4])}"
        )
    seen = {}
    for i, tok in enumerate(id_to_token):
        if tok in seen:
            raise TokenizerError(f"duplicate token {tok!r} at lines {seen[tok]} and {i}")
        seen[tok] = i
    return Vocabulary(token_to_id=seen, id_to_token=id_to_token)
