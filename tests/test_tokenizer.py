import random

import pytest

from vulnpool import tokenizer as tok
from vulnpool.config import RunConfig
from vulnpool.corpus import generate_synthetic

MAX_TOKENS = RunConfig().max_tokens


def small_vocab(texts, max_size=32):
    return tok.build_vocab(texts, max_size)


def test_build_vocab_keeps_frequent_tokens_and_specials():
    vocab = small_vocab(["a b", "a"], max_size=8)
    assert "a" in vocab and "b" in vocab
    assert vocab.id_to_token[:4] == list(tok.SPECIALS)
    assert vocab.size == 6


def test_build_vocab_deterministic():
    texts = ["x = y + z", "y = x * x", "call(x, y)"]
    v1 = small_vocab(texts)
    v2 = small_vocab(texts)
    assert v1.id_to_token == v2.id_to_token


def test_build_vocab_frequency_then_lexicographic():
    # "b" occurs twice, "a" and "c" once each: b first, then a before c
    vocab = tok.build_vocab(["b b a c"], max_size=8)
    assert vocab.id_to_token[4:] == ["b", "a", "c"]


def test_build_vocab_respects_max_size():
    vocab = tok.build_vocab(["a b c d e f g h i j"], max_size=8)
    assert vocab.size == 8


def test_build_vocab_rejects_tiny_max_size():
    with pytest.raises(tok.TokenizerError, match="max_size"):
        tok.build_vocab(["a"], max_size=7)


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(tok.TokenizerError, match="empty"):
        tok.build_vocab([], max_size=32)


def test_sinks_in_vocabulary_at_4096():
    # frequency-count oracle: every planted sink token must survive the cut
    samples = generate_synthetic(50, 0.5, seed=3)
    vocab = tok.build_vocab(samples, max_size=4096)
    for sink in ("strcpy", "memcpy", "BlockCopy", "exec", "eval"):
        assert sink in vocab, sink


def test_encode_empty_body():
    vocab = small_vocab(["a b"])
    assert tok.encode("", vocab, MAX_TOKENS) == [vocab.cls_id, vocab.eos_id]


def test_encode_keeps_the_two_row_frame_at_any_budget():
    # every sequence has at least the [CLS] and [EOS] rows, so no encoder
    # product is ever a one-row product
    vocab = small_vocab(["a b"])
    for max_tokens in (2, 3, 512):
        assert len(tok.encode("", vocab, max_tokens)) == 2
    assert tok.encode("a b a", vocab, 2) == [vocab.cls_id, vocab.eos_id]
    for max_tokens in (1, 0, -3):
        with pytest.raises(tok.TokenizerError, match="max_tokens"):
            tok.encode("a b a", vocab, max_tokens)


@pytest.mark.parametrize("n_tokens", [5, 8, 10, 30])  # framed: shorter than, equal to, longer
def test_encode_looks_up_only_the_tokens_it_keeps(n_tokens):
    max_tokens = 10
    looked_up = []

    class Counting(dict):
        def get(self, token, default=None):
            looked_up.append(token)
            return super().get(token, default)

    vocab = small_vocab(["a b c d"])
    vocab.token_to_id = Counting(vocab.token_to_id)
    text = " ".join(["a", "zz", "c", "b", "q"] * 6)
    text = " ".join(text.split()[:n_tokens])
    ids = tok.encode(text, vocab, max_tokens)
    full = [dict.get(vocab.token_to_id, t, vocab.unk_id) for t in tok.tokenize(text)]
    assert ids == [vocab.cls_id] + full[: max_tokens - 2] + [vocab.eos_id]
    assert len(looked_up) == min(n_tokens, max_tokens - 2)


def test_encode_simple():
    vocab = small_vocab(["a b"])
    seq = tok.encode("a b", vocab, MAX_TOKENS)
    ids = vocab.token_to_id
    assert seq == [vocab.cls_id, ids["a"], ids["b"], vocab.eos_id]


def test_encode_truncates_from_right_keeping_frame():
    vocab = small_vocab(["a"])
    body = " ".join(["a"] * 600)
    seq = tok.encode(body, vocab, max_tokens=512)
    assert len(seq) == 512
    assert seq[0] == vocab.cls_id
    assert seq[-1] == vocab.eos_id


def test_encode_unknown_maps_to_unk():
    vocab = small_vocab(["a"])
    seq = tok.encode("zzz", vocab, MAX_TOKENS)
    assert seq[1] == vocab.unk_id


def test_round_trip_randomized_in_vocabulary_texts():
    words = ["alpha", "beta", "gamma", "x", "y", "if", "return", "0", "42", "+", "(", ")"]
    vocab = tok.build_vocab([" ".join(words)], max_size=64)
    r = random.Random(7)
    for _ in range(1000):
        picked = [r.choice(words) for _ in range(r.randint(0, 20))]
        seq = tok.encode(" ".join(picked), vocab, MAX_TOKENS)
        assert seq == ([vocab.cls_id] + [vocab.token_to_id[w] for w in picked]
                           + [vocab.eos_id])


def test_every_sequence_is_framed():
    vocab = small_vocab(["a b c"])
    r = random.Random(9)
    for _ in range(200):
        text = " ".join(r.choice("abc") for _ in range(r.randint(0, 30)))
        seq = tok.encode(text, vocab, max_tokens=16)
        assert seq[0] == vocab.cls_id
        assert seq[-1] == vocab.eos_id
        assert 2 <= len(seq) <= 16


def test_token_length_counts_frame():
    assert tok.token_length("") == 2
    assert tok.token_length("a b") == 4


def test_vocab_save_load_round_trip(tmp_path):
    vocab = small_vocab(["foo bar baz + - 42"])
    path = tmp_path / "vocab.txt"
    tok.save_vocab(vocab, path)
    loaded = tok.load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def test_load_vocab_validates_specials(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("x\ny\nz\nw\n")
    with pytest.raises(tok.TokenizerError, match="first four lines"):
        tok.load_vocab(path)
