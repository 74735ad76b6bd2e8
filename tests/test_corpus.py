import json
import pathlib
import random

import numpy as np
import pytest

from vulnpool import corpus
from vulnpool.corpus import CodeSample, CorpusError, Language
from vulnpool.tokenizer import tokenize

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


def make_sample(i, language=Language.C, label=0, **kw):
    return CodeSample(id=f"s{i}", language=language, code=f"int f{i}() {{ return {i}; }}",
                      label=label, **kw)


# ---------------------------------------------------------------------------
# record IO

def test_load_records_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert corpus.load_records(path) == []


def test_load_records_single(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text('{"id":"a","language":"C","code":"int f(){}","label":0}\n')
    records = corpus.load_records(path)
    assert len(records) == 1
    assert records[0].label == 0
    assert records[0].language is Language.C


def test_load_records_malformed_line_carries_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","language":"C","code":"x","label":0}\n{broken\n')
    with pytest.raises(CorpusError, match="line 2"):
        corpus.load_records(path)


def test_load_records_unknown_language_names_tag(tmp_path):
    path = tmp_path / "lang.jsonl"
    path.write_text('{"id":"a","language":"cobol","code":"x","label":0}\n')
    with pytest.raises(CorpusError, match="cobol"):
        corpus.load_records(path)


def test_load_records_ignores_unknown_fields_and_keeps_order(tmp_path):
    path = tmp_path / "extra.jsonl"
    rows = [
        {"id": "b", "language": "go", "code": "x", "label": 1, "commit": "deadbeef"},
        {"id": "a", "language": "py", "code": "y", "label": 0, "stars": 7},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    records = corpus.load_records(path)
    assert [r.id for r in records] == ["b", "a"]


def test_load_records_rejects_bad_label(tmp_path):
    path = tmp_path / "label.jsonl"
    path.write_text('{"id":"a","language":"C","code":"x","label":2}\n')
    with pytest.raises(CorpusError, match="label"):
        corpus.load_records(path)


def test_load_records_rejects_bool_label(tmp_path):
    path = tmp_path / "label.jsonl"
    path.write_text('{"id":"a","language":"C","code":"x","label":true}\n')
    with pytest.raises(CorpusError, match="label"):
        corpus.load_records(path)


def test_save_load_round_trip(tmp_path):
    samples = [
        make_sample(0, Language.PYTHON, 1, cwe="CWE-79", cve="CVE-2020-1"),
        make_sample(1, Language.GO, 0, split="train"),
    ]
    path = tmp_path / "rt.jsonl"
    corpus.save_records(samples, path)
    assert corpus.load_records(path) == samples


# ---------------------------------------------------------------------------
# comment stripping

def test_strip_line_comment_c():
    assert corpus.strip_comments("int x; // note", Language.C) == "int x; "


def test_strip_preserves_marker_in_string():
    assert corpus.strip_comments('"a // b"', Language.C) == '"a // b"'


def test_strip_python_examples():
    out = corpus.strip_comments('x = 1  # c\ny = "#"', Language.PYTHON)
    assert out == 'x = 1  \ny = "#"'


def test_strip_unterminated_block_warns_not_fails():
    with pytest.warns(corpus.StripWarning):
        out = corpus.strip_comments("int x; /* open", Language.C)
    assert out == "int x; "


@pytest.mark.parametrize(
    "stem,language",
    [("sample_c", Language.C), ("sample_py", Language.PYTHON), ("sample_go", Language.GO)],
)
def test_strip_matches_golden_files(stem, language):
    source = (GOLDEN / f"{stem}.txt").read_text()
    expected = (GOLDEN / f"{stem}.expected.txt").read_text()
    assert corpus.strip_comments(source, language) == expected


def test_strip_is_idempotent_on_synthetic_corpus():
    for s in corpus.generate_synthetic(10, 0.5, seed=2):
        once = corpus.strip_comments(s.code, s.language)
        assert corpus.strip_comments(once, s.language) == once


def test_strip_is_idempotent_on_golden_outputs():
    for stem, language in [("sample_c", Language.C), ("sample_py", Language.PYTHON),
                           ("sample_go", Language.GO)]:
        once = corpus.strip_comments((GOLDEN / f"{stem}.txt").read_text(), language)
        assert corpus.strip_comments(once, language) == once


def test_strip_never_alters_string_literal_bytes():
    # randomized literals stuffed with comment markers must survive unchanged
    r = random.Random(13)
    pieces = ["//", "/*", "*/", "#", "a", "b", " ", "'", "\\\\"]
    for _ in range(200):
        literal = "".join(r.choice(pieces) for _ in range(r.randint(0, 10)))
        literal = literal.replace('"', "")
        c_code = f'int f() {{ const char *s = "{literal}"; }} // tail'
        stripped = corpus.strip_comments(c_code, Language.C)
        assert f'"{literal}"' in stripped
        py_literal = literal.replace("'", "")
        py_code = f's = "{py_literal}"  # tail'
        assert f'"{py_literal}"' in corpus.strip_comments(py_code, Language.PYTHON)


def test_strip_docstring_only_when_bare_statement():
    kept = 'x = """value"""'
    assert corpus.strip_comments(kept, Language.PYTHON) == kept
    removed = corpus.strip_comments('"""doc"""\nx = 1', Language.PYTHON)
    assert removed == "\nx = 1"


def test_strip_docstring_followed_by_comment():
    # a comment after the closing quotes still leaves a bare statement
    stripped = corpus.strip_comments('    """doc"""  # noqa\nx = 1', Language.PYTHON)
    assert stripped == "      \nx = 1"
    assert corpus.strip_comments(stripped, Language.PYTHON) == stripped


# ---------------------------------------------------------------------------
# length filtering

def test_filter_boundary_inclusive_exclusive():
    word = "tok "
    at_limit = make_sample(0)
    at_limit.code = word * 510  # 510 body tokens + frame = 512
    over = make_sample(1)
    over.code = word * 511
    kept, dropped = corpus.filter_by_length([at_limit, over], max_tokens=512)
    assert kept == [at_limit]
    assert dropped == [over]


def test_filter_partition_is_exact():
    r = random.Random(5)
    samples = []
    for i in range(60):
        s = make_sample(i)
        s.code = "x " * r.randint(1, 40)
        samples.append(s)
    kept, dropped = corpus.filter_by_length(samples, max_tokens=20)
    assert len(kept) + len(dropped) == len(samples)
    assert {s.id for s in kept}.isdisjoint({s.id for s in dropped})
    # per-sample re-tokenization oracle
    for s in kept:
        assert len(tokenize(s.code)) + 2 <= 20
    for s in dropped:
        assert len(tokenize(s.code)) + 2 > 20


# ---------------------------------------------------------------------------
# splitting

def test_split_passthrough_when_preassigned():
    samples = [make_sample(i, split=name) for i, name in
               enumerate(["train", "train", "val", "test"])]
    split = corpus.split_dataset(samples, seed=1)
    assert [s.id for s in split.train] == ["s0", "s1"]
    assert [s.id for s in split.val] == ["s2"]
    assert [s.id for s in split.test] == ["s3"]


def test_split_rejects_partial_assignment():
    samples = [make_sample(0, split="train"), make_sample(1)]
    with pytest.raises(CorpusError, match="lack a split"):
        corpus.split_dataset(samples)


def test_split_deterministic():
    samples = [make_sample(i, label=i % 2) for i in range(100)]
    a = corpus.split_dataset(samples, seed=7)
    b = corpus.split_dataset(samples, seed=7)
    assert [s.id for s in a.train] == [s.id for s in b.train]
    assert [s.id for s in a.val] == [s.id for s in b.val]
    assert [s.id for s in a.test] == [s.id for s in b.test]
    c = corpus.split_dataset(samples, seed=8)
    assert [s.id for s in a.train] != [s.id for s in c.train]


def test_split_counting_oracle_1000_samples():
    # 500 C + 300 Python + 200 Go, half vulnerable each: every stratum
    # divides evenly, so sizes and per-language proportions are exact
    samples = []
    spec = [(Language.C, 500), (Language.PYTHON, 300), (Language.GO, 200)]
    i = 0
    for language, n in spec:
        for j in range(n):
            samples.append(make_sample(i, language, label=j % 2))
            i += 1
    split = corpus.split_dataset(samples, (0.8, 0.1, 0.1), seed=7)
    assert (len(split.train), len(split.val), len(split.test)) == (800, 100, 100)
    for language, n in spec:
        in_train = sum(1 for s in split.train if s.language is language)
        in_val = sum(1 for s in split.val if s.language is language)
        in_test = sum(1 for s in split.test if s.language is language)
        assert abs(in_train - 0.8 * n) <= 1
        assert abs(in_val - 0.1 * n) <= 1
        assert abs(in_test - 0.1 * n) <= 1


def test_split_bad_ratios_rejected():
    samples = [make_sample(i) for i in range(10)]
    with pytest.raises(CorpusError, match="sum to 1"):
        corpus.split_dataset(samples, ratios=(0.8, 0.1, 0.2))


def test_split_disjointness_enforced():
    dup = [make_sample(0, split="train"), make_sample(0, split="test")]
    with pytest.raises(CorpusError, match="appears in both"):
        corpus.split_dataset(dup)


# ---------------------------------------------------------------------------
# synthetic corpus

def test_synthetic_counts():
    samples = corpus.generate_synthetic(2, 0.5, seed=0)
    assert len(samples) == 14
    assert sum(s.label for s in samples) == 7


def test_synthetic_deterministic():
    a = corpus.generate_synthetic(5, 0.5, seed=42)
    b = corpus.generate_synthetic(5, 0.5, seed=42)
    assert a == b
    c = corpus.generate_synthetic(5, 0.5, seed=43)
    assert a != c


def test_synthetic_rejects_bad_args():
    with pytest.raises(CorpusError):
        corpus.generate_synthetic(1, 0.5, seed=0)
    with pytest.raises(CorpusError):
        corpus.generate_synthetic(10, 1.5, seed=0)


def test_synthetic_linear_probe_oracle():
    # independent check that the planted signal is learnable: bag-of-tokens
    # logistic regression, held-out accuracy >= 0.95 (the 10% of samples
    # carrying language-dependent shared APIs are not linearly separable,
    # which caps, but does not sink, a flat baseline)
    samples = corpus.generate_synthetic(100, 0.5, seed=11)
    vocab = {}
    for s in samples:
        for t in set(tokenize(s.code)):
            vocab.setdefault(t, len(vocab))
    x = np.zeros((len(samples), len(vocab)))
    y = np.array([s.label for s in samples], dtype=float)
    for i, s in enumerate(samples):
        for t in set(tokenize(s.code)):
            x[i, vocab[t]] = 1.0
    idx = np.random.default_rng(0).permutation(len(samples))
    cut = int(0.7 * len(samples))
    tr, te = idx[:cut], idx[cut:]
    w = np.zeros(len(vocab))
    b = 0.0
    for _ in range(1500):
        p = 1.0 / (1.0 + np.exp(-(x[tr] @ w + b)))
        g = p - y[tr]
        w -= 1.0 * (x[tr].T @ g) / len(tr)
        b -= 1.0 * g.mean()
    pred = (x[te] @ w + b) > 0
    accuracy = (pred == (y[te] > 0.5)).mean()
    assert accuracy >= 0.95


def test_synthetic_colliding_samples_cover_both_labels():
    samples = corpus.generate_synthetic(100, 0.5, seed=11)
    colliding = [s for s in samples
                 if "process_buffer" in s.code or "render_input" in s.code]
    assert len(colliding) == 70  # two slots per twenty samples per language
    assert sum(s.label for s in colliding) == 35
    # the same callee name appears under both labels (in different languages)
    for token in ("process_buffer", "render_input"):
        labels = {s.label for s in colliding if token in s.code}
        assert labels == {0, 1}, token


# ---------------------------------------------------------------------------
# stats

def test_stats_empty_split_all_zero():
    split = corpus.DatasetSplit([], [], [])
    st = corpus.CorpusStats.from_split(split)
    assert st.total == 0
    assert st.split_total("train") == 0


def test_stats_synthetic_counts():
    samples = corpus.generate_synthetic(10, 0.5, seed=1)
    split = corpus.split_dataset(samples, seed=1)
    st = corpus.CorpusStats.from_split(split)
    assert st.total == 70
    for language in Language:
        assert st.language_total(language) == 10


def test_stats_totals_equal_cardinality():
    samples = corpus.generate_synthetic(13, 0.4, seed=3)
    split = corpus.split_dataset(samples, seed=3)
    assert corpus.CorpusStats.from_split(split).total == len(samples)


def test_stats_render_mentions_every_language():
    samples = corpus.generate_synthetic(3, 0.5, seed=5)
    split = corpus.split_dataset(samples, seed=5)
    table = corpus.CorpusStats.from_split(split).render()
    for language in Language:
        assert language.tag in table
    assert "Total" in table
