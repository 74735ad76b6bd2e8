"""Property tests at the input boundaries: checkpoint bytes, JSON records and
comment stripping. Examples are derandomized and bounded, so every run checks
the same cases."""

import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnpool import checkpoint as ckpt
from vulnpool import corpus, trainer
from vulnpool.corpus import CodeSample, CorpusError, Language
from vulnpool.trainer import TrainConfig

from conftest import build_tiny_model

BOUNDED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


# ---------------------------------------------------------------------------
# checkpoint bytes

@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    split = corpus.split_dataset(corpus.generate_synthetic(4, 0.5, seed=8), (0.8, 0.1, 0.1),
                                 seed=8)
    model = build_tiny_model(split.train + split.val + split.test, mode="pool_masked")
    run_dir = tmp_path_factory.mktemp("run")
    trainer.train(model, split, TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=0),
                  run_dir=run_dir)
    whole = (run_dir / "epoch_0.ckpt").read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", whole, len(ckpt._MAGIC))
    header_end = len(ckpt._MAGIC) + 8 + manifest_len
    return whole, header_end, model.vocab, tmp_path_factory.mktemp("mutated") / "m.ckpt"


@BOUNDED
@given(st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(trained_checkpoint, data):
    whole, header_end, vocab, path = trained_checkpoint
    # most of the file is array data; aim half the edits at the header and manifest
    position = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(whole) - 1))
    edits = data.draw(st.lists(st.tuples(position, st.integers(0, 255)), min_size=1,
                               max_size=4))
    mutated = bytearray(whole)
    for at, value in edits:
        mutated[at] = value
    path.write_bytes(bytes(mutated))
    try:
        trainer.load_checkpoint(path, vocab)
    except ckpt.CheckpointError:
        pass


# ---------------------------------------------------------------------------
# JSON records

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# values that pass some fields' checks, so records reach the later ones
plausible = {
    "id": json_values,
    "language": st.sampled_from(["C", "c++", "Go", "java", "py", "Rust", 7]) | json_values,
    "code": st.text(max_size=20) | json_values,
    "label": st.sampled_from([0, 1, 1.0, True, 2]) | json_values,
    "cwe": st.sampled_from([None, "CWE-79"]) | json_values,
    "cve": st.sampled_from([None, "CVE-2021-1"]) | json_values,
    "split": st.sampled_from([None, "train", "dev"]) | json_values,
}
records = st.fixed_dictionaries({}, optional=plausible).flatmap(
    lambda fields: st.dictionaries(st.text(max_size=6), json_values, max_size=2).map(
        lambda extra: {**extra, **fields}))


@BOUNDED
@given(records)
def test_record_gives_typed_sample_or_raises_corpus_error(obj):
    try:
        sample = corpus.record_to_sample(obj)
    except CorpusError:
        return
    assert isinstance(sample, CodeSample)
    assert type(sample.id) is str and type(sample.code) is str
    assert isinstance(sample.language, Language)
    assert type(sample.label) is int and sample.label in (0, 1)
    for value in (sample.cwe, sample.cve, sample.split):
        assert value is None or type(value) is str


# ---------------------------------------------------------------------------
# comment stripping

SOURCE_PIECES = {
    Language.C: ["/*", "*/", "//", '"', "'", "\\", "\n", " ", "x", "=", ";", "{", "}"],
    Language.JAVASCRIPT: ["/*", "*/", "//", '"', "'", "`", "\\", "\n", " ", "x", ";"],
    Language.PYTHON: ['"""', "'''", "#", '"', "'", "\\", "\n", " ", "x", "=", ":"],
}


# The character-at-a-time strippers that the token-jumping ones replaced:
# the reference their output must equal, warnings included.
def reference_strip_c_family(code: str) -> str:
    out = []
    i, n = 0, len(code)
    while i < n:
        ch = code[i]
        nxt = code[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = code.find("\n", i)
            i = n if j == -1 else j  # newline re-emitted in code state
            continue
        if ch == "/" and nxt == "*":
            j = code.find("*/", i + 2)
            if j == -1:
                warnings.warn("unterminated block comment stripped to end of input",
                              corpus.StripWarning)
                out.append("\n" * code.count("\n", i))
                i = n
            else:
                # keep interior newlines so line numbering survives
                out.append("\n" * code.count("\n", i, j + 2))
                i = j + 2
            continue
        if ch in "\"'`":
            quote = ch
            out.append(ch)
            i += 1
            while i < n:
                c = code[i]
                out.append(c)
                i += 1
                if c == "\\" and quote != "`" and i < n:
                    out.append(code[i])
                    i += 1
                    continue
                if c == quote:
                    break
                if c == "\n" and quote != "`":
                    break  # unterminated single-line literal: fall back to code state
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def reference_strip_python(code: str) -> str:
    out = []
    i, n = 0, len(code)
    only_ws = True  # current line so far (after stripping) is whitespace
    while i < n:
        if code.startswith('"""', i) or code.startswith("'''", i):
            q = code[i : i + 3]
            j = code.find(q, i + 3)
            end = n if j == -1 else j + 3
            nl = code.find("\n", end)
            trailing = code[end : n if nl == -1 else nl].strip()
            if only_ws and (trailing == "" or trailing.startswith("#")):
                # bare-expression triple-quoted string (a comment may follow): a docstring
                if j == -1:
                    warnings.warn("unterminated triple-quoted string stripped",
                                  corpus.StripWarning)
                out.append("\n" * code.count("\n", i, end))
                i = end
            else:
                out.append(code[i:end])
                only_ws = False
                i = end
            continue
        ch = code[i]
        if ch == "#":
            j = code.find("\n", i)
            i = n if j == -1 else j
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
            only_ws = False
            i += 1
            while i < n:
                c = code[i]
                out.append(c)
                i += 1
                if c == "\\" and i < n:
                    out.append(code[i])
                    i += 1
                    continue
                if c == quote or c == "\n":
                    break
            continue
        out.append(ch)
        if ch == "\n":
            only_ws = True
        elif not ch.isspace():
            only_ws = False
        i += 1
    return "".join(out)


def reference_strip(code, language):
    if language is Language.PYTHON:
        return reference_strip_python(code)
    return reference_strip_c_family(code)


def strip_recording_warnings(strip, code, language):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = strip(code, language)
    return out, [str(w.message) for w in caught]


@BOUNDED
@given(st.sampled_from(sorted(SOURCE_PIECES, key=lambda lang: lang.tag)).flatmap(
    lambda lang: st.tuples(st.just(lang),
                           st.lists(st.sampled_from(SOURCE_PIECES[lang]), max_size=30))))
def test_strip_comments_matches_the_character_loop(case):
    language, pieces = case
    code = "".join(pieces)
    assert (strip_recording_warnings(corpus.strip_comments, code, language)
            == strip_recording_warnings(reference_strip, code, language))


@BOUNDED
@given(st.sampled_from(sorted(SOURCE_PIECES, key=lambda lang: lang.tag)).flatmap(
    lambda lang: st.tuples(st.just(lang),
                           st.lists(st.sampled_from(SOURCE_PIECES[lang]), max_size=30))))
def test_strip_comments_is_idempotent(case):
    language, pieces = case
    code = "".join(pieces)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", corpus.StripWarning)
        once = corpus.strip_comments(code, language)
        assert corpus.strip_comments(once, language) == once


# code around a literal: statements and whole comments, each of which leaves
# the stripper in code state
CODE_AROUND = {
    Language.C: ["x = a / b;", " ", "\n", "// note\n", "/* a\nb */", '"s";', "'c';"],
    Language.JAVASCRIPT: ["x = a / b;", " ", "\n", "// note\n", "/* a\nb */", '"s";', "'c';",
                          "`t\n`;"],
    Language.PYTHON: ["x = a / b", " ", "\n", "# note\n", '"""doc"""\n', '"s"', "'c'"],
}
LITERAL_QUOTES = {Language.C: "\"'", Language.JAVASCRIPT: "\"'`", Language.PYTHON: "\"'"}
COMMENT_MARKERS = ["//", "/*", "#", '"""']
LITERAL_FILLER = ["a", " ", "*/", "'''", "\\\\"]


def literals(quote):
    """Literals opened by `quote` that hold at least one comment marker."""
    markers = [m for m in COMMENT_MARKERS if quote not in m]
    body = [p for p in markers + LITERAL_FILLER if quote not in p]
    if quote != "`":  # a template literal has no escapes
        body.append("\\" + quote)
    fill = st.lists(st.sampled_from(body), max_size=6).map("".join)
    return st.tuples(fill, st.sampled_from(markers), fill).map(
        lambda parts: quote + "".join(parts) + quote)


@BOUNDED
@given(st.sampled_from(sorted(CODE_AROUND, key=lambda lang: lang.tag)).flatmap(
    lambda lang: st.tuples(
        st.just(lang),
        st.lists(st.sampled_from(CODE_AROUND[lang]), max_size=8).map("".join),
        st.sampled_from(LITERAL_QUOTES[lang]).flatmap(literals),
        st.lists(st.sampled_from(CODE_AROUND[lang]), max_size=8).map("".join))))
def test_strip_comments_keeps_string_literals(case):
    language, before, literal, after = case
    code = f"{before}v = {literal};{after}"
    assert literal in corpus.strip_comments(code, language)
