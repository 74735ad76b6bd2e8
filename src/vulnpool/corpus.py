"""Multilingual function corpus: ingestion, preprocessing, splits, synthesis.

Records are line-delimited JSON objects with fields id, language, code,
label and optional cwe, cve, split. Comment stripping runs a single-pass
3-state lexer per language family (code / string / comment); string
literals are never altered.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from . import tokenizer as tok
from .evaluate import render_rows

SPLIT_NAMES = ("train", "val", "test")


class CorpusError(ValueError):
    pass


class StripWarning(UserWarning):
    """Non-fatal lexing issue (e.g. unterminated block comment)."""


class Language(Enum):
    C = "C"
    CPP = "C++"
    CSHARP = "C#"
    GO = "Go"
    JAVA = "Java"
    JAVASCRIPT = "JavaScript"
    PYTHON = "Python"

    @property
    def tag(self) -> str:
        return self.value


LANGUAGES = tuple(Language)

_LANGUAGE_ALIASES = {
    "c": Language.C,
    "cpp": Language.CPP,
    "c++": Language.CPP,
    "csharp": Language.CSHARP,
    "c#": Language.CSHARP,
    "cs": Language.CSHARP,
    "go": Language.GO,
    "golang": Language.GO,
    "java": Language.JAVA,
    "javascript": Language.JAVASCRIPT,
    "js": Language.JAVASCRIPT,
    "python": Language.PYTHON,
    "py": Language.PYTHON,
}


def parse_language(tag: str) -> Language:
    lang = _LANGUAGE_ALIASES.get(str(tag).strip().lower())
    if lang is None:
        raise CorpusError(f"unknown language tag: {tag!r}")
    return lang


@dataclass
class CodeSample:
    """One labeled function."""

    id: str
    language: Language
    code: str
    label: int
    cwe: str | None = None
    cve: str | None = None
    split: str | None = None

    def __post_init__(self):
        if isinstance(self.label, bool) or self.label not in (0, 1):
            raise CorpusError(f"sample {self.id!r}: label must be 0 or 1, got {self.label!r}")
        if self.split is not None and self.split not in SPLIT_NAMES:
            raise CorpusError(f"sample {self.id!r}: unknown split {self.split!r}")


@dataclass
class DatasetSplit:
    train: list[CodeSample]
    val: list[CodeSample]
    test: list[CodeSample]

    def __post_init__(self):
        seen: dict[str, str] = {}
        for name in SPLIT_NAMES:
            for s in getattr(self, name):
                if s.id in seen:
                    raise CorpusError(
                        f"sample id {s.id!r} appears in both {seen[s.id]} and {name}"
                    )
                seen[s.id] = name

    def __len__(self) -> int:
        return len(self.train) + len(self.val) + len(self.test)


# ---------------------------------------------------------------------------
# record IO

def record_to_sample(obj: dict, where: str = "record") -> CodeSample:
    for key in ("id", "language", "code", "label"):
        if key not in obj:
            raise CorpusError(f"{where}: missing field {key!r}")
    for key in ("id", "code"):
        if not isinstance(obj[key], str):
            raise CorpusError(f"{where}: field {key!r} must be a string")
    if type(obj["label"]) is not int:
        raise CorpusError(f"{where}: field 'label' must be 0 or 1, got {obj['label']!r}")
    for key in ("cwe", "cve"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise CorpusError(f"{where}: field {key!r} must be a string or null")
    return CodeSample(
        id=obj["id"],
        language=parse_language(obj["language"]),
        code=obj["code"],
        label=obj["label"],
        cwe=obj.get("cwe"),
        cve=obj.get("cve"),
        split=obj.get("split"),
    )


def sample_to_record(s: CodeSample) -> dict:
    rec = {"id": s.id, "language": s.language.tag, "code": s.code, "label": s.label}
    if s.cwe is not None:
        rec["cwe"] = s.cwe
    if s.cve is not None:
        rec["cve"] = s.cve
    if s.split is not None:
        rec["split"] = s.split
    return rec


def load_records(path) -> list[CodeSample]:
    """Parse one JSON record per line; unknown fields are ignored, order kept."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text: {exc.reason}") from None
    samples = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: malformed record: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"{path}: line {lineno}: record must be an object")
        try:
            samples.append(record_to_sample(obj, where=f"line {lineno}"))
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from None
    return samples


def save_records(samples, path):
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps(sample_to_record(s), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# comment stripping

# Each stripper jumps by one regex search from a special token (a comment
# opener or a quote) to the next, and copies the code in between as one slice.
_C_TOKEN = re.compile(r"//|/\*|[\"'`]")
_PY_TOKEN = re.compile(r"\"\"\"|'''|[#\"']")
# inside a one-line literal: an escape, the closing quote or the cutting newline
_LITERAL_STOP = {q: re.compile(rf"[\\{q}\n]") for q in "\"'"}


def _literal_end(code: str, i: int, quote: str) -> int:
    """Index just past the one-line literal whose body starts at `i`: past
    its closing quote or the newline that cuts it off, where a backslash
    escapes the character after it; the end of input if neither comes."""
    stop = _LITERAL_STOP[quote]
    while True:
        m = stop.search(code, i)
        if m is None:
            return len(code)
        if m.group() != "\\":
            return m.end()
        i = m.end() + 1


def _strip_c_family(code: str) -> str:
    out = []
    i, n = 0, len(code)
    while (m := _C_TOKEN.search(code, i)) is not None:
        j = m.start()
        out.append(code[i:j])
        token = m.group()
        if token == "//":
            k = code.find("\n", j)
            i = n if k == -1 else k  # newline re-emitted in code state
        elif token == "/*":
            k = code.find("*/", j + 2)
            if k == -1:
                warnings.warn("unterminated block comment stripped to end of input", StripWarning)
                out.append("\n" * code.count("\n", j))
                i = n
            else:
                # keep interior newlines so line numbering survives
                out.append("\n" * code.count("\n", j, k + 2))
                i = k + 2
        else:
            if token == "`":  # template literal: no escapes, spans lines
                k = code.find("`", j + 1)
                i = n if k == -1 else k + 1
            else:  # an unterminated one-line literal falls back to code state
                i = _literal_end(code, j + 1, token)
            out.append(code[j:i])
    out.append(code[i:])
    return "".join(out)


def _strip_python(code: str) -> str:
    out = []
    i, n = 0, len(code)
    only_ws = True  # current line so far (after stripping) is whitespace
    while True:
        m = _PY_TOKEN.search(code, i)
        j = n if m is None else m.start()
        text = code[i:j]
        out.append(text)
        line = text.rfind("\n")  # a newline starts a blank line; what follows it decides
        tail = text[line + 1:]
        only_ws = (only_ws or line != -1) and (not tail or tail.isspace())
        if m is None:
            return "".join(out)
        token = m.group()
        if token == "#":
            k = code.find("\n", j)
            i = n if k == -1 else k
        elif len(token) == 3:
            k = code.find(token, j + 3)
            i = n if k == -1 else k + 3
            nl = code.find("\n", i)
            trailing = code[i : n if nl == -1 else nl].strip()
            if only_ws and (trailing == "" or trailing.startswith("#")):
                # bare-expression triple-quoted string (a comment may follow): a docstring
                if k == -1:
                    warnings.warn("unterminated triple-quoted string stripped", StripWarning)
                out.append("\n" * code.count("\n", j, i))
            else:
                out.append(code[j:i])
                only_ws = False
        else:
            i = _literal_end(code, j + 1, token)
            out.append(code[j:i])
            only_ws = False


def strip_comments(code: str, language: Language) -> str:
    """Remove comments (and Python docstrings) while leaving string literals
    and the line structure of the remaining code intact."""
    if language is Language.PYTHON:
        return _strip_python(code)
    return _strip_c_family(code)


# ---------------------------------------------------------------------------
# length filtering and splitting

def filter_by_length(samples, max_tokens: int = 512):
    """Partition samples by framed token count; both halves are returned
    so nothing is silently discarded."""
    kept, dropped = [], []
    for s in samples:
        (kept if tok.token_length(s.code) <= max_tokens else dropped).append(s)
    return kept, dropped


def _largest_remainder(n: int, ratios) -> list[int]:
    targets = [n * r for r in ratios]
    base = [int(t) for t in targets]
    short = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (-(targets[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return base


def split_dataset(samples, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> DatasetSplit:
    """Partition samples into train/val/test.

    Pre-assigned `split` fields win (all samples must then carry one);
    otherwise a seeded shuffle stratified per (language, label) allocates
    counts per largest remainder. Pure function of (samples, ratios, seed).
    """
    samples = list(samples)
    assigned = [s for s in samples if s.split is not None]
    if assigned:
        if len(assigned) != len(samples):
            raise CorpusError(
                f"{len(samples) - len(assigned)} of {len(samples)} samples lack a split field"
            )
        buckets = {name: [] for name in SPLIT_NAMES}
        for s in samples:
            buckets[s.split].append(s)
        return DatasetSplit(buckets["train"], buckets["val"], buckets["test"])

    if len(ratios) != 3:
        raise CorpusError(f"expected 3 ratios, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios must sum to 1, got {tuple(ratios)} (sum {sum(ratios)})")

    strata: dict[tuple[str, int], list[int]] = {}
    for idx, s in enumerate(samples):
        strata.setdefault((s.language.name, s.label), []).append(idx)

    rng = random.Random(seed)
    assignment: dict[int, str] = {}
    for key in sorted(strata):
        idxs = list(strata[key])
        rng.shuffle(idxs)
        counts = _largest_remainder(len(idxs), ratios)
        cursor = 0
        for name, count in zip(SPLIT_NAMES, counts):
            for i in idxs[cursor : cursor + count]:
                assignment[i] = name
            cursor += count

    buckets = {name: [] for name in SPLIT_NAMES}
    for idx, s in enumerate(samples):
        name = assignment[idx]
        buckets[name].append(dataclasses.replace(s, split=name))
    return DatasetSplit(buckets["train"], buckets["val"], buckets["test"])


# ---------------------------------------------------------------------------
# synthetic desk-scale corpus

# (sink call, safe counterpart) per language; sink presence carries the label
_SINKS = {
    Language.C: ("strcpy(buf, input);", "strncpy(buf, input, sizeof(buf));"),
    Language.CPP: ("memcpy(dst, src, len);", "std::copy_n(src, bounded(len), dst);"),
    Language.CSHARP: (
        "Buffer.BlockCopy(src, 0, dst, 0, len);",
        "Array.Clear(dst, 0, dst.Length);",
    ),
    Language.GO: ("exec.Command(userInput).Run()", "strconv.Itoa(count)"),
    Language.JAVA: (
        "Runtime.getRuntime().exec(cmd);",
        "logger.info(sanitize(cmd));",
    ),
    Language.JAVASCRIPT: ("eval(payload);", "JSON.parse(payload);"),
    Language.PYTHON: ("eval(payload)", "ast.literal_eval(payload)"),
}

# Two of every 20 samples use a shared API whose risk depends on the
# language: process_buffer is the dangerous call in the compiled group and
# the safe one in the scripting group, render_input the other way around.
# The label for these samples is decidable only jointly with the language,
# which is what language-specific parameters are for; the 10% cap keeps the
# corpus as a whole learnable by a flat bag-of-tokens baseline. The two
# slots land on one even and one odd index so both labels occur among the
# colliding samples at the default balanced rate.
_COLLIDE_SLOTS = (18, 19)
_COMPILED = {Language.C, Language.CPP, Language.CSHARP, Language.GO}


def _colliding_call(language: Language, vulnerable: bool) -> str:
    # identical argument tokens on both calls: only the callee name and the
    # language jointly decide the label
    risky = language in _COMPILED
    call = "process_buffer(data)" if vulnerable == risky else "render_input(data)"
    return call if language in (Language.GO, Language.PYTHON) else call + ";"


_FILLERS = {
    Language.C: ["int {v} = {k};", "{v} += {k};", "if ({v} > {k}) {v}--;"],
    Language.CPP: ["auto {v} = {k};", "{v} *= {k};", "while ({v} < {k}) {v}++;"],
    Language.CSHARP: ["var {v} = {k};", "{v} = {v} + {k};", "if ({v} != {k}) return;"],
    Language.GO: ["{v} := {k}", "{v} = {v} + {k}", "if {v} > {k} {{ return }}"],
    Language.JAVA: ["int {v} = {k};", "{v} -= {k};", "if ({v} == {k}) return;"],
    Language.JAVASCRIPT: ["let {v} = {k};", "{v} = {v} * {k};", "if ({v} < {k}) return;"],
    Language.PYTHON: ["{v} = {k}", "{v} = {v} + {k}", "if {v} > {k}: return"],
}

_VARS = ["acc", "total", "count", "idx", "size", "tmp", "pos", "flag"]


def _synth_one(language: Language, index: int, vulnerable: bool, rng: random.Random) -> str:
    sink, safe = _SINKS[language]
    lines = [
        _FILLERS[language][rng.randrange(3)].format(
            v=_VARS[rng.randrange(len(_VARS))], k=rng.randrange(1, 99)
        )
        for _ in range(rng.randrange(2, 5))
    ]
    if index % 20 in _COLLIDE_SLOTS:
        marker = _colliding_call(language, vulnerable)
    else:
        marker = sink if vulnerable else safe
    lines.insert(rng.randrange(len(lines) + 1), marker)
    body = "\n".join("    " + ln for ln in lines)
    name = f"f{index}"
    if language is Language.PYTHON:
        return f"def {name}(payload):\n{body}\n    return 0\n"
    if language is Language.GO:
        return f"func {name}(userInput string) int {{\n{body}\n    return 0\n}}\n"
    if language is Language.JAVASCRIPT:
        return f"function {name}(payload) {{\n{body}\n    return 0;\n}}\n"
    if language is Language.JAVA:
        return f"public int {name}(String cmd) {{\n{body}\n    return 0;\n}}\n"
    if language is Language.CSHARP:
        return f"public int {name}(byte[] src, byte[] dst, int len) {{\n{body}\n    return 0;\n}}\n"
    if language is Language.CPP:
        return f"int {name}(const char *src, char *dst, size_t len) {{\n{body}\n    return 0;\n}}\n"
    return f"int {name}(char *input) {{\n    char buf[64];\n{body}\n    return 0;\n}}\n"


def _spread_labels(n: int, k: int) -> list[int]:
    # Bresenham-style interleave: any prefix carries ~k/n vulnerable share
    return [1 if (i + 1) * k // n > i * k // n else 0 for i in range(n)]


def _stable_hash(name: str) -> int:
    # PYTHONHASHSEED-proof stream separator for per-language RNGs
    h = 0
    for ch in name:
        h = (h * 131 + ord(ch)) & 0xFFFFFFFF
    return h


def generate_synthetic(n_per_language: int, vuln_rate: float, seed: int) -> list[CodeSample]:
    """Emit deterministic function skeletons for all seven languages; the
    vulnerable ones contain a planted language-appropriate sink call."""
    if n_per_language < 2:
        raise CorpusError(f"n_per_language must be >= 2, got {n_per_language}")
    if not 0.0 < vuln_rate < 1.0:
        raise CorpusError(f"vuln_rate must lie in (0, 1), got {vuln_rate}")
    samples = []
    for language in LANGUAGES:
        rng = random.Random((seed * 1_000_003 + _stable_hash(language.name)) & 0x7FFFFFFF)
        labels = _spread_labels(n_per_language, round(n_per_language * vuln_rate))
        prefix = language.name.lower()
        for i, label in enumerate(labels):
            samples.append(
                CodeSample(
                    id=f"{prefix}-{i:04d}",
                    language=language,
                    code=_synth_one(language, i, bool(label), rng),
                    label=label,
                )
            )
    return samples


# ---------------------------------------------------------------------------
# statistics

@dataclass
class CorpusStats:
    """Counts per language x split x label."""

    counts: Counter = field(default_factory=Counter)  # (language, split, label) -> n

    @classmethod
    def from_split(cls, split: DatasetSplit) -> "CorpusStats":
        counts = Counter()
        for name in SPLIT_NAMES:
            for s in getattr(split, name):
                counts[(s.language, name, s.label)] += 1
        return cls(counts)

    def language_total(self, language: Language) -> int:
        return sum(n for (lang, _, _), n in self.counts.items() if lang is language)

    def split_total(self, split_name: str) -> int:
        return sum(n for (_, name, _), n in self.counts.items() if name == split_name)

    def label_total(self, label: int) -> int:
        return sum(n for (_, _, lab), n in self.counts.items() if lab == label)

    def cell(self, language: Language, split_name: str) -> int:
        return sum(
            n
            for (lang, name, _), n in self.counts.items()
            if lang is language and name == split_name
        )

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_record(self) -> dict:
        per_language = {}
        for lang in LANGUAGES:
            per_language[lang.tag] = {
                "train": self.cell(lang, "train"),
                "val": self.cell(lang, "val"),
                "test": self.cell(lang, "test"),
                "vulnerable": sum(
                    n for (lg, _, lab), n in self.counts.items() if lg is lang and lab == 1
                ),
                "non_vulnerable": sum(
                    n for (lg, _, lab), n in self.counts.items() if lg is lang and lab == 0
                ),
                "total": self.language_total(lang),
            }
        return {
            "per_language": per_language,
            "train": self.split_total("train"),
            "val": self.split_total("val"),
            "test": self.split_total("test"),
            "vulnerable": self.label_total(1),
            "non_vulnerable": self.label_total(0),
            "total": self.total,
        }

    def render(self) -> str:
        rec = self.to_record()
        header = ["Language", "Train", "Val", "Test", "Vul", "Non-Vul", "Total"]
        rows = []
        ordered = sorted(LANGUAGES, key=lambda lg: (self.language_total(lg), lg.tag))
        for lang in ordered:
            r = rec["per_language"][lang.tag]
            rows.append(
                [lang.tag, r["train"], r["val"], r["test"], r["vulnerable"],
                 r["non_vulnerable"], r["total"]]
            )
        rows.append(
            ["Total", rec["train"], rec["val"], rec["test"], rec["vulnerable"],
             rec["non_vulnerable"], rec["total"]]
        )
        return render_rows(header, rows)


def stats(split: DatasetSplit) -> CorpusStats:
    return CorpusStats.from_split(split)
