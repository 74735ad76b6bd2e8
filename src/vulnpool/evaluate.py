"""Recall / Precision / F1 with per-language and per-CWE breakdowns, plus
query/key vector export for downstream visualization."""

from __future__ import annotations

from dataclasses import dataclass


# default shortlist of high-impact CWE categories (2024 CWE Top-25 scoring)
DEFAULT_TOP_CWES = (
    "CWE-79",
    "CWE-787",
    "CWE-89",
    "CWE-78",
    "CWE-416",
    "CWE-20",
    "CWE-125",
    "CWE-22",
    "CWE-352",
    "CWE-94",
)


class MetricsError(ValueError):
    pass


def f1_score(recall: float, precision: float) -> float:
    """Harmonic mean of recall and precision; 0 when both vanish."""
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)


@dataclass
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    recall: float
    precision: float
    f1: float
    flags: tuple[str, ...] = ()

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "MetricsReport":
        flags = []
        if tp + fn > 0:
            recall = tp / (tp + fn)
        else:
            recall, flags = 0.0, flags + ["recall_undefined"]
        if tp + fp > 0:
            precision = tp / (tp + fp)
        else:
            precision, flags = 0.0, flags + ["precision_undefined"]
        return cls(
            tp=tp, fp=fp, fn=fn, tn=tn,
            recall=recall, precision=precision,
            f1=f1_score(recall, precision),
            flags=tuple(flags),
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_record(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "recall": self.recall, "precision": self.precision, "f1": self.f1,
            "flags": list(self.flags),
        }


def _predicted_label(p) -> int:
    return p.label if hasattr(p, "label") else int(p)


def compute_metrics(predictions, labels) -> MetricsReport:
    """Confusion counts and ratios with class 1 (vulnerable) as positive."""
    predictions = [_predicted_label(p) for p in predictions]
    labels = [int(y) for y in labels]
    if len(predictions) != len(labels):
        raise MetricsError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels"
        )
    for y in labels:
        if y not in (0, 1):
            raise MetricsError(f"labels must be binary, got {y}")
    tp = fp = fn = tn = 0
    for pred, y in zip(predictions, labels):
        if y == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return MetricsReport.from_counts(tp, fp, fn, tn)


@dataclass
class GroupMetrics:
    report: MetricsReport
    n_samples: int


@dataclass
class BreakdownReport:
    by: str
    groups: dict[str, GroupMetrics]
    macro: dict | None = None  # unweighted averages over the CWE shortlist

    def to_record(self) -> dict:
        rec = {
            "by": self.by,
            "groups": {
                key: {"n": gm.n_samples, **gm.report.to_record()}
                for key, gm in self.groups.items()
            },
        }
        if self.macro is not None:
            rec["macro"] = self.macro
        return rec


def breakdown(predictions, labels, samples, by: str) -> BreakdownReport:
    """Per-group metrics keyed by language tag or CWE id.

    Samples without a CWE group under "unknown". For CWE breakdowns a
    macro (unweighted) average over the shortlist identifiers is attached.
    """
    if by not in ("language", "cwe"):
        raise MetricsError(f"breakdown key must be 'language' or 'cwe', got {by!r}")
    predictions = [_predicted_label(p) for p in predictions]
    if not (len(predictions) == len(labels) == len(samples)):
        raise MetricsError(
            f"length mismatch: {len(predictions)} predictions, "
            f"{len(labels)} labels, {len(samples)} samples"
        )
    grouped: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        key = s.language.tag if by == "language" else (s.cwe or "unknown")
        grouped.setdefault(key, []).append(i)

    groups = {}
    for key in sorted(grouped):
        idxs = grouped[key]
        report = compute_metrics([predictions[i] for i in idxs], [labels[i] for i in idxs])
        groups[key] = GroupMetrics(report=report, n_samples=len(idxs))

    macro = None
    if by == "cwe":
        listed = [groups[c].report for c in DEFAULT_TOP_CWES if c in groups]
        if listed:
            macro = {
                "cwes": [c for c in DEFAULT_TOP_CWES if c in groups],
                "recall": sum(r.recall for r in listed) / len(listed),
                "precision": sum(r.precision for r in listed) / len(listed),
                "f1": sum(r.f1 for r in listed) / len(listed),
            }
    return BreakdownReport(by=by, groups=groups, macro=macro)


# ---------------------------------------------------------------------------
# rendering

def render_rows(header, rows) -> str:
    """Left-aligned plain-text table: header, dashed rule, one line per row."""
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]

    def fmt(row):
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)).rstrip()

    return "\n".join([fmt(header), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows])


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def render_metrics(report: MetricsReport, name: str = "overall") -> str:
    header = ["Method", "Recall", "Precision", "F1-score"]
    return render_rows(
        header, [[name, _pct(report.recall), _pct(report.precision), _pct(report.f1)]]
    )


def render_breakdown(report: BreakdownReport) -> str:
    key_title = "Language" if report.by == "language" else "CWE"
    header = [key_title, "Recall", "Precision", "F1-score", "Samples"]
    rows = [
        [key, _pct(gm.report.recall), _pct(gm.report.precision), _pct(gm.report.f1),
         gm.n_samples]
        for key, gm in report.groups.items()
    ]
    if report.macro is not None:
        rows.append(
            ["Average", _pct(report.macro["recall"]), _pct(report.macro["precision"]),
             _pct(report.macro["f1"]), sum(gm.n_samples for gm in report.groups.values())]
        )
    return render_rows(header, rows)


# ---------------------------------------------------------------------------
# embedding export

def export_embeddings(model, samples, path):
    """Write query vectors (per sample, with its unrestricted selection and
    language) followed by all key vectors, tab-separated.

    Columns: kind, id, language-or-index, selected index (queries only),
    then the vector values. Sample rows are ordered by id.
    """
    from . import numcore as nc
    from . import pool as pl

    ordered = sorted(samples, key=lambda s: s.id)
    queries, selections = [], []
    if ordered:
        with nc.no_grad():
            x_e, segments = model.embed(model.tokenize(ordered))
            queries = model.query_vector(x_e, segments).data
        selections = pl.select(queries, model.keys)
    lines = []
    for s, q, selection in zip(ordered, queries, selections):
        values = "\t".join(f"{v:.8e}" for v in q)
        lines.append(f"query\t{s.id}\t{s.language.tag}\t{selection.i_star}\t{values}")
    for i, k in enumerate(model.keys):
        values = "\t".join(f"{v:.8e}" for v in k.data)
        lines.append(f"key\t{i}\t{i}\t\t{values}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return len(lines)


def evaluate_model(model, samples, seqs=None):
    """Predict every sample and return (report, predictions). `seqs`, the
    samples' ids from `model.tokenize`, saves tokenizing again."""
    predictions = model.predict_many(samples, seqs)
    report = compute_metrics(predictions, [s.label for s in samples])
    return report, predictions
