import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def test_seed_range():
    assert bench_pairs.seed_range("long_train:201-203") == ("long_train", [201, 202, 203])
    assert bench_pairs.seed_range("desk_train:7") == ("desk_train", [7])
    for bad in ("long_train", "long_train:9-3", ":1-2", "long_train:a-b"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.seed_range(bad)


def test_summarise_counts_wins_by_direction_and_skips_failed_pairs():
    declared = [{"name": "rate", "unit": "1/s", "better": "higher"},
                {"name": "rss", "unit": "MB", "better": "lower"}]

    def side(rate, rss):
        return {"failed": 0, "attempted": 1, "metrics": {"rate": rate, "rss": rss}}

    runs = [{"seed": s, "parent": side(p, 10.0), "change": side(c, 10.0 - s)}
            for s, (p, c) in enumerate([(1, 2), (2, 3), (3, 3), (4, 5), (5, 6)])]
    runs.append({"seed": 9, "parent": side(100, 1), "change": {"failed": 1, "attempted": 1}})
    out = bench_pairs.summarise(runs, declared)
    assert out["rate"]["pairs"] == 5
    assert out["rate"]["change_better_in"] == 4  # the tie counts for neither side
    assert out["rate"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert out["rate"]["ratio"] == 1.0
    assert out["rss"]["change_better_in"] == 4  # seed 0 ties at 10.0
    assert out["rss"]["change"]["median"] == 8.0
    # rate: medians 3 and 3, parent quartiles [2, 4]; rss: medians 10 and 8,
    # parent quartiles [10, 10], so a gap of 2 exceeds a spread of 0
    assert out["rate"]["median_gap"] == 0.0 and not out["rate"]["gap_exceeds_parent_spread"]
    assert out["rss"]["median_gap"] == -2.0 and out["rss"]["gap_exceeds_parent_spread"]


def test_gap_is_compared_with_the_parent_quartile_spread():
    declared = [{"name": "rate", "unit": "1/s", "better": "higher"}]

    def pair(p, c):
        return {"parent": {"metrics": {"rate": p}}, "change": {"metrics": {"rate": c}}}

    # parent 10, 11, 12, 13, 14: median 12, quartiles [11, 13], spread 2
    for change, beyond in ((14.0, False), (14.5, True), (9.5, True), (10.0, False)):
        runs = [pair(p, change) for p in (10.0, 11.0, 12.0, 13.0, 14.0)]
        out = bench_pairs.summarise(runs, declared)["rate"]
        assert out["gap_exceeds_parent_spread"] is beyond, change
        assert out["median_gap"] == change - 12.0


def test_run_with_malformed_last_line_counts_as_failed(tmp_path, monkeypatch, capsys):
    # the parent's benchmark ends with a line that is not JSON; the sweep goes on
    result = '{"failed": 0, "attempted": 2, "metrics": {"rate": {"value": 2.0}}}'
    for side, text in (("parent", "done, no result"), ("change", result)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(f"print('{text}')\n",
                                                              encoding="utf-8")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher"}]}',
        encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "calibrate", lambda: 0.5)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--label", "t", "--run", "w:1-2",
                             "--out", str(out)]) == 0
    w = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    assert [r["parent"]["error"] for r in w["runs"]] == ["malformed output"] * 2
    assert w["failed_operations"] == {"parent": 2, "change": 0}
    assert w["metrics"] == {}
    assert "| w | failed operations | 2 | 0 |" in capsys.readouterr().out


def test_calibration_is_timed_before_each_run_and_summarised(tmp_path, monkeypatch, capsys):
    # two stand-in checkouts whose benchmark prints one fixed result line
    result = ('{"failed": 0, "attempted": 2, "metrics": {"rate": {"value": %s}}}')
    for side, rate in (("parent", 1.0), ("change", 2.0)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"print('{result % rate}')\n", encoding="utf-8")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher"}]}',
        encoding="utf-8")
    times = iter([0.5, 0.25, 0.75, 1.0])  # parent, change; then change, parent
    monkeypatch.setattr(bench_pairs, "calibrate", lambda: next(times))
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--label", "t", "--run", "w:1-2",
                             "--out", str(out)]) == 0
    w = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    assert [(r["parent"]["calibration_s"], r["change"]["calibration_s"]) for r in w["runs"]] \
        == [(0.5, 0.25), (1.0, 0.75)]
    assert w["calibration_s"]["parent"] == {"median": 0.75, "q1": 0.625, "q3": 0.875}
    assert w["metrics"]["rate"]["ratio"] == 2.0 and w["failed_operations"]["change"] == 0
    assert [r["calibration_ratio"] for r in w["runs"]] == [0.5, 0.75]
    assert w["calibration_drift"] == {"ratio": {"median": 0.625, "q1": 0.5625, "q3": 0.6875},
                                      "drifted": 2, "pairs": 2}
    assert w["metrics"]["rate"]["median_gap"] == 1.0
    assert w["metrics"]["rate"]["gap_exceeds_parent_spread"]
    out = capsys.readouterr().out
    assert "| w | rate | 1 [1, 1] | 2 [2, 2] | 2.0 | 2/2 | yes (+1) |" in out
    assert "| w | calibration_s | 0.75 [0.625, 0.875] |" in out
    assert "| w | calibration change/parent | | | 0.625 [0.5625, 0.6875] | 2/2 differ > 15% |" \
        in out


def test_calibration_drift_counts_pairs_apart_by_more_than_15_percent():
    runs = [{"calibration_ratio": x} for x in (1.0, 1.14, 1.16, 0.88, 0.86, 1 / 1.15)]
    drift = bench_pairs.calibration_drift(runs)
    assert drift["drifted"] == 2 and drift["pairs"] == 6  # 1.16 and 0.86; 0.88 is within
    assert drift["ratio"]["median"] == 0.94


def test_calibrate_takes_measurable_time():
    assert 0.0 < bench_pairs.calibrate() < 10.0


def test_calibration_keeps_the_fastest_of_its_passes(monkeypatch):
    passes = iter([0.05, 0.03, 0.07, 0.04, 0.06, 0.001])
    monkeypatch.setattr(bench_pairs, "calibration_pass", lambda: next(passes))
    assert bench_pairs.calibrate() == 0.03
    assert next(passes) == 0.001  # five passes, no more
