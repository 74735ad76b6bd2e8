import argparse
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
