import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import epoch_faults  # noqa: E402


def usage(minflt, stime, maxrss):
    return SimpleNamespace(ru_minflt=minflt, ru_stime=stime, ru_maxrss=maxrss)


def test_epoch_record_differences_counters_and_keeps_peak():
    line = epoch_faults.epoch_record(1, 2.34567, usage(1000, 0.25, 90_000),
                                     usage(1843, 0.2541, 120_832))
    assert line == {"epoch": 1, "wall_s": 2.346, "minor_faults": 843, "sys_s": 0.004,
                    "peak_rss_mb": 118.0}
