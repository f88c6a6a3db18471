"""Aggregate result records of several runs into one BENCH file.

    python3 bench/baseline.py bench/BENCH_<n>.json .bench_work/result-*.json

For each workload it gives, over the runs, the median and quartiles of
every end-to-end metric and every per-command metric (untraced runs), and
the median of every per-layer metric (traced runs), plus the seeds and the
metadata of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _stats(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
        if out["median"]:
            out["iqr_over_median"] = (q3 - q1) / out["median"]
    return out


def aggregate(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        values = defaultdict(list)
        units = {}
        for rec in recs:
            for name, metric in rec["result"]["metrics"].items():
                values[name].append(metric["value"])
                units[name] = metric["unit"]
            if not trace:
                for name, metric in rec["command_s"].items():
                    values[name].append(metric["median"])
                    units[name] = metric["unit"]
        entry = out.setdefault(workload, {})
        entry["untraced" if not trace else "traced"] = {
            "seeds": [rec["seed"] for rec in recs],
            "seconds": recs[0]["seconds"],
            "failed": sum(rec["failed"] for rec in recs),
            "attempted": sum(rec["attempted"] for rec in recs),
            "metrics": {name: dict(_stats(v), unit=units[name])
                        for name, v in values.items()},
        }
        entry["meta"] = {k: v for k, v in recs[0]["meta"].items()
                         if k != "workload_seed"}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 64
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    Path(argv[0]).write_text(json.dumps(aggregate(records), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
