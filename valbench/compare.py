#!/usr/bin/env python3
"""Compare two sets of valbench results, workload by workload.

Each input file holds the standard output of one or more valbench runs
(for every run, its `{"record": ...}` line followed by its result line),
e.g. collected with

    for s in 1 2 3 4 5 6 7 8 9 10; do
      cargo run --release -q --manifest-path valbench/Cargo.toml -- \
          --workload revoke_mix --seed $s --seconds 15 --trace 0
    done > base.jsonl

For every workload and metric it prints each side's median, first and
third quartile (Python's statistics.quantiles, n=4) and run count, and
the change in median as a share of the base median. Metrics that only
the run record carries (p99 latency, saturation throughput, revoke
latencies and visibility, failure ratio, generator lateness) are
compared the same way.

    python3 valbench/compare.py base.jsonl change.jsonl
"""

import json
import statistics
import sys

# Run-record fields compared beside the result's metrics, with units.
RECORD_METRICS = {
    "validate_p99_us": "us",
    "validate_capacity_qps": "1/s",
    "revoke_ack_p50_us": "us",
    "revoke_ack_p99_us": "us",
    "revoke_visible_p50_ms": "ms",
    "revoke_visible_p99_ms": "ms",
    "failed_ratio": "ratio",
    "generator_late_p99_us": "us",
}


def load(path):
    """{(workload, trace): {metric: (unit, [values])}} plus run flags."""
    runs = {}
    record = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "record" in obj:
                record = obj["record"]
                continue
            if "metrics" not in obj or record is None:
                continue
            key = (record["workload"], record["trace"])
            metrics = runs.setdefault(key, {})
            for name, m in obj["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
            for name, unit in RECORD_METRICS.items():
                if name in record and (record.get("revoke_ack_samples", 0) or "revoke" not in name):
                    metrics.setdefault(name, (unit, []))[1].append(record[name])
            flags = metrics.setdefault("_flags", ("", []))[1]
            flags.append((obj["correct"], record.get("generator_behind", False)))
            record = None
    return runs


def summary(values):
    if not values:
        return None
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, len(values)


def fmt(s):
    if s is None:
        return "-"
    med, q1, q3, n = s
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={n}"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, change = load(argv[1]), load(argv[2])
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        b, c = base.get(key, {}), change.get(key, {})
        print(f"\n## {workload} (trace {trace})")
        for side, runs in (("base", b), ("change", c)):
            flags = runs.get("_flags", ("", []))[1]
            wrong = sum(1 for ok, _ in flags if not ok)
            behind = sum(1 for _, late in flags if late)
            print(f"{side}: {len(flags)} runs, {wrong} with wrong verdicts, {behind} with the generator behind")
        print(f"| metric | unit | base median [q1, q3] | change median [q1, q3] | change |")
        print("|---|---|---|---|---|")
        names = [n for n in list(b) + [n for n in c if n not in b] if n != "_flags"]
        for name in names:
            unit = (b.get(name) or c.get(name))[0]
            sb = summary(b.get(name, ("", []))[1])
            sc = summary(c.get(name, ("", []))[1])
            delta = "-"
            if sb and sc and sb[0]:
                delta = f"{100.0 * (sc[0] - sb[0]) / sb[0]:+.1f}%"
            print(f"| {name} | {unit} | {fmt(sb)} | {fmt(sc)} | {delta} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
