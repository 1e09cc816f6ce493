#!/usr/bin/env python3
"""Compare a fresh benchmark report against its checked-in baseline.

Used by the bench-regression CI job (.github/workflows/ci.yml).  A report
has one of two shapes, and both become the same flat records:

  * BENCH_gates.json (bench_gates): "gates" is a list of records
    {name, layer, unit, better, values, median, mad, cpu_seconds,
    cpu_per_wall, bar, identical};
  * BENCH_kernel.json (kernel_microbench --benchmark_repetitions=N
    --benchmark_out=...): google-benchmark JSON.  Its "iteration" rows are
    grouped by run_name; their items_per_second become one record's values
    (higher is better, no bar, always identical).

Every record goes through the same rule:

  * identical false fails;
  * a median that misses its bar fails;
  * a baseline record missing from the current report fails;
  * a median worse than the baseline median by more than 15% AND by more
    than 3x the larger MAD of the two reports fails.

--summary PATH also writes the printed comparison to PATH, so CI can upload
one text diff per report next to the raw JSON.  Only the standard library
is used.

Exit codes: 0 pass, 1 a record failed, 2 usage error or malformed report.
"""

import argparse
import json
import statistics
import sys

DROP = 0.15      # relative change that counts as a regression...
MAD_BAND = 3.0   # ...when it is also this many MADs wide


def _median_mad(values):
    median = statistics.median(values)
    return median, statistics.median(abs(v - median) for v in values)


def load_records(path):
    """Read a report into {name: record}; raises ValueError when malformed."""
    with open(path) as f:
        report = json.load(f)
    records = {}
    if isinstance(report, dict) and "gates" in report:
        for g in report["gates"]:
            records[g["name"]] = {
                "values": [float(v) for v in g["values"]],
                "median": float(g["median"]),
                "mad": float(g["mad"]),
                "better": g["better"],
                "bar": float(g["bar"]),
                "identical": bool(g["identical"]),
                "cpu_per_wall": g.get("cpu_per_wall"),
            }
    elif isinstance(report, dict) and "benchmarks" in report:
        groups = {}
        for b in report["benchmarks"]:
            if b.get("run_type", "iteration") == "iteration" and "items_per_second" in b:
                name = "gbench[{}]".format(b.get("run_name", b["name"]))
                groups.setdefault(name, []).append(float(b["items_per_second"]))
        for name, values in groups.items():
            median, mad = _median_mad(values)
            records[name] = {"values": values, "median": median, "mad": mad,
                             "better": "higher", "bar": None, "identical": True,
                             "cpu_per_wall": None}
    else:
        raise ValueError("neither a gate report nor google-benchmark JSON")
    if not records:
        raise ValueError("no records")
    for name, r in records.items():
        if r["better"] not in ("higher", "lower") or not r["values"]:
            raise ValueError("record {} is malformed".format(name))
    return records


def judge(name, cur, base):
    """One comparison line and whether it fails."""
    higher = cur["better"] == "higher"
    problems = []
    if not cur["identical"]:
        problems.append("legs disagree")
    if cur["bar"] is not None and (cur["median"] < cur["bar"] if higher
                                   else cur["median"] > cur["bar"]):
        problems.append("misses bar {} {:.4g}".format(">=" if higher else "<=", cur["bar"]))
    line = "{:<44} now {:>12.4g} (MAD {:.3g}, n={})".format(
        name, cur["median"], cur["mad"], len(cur["values"]))
    if base is not None:
        worse = base["median"] - cur["median"] if higher else cur["median"] - base["median"]
        line += "  base {:>12.4g} ({:+.1%})".format(
            base["median"], (cur["median"] - base["median"]) / abs(base["median"] or 1))
        if worse > DROP * abs(base["median"]) and worse > MAD_BAND * max(cur["mad"], base["mad"]):
            problems.append("worse than baseline by >{:.0%} and >{:g} MAD".format(DROP, MAD_BAND))
    if cur["cpu_per_wall"] is not None:
        line += "  CPU/wall {:.2f}".format(cur["cpu_per_wall"])
    if problems:
        return "FAIL " + line + "  -- " + "; ".join(problems), True
    return "ok   " + line, False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="freshly produced report")
    ap.add_argument("baseline", help="checked-in baseline to compare against")
    ap.add_argument("--summary", metavar="PATH",
                    help="also write the comparison text to PATH (CI artifact)")
    args = ap.parse_args()

    try:
        current = load_records(args.current)
        baseline = load_records(args.baseline)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("compare_bench: cannot load reports: {}".format(e), file=sys.stderr)
        return 2

    lines = ["compare_bench: {} vs baseline {}".format(args.current, args.baseline)]
    failures = 0
    for name in sorted(set(current) | set(baseline)):
        if name not in current:
            line, failed = "FAIL {:<44} in the baseline, missing from this run".format(name), True
        else:
            line, failed = judge(name, current[name], baseline.get(name))
        lines.append(line)
        failures += failed
    lines.append("compare_bench: {} records, {} failures".format(len(current), failures))
    print("\n".join(lines))
    if args.summary:
        try:
            with open(args.summary, "w") as f:
                f.write("\n".join(lines) + "\n")
        except OSError as e:
            print("compare_bench: cannot write summary: {}".format(e), file=sys.stderr)
            return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
