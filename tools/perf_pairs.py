#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, summarized per metric.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR [--pairs N]
        [--seconds S] [--workloads a,b] [--seed N] [--out runs.jsonl]
        [--layers [N]]
    python3 tools/perf_pairs.py --summarize runs.jsonl
    python3 tools/perf_pairs.py --self-test

PARENT_DIR and CHANGE_DIR are two checkouts of the repository, for
example the parent commit from `git worktree add ../parent HEAD~1` and
the working tree. For each workload the tool runs
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`
in the two checkouts alternately, N pairs in all, flipping which side
goes first on every pair so slow drift of the host hits both sides
alike. Each checkout builds its own benchmark on its first run.

For every end-to-end metric of BENCHMARK.json it prints, per side, the
median and Q1-Q3 (linear interpolation between order statistics), the
change of the medians, and how many pairs the change won and lost. A
metric is marked "gain" when the medians differ in the better direction
by more than the parent's IQR, and "REGRESSION" when the change's median
is worse than the parent's by more than the metric's bound. Any pair
whose sides disagree on sim_time_ms or failed, or any run that is not
correct, is flagged and makes the exit status 1.

--layers N adds, after the pairs, N `--trace 1` runs per side per
workload (alternating which side goes first, like the pairs; a bare
--layers means N = 1) and prints every per-layer metric of
BENCHMARK.json as the parent's median -> the change's median, the
relative change, and in how many of the N rounds the change moved the
same way as the medians did. A single traced run can read a layer the
change did not touch 30% off in either direction, so attribute a gain
to a layer only when most rounds agree. The traced runs attribute; the
pairs say by how much the end-to-end metrics moved.

After the runs it prints each side's benchmark binary size
(.bench_build/perfbench/perfbench): the text segment as `size` reports
it, or the file size where `size` is missing. Growth of more than 10%
is flagged: inlining trades code for speed, and peak_rss_mb counts the
text pages a run touches.

--out writes every run as one JSON line ({"workload", "pair", "side",
"result"}; traced runs carry "trace": true instead of a pair; the
binary sizes are {"binary", "side", "bytes", "measure"} lines), and
--summarize prints the summary of such a file again, per-layer table
and binary sizes included. --self-test summarizes canned lines and
checks the numbers; it builds and runs nothing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
BINARY = os.path.join(".bench_build", "perfbench", "perfbench")
# Flag a benchmark binary that grew by more than this fraction.
BINARY_GROWTH = 0.10


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quantile(values, q):
    """Linear interpolation between order statistics (numpy default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_once(checkout, workload, seed, seconds, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr)
        raise SystemExit("perf_pairs: no JSON from %s in %s (exit %d)"
                         % (workload, checkout, done.returncode))


def collect(args, out):
    runs = []
    for workload in args.workloads:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, args.seed,
                                  args.seconds)
                run = {"workload": workload, "pair": pair, "side": side,
                       "result": result}
                runs.append(run)
                if out is not None:
                    out.write(json.dumps(run) + "\n")
                    out.flush()
                print("%s pair %d %s: ops_per_s %.4g" % (
                    workload, pair, side,
                    result["metrics"]["ops_per_s"]["value"]),
                      file=sys.stderr)
    return runs


def collect_traced(args, out):
    runs = []
    for workload in args.workloads:
        for rnd in range(args.layers):
            order = SIDES if rnd % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                result = run_once(checkout, workload, args.seed,
                                  args.seconds, trace=1)
                run = {"workload": workload, "side": side, "trace": True,
                       "result": result}
                runs.append(run)
                if out is not None:
                    out.write(json.dumps(run) + "\n")
                    out.flush()
                print("%s traced %d %s" % (workload, rnd, side),
                      file=sys.stderr)
    return runs


def text_bytes(size_stdout):
    """The text column of `size`'s Berkeley-format output."""
    return int(size_stdout.splitlines()[1].split()[0])


def binary_size(checkout, side):
    """A binary-size record for the benchmark binary in `checkout`, or
    None when it has not been built."""
    path = os.path.join(checkout, BINARY)
    if not os.path.exists(path):
        return None
    record = {"binary": True, "side": side,
              "bytes": os.path.getsize(path), "measure": "file"}
    if shutil.which("size"):
        done = subprocess.run(["size", path], capture_output=True,
                              text=True, check=False)
        if done.returncode == 0:
            record["bytes"] = text_bytes(done.stdout)
            record["measure"] = "text"
    return record


def binary_sizes(runs):
    """Returns (report lines, flags) for the binary-size records."""
    sides = {r["side"]: r for r in runs if r.get("binary")}
    if len(sides) != 2:
        return [], []
    a, b = (sides[s]["bytes"] for s in SIDES)
    measures = sorted({sides[s]["measure"] for s in SIDES})
    lines = ["perfbench binary (%s): parent %d -> change %d bytes %+.1f%%"
             % ("/".join(measures), a, b, 100.0 * (b - a) / a)]
    flags = []
    if b > a * (1.0 + BINARY_GROWTH):
        flags.append("perfbench binary grew %.1f%%, more than %d%%"
                     % (100.0 * (b - a) / a, 100 * BINARY_GROWTH))
    return lines, flags


def workloads_of(runs):
    names = []
    for run in runs:
        if run["workload"] not in names:
            names.append(run["workload"])
    return names


def layers(runs, per_layer):
    """Returns (report lines, flags): each per-layer metric of every
    workload with traced runs on both sides, the parent's median ->
    the change's median. The i-th traced run of one side makes a round
    with the i-th of the other; a metric's count is how many rounds
    moved the same way as the medians."""
    lines, flags = [], []
    traced = [r for r in runs if r.get("trace")]
    for workload in workloads_of(traced):
        sides = {s: [r["result"] for r in traced
                     if r["workload"] == workload and r["side"] == s]
                 for s in SIDES}
        rounds = min(len(sides[s]) for s in SIDES)
        if rounds == 0:
            continue
        for side in SIDES:
            for i, result in enumerate(sides[side][:rounds]):
                if not result["correct"]:
                    flags.append("%s traced %s run %d not correct"
                                 % (workload, side, i))
        lines.append("%s: per layer, median of %d traced run%s per side, "
                     "rounds that moved with it" % (
                         workload, rounds, "" if rounds == 1 else "s"))
        for metric in per_layer:
            name = metric["name"]
            vals = [[r["metrics"].get(name, {}).get("value")
                     for r in sides[s][:rounds]] for s in SIDES]
            a, b = (None if None in v else quantile(v, 0.5) for v in vals)
            line = "  %-40s %12s -> %-12s" % (
                name, "n/a" if a is None else "%.6g" % a,
                "n/a" if b is None else "%.6g" % b)
            if a is not None and b is not None:
                if a != 0:
                    line += " %+7.1f%%" % (100.0 * (b - a) / a)
                if a != b:
                    up = b > a
                    moved = sum((c > p) if up else (c < p)
                                for p, c in zip(*vals))
                    line += "  %d/%d" % (moved, rounds)
            lines.append(line.rstrip())
    return lines, flags


def summarize(runs, end_to_end):
    """Returns (report lines, flags) for the runs of every workload."""
    lines, flags = [], []
    runs = [r for r in runs if "pair" in r]
    workloads = workloads_of(runs)
    for workload in workloads:
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        lines.append("%s: %d pairs" % (workload, len(complete)))
        for i, pair in enumerate(complete):
            for side in SIDES:
                if not pair[side]["correct"]:
                    flags.append("%s pair %d: %s run not correct"
                                 % (workload, i, side))
            for key in ("sim_time_ms", "failed"):
                a, b = (pair[s]["metrics"][key]["value"]
                        if key == "sim_time_ms" else pair[s][key]
                        for s in SIDES)
                if a != b:
                    flags.append("%s pair %d: %s differs (parent %r, "
                                 "change %r)" % (workload, i, key, a, b))
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            if not complete:
                continue
            vals = {s: [p[s]["metrics"][name]["value"] for p in complete]
                    for s in SIDES}
            q = {s: [quantile(vals[s], f) for f in (0.25, 0.5, 0.75)]
                 for s in SIDES}
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(vals["parent"], vals["change"]))
            losses = sum((c < p) if higher else (c > p)
                         for p, c in zip(vals["parent"], vals["change"]))
            pmed, cmed = q["parent"][1], q["change"][1]
            gain = (cmed - pmed) if higher else (pmed - cmed)
            rel = (cmed - pmed) / pmed if pmed else 0.0
            verdict = ""
            if gain > q["parent"][2] - q["parent"][0]:
                verdict = "gain"
            if -gain > metric["bound"] * abs(pmed):
                verdict = "REGRESSION"
            line = ("  %-12s parent %.6g (%.6g-%.6g)  change %.6g "
                    "(%.6g-%.6g)  %+.1f%%  wins %d/%d %s" % (
                        name, pmed, q["parent"][0], q["parent"][2], cmed,
                        q["change"][0], q["change"][2], 100.0 * rel, wins,
                        wins + losses, verdict))
            lines.append(line.rstrip())
    return lines, flags


def self_test():
    end_to_end = [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "sim_time_ms", "better": "lower", "bound": 0.15},
    ]

    def run(workload, pair, side, ops, rss, sim=567.08, failed=0,
            correct=True):
        metrics = {"ops_per_s": {"value": ops},
                   "peak_rss_mb": {"value": rss},
                   "sim_time_ms": {"value": sim}}
        return {"workload": workload, "pair": pair, "side": side,
                "result": {"correct": correct, "failed": failed,
                           "metrics": metrics}}

    canned = [
        run("w", 0, "parent", 100, 6.5), run("w", 0, "change", 130, 5.9),
        run("w", 1, "change", 120, 5.9), run("w", 1, "parent", 110, 6.4),
        run("w", 2, "parent", 90, 6.5), run("w", 2, "change", 140, 5.8),
        run("w", 3, "parent", 105, 6.5), run("w", 3, "change", 95, 8.0),
        run("v", 0, "parent", 10, 1.0), run("v", 0, "change", 10, 1.0,
                                            sim=567.09),
        run("v", 1, "parent", 10, 1.0, failed=1),
        run("v", 1, "change", 10, 1.0, correct=False),
        run("v", 2, "parent", 10, 1.0),  # unpaired: ignored
    ]
    jsonl = [json.dumps(r) for r in canned]
    lines, flags = summarize([json.loads(l) for l in jsonl], end_to_end)
    print("\n".join(lines + flags))
    # ops_per_s of w: parent 90,100,105,110 -> Q1 97.5, median 102.5,
    # Q3 106.25; change 95,120,130,140 -> median 125; 3 of 4 pairs won,
    # and the +22.5 median gain exceeds the parent IQR of 8.75.
    want = [
        "w: 4 pairs",
        "  ops_per_s    parent 102.5 (97.5-106.25)  change 125 "
        "(113.75-132.5)  +22.0%  wins 3/4 gain",
        "  peak_rss_mb  parent 6.5 (6.475-6.5)  change 5.9 (5.875-6.425)"
        "  -9.2%  wins 3/4 gain",
        "  sim_time_ms  parent 567.08 (567.08-567.08)  change 567.08 "
        "(567.08-567.08)  +0.0%  wins 0/0",
        "v: 2 pairs",
    ]
    assert lines[:5] == want, "\n".join(lines[:5])
    assert flags == [
        "v pair 0: sim_time_ms differs (parent 567.08, change 567.09)",
        "v pair 1: change run not correct",
        "v pair 1: failed differs (parent 1, change 0)",
    ], flags
    # A change median worse than the parent's by more than the bound.
    worse = [run("x", i, s, 100 if s == "parent" else 70, 1.0)
             for i in range(3) for s in SIDES]
    lines, _ = summarize(worse, end_to_end)
    assert lines[1].endswith("wins 0/3 REGRESSION"), lines[1]

    # Traced runs: layers() reads them, summarize() skips them.
    per_layer = [{"name": "runtime.issue_ns"},
                 {"name": "core.order_planner.ns_per_collective"},
                 {"name": "sim.channel.classes"}]

    def traced(workload, side, issue, planner, correct=True):
        metrics = {"runtime.issue_ns": {"value": issue},
                   "core.order_planner.ns_per_collective":
                       {"value": planner},
                   "sim.channel.classes": {"value": None,
                                           "invalid": True}}
        return {"workload": workload, "side": side, "trace": True,
                "result": {"correct": correct, "failed": 0,
                           "metrics": metrics}}

    mixed = worse + [traced("x", "parent", 536000.0, 501000.0),
                     traced("x", "change", 35000.0, 120.0),
                     traced("y", "change", 1.0, 1.0, correct=False)]
    lines, _ = summarize(mixed, end_to_end)
    assert lines[0] == "x: 3 pairs", lines[0]
    lines, flags = layers(mixed + [traced("y", "parent", 1.0, 0.0)],
                          per_layer)
    print("\n".join(lines + flags))
    assert lines == [
        "x: per layer, median of 1 traced run per side, rounds that "
        "moved with it",
        "  runtime.issue_ns                               536000 -> 35000"
        "          -93.5%  1/1",
        "  core.order_planner.ns_per_collective           501000 -> 120"
        "           -100.0%  1/1",
        "  sim.channel.classes                               n/a -> n/a",
        "y: per layer, median of 1 traced run per side, rounds that "
        "moved with it",
        "  runtime.issue_ns                                    1 -> 1"
        "               +0.0%",
        "  core.order_planner.ns_per_collective                0 -> 1"
        "             1/1",
        "  sim.channel.classes                               n/a -> n/a",
    ], lines
    assert flags == ["y traced change run 0 not correct"], flags

    # Several traced rounds: medians per side, and the rounds in which
    # the change moved the way the medians did. issue_ns, rounds
    # (parent, change): (10, 8), (12, 13), (11, 9), (30, 10) -> parent
    # median 11.5, change 9.5; the change is lower in 3 of 4 rounds.
    # The planner metric moves up in the medians (1.5 -> 2) but in
    # only 2 of 4 rounds; a fifth parent run without a partner is
    # ignored.
    rounds = [(10, 8, 1, 3), (12, 13, 2, 2), (11, 9, 1, 2),
              (30, 10, 2, 1), (99, None, 0, None)]
    multi = []
    for p_issue, c_issue, p_plan, c_plan in rounds:
        multi.append(traced("z", "parent", p_issue, p_plan))
        if c_issue is not None:
            multi.append(traced("z", "change", c_issue, c_plan))
    lines, flags = layers(multi, per_layer)
    print("\n".join(lines + flags))
    assert lines == [
        "z: per layer, median of 4 traced runs per side, rounds that "
        "moved with it",
        "  runtime.issue_ns                                 11.5 -> 9.5"
        "            -17.4%  3/4",
        "  core.order_planner.ns_per_collective              1.5 -> 2"
        "              +33.3%  2/4",
        "  sim.channel.classes                               n/a -> n/a",
    ], lines
    assert flags == [], flags

    # Binary sizes: summarize() and layers() skip them.
    assert text_bytes("   text    data     bss     dec     hex filename\n"
                      " 914201   12392    4832  931425   e3661 perfbench\n"
                      ) == 914201
    sizes = [{"binary": True, "side": "parent", "bytes": 884000,
              "measure": "text"},
             {"binary": True, "side": "change", "bytes": 914000,
              "measure": "text"}]
    assert summarize(worse + sizes, end_to_end)[0][0] == "x: 3 pairs"
    lines, flags = binary_sizes(worse + sizes)
    print("\n".join(lines + flags))
    assert lines == ["perfbench binary (text): parent 884000 -> change "
                     "914000 bytes +3.4%"], lines
    assert flags == [], flags
    sizes[1]["bytes"] = 2900000
    lines, flags = binary_sizes(sizes)
    assert flags == ["perfbench binary grew 228.1%, more than 10%"], flags
    assert binary_sizes(sizes[:1]) == ([], [])
    print("perf_pairs self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?", help="parent checkout")
    ap.add_argument("change", nargs="?", help="changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads",
                    help="comma-separated (default: every BENCHMARK.json "
                         "workload)")
    ap.add_argument("--out", help="append every run to this JSONL file")
    ap.add_argument("--layers", type=int, nargs="?", const=1, default=0,
                    metavar="N",
                    help="after the pairs, N --trace 1 runs per side "
                         "per workload (bare --layers: N = 1); print "
                         "each per-layer metric's medians")
    ap.add_argument("--summarize", metavar="JSONL",
                    help="summarize a file written by --out; runs nothing")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.layers < 0:
        ap.error("--layers needs N >= 0")
    if args.self_test:
        return self_test()
    bench = load_benchmark(args.change or ROOT)
    if args.summarize:
        with open(args.summarize) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    else:
        if not (args.parent and args.change):
            ap.error("PARENT_DIR and CHANGE_DIR are required")
        args.workloads = (args.workloads.split(",") if args.workloads
                          else [w["name"] for w in bench["workloads"]])
        out = open(args.out, "a") if args.out else None
        try:
            runs = collect(args, out)
            if args.layers:
                runs += collect_traced(args, out)
            for side in SIDES:
                record = binary_size(getattr(args, side), side)
                if record is not None:
                    runs.append(record)
                    if out is not None:
                        out.write(json.dumps(record) + "\n")
        finally:
            if out is not None:
                out.close()
    lines, flags = summarize(runs, bench["end_to_end"])
    layer_lines, layer_flags = layers(runs, bench["per_layer"])
    size_lines, size_flags = binary_sizes(runs)
    flags += layer_flags + size_flags
    print("\n".join(lines + layer_lines + size_lines))
    for flag in flags:
        print("FLAG " + flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
