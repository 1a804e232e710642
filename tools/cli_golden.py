#!/usr/bin/env python3
"""Byte-exact golden tests for the themis_cli command line.

    python3 tools/cli_golden.py BINARY [--regen] [--only NAME ...]

Scenarios live in tests/golden/cli/scenarios.json. A scenario is a list
of steps run in order in one fresh working directory, so later steps can
read the result stores earlier steps wrote. Each step has:

  args    the command-line arguments
  stdin   optional text piped to the binary
  exit    expected exit code (default 0)

and, in tests/golden/cli/<scenario>/, the expected outputs of step N:

  N.stdout       standard output
  N.stderr       standard error (only for steps that expect a nonzero
                 exit: success output goes to stdout)
  N.report.json  the --report file, when the step passes --report

A scenario's "files" list names files the steps leave behind (for
example the canonical --merge store bytes); they are compared as
files/<name>.

Everything is compared byte for byte after one normalization: the
fields below depend on the host clock, or on how the host interleaves
sweep worker threads, and are rewritten to a fixed placeholder.
Nothing else is touched.

--regen rewrites the expected files from BINARY and prints the diff of
every file it changes.
"""

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(os.path.dirname(HERE), "tests", "golden", "cli")
TIMEOUT_S = 120

# Host-clock fields of the stdout text, each rewritten to "<host>".
STDOUT_HOST_FIELDS = [
    # grid: "12.3 ms wall (456.7 cells/sec over 8 simulated cells)"
    ("grid wall line",
     re.compile(r"^\S+ ms wall \(\S+ cells/sec over ", re.M),
     "<host> ms wall (<host> cells/sec over "),
    # serve: "result ... (miss 0.2586 ms)" / "(hit 0.0001 ms)"
    ("serve per-query latency",
     re.compile(r"\((hit|miss) \S+ ms\)$", re.M), r"(\1 <host> ms)"),
    # serve summary: mean_hit_ms / mean_miss_ms / warm_speedup
    ("serve summary means",
     re.compile(r"\b(mean_\w+_ms)=\S+"), r"\1=<host>"),
    ("serve warm speedup",
     re.compile(r"\bwarm_speedup=\S+x"), "warm_speedup=<host>x"),
    # grid/serve: workers that miss the same plan at once both count a
    # miss, so the hit/miss split of a multi-worker run varies from run
    # to run (the plan count does not).
    ("plan cache hit/miss split",
     re.compile(r"(plan cache:? \d+ plans, )\d+ hits / \d+ misses"),
     r"\1<host> hits / <host> misses"),
]

# Host-clock fields of the --report JSON, each rewritten to "<host>".
REPORT_HOST_FIELDS = [
    ("wall_ms", re.compile(r'"wall_ms":[^,}]+'), '"wall_ms":"<host>"'),
    ("mean_*_ms",
     re.compile(r'"(mean_\w+_ms)":[^,}]+'), r'"\1":"<host>"'),
    ("serve.*_ns histograms",
     re.compile(r'"(serve\.\w+_ns)":\{[^}]*\}'), r'"\1":"<host>"'),
    ("plan_cache_hits/misses (grid, serve)",
     re.compile(r'"(plan_cache_(?:hits|misses))":[^,}]+'),
     r'"\1":"<host>"'),
]


def normalize_convergence_wall(text):
    """Replace the convergence table's last column ("Wall") and the
    width it sets (header padding and the dashed underline)."""
    out = []
    wall_col = None
    for line in text.split("\n"):
        if line.startswith("Mode ") and "Wall" in line:
            wall_col = line.index("Wall")
            out.append(line[:wall_col] + "Wall")
            continue
        if wall_col is not None:
            if line and set(line) == {"-"}:
                out.append("-" * (wall_col + len("Wall")))
                continue
            if line.endswith(" ms") or line.rstrip().endswith(" ms"):
                out.append(line[:wall_col] + "<host> ms")
                continue
            wall_col = None
        out.append(line)
    return "\n".join(out)


def normalize_stdout(text):
    text = normalize_convergence_wall(text)
    for _, pattern, repl in STDOUT_HOST_FIELDS:
        text = pattern.sub(repl, text)
    return text


def normalize_report(text):
    for _, pattern, repl in REPORT_HOST_FIELDS:
        text = pattern.sub(repl, text)
    return text


def report_path(args):
    for i, arg in enumerate(args[:-1]):
        if arg == "--report":
            return args[i + 1]
    return None


def run_scenario(binary, scenario):
    """Run every step; returns {expected-file name: actual bytes}."""
    actual = {}
    work = tempfile.mkdtemp(prefix="cli_golden_")
    try:
        for n, step in enumerate(scenario["steps"], start=1):
            proc = subprocess.run(
                [binary] + step["args"], cwd=work,
                input=step.get("stdin", ""), capture_output=True,
                text=True, timeout=TIMEOUT_S, check=False)
            want_exit = step.get("exit", 0)
            if proc.returncode != want_exit:
                actual["%d.exit" % n] = (
                    "exit %d, expected %d\nstderr:\n%s"
                    % (proc.returncode, want_exit, proc.stderr))
            actual["%d.stdout" % n] = normalize_stdout(proc.stdout)
            if want_exit != 0:
                actual["%d.stderr" % n] = proc.stderr
            report = report_path(step["args"])
            if report is not None and want_exit == 0:
                with open(os.path.join(work, report)) as f:
                    actual["%d.report.json" % n] = normalize_report(
                        f.read())
        for name in scenario.get("files", []):
            with open(os.path.join(work, name)) as f:
                actual["files/" + name] = f.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return actual


def diff(name, want, got):
    return "".join(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True),
        "expected/" + name, "actual/" + name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary", help="path to the themis_cli binary")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the expected files and print the diff")
    ap.add_argument("--only", nargs="+", metavar="NAME",
                    help="run only these scenarios")
    opts = ap.parse_args()
    binary = os.path.abspath(opts.binary)

    with open(os.path.join(GOLDEN, "scenarios.json")) as f:
        scenarios = json.load(f)["scenarios"]
    failures = 0
    for scenario in scenarios:
        if opts.only and scenario["name"] not in opts.only:
            continue
        sdir = os.path.join(GOLDEN, scenario["name"])
        actual = run_scenario(binary, scenario)
        if any(name.endswith(".exit") for name in actual):
            for name in sorted(actual):
                if name.endswith(".exit"):
                    print("FAIL %s step %s: %s" % (
                        scenario["name"], name[:-5], actual[name]))
            failures += 1
            continue
        expected = {}
        for root, _, files in os.walk(sdir):
            for fname in files:
                path = os.path.join(root, fname)
                with open(path) as f:
                    expected[os.path.relpath(path, sdir)] = f.read()
        if opts.regen:
            for name in sorted(set(expected) | set(actual)):
                if expected.get(name) != actual.get(name):
                    sys.stdout.write(diff(name, expected.get(name, ""),
                                          actual.get(name, "")))
            shutil.rmtree(sdir, ignore_errors=True)
            for name, got in actual.items():
                path = os.path.join(sdir, name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(got)
            print("regen %s" % scenario["name"])
            continue
        bad = []
        for name in sorted(set(expected) | set(actual)):
            want, got = expected.get(name), actual.get(name)
            if want == got:
                continue
            if want is None:
                bad.append("unexpected output %s (run --regen)" % name)
            elif got is None:
                bad.append("missing output %s" % name)
            else:
                bad.append(diff(name, want, got))
        if bad:
            failures += 1
            print("FAIL %s" % scenario["name"])
            for b in bad:
                print(b)
        else:
            print("ok   %s" % scenario["name"])
    if failures:
        print("%d scenario(s) failed" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
