#!/usr/bin/env python3
"""Byte-exact golden tests for the themis_cli command line.

    python3 tools/cli_golden.py BINARY [--regen] [--only NAME ...]
    python3 tools/cli_golden.py BINARY --check-numbers OLD_DIR
    python3 tools/cli_golden.py --self-test

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

--check-numbers OLD_DIR checks a deliberate layout change against an
older corpus (a tests/golden/cli directory) instead: for every step
that exits 0, each numeric token of OLD_DIR's stdout (a number with
its unit suffix: ns/us/ms/s, B/KB/MB/GB, % or x) must appear in the
new stdout (as often, if it has a unit or a fraction), printed to at
least the old precision, and every key and value of OLD_DIR's
report.json must still be in the new report (lists keep their
length). --self-test checks the matcher on canned text.
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
    # The report's "key  value" lines: wall times (iterations, jobs,
    # grid), the serve means and, for grid and serve, the plan cache's
    # hit/miss split: workers that miss the same plan at once both
    # count a miss, so a multi-worker run's split varies from run to
    # run (the plan count does not).
    ("report host numbers",
     re.compile(r"^((?:wall_ms|cells_per_sec|mean_hit_ms|mean_miss_ms|"
                r"warm_speedup|plan_cache_hits|plan_cache_misses) +)\S+$",
                re.M),
     r"\1<host>"),
    # serve: "result ... (miss 0.2586 ms)" / "(hit 0.0001 ms)"
    ("serve per-query latency",
     re.compile(r"\((hit|miss) \S+ ms\)$", re.M), r"(\1 <host> ms)"),
]

# Host-clock fields of the --report JSON, each rewritten to "<host>".
REPORT_HOST_FIELDS = [
    ("wall_ms", re.compile(r'"wall_ms":[^,}]+'), '"wall_ms":"<host>"'),
    ("mean_*_ms, cells_per_sec, warm_speedup",
     re.compile(r'"(mean_\w+_ms|cells_per_sec|warm_speedup)":[^,}]+'),
     r'"\1":"<host>"'),
    ("serve.*_ns histograms",
     re.compile(r'"(serve\.\w+_ns)":\{[^}]*\}'), r'"\1":"<host>"'),
    ("plan_cache_hits/misses (grid, serve)",
     re.compile(r'"(plan_cache_(?:hits|misses))":[^,}]+'),
     r'"\1":"<host>"'),
]


def normalize_stdout(text):
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


# A number with an optional unit suffix, not part of a word ("dim1",
# "16x8x8", "x4" and hex fingerprints are no numbers).
NUMBER = re.compile(
    r"(?<![\w.])(\d+(?:\.(\d+))?)(?: (ns|us|ms|s|B|KB|MB|GB)|(%|x))?"
    r"(?![\w.])")


def numeric_tokens(text):
    """[(digits, decimals, unit)] of every number in @text."""
    return [(m.group(1), len(m.group(2) or ""),
             m.group(3) or m.group(4) or "")
            for m in NUMBER.finditer(text)]


def missing_numbers(old_text, new_text):
    """Old tokens the new text does not reproduce: a new token matches
    when its unit is the same and, rounded to the old token's
    decimals, it prints the old digits. A new token with fewer
    decimals matches only in the %g form, which drops nothing but
    zeros: no fraction, or one that ends in a non-zero digit ("0.0%"
    is no rendering of "0.0000%"). A measured token (with a unit or a
    fraction) must match at least as many new tokens as it occurs in
    the old text; a bare integer, which the old prose often repeated
    ("12-cell grid ... 12 of 12 cells"), must match one."""
    new = numeric_tokens(new_text)
    want = {}
    for digits, decimals, unit in numeric_tokens(old_text):
        key = (digits, decimals, unit)
        want[key] = want.get(key, 0) + 1
    missing = []
    for (digits, decimals, unit), count in sorted(want.items()):
        found = sum(1 for d, dec, u in new
                    if u == unit
                    and (dec >= decimals or not d.endswith("0")
                         or "." not in d)
                    and "%.*f" % (decimals, float(d)) == digits)
        if found < (count if unit or decimals else 1):
            missing.append("%s%s%s (x%d, found %d)" % (
                digits, " " if unit and unit not in "%x" else "", unit,
                count, found))
    return missing


def missing_report_values(old, new, path="$"):
    """Paths of @old's keys and values that @new lost or changed."""
    if isinstance(old, dict):
        if not isinstance(new, dict):
            return [path]
        out = []
        for key, value in old.items():
            if key not in new:
                out.append("%s.%s" % (path, key))
            else:
                out += missing_report_values(value, new[key],
                                             "%s.%s" % (path, key))
        return out
    if isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            return [path + " (length)"]
        out = []
        for i, (o, n) in enumerate(zip(old, new)):
            out += missing_report_values(o, n, "%s[%d]" % (path, i))
        return out
    return [] if old == new else ["%s: %r -> %r" % (path, old, new)]


def check_numbers(binary, scenarios, old_dir):
    """The --check-numbers comparison; returns the number of failing
    steps."""
    failures = 0
    for scenario in scenarios:
        sdir = os.path.join(old_dir, scenario["name"])
        if not os.path.isdir(sdir):
            print("new  %s (no old corpus)" % scenario["name"])
            continue
        actual = run_scenario(binary, scenario)
        for n, step in enumerate(scenario["steps"], start=1):
            if step.get("exit", 0) != 0:
                continue
            where = "%s step %d" % (scenario["name"], n)
            if "%d.exit" % n in actual:
                print("FAIL %s: %s" % (where, actual["%d.exit" % n]))
                failures += 1
                continue
            bad = []
            old_out = os.path.join(sdir, "%d.stdout" % n)
            if os.path.exists(old_out):
                with open(old_out) as f:
                    bad += ["stdout lost " + t for t in missing_numbers(
                        f.read(), actual["%d.stdout" % n])]
            old_rep = os.path.join(sdir, "%d.report.json" % n)
            if os.path.exists(old_rep):
                with open(old_rep) as f:
                    old = json.load(f)
                new = json.loads(actual["%d.report.json" % n])
                bad += ["report lost " + p
                        for p in missing_report_values(old, new)]
            if bad:
                failures += 1
                print("FAIL %s" % where)
                for b in bad:
                    print("  " + b)
            else:
                print("ok   %s" % where)
    if failures:
        print("%d step(s) lost numbers" % failures)
    return failures


def self_test():
    old = ("time : 6.925 ms, ratio 0.06 and 0.500, 2 x 8.0%, 1.14x dim1 "
           "16x8x8 x4.0 4\n")
    assert numeric_tokens(old) == [
        ("6.925", 3, "ms"), ("0.06", 2, ""), ("0.500", 3, ""),
        ("2", 0, ""), ("8.0", 1, "%"), ("1.14", 2, "x"),
        ("4", 0, "")], numeric_tokens(old)
    # Layout moves, finer precision and %g's dropped zeros all match.
    new = ("4  2\ntime_ns  6.925 ms\nratio  0.0625\nphase  0.5\n"
           "share  8.0000%\nslowdown  1.14x\n")
    assert missing_numbers(old, new) == [], missing_numbers(old, new)
    # A changed value, a lost unit, a coarser rendering and a lost
    # repeat are each missing.
    assert missing_numbers("6.925 ms", "6.926 ms") != []
    assert missing_numbers("6.925 ms", "6.925") != []
    assert missing_numbers("0.0000%", "0.0%") != []
    assert missing_numbers("3 and 3", "3") == []
    assert missing_numbers("3.5 ms and 3.5 ms", "3.5 ms") == [
        "3.5 ms (x2, found 1)"]
    old_rep = {"numbers": {"a": 1}, "rows": [{"k": "x", "v": 2}]}
    assert missing_report_values(
        old_rep, {"numbers": {"a": 1, "b": 2},
                  "rows": [{"k": "x", "v": 2, "w": 3}]}) == []
    assert missing_report_values(
        old_rep, {"numbers": {"a": 2}, "rows": []}) == [
            "$.numbers.a: 1 -> 2", "$.rows (length)"]
    assert missing_report_values(old_rep, {"rows": [{"k": "x"}]}) == [
        "$.numbers", "$.rows[0].v"]
    print("self-test ok")
    return 0


def diff(name, want, got):
    return "".join(difflib.unified_diff(
        want.splitlines(True), got.splitlines(True),
        "expected/" + name, "actual/" + name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary", nargs="?",
                    help="path to the themis_cli binary")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the expected files and print the diff")
    ap.add_argument("--only", nargs="+", metavar="NAME",
                    help="run only these scenarios")
    ap.add_argument("--check-numbers", metavar="OLD_DIR",
                    help="check that every number of an older corpus "
                         "survives")
    ap.add_argument("--self-test", action="store_true",
                    help="check the --check-numbers matcher")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    if opts.binary is None:
        ap.error("BINARY is required")
    binary = os.path.abspath(opts.binary)

    with open(os.path.join(GOLDEN, "scenarios.json")) as f:
        scenarios = [s for s in json.load(f)["scenarios"]
                     if not opts.only or s["name"] in opts.only]
    if opts.check_numbers:
        return 1 if check_numbers(binary, scenarios,
                                  opts.check_numbers) else 0
    failures = 0
    for scenario in scenarios:
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
