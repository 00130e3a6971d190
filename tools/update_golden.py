#!/usr/bin/env python3
"""Golden modelled outputs under tests/golden/: regenerate or check them.

Every file holds the deterministic, modelled output of one program of a
build tree:

  bench_<name>.txt    the modelled columns of every table the bench prints
                      (common::Table writes them to $UDR_GOLDEN_TABLES; host
                      columns — wall or CPU time, RSS — are tagged and left
                      out)
  example_<name>.txt  the example's whole stdout
  scenario_*.txt      ScenarioReport::Serialize() of the five standard
                      scenarios, plus the attach storm with the sampler on
                      and the attach storm over cache-on-miss location
                      stages (with each PoA stage's counters); written and
                      checked by the golden_test binary

A change that moves a modelled number regenerates the files, and the diff
names the exact rows that moved.

Usage:
  tools/update_golden.py [--build-dir build] [NAME ...]   rewrite (all: none given)
  tools/update_golden.py --check [--build-dir build] NAME ...
NAME is bench_<name>, example_<name> or "scenarios"; with none given, every
bench/bench_*.cc, every examples/*.cpp and the scenarios. --check exits 1 and
prints a unified diff on any difference, and exits 1 when the golden file is
missing. ctest runs --check once per NAME (label golden).
"""

import argparse
import difflib
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
TIMEOUT_S = 300


def binary(build, name):
    sub = "bench" if name.startswith("bench_") else "examples"
    path = os.path.join(build, sub, name)
    if not os.access(path, os.X_OK):
        sys.exit("update_golden: %s is not built under %s" % (name, build))
    return path


def run_program(build, name):
    """Returns the golden text of one bench or example."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        # Benches write their BENCH_*.json and traces to the working
        # directory unless told otherwise: keep them in the scratch dir.
        for key in list(env):
            if key.startswith("UDR_BENCH_") or key == "UDR_OBS_TRACE_JSON":
                del env[key]
        tables = os.path.join(tmp, "tables.txt")
        env["UDR_GOLDEN_TABLES"] = tables
        result = subprocess.run([binary(build, name)], cwd=tmp, env=env, timeout=TIMEOUT_S,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        # A bench exits 1 when one of its self-check rows fails. Those gates
        # are the bench smoke's to enforce (a host gate can fail on a busy
        # machine); a modelled row that flips shows up in the diff anyway.
        allowed = (0, 1) if name.startswith("bench_") else (0,)
        if result.returncode not in allowed:
            sys.stderr.write(result.stdout + result.stderr)
            sys.exit("update_golden: %s exited with %d"
                     % (name, result.returncode))
        if name.startswith("example_"):
            return result.stdout
        if not os.path.exists(tables):
            return ""
        with open(tables) as f:
            return f.read()


def run_scenarios(build, update):
    env = dict(os.environ)
    if update:
        env["UDR_UPDATE_GOLDEN"] = "1"
    path = os.path.join(build, "tests", "golden_test")
    if not os.access(path, os.X_OK):
        sys.exit("update_golden: golden_test is not built under %s" % build)
    return subprocess.run([path], env=env, timeout=TIMEOUT_S).returncode


def all_names():
    """Every program with a golden, named from its source file (so a stale
    binary left in the build tree cannot bring back a deleted golden)."""
    names = []
    for pattern, prefix in (("bench/bench_*.cc", ""),
                            ("examples/*.cpp", "example_")):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            names.append(prefix + os.path.splitext(os.path.basename(path))[0])
    return names + ["scenarios"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    parser.add_argument("--check", action="store_true")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args()
    build = os.path.abspath(args.build_dir)
    names = args.names or all_names()
    failed = False
    for name in names:
        if name == "scenarios":
            failed |= run_scenarios(build, update=not args.check) != 0
            continue
        text = run_program(build, name)
        path = os.path.join(GOLDEN, name + ".txt")
        if not args.check:
            os.makedirs(GOLDEN, exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
            print("wrote %s" % os.path.relpath(path, ROOT))
            continue
        if not os.path.exists(path):
            failed = True
            print("%s: tests/golden/%s.txt is missing (write it with "
                  "tools/update_golden.py %s)" % (name, name, name))
            continue
        with open(path) as f:
            expected = f.read()
        if text != expected:
            failed = True
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(True), text.splitlines(True),
                "golden/" + name + ".txt", name + " (this build)"))
            print("%s: modelled output differs from tests/golden/%s.txt "
                  "(regenerate with tools/update_golden.py if intended)"
                  % (name, name))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
