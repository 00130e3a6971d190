#!/usr/bin/env python3
"""Checks that a correctness gate can fail: applies a mutant patch to a
scratch copy of the tree, builds one test binary there and expects the named
test to FAIL.

  python3 tools/gate_mutant.py --patch tests/mutants/deep_value_copies.patch \\
      --target replication_test \\
      --filter ReplicaSetTest.ACreateHoldsOneCopyOfEachLongValue \\
      --work build/mutants/deep_value_copies

Exit status 0 means the mutant was caught: the patch applied, the target
built, and the test failed. Anything else exits 1: a patch that no longer
applies, a mutant that does not build, or a test that passes on the broken
code (the gate cannot see the fault the patch puts in). The unpatched test
passing is tier-1's job, not this script's.

ctest runs each patch under tests/mutants/ as a `mutant_<name>` entry with
LABELS slow (tests/CMakeLists.txt).
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Everything a build of the tree reads; build trees and VCS state are left
# behind.
SKIP = shutil.ignore_patterns(".git", "build", "build-*", ".bench_build",
                              "__pycache__")
# Two compile jobs: the mutant builds while the rest of ctest runs.
JOBS = 2


def run(cmd, cwd=None):
    print("+ " + " ".join(cmd), flush=True)
    return subprocess.run(cmd, cwd=cwd).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patch", required=True)
    parser.add_argument("--target", required=True,
                        help="the test executable to build")
    parser.add_argument("--filter", required=True,
                        help="gtest filter naming the test that must fail")
    parser.add_argument("--work", required=True,
                        help="scratch directory (emptied first)")
    args = parser.parse_args()

    work = os.path.abspath(args.work)
    src = os.path.join(work, "src-tree")
    build = os.path.join(work, "build")
    if os.path.exists(work):
        shutil.rmtree(work)

    def ignore(directory, names):
        # The work directory may sit inside the tree (a build directory not
        # named build*): never copy it into itself.
        return set(SKIP(directory, names)) | {
            n for n in names if os.path.join(directory, n) == work}

    shutil.copytree(ROOT, src, ignore=ignore)

    if run(["patch", "-p1", "--forward", "--batch", "-i",
            os.path.abspath(args.patch)], cwd=src) != 0:
        print("MUTANT NOT CHECKED: the patch no longer applies", flush=True)
        return 1
    # Debug: no optimizer, so the one target builds fastest.
    if run(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Debug"]) != 0:
        print("MUTANT NOT CHECKED: configure failed", flush=True)
        return 1
    if run(["cmake", "--build", build, "--target", args.target,
            "-j", str(JOBS)]) != 0:
        print("MUTANT NOT CHECKED: the mutant does not build", flush=True)
        return 1
    binary = os.path.join(build, "tests", args.target)
    status = run([binary, "--gtest_filter=" + args.filter])
    if status == 0:
        print("MUTANT SURVIVED: %s passes with %s applied"
              % (args.filter, os.path.basename(args.patch)), flush=True)
        return 1
    print("mutant caught: %s fails with %s applied"
          % (args.filter, os.path.basename(args.patch)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
