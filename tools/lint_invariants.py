#!/usr/bin/env python3
"""Repo-specific invariant linter (ci.sh "invariant-lint" stage).

Enforces the invariants that keep this codebase deterministic and its
concurrency statically checkable — the ones a generic linter can't know:

  wall-clock         src/ must not consult wall time (time(), std::time,
                     gettimeofday, clock_gettime, std::chrono system/steady/
                     high_resolution clocks). Every simulated behavior runs on
                     sim::SimClock; that discipline is what makes scenario
                     replay byte-identical (scenario_test's seeded-replay
                     gate). Real-time measurement for *reporting* is allowed
                     only with an inline justification marker.

  storage-string-map src/storage/ must not declare std::map<std::string, ...>
                     — the PR 6 packed-layout regression guard. The legacy
                     map form exists only as an explicitly-marked boundary
                     shim on Record::ToMap/FromMap.

  raw-mutex          std::mutex / lock_guard / unique_lock / scoped_lock /
                     condition_variable (and #include <mutex>) are banned
                     outside src/common/ — all locking goes through the
                     annotated common::Mutex layer (thread-safety analysis +
                     the UDR_DEADLOCK_CHECK lock-order checker see only what
                     flows through the wrappers).

  tsa-escape         NO_THREAD_SAFETY_ANALYSIS requires an adjacent
                     justification comment (no blanket escape hatches).

  bench-coverage     every bench/bench_*.cc must appear in ci.sh's
                     REQUIRED_BENCHES list, so a bench falling out of the
                     build fails CI instead of being silently skipped.

  subscriber-make    src/ must not call SubscriberFactory::Make outside
                     src/telecom/subscriber.cc. Make builds a whole synthetic
                     profile (~18 attributes); provisioning goes through
                     MakeSpec, and a traffic loop names the subscriber of an
                     FE event by the one identity it needs (ImsiOf /
                     MsisdnOf / ImpuOf / IdentityOf). The rule keeps a
                     per-event full-profile build out of the traffic loops.

  driver-deadline    src/ may call UdrNf::NextEventDeadline /
                     NextMigrationDeadline / NextObsSampleDue only from the
                     shared sim driver helper (src/workload/testbed.cc:
                     Testbed::PumpDue and Testbed::DrainMigration) and from
                     src/udr/. RunTraffic and scenario::Engine once each
                     hand-rolled the wake-up loop and drifted (only one woke
                     for the sampler); every driver now wakes through
                     PumpDue, so the wake-up priority has one home.

  apply-write-ops    src/ may call storage::ApplyWriteOp only inside
                     src/storage/commit_log.{h,cc} (its declaration and
                     ApplyWriteOps, which it serves). Commit, replication,
                     log replay, migration chunks and consistency restoration
                     all apply a write set through ApplyWriteOps, which turns
                     a run of upserts to one record into one mutation; an
                     op-by-op loop elsewhere silently brings back the per-op
                     lookup, byte re-accounting and vector regrowth.

  out-of-log-write   in src/, only src/storage/ and src/replication/ may
                     call PutRecord, DeleteRecord, SetAttribute,
                     RemoveAttribute, MutateRecord, ApplyUpsertRun or
                     AdoptRecord on a RecordStore (a receiver named
                     store(), store, store_ or *_store). A store changes
                     through its partition's commit log; replica catch-up
                     adopts the master's record when its birth tag and
                     version show it is the replay of that log
                     (storage::CatchUpRange), and a write that bypasses the
                     log makes the catch-up replay instead. Each exception
                     carries a marker saying why the log cannot carry it.

  request-list-copy  src/telecom/ must not pass a braced op list to RunOps(
                     or SubmitBatch(. The braces build a
                     std::initializer_list<LdapRequest>, and the vector
                     copies every request out of it (its DN, requested
                     attributes and mods); a procedure builds its op list by
                     moving each request in (front_end.cc OpList), and the
                     list then moves down the enqueue chain uncopied.

  metric-name        every dotted metric-name string literal passed to
                     Add/Observe/RegisterCounter/RegisterHist in src/ must
                     appear (backticked) in the docs/METRICS.md table, and
                     every name the table documents must still be emitted
                     somewhere — the metric reference can neither lag nor
                     lead the code.

Escape hatch: a line (or the line directly above it) carrying
    // lint:allow(<rule>): <non-empty reason>
is exempt from <rule>. Every marker must also be documented in
tools/LINT_ALLOWLIST.md (rule + file on one table row) — the rationale table
reviewers audit.

Usage: tools/lint_invariants.py [repo-root]   (exit 0 = clean, 1 = violations)
"""

import os
import re
import sys

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)(?::\s*(\S.*))?")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime()"),
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "std::chrono wall/steady clock"),
    (re.compile(r"std::time\s*\("), "std::time()"),
    # Bare time( — not preceded by an identifier char, scope/member access.
    (re.compile(r"(?<![A-Za-z0-9_:.>])time\s*\("), "time()"),
]

STORAGE_MAP_RE = re.compile(r"std::map<\s*std::string\s*,")

RAW_MUTEX_PATTERNS = [
    (re.compile(r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
                r"shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
                r"condition_variable_any|condition_variable)\b"),
     "raw std synchronization primitive (use common::Mutex/MutexLock/CondVar)"),
    (re.compile(r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>"),
     "raw sync header include (use common/mutex.h)"),
]

TSA_ESCAPE_RE = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")

# A call of the method named exactly Make (member access or qualified name);
# MakeSpec and the other Make* helpers do not match.
SUBSCRIBER_MAKE_RE = re.compile(r"(?:\.|->|SubscriberFactory::)Make\s*\(")
SUBSCRIBER_MAKE_HOME = "src/telecom/subscriber.cc"

# Deadline queries of the sim driver loop and the files allowed to make them.
DRIVER_DEADLINE_RE = re.compile(
    r"\b(NextEventDeadline|NextMigrationDeadline|NextObsSampleDue)\s*\(")
DRIVER_DEADLINE_HOMES = ("src/workload/testbed.cc", "src/udr/")

# Single-op apply and the files allowed to call it (the batch entry point
# ApplyWriteOps does not match: the name must be followed by the paren).
APPLY_WRITE_OP_RE = re.compile(r"\bApplyWriteOp\s*\(")
APPLY_WRITE_OP_HOMES = ("src/storage/commit_log.h", "src/storage/commit_log.cc")

# A write call on a RecordStore receiver, and the trees allowed to make it.
# WriteBuilder::PutRecord and Transaction::SetAttribute share names with the
# store's writers but go through the log, so the receiver must name a store.
OUT_OF_LOG_WRITE_RE = re.compile(
    r"\b(?:\w*_store|store_?)(?:\(\))?\s*(?:\.|->)\s*"
    r"(PutRecord|DeleteRecord|SetAttribute|RemoveAttribute|MutateRecord|"
    r"ApplyUpsertRun|AdoptRecord)\s*\(")
OUT_OF_LOG_WRITE_HOMES = ("src/storage/", "src/replication/")

# An op-list call whose argument opens with a brace, on the same line or the
# next one (group 2 is "{" or empty at end of line).
REQUEST_LIST_CALL_RE = re.compile(r"\b(RunOps|SubmitBatch)\s*\(\s*(\{|$)")
REQUEST_LIST_SCOPE = "src/telecom/"

# Metric registry call sites and the dotted-name shape they must use.
METRIC_CALL_RE = re.compile(
    r"\b(?:Add|Observe|RegisterCounter|RegisterHist)\s*\(")
METRIC_NAME_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')
METRIC_DOC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


def code_part(line: str) -> str:
    """Line with string-literal contents blanked and // comments stripped."""
    return STRING_RE.sub('""', line).split("//")[0]


def lint_file(path: str, rel: str, allowlist_doc: str, violations: list):
    in_common = rel.startswith("src/common/")
    in_storage = rel.startswith("src/storage/")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    # Markers on comment-only lines accumulate and bind to the NEXT code
    # line (so a multi-line justification comment covers the statement it
    # precedes); a marker on a code line covers that line.
    pending = set()
    for lineno, line in enumerate(lines, 1):
        allows_here = set()
        for m in ALLOW_RE.finditer(line):
            rule, reason = m.group(1), m.group(2)
            if not reason:
                violations.append(
                    f"{rel}:{lineno}: [marker] lint:allow({rule}) has no "
                    f"justification text — write lint:allow({rule}): <why>")
            if not any(rule in doc_line and rel in doc_line
                       for doc_line in allowlist_doc.splitlines()):
                violations.append(
                    f"{rel}:{lineno}: [marker] lint:allow({rule}) is not "
                    f"documented in tools/LINT_ALLOWLIST.md (add a table row "
                    f"naming both the rule and {rel})")
            allows_here.add(rule)

        code = code_part(line)
        if not code.strip():
            pending |= allows_here
            continue
        active = allows_here | pending
        pending = set()

        if "wall-clock" not in active:
            for pat, what in WALL_CLOCK_PATTERNS:
                if pat.search(code):
                    violations.append(
                        f"{rel}:{lineno}: [wall-clock] {what} — simulated "
                        f"behavior must use sim::SimClock (deterministic "
                        f"replay); measurement-only uses need "
                        f"lint:allow(wall-clock)")
                    break

        if in_storage and "storage-string-map" not in active:
            if STORAGE_MAP_RE.search(code):
                violations.append(
                    f"{rel}:{lineno}: [storage-string-map] "
                    f"std::map<std::string, ...> in src/storage/ — the packed "
                    f"record layout (PR 6) exists to avoid this; use AttrId "
                    f"keys or mark an explicit boundary shim")

        if not in_common and "raw-mutex" not in active:
            for pat, what in RAW_MUTEX_PATTERNS:
                if pat.search(code):
                    violations.append(f"{rel}:{lineno}: [raw-mutex] {what}")
                    break

        if (rel != SUBSCRIBER_MAKE_HOME and "subscriber-make" not in active
                and SUBSCRIBER_MAKE_RE.search(code)):
            violations.append(
                f"{rel}:{lineno}: [subscriber-make] SubscriberFactory::Make "
                f"builds a whole profile — provision through MakeSpec and "
                f"name an FE event's subscriber by identity (IdentityOf)")

        if (not rel.startswith(DRIVER_DEADLINE_HOMES)
                and "driver-deadline" not in active):
            m = DRIVER_DEADLINE_RE.search(code)
            if m:
                violations.append(
                    f"{rel}:{lineno}: [driver-deadline] {m.group(1)}() "
                    f"outside the shared driver helper — wake the sim loop "
                    f"through Testbed::PumpDue (FeFleet::Drive) or drain "
                    f"with Testbed::DrainMigration")

        if (rel not in APPLY_WRITE_OP_HOMES and "apply-write-ops" not in active
                and APPLY_WRITE_OP_RE.search(code)):
            violations.append(
                f"{rel}:{lineno}: [apply-write-ops] ApplyWriteOp() outside "
                f"src/storage/commit_log.cc — apply a write set through "
                f"storage::ApplyWriteOps (one record mutation per upsert run)")

        if (not rel.startswith(OUT_OF_LOG_WRITE_HOMES)
                and "out-of-log-write" not in active):
            m = OUT_OF_LOG_WRITE_RE.search(code)
            if m:
                violations.append(
                    f"{rel}:{lineno}: [out-of-log-write] RecordStore::"
                    f"{m.group(1)}() outside src/storage/ and "
                    f"src/replication/ — a store changes only through its "
                    f"partition's commit log (catch-up adoption relies on "
                    f"it); write through the ReplicaSet")

        if (rel.startswith(REQUEST_LIST_SCOPE)
                and "request-list-copy" not in active):
            m = REQUEST_LIST_CALL_RE.search(code)
            braced = m is not None and (
                m.group(2) == "{" or
                (lineno < len(lines) and
                 code_part(lines[lineno]).lstrip().startswith("{")))
            if braced:
                violations.append(
                    f"{rel}:{lineno}: [request-list-copy] braced op list "
                    f"passed to {m.group(1)}() — the initializer_list copies "
                    f"every LdapRequest; move each request into a vector "
                    f"(OpList) instead")

        if TSA_ESCAPE_RE.search(code) and "tsa-escape" not in active:
            context = lines[max(0, lineno - 6):lineno]
            if not any("//" in c for c in context):
                violations.append(
                    f"{rel}:{lineno}: [tsa-escape] NO_THREAD_SAFETY_ANALYSIS "
                    f"without an adjacent justification comment")


def lint_bench_coverage(root: str, violations: list):
    ci_path = os.path.join(root, "ci.sh")
    with open(ci_path, encoding="utf-8") as f:
        ci = f.read()
    m = re.search(r"REQUIRED_BENCHES=\(([^)]*)\)", ci, re.S)
    if not m:
        violations.append(
            "ci.sh: [bench-coverage] no REQUIRED_BENCHES=( ... ) list found")
        return
    required = set(m.group(1).split())
    bench_dir = os.path.join(root, "bench")
    on_disk = {fn[:-3] for fn in os.listdir(bench_dir)
               if fn.startswith("bench_") and fn.endswith(".cc")}
    for missing in sorted(on_disk - required):
        violations.append(
            f"bench/{missing}.cc: [bench-coverage] not in ci.sh "
            f"REQUIRED_BENCHES — its smoke run could silently disappear")
    for stale in sorted(required - on_disk):
        violations.append(
            f"ci.sh: [bench-coverage] REQUIRED_BENCHES lists {stale} but "
            f"bench/{stale}.cc does not exist")


def lint_metric_names(root: str, violations: list):
    doc_path = os.path.join(root, "docs", "METRICS.md")
    if not os.path.exists(doc_path):
        violations.append(
            "docs/METRICS.md: [metric-name] missing — the metric-name "
            "reference table is required")
        return
    with open(doc_path, encoding="utf-8") as f:
        documented = set(METRIC_DOC_RE.findall(f.read()))

    emitted = {}  # name -> first src location emitting it.
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if not (fn.endswith(".h") or fn.endswith(".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            for lineno, line in enumerate(lines, 1):
                # The call must be in real code; the literal is then taken
                # from the raw line (code_part blanks string contents). A
                # wrapped call may carry the name on the following line.
                if not METRIC_CALL_RE.search(code_part(line)):
                    continue
                names = METRIC_NAME_RE.findall(line)
                if not names and lineno < len(lines):
                    names = METRIC_NAME_RE.findall(lines[lineno])
                for name in names:
                    emitted.setdefault(name, f"{rel}:{lineno}")

    for name in sorted(set(emitted) - documented):
        violations.append(
            f"{emitted[name]}: [metric-name] metric \"{name}\" is not in "
            f"the docs/METRICS.md table — document it (name backticked)")
    for name in sorted(documented - set(emitted)):
        violations.append(
            f"docs/METRICS.md: [metric-name] documents \"{name}\" but no "
            f"Add/Observe/RegisterCounter/RegisterHist site in src/ emits "
            f"it — remove the row or restore the metric")


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                           else os.path.join(os.path.dirname(__file__), ".."))
    allowlist_path = os.path.join(root, "tools", "LINT_ALLOWLIST.md")
    allowlist_doc = ""
    if os.path.exists(allowlist_path):
        with open(allowlist_path, encoding="utf-8") as f:
            allowlist_doc = f.read()

    violations: list = []
    files = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if not (fn.endswith(".h") or fn.endswith(".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            files += 1
            lint_file(path, rel, allowlist_doc, violations)
    lint_bench_coverage(root, violations)
    lint_metric_names(root, violations)

    if violations:
        for v in violations:
            print(v)
        print(f"\nlint_invariants: {len(violations)} violation(s) "
              f"across {files} files", file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({files} files, 0 violations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
