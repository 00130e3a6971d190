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
                     — the packed-layout regression guard. Records key their
                     attributes by interned AttrId; storage_test bounds the
                     modelled bytes per subscriber.

  raw-mutex          std::mutex / lock_guard / unique_lock / scoped_lock /
                     condition_variable (and #include <mutex>) are banned
                     outside src/common/ — all locking goes through the
                     annotated common::Mutex layer (thread-safety analysis +
                     the UDR_DEADLOCK_CHECK lock-order checker see only what
                     flows through the wrappers).

  tsa-escape         NO_THREAD_SAFETY_ANALYSIS requires an adjacent
                     justification comment (no blanket escape hatches).

  mutex-holder       src/ may declare a common::Mutex member or local only
                     under src/common/, in src/exec/shard_runtime.h (the
                     park handoff between the driver and a worker) and in
                     src/storage/attr_pool.h (the process-wide intern
                     pool's writers): the two places where threads really
                     meet. Every other per-shard object is confined to one
                     thread and checked by common::ThreadOwner, so a lock
                     there guards nothing and costs a lock pair per call.

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

  hot-metric-literal src/routing/ and src/exec/ must not pass a string
                     literal to a Metrics Add( or Observe(. Those layers run
                     once per routed op or batch, and the string API builds a
                     std::string and walks the registry's map on every call;
                     register the name once (RegisterCounter /
                     RegisterHist) and bump the handle. A failure-only call
                     site carries a marker saying so.

  flat-table         src/ outside src/common/flat_table.h must not hand-roll
                     an open-addressing table or its hashes: no splitmix64
                     multiplier (0xBF58476D1CE4E5B9; call udr::Mix64), no
                     word-wise FNV prime (0x100000001b3; call
                     udr::HashBytes) and no linear-probe step "+ 1) & mask".
                     Every flat map is a user of udr::FlatTable, so probe,
                     growth and backward-shift erase have one home (and one
                     unit test). The byte-wise FNV-1a loops that feed
                     modelled placement (identity.cc, hash_ring.cc,
                     pre_udc.cc) use the decimal FNV constants and stay.

  commit-log-owner   src/ may declare a storage::CommitLog member or local
                     only inside src/storage/ and
                     src/replication/replica_set.{h,cc}. ReplicaSet is the
                     one replication engine: its commit log is the
                     replicated unit, and every ack mode (async,
                     dual-sequence, quorum) and CAP stance (PC, PA, majority
                     election) is a configuration of it. A second class
                     owning its own log would be a second engine with its
                     own apply loop and election, which is what the
                     consensus engine was before it became the
                     ELECT_MAJORITY partition mode.

  handle-table-owner src/ may name HandleTable< only in src/routing/coalescer.h
                     and src/udr/event_pipeline.h. An in-flight event is
                     tracked in two tables: the coalescer's outcomes while
                     its window is open and the event pipeline's ledger
                     until it is taken (client leg and owed protocol cost
                     included). UdrNf, the LDAP servers and the balancer
                     keep no per-event state; a third table would be a
                     layer remembering requests it only forwards.

  failover-due-once  the failover-due test (`down_since +
                     config_.failover_detection`) may appear at most once in
                     src/: in ReplicaSet::AdmitMaster, the one admission
                     rule for writes, grouped writes and master-only reads
                     under every CAP stance but majority election. Write,
                     WriteBatch and PickReadReplica each once carried their
                     own copy of "fail over once detection has passed, else
                     refuse"; a second occurrence is a second admission
                     path that can drift from the first.

  model-bytes        src/ may take sizeof( of storage::Value, CompactString,
                     StringList, Attribute, PackedAttr, WriteOp or LogEntry
                     only inside a static_assert and Record::Allocate (which
                     sizes the host block). The RAM and wire models charge
                     named constants (kPackedAttrModelBytes, ValueBytes,
                     ValueHeapBytes, WriteOpWireBytes), so SE capacity, the
                     PoA cache budget and every modelled table stay put when
                     the host layout packs tighter; a sizeof elsewhere ties a
                     modelled number to the host layout.

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

# A Mutex value declaration (member or local; MutexLock, references and
# pointers do not match), and the files allowed to make one.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+[A-Za-z_]\w*\s*(?:[;={(\[]|$)")
MUTEX_HOMES = ("src/common/", "src/exec/shard_runtime.h",
               "src/storage/attr_pool.h")

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

# A string-keyed metric bump (the literal may open the next line) and the
# trees that run per op.
HOT_METRIC_CALL_RE = re.compile(r"(?:\.|->)\s*(Add|Observe)\s*\(\s*(\"|$)")
HOT_METRIC_SCOPES = ("src/routing/", "src/exec/")

# A CommitLog value declaration (member or local, also as the last template
# argument of a holder), and the files allowed to make one. References and
# pointers (`CommitLog&`, `CommitLog*`) do not match.
COMMIT_LOG_DECL_RE = re.compile(
    r"\bCommitLog(?:\s*>)*\s+[A-Za-z_]\w*\s*(?:[;={(\[]|$)")
COMMIT_LOG_HOMES = ("src/storage/", "src/replication/replica_set.h",
                    "src/replication/replica_set.cc")

# The files that may hold an in-flight handle table.
HANDLE_TABLE_RE = re.compile(r"\bHandleTable\s*<")
HANDLE_TABLE_HOMES = ("src/routing/coalescer.h", "src/udr/event_pipeline.h")

# The hashing and probing of an open-addressing table, and its one home.
FLAT_TABLE_PATTERNS = [
    (re.compile(r"0xBF58476D1CE4E5B9", re.I), "splitmix64 multiplier "
     "(call udr::Mix64)"),
    (re.compile(r"0x100000001b3", re.I), "FNV prime (call udr::HashBytes)"),
    (re.compile(r"\+\s*1\s*\)\s*&\s*(?:\w+\s*(?:\.|->)\s*)*mask\w*\b"),
     "linear-probe step (use udr::FlatTable)"),
]
FLAT_TABLE_HOME = "src/common/flat_table.h"

# The failover-due test and how often src/ may spell it (the one admission
# rule, ReplicaSet::AdmitMaster).
FAILOVER_DUE_RE = re.compile(
    r"\bdown_since\s*\+\s*config_\s*\.\s*failover_detection\b")
FAILOVER_DUE_MAX = 1

# sizeof of a host-layout type whose bytes the models must not follow, and
# the two places it may appear: a static_assert (from its line to the ";"
# that ends it) and the body of Record::Allocate.
MODEL_BYTES_RE = re.compile(
    r"\bsizeof\s*\(\s*(?:\w+::)*"
    r"(Value|CompactString|StringList|Attribute|PackedAttr|WriteOp|LogEntry)"
    r"\s*\)")
STATIC_ASSERT_RE = re.compile(r"\bstatic_assert\s*\(")
ALLOCATE_DEF_RE = re.compile(r"\bRecord::Allocate\s*\(")

# Metric registry call sites and the dotted-name shape they must use.
METRIC_CALL_RE = re.compile(
    r"\b(?:Add|Observe|RegisterCounter|RegisterHist)\s*\(")
METRIC_NAME_RE = re.compile(r'"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"')
METRIC_DOC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")


def code_part(line: str) -> str:
    """Line with string-literal contents blanked and // comments stripped."""
    return STRING_RE.sub('""', line).split("//")[0]


def lint_file(path: str, rel: str, allowlist_doc: str, violations: list,
              failover_due: list):
    in_common = rel.startswith("src/common/")
    in_storage = rel.startswith("src/storage/")
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    # Markers on comment-only lines accumulate and bind to the NEXT code
    # line (so a multi-line justification comment covers the statement it
    # precedes); a marker on a code line covers that line.
    pending = set()
    in_static_assert = False
    in_allocate = False
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
                    f"record layout exists to avoid this; use AttrId keys")

        if not in_common and "raw-mutex" not in active:
            for pat, what in RAW_MUTEX_PATTERNS:
                if pat.search(code):
                    violations.append(f"{rel}:{lineno}: [raw-mutex] {what}")
                    break

        if (not rel.startswith(MUTEX_HOMES) and "mutex-holder" not in active
                and MUTEX_DECL_RE.search(code)):
            violations.append(
                f"{rel}:{lineno}: [mutex-holder] common::Mutex declared "
                f"outside src/common/, src/exec/shard_runtime.h and "
                f"src/storage/attr_pool.h — a per-shard object is confined "
                f"to its thread (common::ThreadOwner), not locked")

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

        if (rel.startswith(HOT_METRIC_SCOPES)
                and "hot-metric-literal" not in active):
            m = HOT_METRIC_CALL_RE.search(code)
            literal = m is not None and (
                m.group(2) == '"' or
                (lineno < len(lines) and
                 code_part(lines[lineno]).lstrip().startswith('"')))
            if literal:
                violations.append(
                    f"{rel}:{lineno}: [hot-metric-literal] string-keyed "
                    f"Metrics::{m.group(1)}() in a per-op layer — register "
                    f"the name once (RegisterCounter/RegisterHist) and use "
                    f"the handle")

        if (not rel.startswith(COMMIT_LOG_HOMES)
                and "commit-log-owner" not in active
                and COMMIT_LOG_DECL_RE.search(code)):
            violations.append(
                f"{rel}:{lineno}: [commit-log-owner] storage::CommitLog "
                f"declared outside src/storage/ and "
                f"src/replication/replica_set.{{h,cc}} — replication has "
                f"one engine (ReplicaSet); add a SyncMode or PartitionMode "
                f"instead of a class with its own log")

        if (rel not in HANDLE_TABLE_HOMES
                and "handle-table-owner" not in active
                and HANDLE_TABLE_RE.search(code)):
            violations.append(
                f"{rel}:{lineno}: [handle-table-owner] HandleTable outside "
                f"src/routing/coalescer.h and src/udr/event_pipeline.h — "
                f"an in-flight event lives in the coalescer's outcomes and "
                f"the event pipeline's ledger only; keep its state in the "
                f"EventEntry")

        if rel != FLAT_TABLE_HOME and "flat-table" not in active:
            for pat, what in FLAT_TABLE_PATTERNS:
                if pat.search(code):
                    violations.append(
                        f"{rel}:{lineno}: [flat-table] {what} — every "
                        f"open-addressing table in src/ is a user of "
                        f"udr::FlatTable (src/common/flat_table.h)")
                    break

        in_static_assert = in_static_assert or bool(
            STATIC_ASSERT_RE.search(code))
        in_allocate = in_allocate or bool(ALLOCATE_DEF_RE.search(code))
        if (not in_static_assert and not in_allocate
                and "model-bytes" not in active):
            m = MODEL_BYTES_RE.search(code)
            if m:
                violations.append(
                    f"{rel}:{lineno}: [model-bytes] sizeof({m.group(1)}) "
                    f"outside a static_assert and Record::Allocate — "
                    f"modelled bytes charge named constants "
                    f"(kPackedAttrModelBytes, ValueHeapBytes, "
                    f"WriteOpWireBytes), not the "
                    f"host layout")
        if in_static_assert and ";" in code:
            in_static_assert = False
        if in_allocate and code.rstrip() == "}":
            in_allocate = False

        if "failover-due-once" not in active and FAILOVER_DUE_RE.search(code):
            failover_due.append(f"{rel}:{lineno}")

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
    failover_due: list = []
    files = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for fn in sorted(filenames):
            if not (fn.endswith(".h") or fn.endswith(".cc")):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            files += 1
            lint_file(path, rel, allowlist_doc, violations, failover_due)
    if len(failover_due) > FAILOVER_DUE_MAX:
        for where in failover_due:
            violations.append(
                f"{where}: [failover-due-once] failover-due test spelled "
                f"{len(failover_due)} times in src/ (at most "
                f"{FAILOVER_DUE_MAX}) — reach the master through "
                f"ReplicaSet::AdmitMaster instead of a second admission path")
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
