#!/usr/bin/env python3
"""Project lint for concurrency and error-contract hygiene.

Checks that the conventions documented in src/common/thread_annotations.h
and src/common/status.h actually hold across the tree:

  raw-sync-primitive   std::mutex / std::lock_guard / std::unique_lock /
                       std::scoped_lock / std::condition_variable outside
                       src/common/mutex.h. The annotated pjoin::Mutex /
                       MutexLock / CondVar wrappers are mandatory — raw
                       standard types are invisible to Clang's
                       -Wthread-safety analysis.
  manual-lock          .Lock() / .Unlock() / .lock() / .unlock() calls
                       outside src/common/mutex.h. Locking is RAII-only
                       (MutexLock); a manual Unlock on an early return
                       path is exactly the bug the wrappers exist to
                       prevent.
  unguarded-mutex      a `Mutex foo_;` class member with no GUARDED_BY(foo_)
                       user in the same file. A mutex that guards nothing
                       is either dead or (worse) guarding members the
                       analysis cannot see.
  void-status-discard  a `(void)call(...)` expression discard. For Status /
                       Result this silently defeats [[nodiscard]]; for
                       everything else a bare call already compiles
                       cleanly, so the cast is never needed. `(void)name;`
                       (unused-parameter silencing) is allowed.
  header-guard         header guard must be PJOIN_<PATH>_H_ derived from
                       the path under src/ (e.g. src/join/pjoin.h =>
                       PJOIN_JOIN_PJOIN_H_).
  missing-include      files using GUARDED_BY/REQUIRES/... must include
                       common/thread_annotations.h; files using Mutex /
                       MutexLock / CondVar must include common/mutex.h.
  raw-clock            std::chrono::{steady,system,high_resolution}_clock
                       ::now(), or a free clock_gettime(2) /
                       gettimeofday(2) call, in src/ outside
                       src/common/clock.* and the tracer (src/obs/trace.*). Operators and drivers
                       read time through the Clock interface / Stopwatch /
                       SteadyDeadlineAfter so virtual-time benches and
                       deterministic tests stay honest.
  raw-socket           socket(2) / bind(2) / accept(2) calls in src/
                       outside src/obs/http_server.cc. All network IO goes
                       through HttpServer so fd lifetimes, timeouts and
                       shutdown live in one audited place (test clients
                       under tests/ are unaffected; the rule is src-only).
  raw-atomic-ordering  explicit std::memory_order_* arguments in src/
                       outside src/common/spsc_ring.h, src/obs/trace.*
                       and the model-checking harness (src/check/).
                       Relaxed/acquire/release reasoning is subtle enough
                       that it lives only in the audited lock-free
                       modules (the SPSC ring, the tracer's seqlock, and
                       the checker that verifies them); everywhere else
                       plain std::atomic ops (seq_cst) are the contract —
                       an ordering argument elsewhere is either premature
                       optimisation or a latent race.
  model-atomic-include the instrumented model-checking atomics
                       (check/model_atomic.h, mc::atomic / mc::Cell /
                       mc::ModelPolicy) referenced outside tests/ and
                       src/check/. They exist to *replace* std::atomic
                       under the virtual scheduler; in a production
                       binary they would abort at the first operation
                       (no Execution is live) — the policy template on
                       SpscRing is the supported seam, production code
                       never names mc:: types directly.

A line containing NOLINT (optionally NOLINT(<rule>)) is exempt from that
rule on that line. Fixture files under tools/lint_fixtures/ are excluded
from the repo scan; `--self-test` lints them instead and asserts each
expected finding fires.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

# Directories scanned in repo mode, relative to the repo root.
SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")
FIXTURE_DIR = os.path.join("tools", "lint_fixtures")
# The wrapper layer itself is the one place raw primitives and manual
# lock calls are legitimate.
WRAPPER_HEADER = os.path.join("src", "common", "mutex.h")
# The only src/ files allowed to read the raw monotonic clock: the Clock
# wrapper layer and the tracer's timestamp source (docs/OBSERVABILITY.md).
RAW_CLOCK_EXEMPT = (
    "src/common/clock.h",
    "src/common/clock.cc",
    "src/obs/trace.h",
    "src/obs/trace.cc",
)
# The only src/ file allowed to make raw socket syscalls (the HTTP server
# that backs the live introspection endpoints).
RAW_SOCKET_EXEMPT = ("src/obs/http_server.cc",)
# The only src/ files allowed to pass explicit std::memory_order arguments:
# the SPSC ring (the parallel pipeline's lock-free transport) and the
# tracer's seqlock-style ring. Their orderings are documented invariants;
# everywhere else atomics use the seq_cst defaults.
RAW_ATOMIC_EXEMPT = (
    "src/common/spsc_ring.h",
    "src/obs/trace.h",
    "src/obs/trace.cc",
    # The model-checking harness interprets memory orders; it is the
    # checker, not a user of the convention.
    "src/check/model_atomic.h",
    "src/check/scheduler.h",
    "src/check/scheduler.cc",
)
# The model-checking atomics may only be named from the harness itself and
# from tests; see the model-atomic-include rule in the module docstring.
MODEL_ATOMIC_ALLOWED_PREFIXES = ("src/check/", "tests/")
MODEL_ATOMIC_HEADER = "check/model_atomic.h"

RAW_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b")
MANUAL_LOCK_RE = re.compile(r"[\w\)\]]\s*(\.|->)\s*([Ll]ock|[Uu]nlock)\s*\(\s*\)")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:pjoin::)?Mutex\s+(\w+_)\s*;")
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[\w:.\->~\[\]\s]*\w\s*\(")
ANNOTATION_RE = re.compile(
    r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY|CAPABILITY|"
    r"SCOPED_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS)\s*\(")
MUTEX_USE_RE = re.compile(r"\b(MutexLock|CondVar)\b|\bMutex\b\s*[&*\w]")
# The chrono clocks' now(), or free clock_gettime()/gettimeofday() calls
# (optionally ::-qualified; the leading class rejects member calls and
# identifiers that merely end in those names).
RAW_CLOCK_RE = re.compile(
    r"std::chrono::(steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now\s*\("
    r"|(?:^|[^\w:.>])(?:::)?(clock_gettime|gettimeofday)\s*\(")
# Free calls to socket()/bind()/accept(), optionally ::-qualified. The
# leading character class rejects `std::bind(`, member calls (`x.bind(`,
# `x->bind(`) and identifiers that merely end in a syscall name.
RAW_SOCKET_RE = re.compile(
    r"(?:^|[^\w:.>])(?:::)?(socket|bind|accept)\s*\(")
RAW_MEMORY_ORDER_RE = re.compile(r"\bstd\s*::\s*memory_order(_\w+)?\b")
MC_TYPE_USE_RE = re.compile(r"\bmc\s*::\s*(atomic|Cell|ModelPolicy)\b")
NOLINT_RE = re.compile(r"NOLINT(?:\((?P<rules>[\w,\- ]*)\))?")
LINE_COMMENT_RE = re.compile(r"//.*$")


def nolinted(line, rule):
    m = NOLINT_RE.search(line)
    if not m:
        return False
    rules = m.group("rules")
    return rules is None or rule in [r.strip() for r in rules.split(",")]


def strip_strings(line):
    """Blanks string/char literals so their contents cannot match rules."""
    return re.sub(r'"(\\.|[^"\\])*"|\'(\\.|[^\'\\])*\'', '""', line)


def expected_guard(rel_path):
    inner = rel_path[len("src/"):] if rel_path.startswith("src/") else rel_path
    return "PJOIN_" + re.sub(r"[/.]", "_", inner).upper() + "_"


class Linter:
    def __init__(self):
        self.findings = []  # (path, line_no, rule, message)

    def report(self, path, line_no, rule, message):
        self.findings.append((path, line_no, rule, message))

    def lint_file(self, path, rel_path):
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            self.report(rel_path, 0, "io", f"unreadable: {e}")
            return

        is_wrapper = rel_path.replace(os.sep, "/") == WRAPPER_HEADER.replace(
            os.sep, "/")
        is_src = rel_path.replace(os.sep, "/").startswith("src/")
        may_use_model_atomics = rel_path.replace(os.sep, "/").startswith(
            MODEL_ATOMIC_ALLOWED_PREFIXES)
        in_block_comment = False
        mutex_members = {}  # name -> first declaration line
        guarded_users = set()  # mutex names appearing in GUARDED_BY(...)
        uses_annotations = False
        uses_mutex_types = False
        includes = set()

        for i, raw in enumerate(lines, start=1):
            line = strip_strings(raw)
            # Cheap block-comment tracking: rules do not apply inside.
            code = line
            if in_block_comment:
                end = code.find("*/")
                if end < 0:
                    continue
                code = code[end + 2:]
                in_block_comment = False
            while "/*" in code:
                start = code.find("/*")
                end = code.find("*/", start + 2)
                if end < 0:
                    code = code[:start]
                    in_block_comment = True
                    break
                code = code[:start] + code[end + 2:]
            code_no_comment = LINE_COMMENT_RE.sub("", code)
            if not code_no_comment.strip():
                continue

            # Includes are parsed from the raw line: strip_strings has
            # already blanked the quoted path in `code`.
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', raw)
            if m:
                includes.add(m.group(1))
                if (m.group(1) == MODEL_ATOMIC_HEADER
                        and not may_use_model_atomics
                        and not nolinted(raw, "model-atomic-include")):
                    self.report(rel_path, i, "model-atomic-include",
                                "check/model_atomic.h is test-only: the "
                                "instrumented atomics abort outside the "
                                "model-check scheduler — parameterize on an "
                                "atomics policy instead (see "
                                "common/spsc_ring.h)")

            if (MC_TYPE_USE_RE.search(code_no_comment)
                    and not may_use_model_atomics):
                if not nolinted(raw, "model-atomic-include"):
                    self.report(rel_path, i, "model-atomic-include",
                                "mc::atomic/mc::Cell/mc::ModelPolicy are "
                                "test-only model-checking types; production "
                                "code reaches instrumented atomics only via "
                                "the SpscRing policy template")

            if RAW_SYNC_RE.search(code_no_comment) and not is_wrapper:
                if not nolinted(raw, "raw-sync-primitive"):
                    self.report(rel_path, i, "raw-sync-primitive",
                                "use pjoin::Mutex/MutexLock/CondVar from "
                                "common/mutex.h (annotated for "
                                "-Wthread-safety), not raw std:: types")

            if MANUAL_LOCK_RE.search(code_no_comment) and not is_wrapper:
                if not nolinted(raw, "manual-lock"):
                    self.report(rel_path, i, "manual-lock",
                                "manual lock()/unlock() call; use RAII "
                                "MutexLock instead")

            if (is_src and RAW_CLOCK_RE.search(code_no_comment)
                    and rel_path.replace(os.sep, "/") not in RAW_CLOCK_EXEMPT):
                if not nolinted(raw, "raw-clock"):
                    self.report(rel_path, i, "raw-clock",
                                "raw clock read; go through "
                                "common/clock.h (Clock / Stopwatch / "
                                "SteadyDeadlineAfter) so virtual-time "
                                "benches stay honest")

            if (is_src and RAW_SOCKET_RE.search(code_no_comment)
                    and rel_path.replace(os.sep, "/") not in
                    RAW_SOCKET_EXEMPT):
                if not nolinted(raw, "raw-socket"):
                    self.report(rel_path, i, "raw-socket",
                                "raw socket()/bind()/accept() call; network "
                                "IO is confined to src/obs/http_server.cc "
                                "(HttpServer) so fd lifetimes and shutdown "
                                "stay in one audited place")

            if (is_src and RAW_MEMORY_ORDER_RE.search(code_no_comment)
                    and rel_path.replace(os.sep, "/") not in
                    RAW_ATOMIC_EXEMPT):
                if not nolinted(raw, "raw-atomic-ordering"):
                    self.report(rel_path, i, "raw-atomic-ordering",
                                "explicit std::memory_order argument; "
                                "relaxed/acquire/release reasoning is "
                                "confined to common/spsc_ring.h and "
                                "obs/trace.* — use the seq_cst defaults "
                                "here")

            if VOID_DISCARD_RE.search(code_no_comment):
                if not nolinted(raw, "void-status-discard"):
                    self.report(rel_path, i, "void-status-discard",
                                "(void)-discard of a call result; check the "
                                "Status (or bind and DCHECK it) — a plain "
                                "call needs no cast for non-[[nodiscard]] "
                                "types")

            m = MUTEX_MEMBER_RE.match(code_no_comment)
            if m and not is_wrapper and not nolinted(raw, "unguarded-mutex"):
                mutex_members.setdefault(m.group(1), i)
            for g in re.finditer(r"GUARDED_BY\((\w+)\)", code_no_comment):
                guarded_users.add(g.group(1))

            if ANNOTATION_RE.search(code_no_comment):
                uses_annotations = True
            if MUTEX_USE_RE.search(code_no_comment):
                uses_mutex_types = True

        for name, line_no in mutex_members.items():
            if name not in guarded_users:
                self.report(rel_path, line_no, "unguarded-mutex",
                            f"Mutex member '{name}' has no GUARDED_BY({name}) "
                            "user in this file; annotate the members it "
                            "guards")

        exempt_from_include = rel_path.replace(os.sep, "/") in (
            "src/common/thread_annotations.h", WRAPPER_HEADER.replace(os.sep, "/"))
        if is_src and not exempt_from_include:
            if uses_annotations and "common/thread_annotations.h" not in includes \
                    and "common/mutex.h" not in includes:
                self.report(rel_path, 1, "missing-include",
                            "uses thread-safety annotations without "
                            'including "common/thread_annotations.h"')
            if uses_mutex_types and "common/mutex.h" not in includes:
                self.report(rel_path, 1, "missing-include",
                            'uses Mutex/MutexLock/CondVar without including '
                            '"common/mutex.h"')

        if is_src and rel_path.endswith(".h"):
            guard = expected_guard(rel_path.replace(os.sep, "/"))
            text = "\n".join(lines)
            if f"#ifndef {guard}" not in text or f"#define {guard}" not in text:
                if not any(nolinted(l, "header-guard") for l in lines[:5]):
                    self.report(rel_path, 1, "header-guard",
                                f"expected header guard {guard}")


def iter_sources(root, dirs, exclude_fixtures=True):
    for d in dirs:
        top = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(top):
            if exclude_fixtures and os.path.abspath(dirpath).startswith(
                    os.path.abspath(os.path.join(root, FIXTURE_DIR))):
                continue
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root)


def run_repo_lint(root):
    linter = Linter()
    count = 0
    for path, rel in iter_sources(root, SCAN_DIRS):
        count += 1
        linter.lint_file(path, rel)
    for path, line_no, rule, message in linter.findings:
        print(f"{path}:{line_no}: [{rule}] {message}")
    print(f"lint: {count} files scanned, {len(linter.findings)} finding(s)")
    return 1 if linter.findings else 0


# Fixture file -> rules that must fire in it (self-test contract).
FIXTURE_EXPECTATIONS = {
    "bad_raw_mutex.cc": {"raw-sync-primitive"},
    "bad_manual_lock.cc": {"manual-lock"},
    "bad_unguarded_mutex.h": {"unguarded-mutex"},
    "bad_void_discard.cc": {"void-status-discard"},
    "bad_header_guard.h": {"header-guard"},
    "bad_raw_clock.cc": {"raw-clock"},
    "bad_raw_socket.cc": {"raw-socket"},
    "bad_raw_atomic_order.cc": {"raw-atomic-ordering"},
    "bad_model_atomic_include.cc": {"model-atomic-include"},
    "clean.h": set(),
}


def run_self_test(root):
    fixture_root = os.path.join(root, FIXTURE_DIR)
    failures = []
    for name, expected in sorted(FIXTURE_EXPECTATIONS.items()):
        path = os.path.join(fixture_root, name)
        if not os.path.exists(path):
            failures.append(f"{name}: fixture missing")
            continue
        linter = Linter()
        # Fixtures pose as src/ files so src-only rules apply.
        linter.lint_file(path, "src/fixture/" + name)
        fired = {rule for _, _, rule, _ in linter.findings}
        # header-guard fires on every .h fixture posing as src/ (their
        # guards are fixture-local); only treat it as signal when expected.
        if "header-guard" not in expected:
            fired.discard("header-guard")
        if expected - fired:
            failures.append(f"{name}: expected {sorted(expected - fired)} "
                            f"to fire, got {sorted(fired)}")
        if not expected and fired:
            failures.append(f"{name}: expected clean, got {sorted(fired)}")
    for f in failures:
        print(f"self-test FAIL: {f}")
    print(f"lint self-test: {len(FIXTURE_EXPECTATIONS)} fixtures, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixture files and check expectations")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"error: {args.root} does not look like the repo root",
              file=sys.stderr)
        return 2
    if args.self_test:
        return run_self_test(args.root)
    return run_repo_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
