#!/usr/bin/env python3
"""Repo-specific static lint gates, run by ctest and the CI static-analysis job.

Eight checks, all over src/ (tests and benches may use what they like;
check 8 reads bench/ and perfbench/ too):

  1. No naked synchronization primitives. Every mutex in src/ must be the
     annotated retrasyn::Mutex from common/mutex.h; a raw std::mutex is
     invisible to clang's thread-safety analysis, so one naked lock silently
     exempts whatever it guards from the -Werror=thread-safety gate.
  2. No wall-clock or libc randomness. Determinism is a core contract
     (byte-identical releases across shardings and replays); rand()/time()
     style calls are how nondeterminism sneaks in. Monotonic steady_clock
     timing and the seeded common/rng.h are the sanctioned alternatives.
  3. No heap allocation in functions marked `// HOT PATH`. The marker is a
     reviewed claim that a function is allocation-free at steady state; this
     check keeps the claim true as the function evolves.
  4. The deployment fingerprint covers the mechanism config. Every data
     member declared directly in RetraSynConfig or AllocationConfig must
     appear as `config.<field>` (`config.allocation.<field>`) inside
     TrajectoryService::DeploymentFingerprint (where `config` is the
     RetraSynEngine's config()), or sit in FINGERPRINT_ALLOWLIST with a
     reason. A
     field the hash misses lets Recover replay a journal or checkpoint under
     a changed setting and silently diverge. The allowlisted fields are the
     thread resources the released bytes do not depend on; for them the
     check is reversed: no thread term may appear in the fingerprint, or a
     restart on other hardware would be refused for nothing.
  5. One home for the on-disk byte format. Outside src/common/, no file may
     declare or define its own PutFixed32/64, GetFixed32/64, PutDouble,
     PutVarint64 or GetVarint64 (or hand-roll the `>> (8 * i)` byte loop
     under another name), hold the FNV-1a 64 constants (a private hash
     loop), call RenameFile or rename, or spell a ".tmp" literal. The shared
     encoders and ByteReader live in common/coding.h, the tmp + fsync +
     rename + dir-fsync write and the orphan predicate in common/file_io.h;
     a second copy is how two formats drift apart in byte order or crash
     safety.
  6. The service layers always record. Under src/service, src/journal and
     src/checkpoint no telemetry, registry, metric, histogram or trace
     pointer may be tested with `== nullptr` / `!= nullptr`: those layers
     take a Telemetry& where they are built and register every metric up
     front, so such a test is dead code or a detach path coming back. Only
     the engine (src/core) keeps an optional AttachTelemetry, for the bare
     batch pipeline.
  7. Boot and recovery are one path. Under src/service, JournalWriter::Open,
     JournalWriter::OpenLocked and CheckpointManager::Open may be called
     from one function only (TrajectoryService::Open, behind all four
     factories). A second caller is a second way to open the durable
     directories, whose checks and seeding can drift from the first.
  8. Every knob has a caller. Each data member declared directly in
     ServiceOptions or RetraSynConfig must be assigned (`.field =` or
     `->field =`, a member of it counting too) somewhere in src/, bench/ or
     perfbench/, or sit in KNOB_ALLOWLIST with a reason. A field only the
     tests set keeps a code path alive that no deployment selects.

Comments and string/char literals are stripped before matching, so prose like
"time (rush hours)" or a banned token inside an error message never trips a
check (check 5 looks for its ".tmp" literal in the comment-stripped text). Exit status: 0 clean, 1 findings (one `path:line: message` per line).

Usage: python3 tools/lint.py [repo_root]
"""

import os
import re
import sys

# Files allowed to hold the naked primitives they wrap.
MUTEX_ALLOWLIST = {
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "thread_annotations.h"),
}

NAKED_SYNC = [
    (re.compile(r"\bstd::mutex\b"), "naked std::mutex (use retrasyn::Mutex)"),
    (re.compile(r"\bstd::recursive_mutex\b"),
     "std::recursive_mutex (re-entrancy hides lock-order bugs; restructure)"),
    (re.compile(r"\bstd::shared_mutex\b"),
     "naked std::shared_mutex (wrap it in common/mutex.h first)"),
    (re.compile(r"\bstd::lock_guard\b"),
     "naked std::lock_guard (use retrasyn::MutexLock)"),
    (re.compile(r"\bstd::scoped_lock\b"),
     "naked std::scoped_lock (use retrasyn::MutexLock)"),
    (re.compile(r"\bstd::unique_lock\b"),
     "naked std::unique_lock (use MutexLock, or Lock/Unlock in worker loops)"),
    (re.compile(r"\bstd::condition_variable\b"),
     "naked std::condition_variable (use retrasyn::CondVar)"),
    (re.compile(r"#\s*include\s*<mutex>"),
     "direct <mutex> include (include common/mutex.h)"),
    (re.compile(r"#\s*include\s*<condition_variable>"),
     "direct <condition_variable> include (include common/mutex.h)"),
]

NONDETERMINISM = [
    (re.compile(r"\brand\s*\("), "rand() (use the seeded common/rng.h)"),
    (re.compile(r"\bsrand\s*\("), "srand() (use the seeded common/rng.h)"),
    (re.compile(r"\bdrand48\s*\("), "drand48() (use the seeded common/rng.h)"),
    (re.compile(r"\btime\s*\("),
     "time() (wall clock; use std::chrono::steady_clock for durations)"),
    (re.compile(r"\bgettimeofday\s*\("),
     "gettimeofday() (wall clock; use std::chrono::steady_clock)"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device (unseeded entropy breaks replay determinism)"),
]

# Allocation vocabulary banned inside `// HOT PATH` functions. Word-ish
# boundaries keep e.g. "renew" or "news_" from matching.
HOT_PATH_ALLOC = [
    (re.compile(r"\bnew\b"), "new"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    (re.compile(r"\bcalloc\s*\("), "calloc"),
    (re.compile(r"\brealloc\s*\("), "realloc"),
    (re.compile(r"\bmake_unique\b"), "make_unique"),
    (re.compile(r"\bmake_shared\b"), "make_shared"),
    (re.compile(r"\.push_back\s*\("), "push_back"),
    (re.compile(r"\.emplace_back\s*\("), "emplace_back"),
    (re.compile(r"\.resize\s*\("), "resize"),
    (re.compile(r"\.reserve\s*\("), "reserve"),
]

HOT_PATH_MARKER = re.compile(r"//\s*HOT PATH")

# Check 5: the byte format and the atomic write have one home.
CODING_HOME = os.path.join("src", "common") + os.sep
CODING_PRIMITIVES = ("PutFixed32", "PutFixed64", "GetFixed32", "GetFixed64",
                     "PutDouble", "PutVarint64", "GetVarint64")
BYTE_FORMAT = [
    (re.compile(r"\b(?:void|bool|double|u?int(?:8|16|32|64)_t|auto)\s+(?:"
                + "|".join(CODING_PRIMITIVES) + r")\s*\("),
     "private copy of a common/coding.h primitive (include it instead)"),
    (re.compile(r"(?:>>|<<)\s*\(\s*8\s*\*\s*\w+\s*\)"),
     "hand-rolled little-endian byte loop (use common/coding.h)"),
    (re.compile(r"\b(?:1099511628211|14695981039346656037|0x0*100000001b3|"
                r"0xcbf29ce484222325)", re.IGNORECASE),
     "FNV-1a constant outside common/ (use Fnv1a64 from common/coding.h)"),
    (re.compile(r"\b(?:RenameFile|rename)\s*\("),
     "rename outside common/ (use WriteFileAtomically from common/file_io.h)"),
]
TMP_LITERAL = re.compile(r'"[^"\n]*\.tmp[^"\n]*"')
TMP_MESSAGE = ('".tmp" literal outside common/ (WriteFileAtomically and '
               'IsTempFileName own the tmp-file name)')

# Check 6: no null test of a telemetry pointer in the always-recording layers.
ALWAYS_RECORDING_DIRS = tuple(
    os.path.join("src", d) + os.sep for d in ("service", "journal",
                                              "checkpoint"))
NULL_TEST = re.compile(
    r"([A-Za-z_][\w.]*(?:->[\w.]+)*)\s*[!=]=\s*nullptr\b"
    r"|\bnullptr\s*[!=]=\s*([A-Za-z_][\w.]*(?:->[\w.]+)*)")
TELEMETRY_NAME = re.compile(
    r"(?:^|_)(?:telemetry|registry|metric|hist|histogram|trace)_?$",
    re.IGNORECASE)
NULL_TEST_MESSAGE = ("null test of telemetry pointer `%s` (the service layers "
                     "take a Telemetry& and always record; see docs/"
                     "observability.md)")

# Check 7: one function under src/service opens the durable subsystems.
OPENER_DIR = os.path.join("src", "service") + os.sep
OPENER_CALL = re.compile(
    r"\b(?:JournalWriter::(?:Open|OpenLocked)|CheckpointManager::Open)\s*\(")
SCOPE_HEAD = re.compile(r"\b(?:namespace|class|struct|union|extern)\b")
FUNCTION_NAME = re.compile(r"([A-Za-z_~][\w:~]*)\s*\(")

# Check 8: the knobs and where their callers live.
KNOB_STRUCTS = [
    (os.path.join("src", "core", "engine.h"), "ServiceOptions"),
    (os.path.join("src", "core", "engine.h"), "RetraSynConfig"),
]
KNOB_CALLER_DIRS = ("src", "bench", "perfbench")
KNOB_ALLOWLIST = {
    "RetraSynConfig.thread_pool":
        "a shared deployment resource: one pool serves several services",
}

# Where the fingerprinted config structs and the fingerprint live.
CONFIG_STRUCTS = [
    # (header, struct name, how a field is spelled inside the fingerprint)
    (os.path.join("src", "core", "engine.h"), "RetraSynConfig", "config."),
    (os.path.join("src", "core", "allocation.h"), "AllocationConfig",
     "config.allocation."),
]
FINGERPRINT_FILE = os.path.join("src", "service", "trajectory_service.cc")
FINGERPRINT_SIGNATURE = re.compile(
    r"\bTrajectoryService::DeploymentFingerprint\s*\(\s*\)\s*const")

# Fields the fingerprint must not hash: struct.field -> (reason, a pattern
# the fingerprint body must not contain). Hashing a deployment resource would
# refuse a restart on other hardware for no change in the bytes.
THREAD_TERM = r"\b(?:ResolveThreads|num_threads|thread_pool|ThreadPool|" \
              r"hardware_concurrency|DefaultConcurrency)\b"
FINGERPRINT_ALLOWLIST = {
    "RetraSynConfig.num_threads": (
        "deployment resource, bytes independent", THREAD_TERM),
    "RetraSynConfig.thread_pool": (
        "deployment resource, bytes independent", THREAD_TERM),
}


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks comments and (unless \p keep_strings) string/char literal
    *contents* with spaces. The result is the same length as the input
    (newlines kept in place), so offsets and line numbers in the stripped
    text map 1:1 to the original."""
    out = []
    i = 0
    n = len(text)

    def blank(upto):
        nonlocal i
        while i < upto:
            out.append("\n" if text[i] == "\n" else " ")
            i += 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            end = text.find("\n", i)
            blank(n if end < 0 else end)
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            blank(n if end < 0 else end + 2)
        elif c == '"' or c == "'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] not in (quote, "\n"):
                # \n: unterminated (raw string etc.) — bail at end of line
                step = 2 if text[i] == "\\" and i + 1 < n else 1
                if keep_strings:
                    out.append(text[i:i + step])
                    i += step
                else:
                    blank(min(i + step, n))
            if i < n and text[i] == quote:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def hot_path_regions(original, stripped):
    """Yields (start, end) offsets of the brace-balanced body following each
    `// HOT PATH` marker (markers live in comments, so scan the original)."""
    for m in HOT_PATH_MARKER.finditer(original):
        open_brace = stripped.find("{", m.end())
        if open_brace < 0:
            continue
        depth = 0
        for i in range(open_brace, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    yield open_brace, i + 1
                    break


def brace_body(stripped, open_brace):
    """Offset just past the brace that closes the one at \p open_brace."""
    depth = 0
    for i in range(open_brace, len(stripped)):
        if stripped[i] == "{":
            depth += 1
        elif stripped[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(stripped)


def struct_fields(stripped, name):
    """Yields (field, offset) for the data members declared directly in
    `struct name` (nested types, static members and functions skipped)."""
    m = re.search(r"\bstruct\s+" + name + r"\b[^;{]*\{", stripped)
    if m is None:
        return
    start = m.end()
    end = brace_body(stripped, m.end() - 1) - 1
    depth = 0
    stmt_start = start
    for i in range(start, end):
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1  # end of a nested body / inline function
        elif c == ";" and depth == 0:
            raw = stripped[stmt_start:i]
            stmt = raw.strip()
            offset = stmt_start + len(raw) - len(raw.lstrip())
            stmt_start = i + 1
            declarator = re.split(r"=|\{", stmt, maxsplit=1)[0]
            if (not stmt or "(" in declarator or
                    re.match(r"(static|using|enum|struct|class|friend|"
                             r"typedef)\b", stmt)):
                continue
            field = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", declarator)
            if field is not None:
                yield field.group(1), offset


def enclosing_functions(stripped):
    """Yields (name, start, end) for each function body in \p stripped that
    is not nested in another function. Namespace, class and struct bodies
    are looked through; any other brace outside a function opens one, named
    by the first `name(` in its header. Function bodies are skipped whole, so
    every other brace met belongs to a looked-through scope."""
    head_start = 0
    i = 0
    while i < len(stripped):
        c = stripped[i]
        if c == "{" and not SCOPE_HEAD.search(stripped[head_start:i]):
            m = FUNCTION_NAME.search(stripped[head_start:i])
            end = brace_body(stripped, i)
            yield (m.group(1) if m else "<unnamed>"), i, end
            i = head_start = end
            continue
        if c in "{};":
            head_start = i + 1
        i += 1


def lint_openers(root, findings):
    """Check 7: JournalWriter::Open/OpenLocked and CheckpointManager::Open
    are called from exactly one function under src/service."""
    calls = []  # (rel, line, function)
    for dirpath, _, filenames in os.walk(os.path.join(root, OPENER_DIR)):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                stripped = strip_comments_and_strings(f.read())
            bodies = list(enclosing_functions(stripped))
            for m in OPENER_CALL.finditer(stripped):
                function = next((n for n, start, end in bodies
                                 if start <= m.start() < end), "<file scope>")
                calls.append((rel, line_of(stripped, m.start()), function))
    openers = sorted({(rel, function) for rel, _, function in calls})
    if len(openers) <= 1:
        return
    names = ", ".join(function for _, function in openers)
    for rel, line, function in calls:
        findings.append((rel, line,
                         "durable subsystem opened from %d functions (%s); "
                         "open journals and checkpoints only in "
                         "TrajectoryService::Open" % (len(openers), names)))


def lint_knobs(root, findings):
    """Check 8: every ServiceOptions/RetraSynConfig field is assigned by a
    non-test caller, or allowlisted."""
    callers = []
    for top in KNOB_CALLER_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as f:
                        callers.append(strip_comments_and_strings(f.read()))
    code = "\n".join(callers)
    for header, struct in KNOB_STRUCTS:
        with open(os.path.join(root, header), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for field, offset in struct_fields(text, struct):
            key = struct + "." + field
            if key in KNOB_ALLOWLIST:
                continue
            if re.search(r"(?:\.|->)" + field + r"(?:\.\w+)*\s*=(?!=)", code):
                continue
            findings.append((header, line_of(text, offset),
                             "%s is set by no caller in src/, bench/ or "
                             "perfbench/ (make it a constant, delete it, or "
                             "allowlist it with a reason in tools/lint.py)" %
                             key))


def lint_fingerprint(root, findings):
    with open(os.path.join(root, FINGERPRINT_FILE), encoding="utf-8") as f:
        stripped = strip_comments_and_strings(f.read())
    m = FINGERPRINT_SIGNATURE.search(stripped)
    if m is None:
        findings.append((FINGERPRINT_FILE, 1,
                         "TrajectoryService::DeploymentFingerprint() not "
                         "found"))
        return
    open_brace = stripped.find("{", m.end())
    body = stripped[open_brace:brace_body(stripped, open_brace)]
    for header, struct, prefix in CONFIG_STRUCTS:
        with open(os.path.join(root, header), encoding="utf-8") as f:
            text = strip_comments_and_strings(f.read())
        for field, offset in struct_fields(text, struct):
            key = struct + "." + field
            if key in FINGERPRINT_ALLOWLIST:
                reason, forbidden = FINGERPRINT_ALLOWLIST[key]
                m = re.search(forbidden, body)
                if m is None:
                    continue
                message = ("%s is allowlisted (%s), but DeploymentFingerprint "
                           "hashes a thread term: %s" %
                           (key, reason, m.group(0)))
            elif re.search(re.escape(prefix + field) + r"\b", body):
                continue
            else:
                message = ("%s is not hashed by DeploymentFingerprint (add "
                           "%s%s there, or allowlist it with a reason in "
                           "tools/lint.py)" % (key, prefix, field))
            findings.append((header, line_of(text, offset), message))


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8") as f:
        original = f.read()
    stripped = strip_comments_and_strings(original)

    if rel not in MUTEX_ALLOWLIST:
        for pattern, message in NAKED_SYNC:
            for m in pattern.finditer(stripped):
                findings.append((rel, line_of(stripped, m.start()), message))
    for pattern, message in NONDETERMINISM:
        for m in pattern.finditer(stripped):
            findings.append((rel, line_of(stripped, m.start()), message))
    if not rel.startswith(CODING_HOME):
        for pattern, message in BYTE_FORMAT:
            for m in pattern.finditer(stripped):
                findings.append((rel, line_of(stripped, m.start()), message))
        code = strip_comments_and_strings(original, keep_strings=True)
        for m in TMP_LITERAL.finditer(code):
            findings.append((rel, line_of(code, m.start()), TMP_MESSAGE))
    if rel.startswith(ALWAYS_RECORDING_DIRS):
        for m in NULL_TEST.finditer(stripped):
            operand = m.group(1) or m.group(2)
            name = re.split(r"\.|->", operand)[-1]
            if TELEMETRY_NAME.search(name):
                findings.append((rel, line_of(stripped, m.start()),
                                 NULL_TEST_MESSAGE % operand))
    for start, end in hot_path_regions(original, stripped):
        body = stripped[start:end]
        for pattern, token in HOT_PATH_ALLOC:
            for m in pattern.finditer(body):
                findings.append(
                    (rel, line_of(stripped, start + m.start()),
                     token + " in a // HOT PATH function (allocation-free "
                     "contract)"))
    return findings


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = []
    num_files = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            num_files += 1
            lint_file(root, rel, findings)
    lint_fingerprint(root, findings)
    lint_openers(root, findings)
    lint_knobs(root, findings)
    findings.sort()
    for rel, line, message in findings:
        print(f"{rel}:{line}: {message}")
    if findings:
        print(f"lint: {len(findings)} finding(s) in {num_files} files",
              file=sys.stderr)
        return 1
    print(f"lint: {num_files} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
