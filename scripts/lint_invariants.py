#!/usr/bin/env python3
"""Project-invariant lint: rules clang-tidy cannot express (ISSUE 8).

Runs over src/ (and any extra paths given) and enforces:

  raw-sync-primitive
      No raw std::mutex / std::condition_variable / std::lock_guard /
      std::unique_lock / std::scoped_lock / std::shared_mutex outside the
      two files allowed to use them: util/mutex.h (the annotated wrapper)
      and util/lock_rank.cc (the validator's own registry lock, which must
      not be a ranked Mutex or it would recurse into itself).

  unranked-mutex
      Every Mutex constructed in src/ names itself and declares its rank:
      `Mutex mu_{LockRank::kX, "component.mu"}`. An unranked Mutex is
      invisible to the runtime lock-rank validator's DAG (it still gets
      cycle detection, but no declared order and no I/O policy).

  unguarded-member-after-mutex
      Every mutable data member in the contiguous declaration block
      following a Mutex member carries GUARDED_BY(...). Exempt: const /
      constexpr / static members, function declarations, Mutex / CondVar /
      std::atomic members, and members with a trailing or directly
      preceding `//` rationale (e.g. "Set once at construction") or
      guarded-elsewhere note.
      The block ends at a blank line, an access specifier, or `};` — that
      is the "adjacent" scope; members declared before the Mutex or in a
      later block are the thread-safety analysis' problem, not this lint's.

  unexplained-void-cast
      `(void)expr` discards a Status (or other result). Allowed only with
      a rationale: a trailing `//` comment on the same line, or a comment
      line directly above the statement.

  empty-io-rationale
      lock_rank::IoAllowedSection must be constructed with a non-empty
      string-literal rationale — the escape hatch documents *why* I/O
      under that lock is the design, or it teaches nothing.

  cpu-intrinsics
      <nmmintrin.h>, <immintrin.h>, <x86intrin.h>, <arm_acle.h> and
      __attribute__((target(...))) appear only in util/crc32c.cc, the one
      place that picks a CPU-specific kernel at run time (after asking the
      CPU) and keeps a portable fallback. Elsewhere they would make the
      library fault on a CPU without the feature. For the same reason no
      CMakeLists.txt under src/ may pass -march=native or -msse4.2: such a
      flag lets the compiler use the instructions anywhere.

  env-decorators
      Only MemEnv and PosixEnv derive from Env directly; every decorator
      derives from EnvWrapper (io/env.h, itself the one other direct
      subclass) and wraps its files in the *FileWrapper bases, so a new
      Env op is forwarded in one place. No dynamic_cast to RandomAccessFile
      or a subclass of it (found across the scanned files) appears outside
      io/env.h, io/env.cc and io/posix_env.cc: EnvWrapper::MultiRead
      recognises a decorator's own files by their owner pointer, and
      PosixEnv::MultiRead extracts its fds; anywhere else such a cast is a
      hand-written copy of that unwrap.

  one-point-lookup
      Under db/, InternalGet(, LocateDataBlock(, ForEachFileContaining( and
      NextFileContaining( appear only in db/shard_engine_lookup.cc, the
      probe cursor's file: Get, MultiGet and the vlog-GC lookup share its
      one walk over memtables, filters, index and blocks, and a call
      elsewhere is a second copy of that walk.

Exit status: 0 clean, 1 findings, 2 usage/IO error.
Usage: scripts/lint_invariants.py [path ...]   (default: src/)
"""

import os
import re
import sys

# Files allowed to touch raw standard-library synchronization primitives.
RAW_SYNC_ALLOWLIST = {
    os.path.join("util", "mutex.h"),
    os.path.join("util", "lock_rank.cc"),
}

RAW_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b")

# A Mutex member/local declaration: optional mutable, the type, a name,
# optional ordering annotation, then its initializer (or none).
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*"
    r"(?:ACQUIRED_(?:BEFORE|AFTER)\([^)]*\)\s*)?(\{|;|$)")

MEMBER_EXEMPT_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\b|constexpr\b|const\b|"
    r"(?:[\w:<>,\s*&]*\bconst\s+\w+)|Mutex\b|CondVar\b|std::atomic\b|"
    r"using\b|enum\b|struct\b|class\b|friend\b|typedef\b)")

# The one file allowed to use CPU intrinsics (behind runtime dispatch).
CPU_INTRINSICS_ALLOWLIST = {os.path.join("util", "crc32c.cc")}

CPU_INTRINSICS_RE = re.compile(
    r"#\s*include\s*<(nmmintrin|immintrin|x86intrin|arm_acle)\.h>|"
    r"__attribute__\s*\(\(\s*target\s*\(")
CPU_FLAG_RE = re.compile(r"-march=native|-msse4\.2")

# Direct subclasses of Env allowed under src/.
ENV_SUBCLASS_ALLOWLIST = {
    ("MemEnv", os.path.join("io", "mem_env.h")),
    ("PosixEnv", os.path.join("io", "posix_env.cc")),
    ("EnvWrapper", os.path.join("io", "env.h")),
}
# Files allowed to dynamic_cast to a RandomAccessFile subclass.
FILE_CAST_ALLOWLIST = {
    os.path.join("io", "env.h"),
    os.path.join("io", "env.cc"),
    os.path.join("io", "posix_env.cc"),
}
CLASS_DECL_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)(?:\s+final)?\s*:([^{;]*)\{")
BASE_NAME_RE = re.compile(r"(?:public|protected|private)?\s*([\w:]+)")
DYNAMIC_CAST_RE = re.compile(r"dynamic_cast\s*<\s*(?:const\s+)?([\w:]+)")

# The probe cursor's translation unit, and the calls only it may make
# under db/.
POINT_LOOKUP_TU = os.path.join("db", "shard_engine_lookup.cc")
POINT_LOOKUP_RE = re.compile(
    r"\b(InternalGet|LocateDataBlock|ForEachFileContaining|"
    r"NextFileContaining)\s*\(")

VOID_CAST_RE = re.compile(r"^\s*\(void\)")
IO_SECTION_RE = re.compile(r"IoAllowedSection\s+\w+\s*[({]\s*(.*)")


def is_comment(line):
    s = line.strip()
    return s.startswith("//") or s.startswith("*") or s.startswith("/*")


def read_lines(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def lint_file(path, rel, findings):
    lines = read_lines(path)

    in_block_comment = False
    mutex_block_guard = None  # Name of the Mutex whose adjacency block we're in.
    in_continuation = False  # Inside a multi-line declaration's tail.
    for i, line in enumerate(lines):
        lineno = i + 1
        stripped = line.strip()
        if in_continuation:
            if stripped.endswith(";"):
                in_continuation = False
            continue

        # Cheap block-comment tracking so commented-out code doesn't trip rules.
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        code = line.split("//", 1)[0]

        # --- raw-sync-primitive ------------------------------------------
        if rel not in RAW_SYNC_ALLOWLIST:
            m = RAW_SYNC_RE.search(code)
            if m:
                findings.append(
                    (rel, lineno, "raw-sync-primitive",
                     f"std::{m.group(1)} outside util/mutex.h — use the "
                     "ranked Mutex/CondVar wrappers"))

        # --- unranked-mutex + adjacency-block opening ---------------------
        m = MUTEX_DECL_RE.match(code)
        if m:
            name, tail = m.group(1), m.group(2)
            init = code[m.end(2) - 1:] if tail == "{" else ""
            if tail != "{" and i + 1 < len(lines):
                nxt = lines[i + 1].strip()
                if nxt.startswith("{"):
                    init = nxt
            if "LockRank::" not in init and "LockRank::" not in code:
                findings.append(
                    (rel, lineno, "unranked-mutex",
                     f"Mutex {name} constructed without a "
                     "{LockRank::k..., \"name\"} initializer"))
            if rel.endswith(".h"):
                mutex_block_guard = name
            if not stripped.endswith(";"):
                in_continuation = True  # Initializer spills onto more lines.
            continue

        # --- unguarded-member-after-mutex ---------------------------------
        if mutex_block_guard is not None:
            if (not stripped or stripped in ("};", "}")
                    or stripped.endswith(":")  # access specifier / label
                    or stripped.startswith("#")):
                mutex_block_guard = None
            elif is_comment(stripped):
                pass  # Doc comment inside the block: keep scanning.
            elif "(" in code and "=" not in code.split("(", 1)[0] \
                    and "{" not in code.split("(", 1)[0] and "GUARDED_BY" not in code:
                pass  # Function declaration, not a data member.
            elif MEMBER_EXEMPT_RE.match(code):
                pass
            elif "GUARDED_BY" in line:
                pass
            elif "//" in line or (i > 0 and is_comment(lines[i - 1])):
                pass  # Trailing or preceding rationale comment.
            elif code.rstrip().endswith(";"):
                findings.append(
                    (rel, lineno, "unguarded-member-after-mutex",
                     f"member adjacent to Mutex {mutex_block_guard} lacks "
                     "GUARDED_BY (or a trailing rationale comment)"))

        # --- cpu-intrinsics -----------------------------------------------
        if rel not in CPU_INTRINSICS_ALLOWLIST:
            m = CPU_INTRINSICS_RE.search(code)
            if m:
                findings.append(
                    (rel, lineno, "cpu-intrinsics",
                     f"{m.group(0)} outside util/crc32c.cc — CPU-specific "
                     "code needs runtime dispatch and a portable fallback"))

        # --- unexplained-void-cast ----------------------------------------
        if VOID_CAST_RE.match(code):
            has_rationale = "//" in line
            if not has_rationale and i > 0:
                has_rationale = is_comment(lines[i - 1])
            if not has_rationale:
                findings.append(
                    (rel, lineno, "unexplained-void-cast",
                     "(void) discards a result without a rationale comment "
                     "on this line or the line above"))

        # --- empty-io-rationale -------------------------------------------
        m = IO_SECTION_RE.search(code)
        if m:
            rest = m.group(1).strip()
            # The rationale may start on the next line; only flag clearly
            # empty ones: `IoAllowedSection io("");` or `...()`.
            if rest.startswith('""') or rest.startswith(")"):
                findings.append(
                    (rel, lineno, "empty-io-rationale",
                     "IoAllowedSection needs a non-empty rationale string"))


def strip_line_comments(lines):
    return "\n".join(line.split("//", 1)[0] for line in lines)


def lint_env_decorators(sources, findings):
    """env-decorators: needs every file's class graph, so runs once."""
    bases_of = {}  # class -> [(base, rel, lineno)]
    for rel, text in sources:
        for m in CLASS_DECL_RE.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            for base in m.group(2).split(","):
                b = BASE_NAME_RE.match(base.strip())
                if b:
                    name = b.group(1).split("::")[-1]
                    bases_of.setdefault(m.group(1), []).append(
                        (name, rel, lineno))
    for cls, bases in sorted(bases_of.items()):
        for base, rel, lineno in bases:
            if base == "Env" and (cls, rel) not in ENV_SUBCLASS_ALLOWLIST:
                findings.append(
                    (rel, lineno, "env-decorators",
                     f"{cls} derives from Env directly — derive a "
                     "decorator from EnvWrapper (io/env.h)"))
    file_classes = {"RandomAccessFile"}
    grew = True
    while grew:
        grew = False
        for cls, bases in bases_of.items():
            if cls not in file_classes and any(
                    b in file_classes for b, _, _ in bases):
                file_classes.add(cls)
                grew = True
    for rel, text in sources:
        if rel in FILE_CAST_ALLOWLIST:
            continue
        for m in DYNAMIC_CAST_RE.finditer(text):
            if m.group(1).split("::")[-1] in file_classes:
                findings.append(
                    (rel, text.count("\n", 0, m.start()) + 1,
                     "env-decorators",
                     f"dynamic_cast to {m.group(1)} — EnvWrapper::MultiRead "
                     "is the one place that unwraps decorator files"))


def lint_point_lookup(sources, findings):
    """one-point-lookup: one probe walk under db/."""
    for rel, text in sources:
        if not rel.startswith("db" + os.sep) or rel == POINT_LOOKUP_TU:
            continue
        for m in POINT_LOOKUP_RE.finditer(text):
            findings.append(
                (rel, text.count("\n", 0, m.start()) + 1, "one-point-lookup",
                 f"{m.group(1)}( outside {POINT_LOOKUP_TU} — run a "
                 "ProbeCursor (ShardEngine::RunLookups) instead of a second "
                 "probe walk"))


def lint_cmake(path, rel, findings):
    """cpu-intrinsics, build half: no CPU-specific compile flag."""
    for i, line in enumerate(read_lines(path)):
        m = CPU_FLAG_RE.search(line.split("#", 1)[0])
        if m:
            findings.append(
                (rel, i + 1, "cpu-intrinsics",
                 f"{m.group(0)} lets the compiler emit CPU-specific "
                 "instructions anywhere; dispatch at run time instead"))


def main(argv):
    roots = argv[1:] or ["src"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = []
    files = []
    cmake_files = []
    for root in roots:
        root = os.path.join(repo, root) if not os.path.isabs(root) else root
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    files.append(os.path.join(dirpath, name))
                elif name == "CMakeLists.txt":
                    cmake_files.append(os.path.join(dirpath, name))
    src_root = os.path.join(repo, "src")
    sources = []
    for path in sorted(files):
        rel = os.path.relpath(path, src_root)
        lint_file(path, rel, findings)
        sources.append((rel, strip_line_comments(read_lines(path))))
    lint_env_decorators(sources, findings)
    lint_point_lookup(sources, findings)
    for path in sorted(cmake_files):
        lint_cmake(path, os.path.relpath(path, src_root), findings)

    for rel, lineno, rule, msg in findings:
        print(f"src/{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"\n{len(findings)} finding(s) across {len(files)} files")
        return 1
    print(f"lint_invariants: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
