#!/usr/bin/env python3
"""d2_lint — determinism and robustness lint for the D2 simulator sources.

The simulator's headline guarantee is bit-for-bit reproducibility: the same
seed must produce the same experiment output on every platform, at any
--jobs setting. Most determinism bugs enter through a handful of C++
idioms, so this linter rejects them mechanically:

  unordered-iter       range-for / iterator loop over a std::unordered_map
                       or std::unordered_set (hash order is
                       platform-dependent).
  unordered-container  declaration of a std::unordered_{map,set} member or
                       local. Keyed lookup is fine, but every declaration
                       must carry an allow() annotation documenting why its
                       iteration order can never leak into results.
  wall-clock           rand()/srand(), std::random_device,
                       std::chrono::{system,steady,high_resolution}_clock,
                       time(), gettimeofday(), clock() — nondeterministic
                       inputs. Use common/rng.h and sim time.
  pointer-key          std::map/std::set keyed on a pointer type: iteration
                       order is allocation order, i.e. nondeterministic.
  std-function         std::function in hot-path subsystems (sim/, store/,
                       dht/): type-erased calls allocate and defeat
                       inlining; these layers take template callables
                       instead (core/ event closures are exempt).
  unguarded-mutator    public-looking mutator defined in a .cc with no
                       D2_REQUIRE / D2_ASSERT / D2_DCHECK / audit in its
                       body — entry points are expected to validate their
                       inputs or state.
  priority-queue       std::priority_queue in src/sim/: the hierarchical
                       timing wheel (sim/timing_wheel.h) is the scheduler
                       hot path; a heap is only legitimate as the
                       differential reference inside event_queue, and that
                       use carries an allow() annotation. Anything else is
                       a scheduler bypass.
  sched-class          a schedule_at/schedule_after/schedule_local_at call
                       in src/core/*.cc with no `// d2-sched: global|local`
                       tag on the line or the line above. Every core timer
                       must be classified (DESIGN.md §9): key-local events
                       touch one block's state, and only events that read
                       or mutate state beyond one key may be global (each
                       one fences op batches and runs behind a commit
                       point).

Escape hatch: a line (or its predecessor) containing
    // d2-lint: allow(<rule>[, <rule>...])
suppresses those rules for that line; the comment is expected to say *why*
the use is safe. `allow(all)` suppresses every rule.

Usage:
    tools/d2_lint.py [--self-test] [paths...]      (default path: src/)
    tools/d2_lint.py --list-allows [paths...]

--list-allows reports every `d2-lint: allow(...)` escape in the tree with
its justification, and fails (exit 1) when an
escape states no reason — every suppression must say why it is safe.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage error.
No third-party dependencies; stdlib only.
"""

import argparse
import os
import re
import sys

RULES = (
    "unordered-iter",
    "unordered-container",
    "wall-clock",
    "pointer-key",
    "std-function",
    "unguarded-mutator",
    "priority-queue",
    "sched-class",
)

ALLOW_RE = re.compile(r"//.*d2-lint:\s*allow\(([^)]*)\)")

# Subsystems where std::function is banned (hot paths). core/ schedules
# simulator closures and tools/ are drivers; both legitimately type-erase.
STD_FUNCTION_DIRS = (
    os.sep + "sim" + os.sep,
    os.sep + "store" + os.sep,
    os.sep + "dht" + os.sep,
)

# Mutator-verb prefixes that mark a method as a state-changing entry point.
MUTATOR_VERBS = (
    "insert",
    "erase",
    "remove",
    "add",
    "put",
    "push",
    "pop",
    "commit",
    "cancel",
    "discard",
    "reassign",
    "mark_",
    "attach",
    "move",
)

# Method definition in a .cc file: `Type Class::name(...)` at low indent.
METHOD_DEF_RE = re.compile(
    r"^[A-Za-z_][\w:<>&*,\s]*\b(\w+)::(\w+)\s*\("
)

WALL_CLOCK_PATTERNS = (
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (
        re.compile(
            r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)\b"
        ),
        "std::chrono wall clock",
    ),
    (re.compile(r"(?<![\w.])time\s*\(\s*(NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"), "clock()"),
)

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(map|set)\s*<")
UNORDERED_ITER_RE = re.compile(
    # range-for over a name that the file declared as an unordered container,
    # matched in a second pass; this regex only finds candidate loops.
    r"\bfor\s*\(.*:\s*(\*?[A-Za-z_]\w*(?:\.\w+|->\w+|_)*)\s*\)"
)
POINTER_KEY_RE = re.compile(r"\bstd::(map|set)\s*<\s*[^,<>]*\*")
STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")

# Subsystem where a binary heap would bypass the timing-wheel scheduler.
PRIORITY_QUEUE_DIRS = (os.sep + "sim" + os.sep,)
PRIORITY_QUEUE_RE = re.compile(r"\bstd::priority_queue\s*<")

# Scheduler calls in core/ must carry an event-class tag so every global
# event (an op-batch fence) is a deliberate choice.
SCHED_CALL_DIRS = (os.sep + "core" + os.sep,)
SCHED_CALL_RE = re.compile(r"\bschedule_(?:local_)?(?:at|after)\s*\(")
SCHED_ANNOT_RE = re.compile(r"//\s*d2-sched:\s*(global|local)\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments so patterns cannot
    match inside them. Block comments are handled by the caller's state."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def allowed_rules(raw_line, prev_raw_line):
    """Rules suppressed on this line by an allow() on it or the line above."""
    allowed = set()
    for text in (raw_line, prev_raw_line):
        if text is None:
            continue
        m = ALLOW_RE.search(text)
        if m:
            for rule in m.group(1).split(","):
                allowed.add(rule.strip())
    if "all" in allowed:
        return set(RULES)
    return allowed


def preprocess(lines):
    """Returns code-only lines (strings/comments blanked), tracking block
    comments across lines."""
    code_lines = []
    in_block = False
    for raw in lines:
        line = raw
        if in_block:
            end = line.find("*/")
            if end == -1:
                code_lines.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # Remove any complete /* ... */ spans, then detect an opening one.
        while True:
            start = line.find("/*")
            if start == -1:
                break
            end = line.find("*/", start + 2)
            if end == -1:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        code_lines.append(strip_comments_and_strings(line))
    return code_lines


def unordered_names(code_lines):
    """Names declared in this file as unordered containers (heuristic:
    `std::unordered_xxx<...> name;` or `> name;` on the declaration line)."""
    names = set()
    decl_tail = re.compile(r">\s*(\w+)\s*[;={(]")
    for line in code_lines:
        if UNORDERED_DECL_RE.search(line):
            m = decl_tail.search(line)
            if m:
                names.add(m.group(1))
    return names


def find_body_end(code_lines, start_index):
    """Index one past the closing brace of a body opening at/after
    start_index; None if not found (declaration, macro, etc.)."""
    depth = 0
    opened = False
    for i in range(start_index, min(start_index + 400, len(code_lines))):
        for c in code_lines[i]:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
                if opened and depth == 0:
                    return i + 1
        if not opened and ";" in code_lines[i]:
            return None  # declaration only
    return None


GUARD_RE = re.compile(
    r"\b(D2_REQUIRE|D2_REQUIRE_MSG|D2_ASSERT|D2_ASSERT_MSG|D2_DCHECK|"
    r"D2_DCHECK_MSG|D2_PARANOID_AUDIT|check_invariants|maybe_audit)\b"
)


def lint_file(path, rules=None):
    rules = set(rules or RULES)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]

    code_lines = preprocess(raw_lines)
    findings = []
    u_names = unordered_names(code_lines)

    def allowed(i, rule):
        prev = raw_lines[i - 1] if i > 0 else None
        return rule in allowed_rules(raw_lines[i], prev)

    for i, code in enumerate(code_lines):
        lineno = i + 1

        if "unordered-container" in rules and UNORDERED_DECL_RE.search(code):
            if "#include" not in code and not allowed(i, "unordered-container"):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "unordered-container",
                        "std::unordered_{map,set} declaration needs a "
                        "d2-lint allow() documenting why hash order cannot "
                        "leak into results (or use an ordered container)",
                    )
                )

        if "unordered-iter" in rules and u_names:
            m = UNORDERED_ITER_RE.search(code)
            if m:
                target = m.group(1).lstrip("*")
                base = re.split(r"\.|->", target)[-1]
                if base in u_names and not allowed(i, "unordered-iter"):
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            "unordered-iter",
                            f"iteration over unordered container '{base}' "
                            "visits elements in platform-dependent hash "
                            "order; sort first or use an ordered container",
                        )
                    )

        if "wall-clock" in rules:
            for pattern, what in WALL_CLOCK_PATTERNS:
                if pattern.search(code) and not allowed(i, "wall-clock"):
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            "wall-clock",
                            f"{what} is a nondeterministic input; use "
                            "common/rng.h for randomness and SimTime for "
                            "time",
                        )
                    )

        if "pointer-key" in rules and POINTER_KEY_RE.search(code):
            if not allowed(i, "pointer-key"):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "pointer-key",
                        "ordered container keyed on a pointer iterates in "
                        "allocation order; key on a stable ID instead",
                    )
                )

        if (
            "sched-class" in rules
            and path.endswith(".cc")
            and any(d in path for d in SCHED_CALL_DIRS)
            and SCHED_CALL_RE.search(code)
        ):
            prev_raw = raw_lines[i - 1] if i > 0 else ""
            if not (
                SCHED_ANNOT_RE.search(raw_lines[i])
                or SCHED_ANNOT_RE.search(prev_raw)
            ) and not allowed(i, "sched-class"):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "sched-class",
                        "scheduler call lacks an event-class tag; add "
                        "`// d2-sched: global|local — <why>` on this line "
                        "or the line above (global events fence op "
                        "batches and must justify themselves)",
                    )
                )

        if (
            "priority-queue" in rules
            and any(d in path for d in PRIORITY_QUEUE_DIRS)
            and PRIORITY_QUEUE_RE.search(code)
        ):
            if not allowed(i, "priority-queue"):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "priority-queue",
                        "std::priority_queue in src/sim/ bypasses the "
                        "timing-wheel scheduler; only event_queue's "
                        "reference heap may use one (annotate with a "
                        "d2-lint allow() saying why)",
                    )
                )

        if (
            "std-function" in rules
            and any(d in path for d in STD_FUNCTION_DIRS)
            and STD_FUNCTION_RE.search(code)
        ):
            if not allowed(i, "std-function"):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "std-function",
                        "std::function in a hot-path subsystem "
                        "(sim/store/dht) allocates and defeats inlining; "
                        "take a template callable",
                    )
                )

    if "unguarded-mutator" in rules and path.endswith(".cc"):
        for i, code in enumerate(code_lines):
            m = METHOD_DEF_RE.match(code)
            if not m:
                continue
            method = m.group(2)
            if not any(
                method == v or method.startswith(v) for v in MUTATOR_VERBS
            ):
                continue
            if method.startswith("add") and not method == "add":
                # Accessor-style helpers (add_user_write_bytes etc.) are
                # internal accounting, not entry points.
                continue
            end = find_body_end(code_lines, i)
            if end is None:
                continue
            body = "\n".join(code_lines[i:end])
            if GUARD_RE.search(body):
                continue
            if allowed(i, "unguarded-mutator"):
                continue
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "unguarded-mutator",
                    f"public mutator '{m.group(1)}::{method}' validates "
                    "nothing; add a D2_REQUIRE/D2_DCHECK precondition or "
                    "annotate why none applies",
                )
            )

    return findings


def collect_files(paths):
    exts = (".cc", ".h")
    files = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(exts):
                files.append(p)
        elif os.path.isdir(p):
            for root, _dirs, names in os.walk(p):
                for name in sorted(names):
                    if name.endswith(exts):
                        files.append(os.path.join(root, name))
        else:
            print(f"d2_lint: no such path: {p}", file=sys.stderr)
            return None
    return sorted(files)


# --------------------------------------------------------------------------
# Self-test: one fixture per rule that must be flagged, plus allow()ed and
# clean variants that must not be.

SELF_TEST_CASES = [
    # (name, filename, source, expected rule or None)
    (
        "unordered-iter flagged",
        "src/store/x.cc",
        "std::unordered_map<int, int> m_;  // d2-lint: allow(unordered-container)\n"
        "void f() {\n  for (const auto& [k, v] : m_) { use(k, v); }\n}\n",
        "unordered-iter",
    ),
    (
        "unordered-iter allowed",
        "src/store/x.cc",
        "std::unordered_map<int, int> m_;  // d2-lint: allow(unordered-container)\n"
        "void f() {\n"
        "  // d2-lint: allow(unordered-iter) -- sorted downstream\n"
        "  for (const auto& [k, v] : m_) { use(k, v); }\n}\n",
        None,
    ),
    (
        "unordered decl flagged",
        "src/core/x.h",
        "std::unordered_map<int, int> lookup_;\n",
        "unordered-container",
    ),
    (
        "unordered decl allowed",
        "src/core/x.h",
        "// Keyed lookup only.\n"
        "std::unordered_map<int, int> lookup_;  "
        "// d2-lint: allow(unordered-container)\n",
        None,
    ),
    (
        "rand flagged",
        "src/core/x.cc",
        "int f() { return rand() % 6; }\n",
        "wall-clock",
    ),
    (
        "random_device flagged",
        "src/core/x.cc",
        "std::random_device rd;\n",
        "wall-clock",
    ),
    (
        "system_clock flagged",
        "src/core/x.cc",
        "auto t = std::chrono::system_clock::now();\n",
        "wall-clock",
    ),
    (
        "time() flagged",
        "src/core/x.cc",
        "long t = time(NULL);\n",
        "wall-clock",
    ),
    (
        "sim-time names clean",
        "src/core/x.cc",
        "SimTime next_time(int i);\n"
        "// d2-sched: global — fixture\n"
        "void f() { SimTime t = next_time(3); schedule_at(t, cb); }\n",
        None,
    ),
    (
        "pointer-key flagged",
        "src/core/x.h",
        "std::map<Node*, int> rank_;\n",
        "pointer-key",
    ),
    (
        "value-key clean",
        "src/core/x.h",
        "std::map<Key, int> rank_;\n",
        None,
    ),
    (
        "std-function in store flagged",
        "src/store/x.h",
        "std::function<void(int)> cb_;\n",
        "std-function",
    ),
    (
        "std-function in core clean",
        "src/core/x.h",
        "std::function<void(int)> cb_;\n",
        None,
    ),
    (
        "unguarded mutator flagged",
        "src/store/x.cc",
        "void Table::insert(const Key& k, int v) {\n"
        "  data_[k] = v;\n"
        "}\n",
        "unguarded-mutator",
    ),
    (
        "guarded mutator clean",
        "src/store/x.cc",
        "void Table::insert(const Key& k, int v) {\n"
        "  D2_REQUIRE(v >= 0);\n  data_[k] = v;\n}\n",
        None,
    ),
    (
        "unguarded discard flagged",
        "src/sim/x.cc",
        "bool Queue::discard(EventId id) {\n"
        "  return unlink(id);\n"
        "}\n",
        "unguarded-mutator",
    ),
    (
        "priority_queue in sim flagged",
        "src/sim/x.h",
        "std::priority_queue<Entry> heap_;\n",
        "priority-queue",
    ),
    (
        "priority_queue in sim allowed",
        "src/sim/x.h",
        "// d2-lint: allow(priority-queue) -- reference scheduler\n"
        "std::priority_queue<Entry> heap_;\n",
        None,
    ),
    (
        "priority_queue outside sim clean",
        "src/core/x.h",
        "std::priority_queue<Task> backlog_;\n",
        None,
    ),
    (
        "sched-class unannotated flagged",
        "src/core/x.cc",
        "void System::arm() {\n"
        "  sim_.schedule_after(delay, [this] { fire(); });\n"
        "}\n",
        "sched-class",
    ),
    (
        "sched-class local variant flagged",
        "src/core/x.cc",
        "void System::arm(const Key& k) {\n"
        "  sim_.schedule_local_at(t, [this, k] { fire(k); });\n"
        "}\n",
        "sched-class",
    ),
    (
        "sched-class retired mailbox tag flagged",
        "src/core/x.cc",
        "void System::arm() {\n"
        "  // d2-sched: mailbox — staged delivery\n"
        "  sim_.schedule_local_at(t, cb);\n"
        "}\n",
        "sched-class",
    ),
    (
        "sched-class same-line tag clean",
        "src/core/x.cc",
        "void System::arm() {\n"
        "  sim_.schedule_after(delay, cb);  // d2-sched: global — barrier\n"
        "}\n",
        None,
    ),
    (
        "sched-class line-above tag clean",
        "src/core/x.cc",
        "void System::arm(const Key& k) {\n"
        "  // d2-sched: local — timer touches only k's state\n"
        "  sim_.schedule_local_at(t, cb);\n"
        "}\n",
        None,
    ),
    (
        "sched-class outside core clean",
        "src/sim/x.cc",
        "void f() { sim.schedule_after(delay, cb); }\n",
        None,
    ),
    (
        "sched-class header clean",
        "src/core/x.h",
        "void arm() { sim_.schedule_after(delay_, cb_); }\n",
        None,
    ),
    (
        "sched-class allow escape clean",
        "src/core/x.cc",
        "void System::arm() {\n"
        "  // d2-lint: allow(sched-class) -- classified at the call site\n"
        "  sim_.schedule_after(delay, cb);\n"
        "}\n",
        None,
    ),
    (
        "comment mention clean",
        "src/core/x.cc",
        "// An unordered_map here would break: rand() and time() are bad.\n"
        "int x = 0;\n",
        None,
    ),
    (
        "string mention clean",
        "src/core/x.cc",
        'const char* kMsg = "std::random_device and rand() are banned";\n',
        None,
    ),
]


def run_self_test():
    import tempfile

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, relpath, source, expected in SELF_TEST_CASES:
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(source)
            findings = lint_file(path)
            rules_found = {f.rule for f in findings}
            if expected is None:
                if findings:
                    print(f"SELF-TEST FAIL [{name}]: expected clean, got "
                          f"{[str(f) for f in findings]}")
                    failures += 1
            else:
                if expected not in rules_found:
                    print(f"SELF-TEST FAIL [{name}]: expected {expected}, "
                          f"got {sorted(rules_found) or 'nothing'}")
                    failures += 1
                extra = rules_found - {expected}
                if extra:
                    print(f"SELF-TEST FAIL [{name}]: unexpected extra "
                          f"findings {sorted(extra)}")
                    failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: {len(SELF_TEST_CASES)} cases passed")
    return 0


# Any lint escape marker, with the comment text around it (the stated
# reason lives before or after the marker, or on the line above).
LIST_ALLOW_RE = re.compile(
    r"//(?P<pre>.*?)d2-(?P<kind>lint):\s*allow\((?P<rules>[^)]*)\)"
    r"(?P<post>.*)$"
)
ANY_ALLOW_MARKER_RE = re.compile(r"d2-lint:\s*allow\([^)]*\)")


def list_allows(files):
    """Reports every allow() escape with its justification; an escape
    with no stated reason is a finding (exit 1) — suppressions must say
    why they are safe."""
    entries = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
        except OSError:
            continue
        for i, line in enumerate(lines):
            m = LIST_ALLOW_RE.search(line)
            if not m:
                continue
            reason = ANY_ALLOW_MARKER_RE.sub(
                " ", m.group("pre") + " " + m.group("post"))
            reason = reason.strip(" \t/-—:;,.")
            if not re.search(r"\w", reason) and i > 0:
                prev = lines[i - 1].strip()
                if prev.startswith("//"):
                    reason = prev.strip(" \t/-—").strip()
            if not re.search(r"\w", reason):
                reason = ""
            entries.append(
                (path, i + 1, m.group("kind"), m.group("rules").strip(),
                 reason))
    missing = 0
    for path, lineno, kind, rules, reason in entries:
        tag = reason if reason else "** NO REASON STATED **"
        print(f"{path}:{lineno}: d2-{kind} allow({rules}) — {tag}")
        if not reason:
            missing += 1
    print(f"d2_lint: {len(entries)} allow escape(s), "
          f"{missing} without a stated reason")
    return 1 if missing else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Determinism and robustness lint for D2 sources."
    )
    parser.add_argument("paths", nargs="*", default=[], help="files or dirs")
    parser.add_argument(
        "--self-test", action="store_true", help="run embedded fixtures"
    )
    parser.add_argument(
        "--list-allows",
        action="store_true",
        help="report every allow() escape and its justification; fails "
             "when an escape states no reason",
    )
    parser.add_argument(
        "--rules",
        default=",".join(RULES),
        help="comma-separated rule subset to run",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    if args.list_allows:
        files = collect_files(args.paths or ["src"])
        if files is None:
            return 2
        return list_allows(files)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"d2_lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    paths = args.paths or ["src"]
    files = collect_files(paths)
    if files is None:
        return 2

    findings = []
    for path in files:
        findings.extend(lint_file(path, rules))
    for f in findings:
        print(f)
    if findings:
        print(f"d2_lint: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
