#!/usr/bin/env python3
"""mpr_lint -- determinism and hot-path lint for the simulator tree.

The simulator's contract is bit-identical output at any MPR_JOBS value
(ROADMAP north star), and an allocation-free packet hot path (PR 3). Both
properties die by a thousand innocent-looking cuts, so this lint bans the
cuts by rule:

  wallclock       wall-clock time sources (std::chrono system/steady/
                  high_resolution clocks, time(), gettimeofday,
                  clock_gettime): simulated time comes from the EventQueue,
                  nothing else.
  rand            non-seeded randomness (rand(), srand(), random(),
                  std::random_device): every random draw must come from a
                  seeded sim::Rng so runs replay.
  unordered-iter  iteration (range-for, .begin() loops, std::erase_if) over
                  unordered_map/unordered_set variables: iteration order is
                  hash-layout-defined and must never feed event or output
                  ordering. Sort a snapshot, or use std::map/std::set.
  raw-new         raw new/delete/malloc/free in the packet hot path
                  (src/net, src/tcp, src/core): packets come from the
                  per-simulation PacketPool; per-packet heap traffic is a
                  perf regression. (Containers and make_unique are fine --
                  only raw allocation expressions are flagged.)
  ptr-key         pointer-keyed ORDERED containers (std::map<T*, ...>,
                  std::set<T*>): ordering by address varies run to run.
                  Pointer-keyed unordered containers used for lookup only
                  are fine.
  ordered-container
                  std::map/std::set (and multi variants) in hot-path files
                  (src/net, src/tcp, src/core, src/sim): a red-black node
                  per element is the allocation+pointer-chase cost PR 6
                  removed from the scheduler and the TCP endpoints. Key a
                  64-bit sequence number with tcp::SegRing (tcp/seg_ring.h),
                  anything else with a flat sorted vector, or justify the
                  tree with `mpr-lint: allow(ordered-container)`.
  hot-struct-optional
                  std::optional data members in the per-packet hot structs
                  (src/net/packet.h, src/tcp/seg_ring.h): PR 8 replaced the
                  seven optional option members of TcpSegment with a presence
                  bitmask + hot/cold layout precisely because interleaved
                  optionals spread the hot fields over every cache line of
                  the struct. Use a presence bit + plain member (see
                  TcpSegment::OptBit) or justify the optional with
                  `mpr-lint: allow(hot-struct-optional)`. Return types and
                  locals are fine -- only member declarations are flagged.
  event-id        sim::EventId / kInvalidEventId outside src/sim: a
                  component holds its pending event in a sim::Timer
                  (sim/timer.h), which cancels before re-arming, forgets
                  the event before it runs and cancels on destruction. A
                  raw handle re-grows the hand-kept checks the Timer
                  replaced.

Escape hatch: a line carrying (or immediately preceded by) the comment

    // mpr-lint: allow(<rule>[, <rule>...])

suppresses the named rule(s) on that line. For a statement spanning
multiple lines, the allow() may also trail the statement's last physical
line (the one ending in `;`/`{`/`}`).

Usage: mpr_lint.py [--root DIR] [paths...]    (default path: src)
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# Directories (relative path fragments) where the raw-new rule applies: the
# packet hot path. src/sim is exempt (the service registry and thread pool
# own memory by design), as are tests/tools/bench.
RAW_NEW_DIRS = ("net/", "tcp/", "core/")

# Directories where node-based ordered containers are banned (the scheduler
# and per-packet structures): everything the per-event cost flows through.
ORDERED_CONTAINER_DIRS = ("net/", "tcp/", "core/", "sim/")

ALLOW_RE = re.compile(r"mpr-lint:\s*allow\(([^)]*)\)")

# A line whose code portion ends the enclosing statement (for the forward
# allow() scan over multi-line statements).
STATEMENT_END_RE = re.compile(r"[;{}]")

WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)

RAND_RE = re.compile(
    r"(?<![\w.:])(?:s?rand|random)\s*\("
    r"|std::random_device"
    r"|(?<![\w:])random_device\b"
)

# Raw allocation expressions. `new` must be followed by a type-ish token
# (excludes `= delete`, placement-new is still caught deliberately);
# member/namespace-qualified f.malloc(...) or my::free(...) are not flagged.
NEW_RE = re.compile(r"(?<![\w:])new\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![\w:])delete(?:\s*\[\s*\])?\s+[\w(*]|(?<![\w:])delete\s*\[\s*\]")
MALLOC_FREE_RE = re.compile(r"(?<![\w.:>])(?:malloc|calloc|realloc|free)\s*\(")
EQ_DELETE_RE = re.compile(r"=\s*delete\b")

PTR_KEY_RE = re.compile(r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")

# Any std::map/std::set instantiation (never matches the unordered_ variants:
# the regex requires `map`/`set` directly after the `std::` qualifier).
ORDERED_CONTAINER_RE = re.compile(r"std::(?:multi)?(?:map|set)\s*<")

# Directories where raw event handles may appear: the event queue and the
# Timer that wraps its handles.
EVENT_ID_DIRS = ("sim/",)
EVENT_ID_RE = re.compile(r"\b(?:EventId|kInvalidEventId)\b")

# Files whose structs ride the per-packet hot path: no std::optional members.
HOT_STRUCT_FILES = ("net/packet.h", "tcp/seg_ring.h")

# A std::optional *member declaration*: `std::optional<T> name;` possibly with
# a brace initializer. Function declarations/definitions returning an optional
# contain a '(' after the name and do not match.
HOT_STRUCT_OPTIONAL_RE = re.compile(
    r"std::optional\s*<[^<>;()]*(?:<[^<>]*>)?[^<>;()]*>\s+\w+\s*(?:\{[^{}]*\})?\s*;"
)

# unordered_map/unordered_set variable declarations; captures the name.
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+(\w+)\s*(?:[;{=]|$)"
)


# Encoding prefixes that turn `"` into a raw-string opener when suffixed
# with R (maximal identifier run immediately before the quote).
_RAW_PREFIXES = ("R", "u8R", "uR", "UR", "LR")


def strip_comments_and_strings(text: str) -> list[str]:
    """Per-line copy of `text` with comments and string/char literals blanked.

    Layout (line count, column positions) is preserved so findings point at
    the real source. The original lines are kept separately for allow().

    Handles the token shapes a naive quote scanner corrupts: digit
    separators (1'000'000 — a pp-number state, so u8'a' still opens a char
    literal) and raw strings (R"delim(...)delim" — contents blanked through
    the matching close, however many quotes or escapes they contain).
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    cur = []
    prev = ""  # previous source char consumed in code state
    in_number = False  # inside a pp-number token (digit separators live here)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if in_number:
                # pp-number: digits, letters (hex/suffixes), '.', the digit
                # separator, and a sign right after an exponent marker.
                if c.isalnum() or c in "._'" or (c in "+-" and prev in "eEpP"):
                    cur.append(c)
                    prev = c
                    i += 1
                    continue
                in_number = False
            if c.isdigit() and not (prev.isalnum() or prev == "_"):
                in_number = True
                cur.append(c)
                prev = c
                i += 1
                continue
            if c == "/" and nxt == "/":
                state = "line_comment"
                cur.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                cur.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string? The maximal identifier run ending here must be
                # exactly an encoding prefix + R (so MACRO_R"..." is not one).
                j = i
                while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "_"):
                    j -= 1
                if text[j:i] in _RAW_PREFIXES:
                    paren = text.find("(", i + 1, i + 18)  # delimiter is <= 16 chars
                    end = -1
                    if paren != -1:
                        close = ")" + text[i + 1 : paren] + '"'
                        end = text.find(close, paren + 1)
                    if end != -1:
                        stop = end + len(close)
                        cur.append(" ")  # the opening quote
                        for k in range(i + 1, stop):
                            cur.append("\n" if text[k] == "\n" else " ")
                        prev = '"'
                        i = stop
                        continue
                    # Malformed raw string: fall through as a plain string.
                state = "string"
                cur.append(" ")
                prev = c
                i += 1
                continue
            if c == "'":
                state = "char"
                cur.append(" ")
                prev = c
                i += 1
                continue
            cur.append(c)
            prev = c
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                prev = "\n"
                cur.append("\n")
            else:
                cur.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                prev = " "
                cur.append("  ")
                i += 2
                continue
            cur.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                cur.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                cur.append(" ")
            elif c == "\n":  # unterminated (macro tricks); bail to code
                state = "code"
                cur.append("\n")
            else:
                cur.append(" ")
        i += 1
    return "".join(cur).split("\n")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed_rules(raw_lines: list[str], code_lines: list[str], idx: int) -> set[str]:
    """Rules suppressed on line `idx` (0-based).

    An allow() counts when it sits on the line itself, the line above, or —
    for a statement spanning multiple lines — trailing any later line of the
    same statement (scan forward until a line whose code contains ;/{/},
    capped so a pathological file cannot make this quadratic).
    """
    rules: set[str] = set()

    def collect(j: int) -> None:
        if 0 <= j < len(raw_lines):
            m = ALLOW_RE.search(raw_lines[j])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))

    collect(idx)
    collect(idx - 1)
    j = idx
    while (
        j < min(idx + 10, len(raw_lines) - 1)
        and not STATEMENT_END_RE.search(code_lines[j])
    ):
        j += 1
        collect(j)
    return rules


def collect_unordered_names(files: list[Path]) -> set[str]:
    names: set[str] = set()
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for line in strip_comments_and_strings(text):
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))
    return names


def iter_patterns(names: set[str]) -> list[tuple[re.Pattern, str]]:
    if not names:
        return []
    alt = "|".join(re.escape(n) for n in sorted(names))
    return [
        (
            re.compile(r"for\s*\([^;)]*:\s*(?:this->)?(" + alt + r")\s*\)"),
            "range-for over unordered container '{}' (hash order; sort a "
            "snapshot or use std::map/std::set)",
        ),
        (
            re.compile(r"=\s*(?:this->)?(" + alt + r")\s*\.\s*begin\s*\("),
            "iterator loop over unordered container '{}' (hash order)",
        ),
        (
            re.compile(r"erase_if\s*\(\s*(?:this->)?(" + alt + r")\b"),
            "erase_if over unordered container '{}' (hash-order traversal)",
        ),
    ]


def lint_file(path: Path, rel: str, unordered_iter: list[tuple[re.Pattern, str]]) -> list[Finding]:
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text)
    findings: list[Finding] = []
    in_raw_new_scope = any(f"/{d}" in f"/{rel}" for d in RAW_NEW_DIRS)
    in_hot_path_scope = any(f"/{d}" in f"/{rel}" for d in ORDERED_CONTAINER_DIRS)
    in_hot_struct_scope = any(f"/{rel}".endswith(f"/{f}") for f in HOT_STRUCT_FILES)
    in_event_id_scope = not any(f"/{d}" in f"/{rel}" for d in EVENT_ID_DIRS)

    def add(idx: int, rule: str, message: str) -> None:
        if rule in allowed_rules(raw_lines, code_lines, idx):
            return
        findings.append(Finding(path, idx + 1, rule, message))

    for idx, line in enumerate(code_lines):
        if WALLCLOCK_RE.search(line):
            add(idx, "wallclock", "wall-clock time source (simulated time comes from the EventQueue)")
        if RAND_RE.search(line):
            add(idx, "rand", "non-seeded randomness (use the run's seeded sim::Rng)")
        if PTR_KEY_RE.search(line):
            add(idx, "ptr-key", "pointer-keyed ordered container (address order is nondeterministic)")
        if in_hot_struct_scope and HOT_STRUCT_OPTIONAL_RE.search(line):
            add(idx, "hot-struct-optional",
                "std::optional member in a per-packet hot struct (use a presence bit + "
                "plain member like TcpSegment::OptBit, or justify with "
                "allow(hot-struct-optional))")
        if in_hot_path_scope and ORDERED_CONTAINER_RE.search(line):
            add(idx, "ordered-container",
                "std::map/std::set in a hot-path file (node per element; use "
                "tcp::SegRing for sequence keys or a flat sorted vector, or justify "
                "with allow(ordered-container))")
        if in_event_id_scope and EVENT_ID_RE.search(line):
            add(idx, "event-id",
                "raw event handle outside src/sim (hold the pending event in a sim::Timer)")
        if in_raw_new_scope:
            if (NEW_RE.search(line) or DELETE_RE.search(line)) and not EQ_DELETE_RE.search(line):
                add(idx, "raw-new", "raw new/delete in the packet hot path (use PacketPool / owned containers)")
            elif MALLOC_FREE_RE.search(line):
                add(idx, "raw-new", "malloc/free in the packet hot path (use PacketPool / owned containers)")
        for pattern, msg in unordered_iter:
            m = pattern.search(line)
            if m:
                add(idx, "unordered-iter", msg.format(m.group(1)))
    return findings


def run(root: Path, paths: list[str]) -> int:
    files: list[Path] = []
    for p in paths:
        base = (root / p) if not Path(p).is_absolute() else Path(p)
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(f for f in sorted(base.rglob("*")) if f.suffix in CXX_SUFFIXES)
        else:
            print(f"mpr_lint: no such path: {base}", file=sys.stderr)
            return 2
    unordered = collect_unordered_names(files)
    patterns = iter_patterns(unordered)
    findings: list[Finding] = []
    for f in files:
        try:
            rel = str(f.relative_to(root))
        except ValueError:
            rel = str(f)
        findings.extend(lint_file(f, rel, patterns))
    for finding in findings:
        print(finding)
    if findings:
        print(f"mpr_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repo root (paths are resolved against it)")
    ap.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint")
    args = ap.parse_args()
    return run(Path(args.root).resolve(), args.paths or ["src"])


if __name__ == "__main__":
    sys.exit(main())
