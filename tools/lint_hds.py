#!/usr/bin/env python3
"""Repo-specific lint rules for hds (run by ci.sh; no dependencies).

Rules (see DESIGN.md sec. 10):
  comm-note-op       Every collective / point-to-point method body in
                     src/runtime/comm.h must route through collective() or
                     note_op() — the hook point the tracer, the watchdog's
                     mismatch detector, the fault injector, and the
                     hds::check race checker all piggyback on. An op that
                     skips it is invisible to all four.
  thread-primitives  std::thread / std::mutex / std::condition_variable
                     only inside src/runtime/, src/obs/ and src/check/
                     (the checker is inherently cross-thread). Algorithm
                     code must express concurrency through Comm, or the
                     simulated clocks stop meaning anything.
  seeded-rng         No std::random_device, rand() or srand() outside
                     src/common/rng.h. Every run must be reproducible from
                     config seeds (the determinism contract behind the
                     fault injector and the bit-identical-trace tests).
  no-naked-new       No naked new/delete in src/ — ownership goes through
                     containers and smart pointers ("= delete" declarations
                     are fine).
  comm-op-class      Every Comm op body must tag itself with an
                     obs::OpClass (or delegate to a helper that does) —
                     the class is what the run ledger's per-op-class
                     attribution and the differential profiler key on; an
                     untagged op would silently land in OpClass::None and
                     corrupt the calibration fit.
  comm-op-caller     Every Comm op the rules above check (COMM_OP_METHODS)
                     must be called somewhere under src/, bench/ or
                     perfbench/; tests and examples do not count. An op
                     only tests reach is a second path to keep correct
                     that no sort or benchmark runs.
  opid-coverage      Every detail::OpId (= obs::OpKind) enum value must
                     appear as an explicit `case` in BOTH the race
                     checker's HB-edge table (shape_of in
                     src/check/race_detector.cpp) and the model checker's
                     transition table (transition_of in
                     src/model/transitions.h). A new op that reaches only
                     one of them would get happens-before semantics without
                     scheduling/matching semantics (or vice versa) and the
                     two verifiers would silently disagree.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
# Where a Comm op's callers must live (comm-op-caller): the library, the
# benches and the end-to-end benchmark — not tests or examples.
CALLER_DIRS = ("src", "bench", "perfbench")

# Directories whose code is allowed to use raw thread primitives: the
# simulator's rank harness itself, the tracer (locked merge of per-rank
# buffers), the race checker (a cross-thread observer by design), and the
# model checker (the controlled scheduler is the thread harness's harness).
THREAD_ALLOWLIST = ("src/runtime/", "src/obs/", "src/check/", "src/model/")

THREAD_PRIMITIVES = re.compile(
    r"\bstd::(thread|jthread|mutex|recursive_mutex|shared_mutex|"
    r"condition_variable|condition_variable_any)\b"
)
UNSEEDED_RNG = re.compile(r"\bstd::random_device\b|(?<![\w:])s?rand\s*\(")
NAKED_NEW = re.compile(r"\bnew\b(?!\s*[;,)\]])")
NAKED_DELETE = re.compile(r"(?<![=\w])\s*\b(delete)\b(?!\s*[;,)])")
DELETED_FN = re.compile(r"=\s*delete\b")

# Comm methods that perform a simulated operation and therefore must hit
# the note_op() hook (directly or via the collective() helper).
COMM_OP_METHODS = [
    "barrier",
    "broadcast",
    "allreduce",
    "allgather",
    "allgatherv",
    "sample_gatherv",
    "gatherv",
    "alltoall",
    "alltoallv_into",
    "send",
    "send_borrowed",
    "send_uncharged",
    "recv",
    "recv_into",
    # Failure-recovery entry points (PR 6): the agreement rendezvous and
    # both checkpoint transfers are simulated operations too.
    "recover_survivors",
    "checkpoint_to_buddy",
    "fetch_checkpoint",
]

# A method body satisfies comm-note-op if it hits the hook directly or
# delegates to one of the internal helpers that do (the single-copy pull
# protocol, the shared allgatherv body and the shared P2P receive path).
NOTE_OP_HOOKS = (
    "collective(",
    "note_op(",
    "collective_pull(",
    "allgatherv_impl(",
    "recv_bytes_into(",
)

# A body satisfies comm-op-class if it names the obs::OpClass it charges
# under, or delegates to an internal helper that does (those helpers'
# bodies name it themselves and are checked transitively).
OP_CLASS_HOOKS = (
    "OpClass::",
    "allgatherv_impl(",
    "recv_bytes_into(",
)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so finding line numbers stay correct."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            out.extend(ch if ch == "\n" else " " for ch in text[i : j + 2])
            i = j + 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out.append("  ")
                    i += 2
                else:
                    out.append(" " if text[i] != "\n" else "\n")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def extract_method_body(text: str, name: str, start: int) -> tuple[int, str]:
    """Given `start` at a method name occurrence, return (open_brace_pos,
    body) of its definition, or (-1, '') if it is only a declaration."""
    # Find the parameter list's closing paren, then expect '{' before ';'.
    open_paren = text.find("(", start)
    if open_paren < 0:
        return -1, ""
    depth, i = 1, open_paren + 1
    while i < len(text) and depth:
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        i += 1
    # Skip trailer (const, noexcept, template args) up to '{' or ';'.
    while i < len(text) and text[i] not in "{;":
        i += 1
    if i >= len(text) or text[i] == ";":
        return -1, ""
    brace, depth, j = i, 1, i + 1
    while j < len(text) and depth:
        depth += {"{": 1, "}": -1}.get(text[j], 0)
        j += 1
    return brace, text[brace + 1 : j - 1]


def check_comm_note_op(findings: list[str]) -> None:
    path = SRC / "runtime" / "comm.h"
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    for method in COMM_OP_METHODS:
        pattern = re.compile(
            r"(?:^|[ \t])(?:void|T|usize|std::vector<T>|Comm|BorrowToken"
            r"|std::optional<CheckpointBlob>)"
            r"\s+(%s)\s*\(" % re.escape(method),
            re.M,
        )
        found_def = False
        for m in pattern.finditer(text):
            brace, body = extract_method_body(text, method, m.start(1))
            if brace < 0:
                continue
            found_def = True
            if not any(hook in body for hook in NOTE_OP_HOOKS):
                findings.append(
                    f"{path.relative_to(REPO)}:{line_of(text, m.start(1))}: "
                    f"[comm-note-op] Comm::{method} does not call "
                    "collective()/note_op() (or a delegating helper) — "
                    "invisible to the tracer, watchdog, fault injector and "
                    "race checker"
                )
            if not any(hook in body for hook in OP_CLASS_HOOKS):
                findings.append(
                    f"{path.relative_to(REPO)}:{line_of(text, m.start(1))}: "
                    f"[comm-op-class] Comm::{method} carries no "
                    "obs::OpClass tag (directly or via a delegating "
                    "helper) — the op would land in OpClass::None and "
                    "corrupt the ledger's attribution and calibration fit"
                )
        if not found_def:
            findings.append(
                f"{path.relative_to(REPO)}: [comm-note-op] could not locate "
                f"a definition of Comm::{method} (lint parser out of date?)"
            )


def check_comm_op_callers(findings: list[str]) -> None:
    # comm.h itself does not count: its op bodies call CostModel methods of
    # the same names (cost().broadcast(...)).
    home = SRC / "runtime" / "comm.h"
    sources = []
    for d in CALLER_DIRS:
        root = REPO / d
        if root.is_dir():
            sources += sorted(root.rglob("*.h")) + sorted(root.rglob("*.cpp"))
    texts = [strip_comments_and_strings(f.read_text()) for f in sources
             if f != home]
    for method in COMM_OP_METHODS:
        call = re.compile(r"(?:\.|->)\s*%s\s*[<(]" % re.escape(method))
        if not any(call.search(text) for text in texts):
            findings.append(
                f"src/runtime/comm.h: [comm-op-caller] Comm::{method} has "
                f"no caller under {', '.join(d + '/' for d in CALLER_DIRS)} "
                "— delete it, or give it a caller outside tests and "
                "examples"
            )


def enum_values(header: str, enum_name: str) -> list[str]:
    """Names declared in `enum class <enum_name>` of a stripped header."""
    m = re.search(
        r"enum\s+class\s+%s\b[^{]*\{(.*?)\}\s*;" % re.escape(enum_name),
        header,
        re.S,
    )
    if not m:
        return []
    names = []
    for entry in m.group(1).split(","):
        entry = entry.split("=")[0].strip()
        if re.fullmatch(r"[A-Za-z_]\w*", entry):
            names.append(entry)
    return names


def check_opid_coverage(findings: list[str]) -> None:
    events = SRC / "obs" / "events.h"
    kinds = enum_values(strip_comments_and_strings(events.read_text()),
                        "OpKind")
    if not kinds:
        findings.append(
            f"{events.relative_to(REPO)}: [opid-coverage] could not parse "
            "enum class OpKind (lint parser out of date?)"
        )
        return
    tables = [
        (SRC / "check" / "race_detector.cpp", "shape_of"),
        (SRC / "model" / "transitions.h", "transition_of"),
    ]
    for path, fn in tables:
        if not path.is_file():
            findings.append(
                f"{path.relative_to(REPO)}: [opid-coverage] missing table "
                f"file (expected {fn})"
            )
            continue
        text = strip_comments_and_strings(path.read_text())
        fn_pos = text.find(fn)
        if fn_pos < 0:
            findings.append(
                f"{path.relative_to(REPO)}: [opid-coverage] could not "
                f"locate {fn}()"
            )
            continue
        _, body = extract_method_body(text, fn, fn_pos)
        for kind in kinds:
            if not re.search(
                r"case\s+(?:obs::)?OpKind::%s\b" % re.escape(kind), body
            ):
                findings.append(
                    f"{path.relative_to(REPO)}: [opid-coverage] "
                    f"OpKind::{kind} has no explicit case in {fn}() — every "
                    "op needs both an HB-edge shape and a model-checker "
                    "transition"
                )


def check_file_rules(findings: list[str]) -> None:
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cpp")):
        rel = path.relative_to(REPO).as_posix()
        text = strip_comments_and_strings(path.read_text())

        if not rel.startswith(THREAD_ALLOWLIST):
            for m in THREAD_PRIMITIVES.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [thread-primitives] "
                    f"{m.group(0)} outside {', '.join(THREAD_ALLOWLIST)} — "
                    "express concurrency through Comm"
                )

        if rel != "src/common/rng.h":
            for m in UNSEEDED_RNG.finditer(text):
                findings.append(
                    f"{rel}:{line_of(text, m.start())}: [seeded-rng] "
                    f"'{m.group(0).strip()}' outside src/common/rng.h — "
                    "all randomness must flow from config seeds"
                )

        for m in NAKED_NEW.finditer(text):
            findings.append(
                f"{rel}:{line_of(text, m.start())}: [no-naked-new] naked "
                "'new' — use containers or std::make_unique"
            )
        for m in NAKED_DELETE.finditer(text):
            if DELETED_FN.search(text, max(0, m.start() - 8), m.end()):
                continue  # deleted special member, not the operator
            findings.append(
                f"{rel}:{line_of(text, m.start(1))}: [no-naked-new] naked "
                "'delete' — ownership must not require manual delete"
            )


def main() -> int:
    if not SRC.is_dir():
        print(f"lint_hds: missing {SRC}", file=sys.stderr)
        return 2
    findings: list[str] = []
    check_comm_note_op(findings)
    check_comm_op_callers(findings)
    check_opid_coverage(findings)
    check_file_rules(findings)
    for f in findings:
        print(f)
    n_files = len(list(SRC.rglob("*.h")) + list(SRC.rglob("*.cpp")))
    if findings:
        print(f"lint_hds: {len(findings)} finding(s) over {n_files} files")
        return 1
    print(f"lint_hds: OK ({n_files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
