#!/usr/bin/env python3
"""Census of library surface nothing calls.

    python3 scripts/surface.py

Flags every line-start `pub fn`, `pub const` or `pub static` declared under
`crates/*/src` whose name no other Rust file of the repository names and
whose own file names only at its declaration. Names are counted after
dropping `//` and `/* */` comments, string and char literals and `pub use`
lines; in the declaring file the `#[cfg(test)]` item bodies are dropped too,
so an item only its own unit tests call is flagged, while a fixture other
modules' tests build on is not. Files compiled only under `cfg(test)`
(`#[path]`-included oracles) are neither scanned nor counted.

Exits 1 on any flagged item that is not on ALLOW below, and on any ALLOW
entry that is no longer flagged (a stale reason is surface too). Types are
out of reach: every impl block names its type. Uses only the stdlib.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Flagged on purpose: `file::name` -> one-line reason.
ALLOW = {
    "crates/sensact-core/src/budget.rs::with_deadline":
        "its deadline_misses column is in the pinned checkpoints",
    "crates/sensact-lidar/src/raycast.rs::scan_reference":
        "test oracle: the untabled ray walk the trig-table scan must equal",
    "crates/sensact-math/src/lqr.rs::dlqr":
        "test oracle: the discrete Riccati iteration the controller tests compare to",
    "crates/sensact-sched/src/sched.rs::rollup_metrics":
        "the documented operator API: one Prometheus page over a fleet",
    "crates/sensact-starnet/src/regret.rs::likelihood_regret":
        "the paper's section V entry point; the monitor scores through regret_and_baseline",
}

DECL = re.compile(
    r"^\s*pub\s+(?:(?:const\s+|unsafe\s+|async\s+)*fn\s+(\w+)"
    r"|const\s+(\w+)\s*:|static\s+(?:mut\s+)?(\w+)\s*:)"
)
WORD = re.compile(r"[A-Za-z_]\w*")


def strip(text):
    """Blank comments and the bodies of string / char literals, keep newlines."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "r" and re.match(r'r#*"', text[i:i + 8]) and not (
            i and (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            hashes = re.match(r'r(#*)"', text[i:]).group(1)
            end = text.find('"' + hashes, i + len(hashes) + 2)
            end = n if end < 0 else end + 1 + len(hashes)
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j + 1
        elif c == "'":
            m = re.match(r"'(\\.[^']*|[^\\'])'", text[i:])
            if m:
                out.append("' '")
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lines_of(path, drop_tests):
    """The lines of `path` that count: no comments, strings or `pub use`
    lines and, with `drop_tests`, no `#[cfg(test)]` item bodies."""
    lines = strip(path.read_text()).split("\n")
    keep, skip_indent = [], None
    for k, line in enumerate(lines):
        indent = len(line) - len(line.lstrip())
        body = line.strip()
        if skip_indent is not None:
            if indent == skip_indent and (body.startswith("}") or body.endswith(";")):
                skip_indent = None
            continue
        if drop_tests and body == "#[cfg(test)]":
            skip_indent = indent
            continue
        if re.match(r"pub(\([\w:]+\))?\s+use\b", body):
            continue
        keep.append(line)
    return keep


def word_counts(lines):
    counts = {}
    for line in lines:
        for w in WORD.findall(line):
            counts[w] = counts.get(w, 0) + 1
    return counts


def rust_files(*globs):
    return sorted({p for g in globs for p in ROOT.glob(g) if "target" not in p.parts})


def main():
    # `#[path]`-included test oracles are compiled only under cfg(test).
    oracles = {ROOT / "crates/sensact-nn/src/conv_oracle.rs"}
    lib = [p for p in rust_files("crates/*/src/**/*.rs") if p not in oracles]
    others = rust_files(
        "src/**/*.rs", "tests/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs",
        "crates/*/tests/**/*.rs",
    )
    named = {p: word_counts(lines_of(p, drop_tests=False)) for p in lib + others}
    flagged = []
    for path in lib:
        lines = lines_of(path, drop_tests=True)
        own = word_counts(lines)
        for line in lines:
            m = DECL.match(line)
            if not m:
                continue
            name = next(g for g in m.groups() if g)
            if own.get(name, 0) > 1 or any(name in w for p, w in named.items() if p != path):
                continue
            flagged.append(f"{path.relative_to(ROOT)}::{name}")
    bad = [f for f in flagged if f not in ALLOW]
    stale = [a for a in ALLOW if a not in flagged]
    for f in flagged:
        print(f"allowed   {f}  ({ALLOW[f]})" if f in ALLOW else f"UNCALLED  {f}")
    for a in stale:
        print(f"STALE     {a}  (on ALLOW but no longer flagged)")
    print(f"surface: {len(flagged)} flagged, {len(bad)} not allowed, {len(stale)} stale")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
