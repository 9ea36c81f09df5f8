#!/usr/bin/env python3
"""Census of library surface nothing outside its crate uses.

    python3 scripts/surface.py

Flags every line-start `pub fn`, `pub const` or `pub static` declared under
`crates/*/src` that no Rust file outside its crate names. Outside means the
other crates, the crate's own bins (`src/bin`), `crates/*/tests`, `tests/`,
`examples/`, `src/` and `benchmark/src`. A `pub fn` declared inside an
`impl` block (a method) counts only call-shaped uses: `.name(`, `.name::<`,
or a path ending in `::name` (`Type::name`, fn pointers included). Names
are counted after dropping `//` and `/* */` comments (doc examples
included), string and char literals and `pub use` lines. Inside its crate an
item is rustc's to judge: what nothing outside names is `pub(crate)`, and
the `dead_code` lint flags it when nothing calls it. Methods match by name,
not by type, so a method that shares its name with one called outside
passes here. Files compiled only under `cfg(test)` (`#[path]`-included
oracles) are neither scanned nor counted.

Exits 1 on any flagged item that is not on ALLOW below, and on any ALLOW
entry that is no longer flagged (a stale reason is surface too). Types are
out of reach: every impl block names its type.

The options rule: every `pub` field of a `pub struct` under `crates/*/src`
that has an `impl Default` must be set somewhere outside that `Default`
impl, in any Rust file of the repository (crates and their tests, `tests/`,
examples, bins, `benchmark/src`). A set is a struct literal `field: ...`,
field-init shorthand or `.field = ...`; a `..Default::default()` spread is
not. A field nothing sets is an option with one value: make it a constant.
Exits 1 on any such field not on OPTION_ALLOW, and on a stale entry there.
Uses only the stdlib.
"""
import functools
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Flagged on purpose: `file::name` -> one-line reason.
ALLOW = {
    "crates/sensact-sched/src/sched.rs::rollup_metrics":
        "the documented operator API: one Prometheus page over a fleet",
    "crates/sensact-starnet/src/regret.rs::likelihood_regret":
        "the paper's section V entry point; the monitor scores through regret_and_baseline",
}

# Options nothing sets on purpose: `file::Struct.field` -> one-line reason.
OPTION_ALLOW = {
    "crates/sensact-lidar/src/energy.rs::EnergyModel.min_pulse_energy":
        "benchmark/src/edge.rs reads it; the benchmark-only change owns its removal",
}

DECL = re.compile(
    r"^\s*pub\s+(?:(?:const\s+|unsafe\s+|async\s+)*fn\s+(\w+)"
    r"|const\s+(\w+)\s*:|static\s+(?:mut\s+)?(\w+)\s*:)"
)
WORD = re.compile(r"[A-Za-z_]\w*")
CALL = re.compile(r"\.\s*([A-Za-z_]\w*)\s*(?:\(|::\s*<)|::\s*([A-Za-z_]\w*)")


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


@functools.cache
def stripped(path):
    return strip(path.read_text())


def lines_of(path):
    """The lines of `path` that count: no comments, strings or `pub use`
    lines. A line that does not count is blanked, so line numbers hold."""
    return [
        "" if re.match(r"\s*pub(\([\w:]+\))?\s+use\b", line) else line
        for line in stripped(path).split("\n")
    ]


def doc_tests(path):
    """The code lines of `path`'s doc-test fences (rustdoc builds each as a
    crate of its own, so what they name is named outside)."""
    code, fence = [], None
    for line in path.read_text().split("\n"):
        m = re.match(r"\s*//[/!] ?(.*)", line)
        if m and m.group(1).startswith("```"):
            fence = None if fence is not None else m.group(1)[3:].strip()
        elif m and fence in ("", "no_run"):
            code.append(strip(m.group(1).removeprefix("# ")))
        elif not m:
            fence = None
    return code


def crate_of(path):
    """The crate whose library `path` is part of; `None` outside any."""
    parts = path.relative_to(ROOT).parts
    if parts[0] == "crates" and parts[2] == "src" and parts[3] != "bin":
        return parts[1]
    return None


def method_lines(lines):
    """Indices of the lines inside an `impl` block's body."""
    text = "\n".join(lines)
    inside = set()
    for m in IMPL.finditer(text):
        first = text.count("\n", 0, m.end())
        last = text.count("\n", 0, brace_end(text, m.end() - 1))
        inside.update(range(first, last + 1))
    return inside


def call_names(lines):
    """The names `lines` use call-shaped: `.name(`, `.name::<`, `..::name`."""
    return {a or b for a, b in CALL.findall("\n".join(lines))}


def rust_files(*globs):
    return sorted({p for g in globs for p in ROOT.glob(g) if "target" not in p.parts})


def brace_end(text, i):
    """Index of the `}` closing the `{` at `i`."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def top_level_items(body):
    """Split a struct literal's body at its top-level commas."""
    items, depth, start = [], 0, 0
    for j, c in enumerate(body):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            items.append(body[start:j])
            start = j + 1
    items.append(body[start:])
    return [item.strip() for item in items if item.strip()]


# `impl<..> [Trait<..> for] Type<..> {`: group 1 the trait, group 2 the type.
IMPL = re.compile(
    r"\bimpl\b(?:\s*<[^{;]*?>)?\s+(?:([\w:]+)(?:<[^{;]*?>)?\s+for\s+)?([\w:]+)[^{;]*\{"
)
LITERAL = re.compile(r"\b(Self|[A-Z]\w*)\s*\{")
ASSIGN = re.compile(r"\.(\w+)\s*[-+*/]?=(?!=)")
OPTION_STRUCT = re.compile(r"\bpub\s+struct\s+(\w+)\s*(?:<[^{;]*?>)?\s*\{")


def options(lib, others):
    """`file::Struct.field` for every option field nothing sets outside its
    struct's `Default` impl. A literal's type is its path's last segment
    (`Self` is the enclosing impl's); a `.field =` counts for any struct."""
    declared, defaults, literal_sets, assigned = [], set(), set(), set()
    for path in lib + others:
        text = stripped(path)
        # (body start, body end, self type, is a `Default` impl)
        impls = [
            (m.end() - 1, brace_end(text, m.end() - 1), m.group(2).split("::")[-1],
             (m.group(1) or "").split("::")[-1] == "Default")
            for m in IMPL.finditer(text)
        ]
        defaults.update(t for _, _, t, d in impls if d)
        in_default = [(b, e, t) for b, e, t, d in impls if d]
        assigned.update(
            m.group(1) for m in ASSIGN.finditer(text)
            if not any(b < m.start() < e for b, e, _ in in_default)
        )
        for m in LITERAL.finditer(text):
            # `struct S {`, `impl .. for S {` and `-> S {` open no literal.
            before = text[max(0, m.start() - 64):m.start()].rstrip()
            if re.search(r"(\b(struct|enum|union|trait|impl|dyn|for)|->)$", before):
                continue
            name = m.group(1)
            if name == "Self":
                enclosing = [(b, t) for b, e, t, _ in impls if b < m.start() < e]
                if not enclosing:
                    continue
                name = max(enclosing)[1]
            if any(b < m.start() < e and t == name for b, e, t in in_default):
                continue
            body = text[m.end():brace_end(text, m.end() - 1)]
            for item in top_level_items(body):
                f = re.match(r"(\w+)\s*(?::(?!:)|$)", item)
                if f:
                    literal_sets.add((name, f.group(1)))
        if path in lib:
            for m in OPTION_STRUCT.finditer(text):
                body = text[m.end():brace_end(text, m.end() - 1)]
                for field in re.findall(r"^\s*pub\s+(\w+)\s*:", body, re.M):
                    declared.append((path, m.group(1), field))
    return sorted(
        f"{path.relative_to(ROOT)}::{struct}.{field}"
        for path, struct, field in declared
        if struct in defaults and (struct, field) not in literal_sets and field not in assigned
    )


def main():
    # `#[path]`-included test oracles are compiled only under cfg(test).
    oracles = {ROOT / "crates/sensact-nn/src/conv_oracle.rs"}
    files = [p for p in rust_files(
        "crates/*/src/**/*.rs", "src/**/*.rs", "tests/**/*.rs", "examples/**/*.rs",
        "benchmark/src/**/*.rs", "crates/*/tests/**/*.rs",
    ) if p not in oracles]
    lib = [p for p in files if crate_of(p)]
    others = [p for p in files if not crate_of(p)]
    named, called_as = {}, {}
    for path in files:
        lines = lines_of(path)
        named[path], called_as[path] = set(WORD.findall("\n".join(lines))), call_names(lines)
    docs = [line for path in files for line in doc_tests(path)]
    named[None], called_as[None] = set(WORD.findall("\n".join(docs))), call_names(docs)
    flagged = []
    for path in lib:
        crate = crate_of(path)
        lines = lines_of(path)
        methods = method_lines(lines)
        for k, line in enumerate(lines):
            m = DECL.match(line)
            if not m:
                continue
            name = next(g for g in m.groups() if g)
            uses = called_as if m.group(1) and k in methods else named
            if not any(name in u for p, u in uses.items() if p is None or crate_of(p) != crate):
                flagged.append(f"{path.relative_to(ROOT)}::{name}")
    bad = [f for f in flagged if f not in ALLOW]
    stale = [a for a in ALLOW if a not in flagged]
    for f in flagged:
        print(f"allowed   {f}  ({ALLOW[f]})" if f in ALLOW else f"UNCALLED  {f}")
    for a in stale:
        print(f"STALE     {a}  (on ALLOW but no longer flagged)")
    print(f"surface: {len(flagged)} flagged, {len(bad)} not allowed, {len(stale)} stale")

    unset = options(lib, others + sorted(oracles))
    bad_opts = [f for f in unset if f not in OPTION_ALLOW]
    stale_opts = [a for a in OPTION_ALLOW if a not in unset]
    for f in unset:
        print(f"allowed   {f}  ({OPTION_ALLOW[f]})" if f in OPTION_ALLOW else f"UNSET     {f}")
    for a in stale_opts:
        print(f"STALE     {a}  (on OPTION_ALLOW but no longer unset)")
    print(f"options: {len(unset)} unset, {len(bad_opts)} not allowed, {len(stale_opts)} stale")
    return 1 if bad or stale or bad_opts or stale_opts else 0


if __name__ == "__main__":
    sys.exit(main())
