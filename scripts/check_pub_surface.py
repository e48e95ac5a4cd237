#!/usr/bin/env python3
"""Surface ratchet: every `pub fn` earns its keep.

Fails (exit 1) when a `pub fn` defined under `crates/*/src` (shims
excluded, `#[cfg(test)]` code excluded) is named nowhere outside its own
file's `#[cfg(test)]` code. A name counts wherever it appears in the
workspace's Rust code (`crates/*/{src,tests,examples,benches}`, `src`,
`tests`, `examples`, `benchmark/src`) except in comments, string
literals, `use` declarations and `fn NAME` definitions.

The scan is by name, so a common method name (`new`, `len`) always passes:
it catches the function nothing calls, not every function that could go.

Usage: check_pub_surface.py [REPO_ROOT]

ALLOW below holds the deliberate survivors, each with its reason. An
entry whose function is gone or now named elsewhere fails the check too,
so the list only shrinks.
"""

import os
import re
import sys

# (defining file, function name) -> why it stays although nothing names it.
ALLOW = {
    ("crates/dsps/src/des.rs", "simulate_des"): "the per-tuple witness its own tests cross-validate the fluid engine against",
}

LITERAL = re.compile(r'b?r(#*)"|b?"')
CALLER_DIRS = ["src", "tests", "examples", "benchmark/src"]
CRATE_SUBDIRS = ["src", "tests", "examples", "benches"]


def strip(text):
    """Blanks comments and the contents of string and char literals,
    keeping every newline so offsets map to the same lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in 'rb"' and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")) and LITERAL.match(text, i):
            m = LITERAL.match(text, i)
            if m.group(1) is not None:  # raw: ends at the quote and its hashes
                end = text.find('"' + m.group(1), m.end())
                end = n if end < 0 else end + 1 + len(m.group(1))
            else:
                end = m.end()
                while end < n and text[end] != '"':
                    end += 2 if text[end] == "\\" else 1
                end += 1
            out.append('""' + re.sub(r"[^\n]", " ", text[i + 2:end]))
            i = end
        elif c == "'":
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", text[i:])
            if m:
                out.append("' '" + " " * (m.end() - 3))
                i += m.end()
            else:  # a lifetime
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def block_end(code, i):
    """Index just past the item starting at `i`: its `;` or its `{...}`."""
    depth = 0
    while i < len(code):
        c = code[i]
        if c == ";" and depth == 0:
            return i + 1
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def test_spans(code):
    """Byte ranges of the items marked `#[cfg(test)]`."""
    spans = []
    for m in re.finditer(r"#\[cfg\(test\)\]", code):
        if spans and m.start() < spans[-1][1]:
            continue
        spans.append((m.start(), block_end(code, m.end())))
    return spans


def inside(spans, pos):
    return any(a <= pos < b for a, b in spans)


def rust_files(root):
    dirs = [os.path.join(root, d) for d in CALLER_DIRS]
    crates = os.path.join(root, "crates")
    for c in sorted(os.listdir(crates)):
        if c != "shims":
            dirs += [os.path.join(crates, c, s) for s in CRATE_SUBDIRS]
    for d in dirs:
        for base, _, names in os.walk(d):
            for name in sorted(names):
                if name.endswith(".rs"):
                    path = os.path.join(base, name)
                    yield os.path.relpath(path, root)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = {}
    for rel in rust_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            code = strip(f.read())
        files[rel] = (code, test_spans(code))

    # Every naming of every identifier: name -> [(file, offset)].
    uses = {}
    for rel, (code, _) in files.items():
        hidden = [(m.start(), m.end()) for m in re.finditer(r"\buse\b[^;]*;", code)]
        for m in re.finditer(r"\b(fn\s+)?([A-Za-z_]\w*)\b", code):
            if m.group(1) or inside(hidden, m.start()):
                continue
            uses.setdefault(m.group(2), []).append((rel, m.start()))

    unused = []
    for rel, (code, spans) in files.items():
        if not re.match(r"crates/[^/]+/src/", rel):
            continue
        for m in re.finditer(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)", code):
            if inside(spans, m.start()):
                continue
            name = m.group(1)
            named = any(f != rel or not inside(spans, pos) for f, pos in uses.get(name, []))
            if not named:
                unused.append((rel, code.count("\n", 0, m.start()) + 1, name))

    failed = False
    seen = set()
    for rel, line, name in unused:
        seen.add((rel, name))
        if (rel, name) not in ALLOW:
            print(f"{rel}:{line}: pub fn {name} is named by nothing outside its file's tests")
            failed = True
    for key in sorted(set(ALLOW) - seen):
        print(f"{key[0]}: allowlisted pub fn {key[1]} is gone or now named elsewhere: drop its ALLOW entry")
        failed = True
    if failed:
        print("delete the function (and the tests that only it needed), or allowlist it with a reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
