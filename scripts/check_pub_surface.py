#!/usr/bin/env python3
"""Surface ratchet: every `pub fn` and every config field earns its keep.

Fails (exit 1) on either of two findings.

1. A `pub fn` defined under `crates/*/src` (shims excluded, `#[cfg(test)]`
   code excluded) is named by no file but its own. A name counts wherever
   it appears in the workspace's Rust code
   (`crates/*/{src,tests,examples,benches}`, `src`, `tests`, `examples`,
   `benchmark/src`) except in comments, string literals, `use`
   declarations and `fn NAME` definitions. Calls from the defining file
   do not count, production or test: what only its own file calls needs
   no `pub`.

2. A `pub` field of a struct with a hand-written `impl Default` under
   `crates/*/src` is written by no code outside that `Default` impl,
   `#[cfg(test)]` code, `tests/` and `examples/`. A write is a struct
   literal of that struct (`Name { field: .. }`, `Self { .. }` inside its
   impl, field-init shorthand included) or an assignment `.field = ..`
   (`a.b.c = ..` writes `b` too).
   A field nobody sets is one value, so it is a named `const`, not an
   option.

Both scans are by name, so a common method name (`new`, `len`) or field
name (`seed`) always passes: they catch the function nothing calls and
the field nothing sets, not everything that could go. An assignment is
matched by field name alone: `.x = ..` on any struct counts as a write of
every audited struct's field `x`. And a field that every caller sets to
the same value passes. So the field scan enforces only "some code writes
it"; whether two callers really need two values is left to review.

Usage: check_pub_surface.py [REPO_ROOT]

ALLOW and ALLOW_FIELDS below hold the deliberate survivors, each with its
reason. An entry whose item is gone or now used elsewhere fails the check
too, so the lists only shrink. The one exception: an allowlisted field
whose name now appears in a production assignment only prints a note,
since the scan cannot tell whose field that assignment writes.
"""

import os
import re
import sys

# (defining file, function name) -> why it stays although nothing names it.
ALLOW = {
    ("crates/dsps/src/des.rs", "simulate_des"): "the per-tuple witness its own tests cross-validate the fluid engine against",
}

# (struct, field) -> why it stays an option although no production code
# writes it. The reasons are the only ones that keep a field nobody sets:
# a deployment setting or a bound on outside input, a field the benchmark
# crate names, or a field of a serialized format a golden pins.
ALLOW_FIELDS = {
    ("ServeConfig", "queue_cap"): "deployment setting: bounds the interactive lane's queue of outside requests",
    ("ServeConfig", "bulk_queue_cap"): "deployment setting: bounds the bulk lane's queue of outside requests",
    ("ServeConfig", "plan_cache_cap"): "benchmark/src names it",
    ("FrontConfig", "max_frame_bytes"): "bound on input from outside the program (the wire frame length)",
    ("CorunConfig", "queries_per_scenario"): "benchmark/src names it",
    ("ModelConfig", "hidden"): "field of the stored model format that json_paths.rs pins",
    ("ModelConfig", "encoder_hidden"): "field of the stored model format that json_paths.rs pins",
    ("ModelConfig", "update_hidden"): "field of the stored model format that json_paths.rs pins",
    ("ModelConfig", "readout_hidden"): "field of the stored model format that json_paths.rs pins",
    ("ModelConfig", "traditional_rounds"): "field of the stored model format that json_paths.rs pins",
}

# A struct literal's name preceded by one of these is a declaration, an
# impl header or a return type, not a literal.
NOT_LITERAL = re.compile(r"(?:\bstruct|\benum|\bunion|\bimpl|\bfor|\btrait|\bdyn|->)\s*$")

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


def is_production(rel):
    """Writes count only from code that runs outside tests and examples."""
    parts = rel.split("/")
    if parts[0] in ("tests", "examples"):
        return False
    return not (parts[0] == "crates" and len(parts) > 2 and parts[2] in ("tests", "examples"))


def literal_fields(code, open_brace):
    """The field names a struct literal whose `{` is at `open_brace` sets,
    and the index just past its `}`."""
    end = block_end(code, open_brace)
    body = code[open_brace + 1:end - 1]
    parts, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    names = []
    for part in parts:
        m = re.match(r"\s*(?:r#)?([A-Za-z_]\w*)\s*(?::(?!:)|$)", part)
        if m:
            names.append(m.group(1))
    return names, end


def impl_spans(code):
    """(start, end, self type, trait) of every `impl` block."""
    spans = []
    for m in re.finditer(r"\bimpl\b(?:\s*<[^{;]*?>)?\s+(?:([\w:]+)(?:<[^{;]*?>)?\s+for\s+)?(?:[\w:]*::)?(\w+)[^{;]*\{", code):
        spans.append((m.start(), block_end(code, m.end() - 1), m.group(2), m.group(1)))
    return spans


def unset_fields(files):
    """(file, line, struct, field) of every pub field of a struct with a
    hand-written `impl Default` that no production code writes, and the
    set of writes found: (struct, field) for a literal, (None, field) for
    an assignment."""
    structs = {}  # name -> (file, [(field, line)])
    defaults = set()  # types with a hand-written non-test `impl Default`
    for rel, (code, spans) in files.items():
        if not re.match(r"crates/[^/]+/src/", rel):
            continue
        for a, _, ty, trait in impl_spans(code):
            if trait and trait.split("::")[-1] == "Default" and not inside(spans, a):
                defaults.add(ty)
    for rel, (code, spans) in files.items():
        if not re.match(r"crates/[^/]+/src/", rel):
            continue
        for m in re.finditer(r"\bpub\s+struct\s+(\w+)[^{;(]*\{", code):
            name = m.group(1)
            if name not in defaults or inside(spans, m.start()):
                continue
            end = block_end(code, m.end() - 1)
            body = code[m.end():end - 1]
            fields = [(f.group(1), m.end() + f.start()) for f in re.finditer(r"\bpub\s+(\w+)\s*:(?!:)", body)]
            structs[name] = (rel, [(f, code.count("\n", 0, pos) + 1) for f, pos in fields])

    written = set()  # (struct, field); struct None = any struct (an assignment)
    for rel, (code, spans) in files.items():
        if not is_production(rel):
            continue
        impls = impl_spans(code)
        own_default = [(a, b, ty) for a, b, ty, trait in impls if trait and trait.split("::")[-1] == "Default"]
        for m in re.finditer(r"\b(\w+)\s*\{", code):
            name = m.group(1)
            if name == "Self":
                enclosing = [ty for a, b, ty, _ in impls if a <= m.start() < b]
                name = enclosing[-1] if enclosing else name
            if name not in structs or inside(spans, m.start()) or NOT_LITERAL.search(code, max(0, m.start() - 64), m.start()):
                continue
            if any(a <= m.start() < b and ty == name for a, b, ty in own_default):
                continue
            names, end = literal_fields(code, m.end() - 1)
            after = code[end:end + 3].lstrip()
            if re.match(r"=>|=(?!=)|:(?!:)|if\b", after):
                continue  # a pattern, not a literal
            written.update((name, f) for f in names)
        # `a.b.c = x` writes `c`, and `b` through it.
        for m in re.finditer(r"((?:\.\s*\w+\s*)+)(?:[-+*/%&|^]|<<|>>)?=(?![=>])", code):
            if inside(spans, m.start()):
                continue
            if any(a <= m.start() < b and ty in structs for a, b, ty in own_default):
                continue
            written.update((None, f) for f in re.findall(r"\w+", m.group(1)))

    unset = []
    for name, (rel, fields) in sorted(structs.items()):
        for field, line in fields:
            if (name, field) not in written and (None, field) not in written:
                unset.append((rel, line, name, field))
    return unset, written


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
            named = any(f != rel for f, _ in uses.get(name, []))
            if not named:
                unused.append((rel, code.count("\n", 0, m.start()) + 1, name))

    fields_failed = False
    seen = set()
    unset, written = unset_fields(files)
    for rel, line, struct, field in unset:
        seen.add((struct, field))
        if (struct, field) not in ALLOW_FIELDS:
            print(f"{rel}:{line}: pub field {struct}::{field} is set only by its own Default")
            fields_failed = True
    for struct, field in sorted(set(ALLOW_FIELDS) - seen):
        if (struct, field) not in written and (None, field) in written:
            print(
                f"note: allowlisted field {struct}::{field}: an assignment to a field named `{field}` now "
                f"appears in production code; if it writes {struct}, drop the ALLOW_FIELDS entry"
            )
            continue
        print(f"allowlisted field {struct}::{field} is gone or set by a {struct} literal: drop its ALLOW_FIELDS entry")
        fields_failed = True
    if fields_failed:
        print("make the field a named const with its default value, or allowlist it with a reason")

    fns_failed = False
    seen = set()
    for rel, line, name in unused:
        seen.add((rel, name))
        if (rel, name) not in ALLOW:
            print(f"{rel}:{line}: pub fn {name} is named by no file but its own")
            fns_failed = True
    for key in sorted(set(ALLOW) - seen):
        print(f"{key[0]}: allowlisted pub fn {key[1]} is gone or now named elsewhere: drop its ALLOW entry")
        fns_failed = True
    if fns_failed:
        print(
            "make it private (or fold a one-line wrapper into its caller), delete it if nothing calls it, "
            "or allowlist it with a reason"
        )
    return 1 if fields_failed or fns_failed else 0


if __name__ == "__main__":
    sys.exit(main())
