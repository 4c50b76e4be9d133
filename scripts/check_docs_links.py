#!/usr/bin/env python3
"""Markdown link, anchor, and symbol checker for README.md + docs/*.md.

Pure stdlib (runs in CI with no installs). For every markdown file it
verifies that

* relative links (``[text](path)``, images included) resolve to a file
  or directory that exists in the repository,
* anchor links (``#heading`` or ``path#heading``) name a real heading in
  the target file, using GitHub's slugification rules (lowercase, drop
  punctuation, spaces to hyphens, ``-N`` suffixes for duplicates), and
* backtick code spans that *reference the code* still resolve:

  - qualified identifiers (``TranOptions::pool``, ``SparseLU::refactor``,
    ``PssResult::ordering``) — every ``::`` component must appear as a
    word somewhere under ``src/``, so a rename breaks the docs job
    instead of silently rotting the prose. A bracketed segment names an
    optional infix covering two overload families at once:
    ``solve[Many]InPlace`` checks both ``solveInPlace`` and
    ``solveManyInPlace``. ``std::``-qualified names are
    skipped (the C++ standard library is not in ``src/``).
  - bare camelCase / PascalCase names with an inner capital
    (``runTransient``, ``SparseLU``, ``BM_FactorFill``, ``solveDc()``;
    trailing call arguments are ignored) — must appear as a word in the
    C++ sources under ``src/``, ``tests/``, ``bench/`` or ``examples/``
    (benchmark and test names live outside ``src/``). Lower-case words,
    ALL-CAPS names and single-capital words (``Netlist``) are not
    checked: they are too often plain English, flags or file names.
  - program names (``bench_kernels``, ``test_rf_sparse``, ``bench_*``)
    — a backticked ``bench_*`` or ``test_*`` name must be the stem of a
    ``.cpp`` under ``bench/`` or ``tests/`` (a trailing ``*`` globs), so a
    deleted benchmark or test binary cannot linger in a table of programs.
  - repo paths (``src/runtime/``, ``scripts/check_bench_trend.py``,
    ``src/numeric/ordering.*``) — must glob-resolve against the repo
    root, like relative links.

External ``http(s)://`` and ``mailto:`` targets are skipped — CI has no
network, and flaky-URL failures would train everyone to ignore the job.
Links inside fenced code blocks are ignored. Exit code 1 lists every
broken reference with its file and line.

Usage:  python3 scripts/check_docs_links.py [file-or-dir ...]
        (defaults to README.md and docs/, relative to the repo root)
"""

import argparse
import glob as globmod
import os
import re
import sys

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
# Identifier::member chains (call args stripped before matching), with the
# [optional-infix] overload convention (see the module docstring).
QUALIFIED_RE = re.compile(
    r"^~?[A-Za-z_][A-Za-z0-9_]*"
    r"(::~?[A-Za-z_][A-Za-z0-9_]*(\[[A-Za-z0-9_]+\])?[A-Za-z0-9_]*)+$")
# Bare identifiers with a lower-case letter and a capital past the first
# character (camelCase, PascalCase with an inner capital, BM_ bench names).
BARE_NAME_RE = re.compile(r"^(?=\w*[a-z])[A-Za-z_]\w*?[A-Z]\w*$")
# Directories whose C++ words a bare name may resolve against.
NAME_DIRS = ("src", "tests", "bench", "examples")
# Program names: the stem of a .cpp under bench/ or tests/, one target each
# in CMakeLists.txt; a trailing * globs.
PROGRAM_RE = re.compile(r"^(bench|test)_\w*\*?$")
PROGRAM_DIRS = ("bench", "tests")
# Repo paths inside code spans: first segment must be a tracked top-level
# directory (bare filenames and flag-looking spans are not checked).
PATH_SPAN_RE = re.compile(r"^[A-Za-z0-9_.*/-]+$")
PATH_TOP_DIRS = ("src", "docs", "scripts", "tests", "bench", "examples")
EXTERNAL = ("http://", "https://", "mailto:")


def strip_fences(lines):
    """Yields (lineno, line) for lines outside fenced code blocks."""
    fenced = False
    for no, line in enumerate(lines, 1):
        if FENCE_RE.match(line.strip()):
            fenced = not fenced
            continue
        if not fenced:
            yield no, line


def github_slug(heading, taken):
    """GitHub's anchor slug for a heading text, with duplicate suffixes."""
    # Drop inline markdown decorations, then punctuation.
    text = re.sub(r"[`*]", "", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    slug = "".join(c for c in text.lower()
                   if c.isalnum() or c in " -_").replace(" ", "-")
    if slug not in taken:
        taken[slug] = 0
        return slug
    taken[slug] += 1
    return f"{slug}-{taken[slug]}"


def collect_anchors(path):
    anchors = set()
    taken = {}
    with open(path, encoding="utf-8") as f:
        for _, line in strip_fences(f.read().splitlines()):
            m = HEADING_RE.match(line)
            if m:
                anchors.add(github_slug(m.group(2), taken))
    return anchors


def collect_links(path):
    links = []
    with open(path, encoding="utf-8") as f:
        for no, line in strip_fences(f.read().splitlines()):
            # Drop inline code spans so `[i](...)`-looking code is ignored.
            cleaned = re.sub(r"`[^`]*`", "", line)
            for m in LINK_RE.finditer(cleaned):
                links.append((no, m.group(1)))
    return links


def collect_code_spans(path):
    spans = []
    with open(path, encoding="utf-8") as f:
        for no, line in strip_fences(f.read().splitlines()):
            for m in CODE_SPAN_RE.finditer(line):
                spans.append((no, m.group(1)))
    return spans


class SourceIndex:
    """Word lookup over the C++ sources under `dirs` (lazy, cached)."""

    def __init__(self, repo_root, dirs=("src",)):
        self.repo_root = repo_root
        self.dirs = dirs
        self._words = None

    def _load(self):
        if self._words is not None:
            return
        self._words = set()
        for top in self.dirs:
            for dirpath, _, names in os.walk(os.path.join(self.repo_root, top)):
                for name in sorted(names):
                    if name.endswith((".hpp", ".cpp", ".h")):
                        with open(os.path.join(dirpath, name),
                                  encoding="utf-8") as f:
                            self._words.update(re.findall(r"\w+", f.read()))

    def has_word(self, word):
        self._load()
        return word in self._words


def expand_optional_infix(component):
    """`solve[Many]InPlace` -> [solveInPlace, solveManyInPlace]."""
    m = re.match(r"^([A-Za-z0-9_~]*)\[([A-Za-z0-9_]+)\]([A-Za-z0-9_]*)$",
                 component)
    if not m:
        return [component]
    head, opt, tail = m.groups()
    return [head + tail, head + opt + tail]


def is_symbol_span(span):
    """True when the span is a checkable `Identifier::member` reference."""
    if span.startswith("std::") or "::" not in span:
        return False
    return QUALIFIED_RE.match(span.split("(", 1)[0]) is not None


def check_symbol_span(span, index):
    """Returns a list of unresolved components of a qualified-id span
    (empty = resolves or span is not a symbol reference)."""
    if not is_symbol_span(span):
        return []
    missing = []
    for component in span.split("(", 1)[0].split("::"):
        for variant in expand_optional_infix(component.lstrip("~")):
            if variant and not index.has_word(variant):
                missing.append(variant)
    return missing


def bare_name(span):
    """The identifier of a bare-name span (call arguments dropped), or None
    when the span is not a checkable bare camelCase/PascalCase name."""
    name = re.sub(r"\(.*\)$", "", span)
    return name if BARE_NAME_RE.match(name) else None


def program_exists(span, repo_root):
    """True when a `bench_*`/`test_*` span names a .cpp stem under bench/
    or tests/ (the span's trailing * globs)."""
    return any(globmod.glob(os.path.join(repo_root, d, span + ".cpp"))
               for d in PROGRAM_DIRS)


def check_path_span(span, repo_root):
    """Returns an error string for a repo-path-looking span that does not
    glob-resolve, or None."""
    if "/" not in span or not PATH_SPAN_RE.match(span):
        return None
    first = span.split("/", 1)[0]
    if first not in PATH_TOP_DIRS:
        return None
    target = span.rstrip("/")
    if globmod.glob(os.path.join(repo_root, target)):
        return None
    return f"no file matches '{span}'"


def expand_targets(args, repo_root):
    targets = args or ["README.md", "docs"]
    files = []
    for t in targets:
        full = os.path.join(repo_root, t)
        if os.path.isdir(full):
            files.extend(os.path.join(full, n) for n in sorted(os.listdir(full))
                         if n.endswith(".md"))
        elif os.path.exists(full):
            files.append(full)
        else:
            print(f"error: no such file or directory: {t}", file=sys.stderr)
            sys.exit(2)
    return files


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("targets", nargs="*",
                    help="markdown files or directories (default: README.md docs/)")
    ap.add_argument("--no-symbols", action="store_true",
                    help="skip the backtick symbol/path resolution check")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = expand_targets(args.targets, repo_root)

    anchor_cache = {}
    src_index = SourceIndex(repo_root)
    name_index = SourceIndex(repo_root, NAME_DIRS)

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = collect_anchors(path)
        return anchor_cache[path]

    errors = []
    checked = 0
    symbols_checked = 0
    for md in files:
        base = os.path.dirname(md)
        rel_md = os.path.relpath(md, repo_root)
        for lineno, target in collect_links(md):
            if target.startswith(EXTERNAL):
                continue
            checked += 1
            path_part, _, anchor = target.partition("#")
            if path_part:
                dest = os.path.normpath(os.path.join(base, path_part))
                if not os.path.exists(dest):
                    errors.append(f"{rel_md}:{lineno}: broken link "
                                  f"'{target}' (no such file)")
                    continue
            else:
                dest = md  # intra-file anchor
            if anchor:
                if not dest.endswith(".md"):
                    errors.append(f"{rel_md}:{lineno}: anchor on non-markdown "
                                  f"target '{target}'")
                elif anchor not in anchors_of(dest):
                    errors.append(f"{rel_md}:{lineno}: broken anchor "
                                  f"'{target}' (no heading slugs to "
                                  f"'#{anchor}' in "
                                  f"{os.path.relpath(dest, repo_root)})")
        if args.no_symbols:
            continue
        for lineno, span in collect_code_spans(md):
            missing = check_symbol_span(span, src_index)
            if is_symbol_span(span):
                symbols_checked += 1
            if missing:
                errors.append(f"{rel_md}:{lineno}: stale symbol reference "
                              f"'`{span}`' ({', '.join(missing)} not found "
                              f"in src/)")
                continue
            if PROGRAM_RE.match(span):
                symbols_checked += 1
                if not program_exists(span, repo_root):
                    errors.append(f"{rel_md}:{lineno}: stale program "
                                  f"reference '`{span}`' (no .cpp under "
                                  f"{', '.join(d + '/' for d in PROGRAM_DIRS)}"
                                  f" has that stem)")
                continue
            name = bare_name(span)
            if name is not None:
                symbols_checked += 1
                if not name_index.has_word(name):
                    errors.append(f"{rel_md}:{lineno}: stale name reference "
                                  f"'`{span}`' ({name} not found in "
                                  f"{', '.join(d + '/' for d in NAME_DIRS)})")
                continue
            path_err = check_path_span(span, repo_root)
            if path_err:
                errors.append(f"{rel_md}:{lineno}: stale path reference "
                              f"'`{span}`' ({path_err})")
            elif "/" in span and span.split("/", 1)[0] in PATH_TOP_DIRS:
                symbols_checked += 1

    for e in errors:
        print(e, file=sys.stderr)
    print(f"{len(files)} files, {checked} internal links and "
          f"{symbols_checked} code references checked, "
          f"{len(errors)} broken")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
