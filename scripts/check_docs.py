#!/usr/bin/env python3
"""Docs link-and-coverage checker: keeps the prose wired to the code.

Two failure modes this guards against, neither of which any compiler sees:

  dead-link       A relative link or intra-repo anchor in README.md or
                  docs/*.md points at a file or heading that no longer
                  exists (file moved, heading reworded).
  spec-coverage   src/scenario/spec_io.cpp learns a new field but
                  docs/spec-format.md never mentions it — the documented
                  spec surface silently falls behind the parsed one.

Runs as a ctest (`check_docs`) and as a CI step. Pure stdlib Python, no
build needed.

Usage: check_docs.py --root <repo root>
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
# Spec fields: the entries of spec_io.cpp's per-struct field lists, written
# either as field<S, &S::member>("name") or, for a hand-written entry,
# Field<S>{"name", ...}. The same lists drive parsing and emission.
FIELD_RE = re.compile(r"\b(?:field<[^>]*>\(|Field<S>\{)\"([a-z_0-9]+)\"")

# Parser-internal names that are not spec-file fields (or are documented
# under a different, canonical name). Keep this list short and justified.
FIELD_EXEMPT: set[str] = set()


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor rule: lowercase, drop punctuation,
    spaces to hyphens (good enough for the ASCII headings we write)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(md_path: pathlib.Path) -> set[str]:
    return {github_anchor(h) for h in HEADING_RE.findall(md_path.read_text())}


def check_links(root: pathlib.Path, docs: list[pathlib.Path]) -> list[str]:
    errors = []
    for doc in docs:
        text = doc.read_text()
        # Strip fenced code blocks: example snippets are not live links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = doc if not path_part else (doc.parent / path_part).resolve()
            rel = doc.relative_to(root)
            if not dest.exists():
                errors.append(f"{rel}: dead link '{target}' (no such file)")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(
                        f"{rel}: dead anchor '{target}' "
                        f"(no heading '#{anchor}' in {dest.name})")
    return errors


def check_spec_coverage(root: pathlib.Path) -> list[str]:
    spec_io = root / "src" / "scenario" / "spec_io.cpp"
    doc = root / "docs" / "spec-format.md"
    errors = []
    if not spec_io.exists():
        return [f"missing {spec_io.relative_to(root)}"]
    if not doc.exists():
        return [f"missing {doc.relative_to(root)} (the spec surface must be documented)"]
    parsed = set(FIELD_RE.findall(spec_io.read_text())) - FIELD_EXEMPT
    if len(parsed) < 30:
        errors.append(
            f"spec-coverage: only {len(parsed)} fields scraped from spec_io.cpp — "
            "the FIELD_RE pattern has likely fallen out of sync with the field lists")
    # Strip fenced blocks first: they would derail the single-backtick
    # pairing below, and example snippets are not documentation of record.
    doc_text = re.sub(r"```.*?```", "", doc.read_text(), flags=re.DOTALL)
    # A field counts as documented when it appears backtick-quoted anywhere
    # (table cells, prose, or a `parent.child` path).
    documented = set()
    for code_span in re.findall(r"`([^`]+)`", doc_text):
        for token in re.split(r"[^\w]+", code_span):
            if token:
                documented.add(token)
    for field in sorted(parsed - documented):
        errors.append(f"docs/spec-format.md: parsed spec field '{field}' is undocumented")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()

    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    docs = [d for d in docs if d.exists()]
    errors = check_links(root, docs) + check_spec_coverage(root)
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    fields = len(set(FIELD_RE.findall((root / 'src/scenario/spec_io.cpp').read_text())))
    print(f"check_docs: {len(docs)} documents, {fields} spec fields — all wired")
    return 0


if __name__ == "__main__":
    sys.exit(main())
