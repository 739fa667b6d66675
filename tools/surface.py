#!/usr/bin/env python3
"""Prints the size of the repo's public surface, for simplicity reviews.

Reports, for the tree at repo_root:

  * the line counts of src/ and tests/ (every file, as `wc -l` counts);
  * the public static factories of TrajectoryService;
  * the settable fields of each config struct (data members declared
    directly in the struct; static members, nested types and functions are
    not fields). RetraSynConfig's count excludes what it inherits from
    ServiceOptions, which is listed on its own.

It only prints; nothing here is a gate. Run it on two checkouts and compare.

Usage: python3 tools/surface.py [repo_root]
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint import brace_body, strip_comments_and_strings, struct_fields  # noqa: E402

CONFIG_STRUCTS = [
    (os.path.join("src", "core", "engine.h"), "RetraSynConfig"),
    (os.path.join("src", "core", "engine.h"), "ServiceOptions"),
    (os.path.join("src", "core", "allocation.h"), "AllocationConfig"),
    (os.path.join("src", "service", "ingest_session.h"),
     "IngestSessionOptions"),
    (os.path.join("src", "core", "synthesizer.h"), "SynthesizerConfig"),
]
SERVICE_HEADER = os.path.join("src", "service", "trajectory_service.h")


def read_stripped(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        return strip_comments_and_strings(f.read())


def line_count(root, top):
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, top)):
        for name in filenames:
            with open(os.path.join(dirpath, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def public_factories(root):
    """Names of the static member functions in TrajectoryService's public
    section(s)."""
    text = read_stripped(root, SERVICE_HEADER)
    m = re.search(r"\bclass\s+TrajectoryService\s*\{", text)
    if m is None:
        return []
    body = text[m.end():brace_body(text, m.end() - 1) - 1]
    names = []
    # Access sections run from one label to the next; keep the public ones.
    for section in re.split(r"\b(?=(?:public|private|protected)\s*:)", body):
        if not section.startswith("public"):
            continue
        names += re.findall(r"\bstatic\b[^;{]*?\b(\w+)\s*\(", section)
    return names


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    print("lines: src/ %d, tests/ %d" % (line_count(root, "src"),
                                        line_count(root, "tests")))
    factories = public_factories(root)
    print("TrajectoryService public static factories: %d (%s)" %
          (len(factories), ", ".join(factories)))
    for header, struct in CONFIG_STRUCTS:
        fields = [f for f, _ in struct_fields(read_stripped(root, header),
                                              struct)]
        print("%s settable fields: %d (%s)" % (struct, len(fields),
                                               ", ".join(fields)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
