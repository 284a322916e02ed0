"""Malformed-input corpus for ``read_spn`` and ``read_lnet``.

Every case pins the *full* ``ValidationError`` message, file-name prefix and
line number included, so a parser rewrite cannot change what a user sees.
Each text is read twice: from a stream (named ``<spn>`` / ``<lnet>``) and from
a file on disk (named by its basename).  ``{name}`` in an expected message
stands for that name.  A subset also runs through ``survpath solve``, whose
stderr and exit code are pinned too.

The texts include the tokens ``int()`` treats specially (``²`` passes
``isdigit()`` but not ``int()``; ``1_0``, ``+3``, ``-1``, ``0`` and ``f01``
parse), CRLF and lone-CR line endings, form feeds and other characters that
``str.splitlines()`` would take as line breaks, comment and blank lines inside
a section, and a last line with no newline.
"""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

from survpath import ValidationError, read_lnet, read_spn
from survpath.cli import main


# ---------------------------------------------------------------------------
# .spn
# ---------------------------------------------------------------------------

SPN_ERRORS = [
    # header
    ("", "{name}: unexpected end of file, expected 'spn <version>' header"),
    ("# only a comment\n\n   \n", "{name}: unexpected end of file, expected 'spn <version>' header"),
    ("fibers 2\npath 1: f1\n", "{name}:1: expected 'spn 1' header, got 'fibers 2'"),
    ("spn\nfibers 2\n", "{name}:1: expected 'spn 1' header, got 'spn'"),
    ("spn 1 extra\nfibers 2\n", "{name}:1: expected 'spn 1' header, got 'spn 1 extra'"),
    ("SPN 1\nfibers 2\n", "{name}:1: expected 'spn 1' header, got 'SPN 1'"),
    ("spn one\nfibers 2\n", "{name}:1: expected an integer version, got 'one'"),
    ("spn ²\nfibers 2\n", "{name}:1: expected an integer version, got '²'"),
    ("spn 2\nfibers 2\n", "{name}:1: unsupported spn version 2"),
    ("spn 02\nfibers 2\n", "{name}:1: unsupported spn version 02"),
    ("spn 1_0\nfibers 2\n", "{name}:1: unsupported spn version 1_0"),
    ("\n# lead\n  spn 3  \n", "{name}:3: unsupported spn version 3"),
    # fiber count
    ("spn 1\n", "{name}: unexpected end of file, expected 'fibers <m>' line"),
    ("spn 1\n# nothing else\n", "{name}: unexpected end of file, expected 'fibers <m>' line"),
    ("spn 1\npath 1: f1\n", "{name}:2: expected 'fibers <m>' line, got 'path 1: f1'"),
    ("spn 1\nfibers\n", "{name}:2: expected 'fibers <m>' line, got 'fibers'"),
    ("spn 1\nfibers 2 3\n", "{name}:2: expected 'fibers <m>' line, got 'fibers 2 3'"),
    ("spn 1\nfibers two\n", "{name}:2: expected an integer fiber count, got 'two'"),
    ("spn 1\nfibers 2.0\n", "{name}:2: expected an integer fiber count, got '2.0'"),
    ("spn 1\nfibers -1\n", "{name}:2: fiber count must be non-negative"),
    # caps
    ("spn 1\nfibers 2\nw 2\nw 2\npath 1: f1\n", "{name}:4: duplicate 'w' line"),
    ("spn 1\nfibers 2\nk 1\nw 2\nk 1\n", "{name}:5: duplicate 'k' line"),
    ("spn 1\nfibers 2\nw x\n", "{name}:3: expected an integer load cap, got 'x'"),
    ("spn 1\nfibers 2\nk ²\n", "{name}:3: expected an integer fiber cap, got '²'"),
    ("spn 1\nfibers 2\nw 0\npath 1: f1\n", "{name}: max_paths_per_fiber must be >= 1 when declared"),
    ("spn 1\nfibers 2\nk -1\npath 1: f1\n", "{name}: max_fibers_per_path must be >= 1 when declared"),
    ("spn 1\nfibers 2\nk 0\nw 0\n", "{name}: max_fibers_per_path must be >= 1 when declared"),
    (
        "spn 1\nfibers 2\nw 2  # optional: per-fiber load cap\n",
        "{name}:3: expected 'path <id>: f...' line, got 'w 2  # optional: per-fiber load cap'",
    ),
    ("spn 1\nfibers 2\nw\n", "{name}:3: expected 'path <id>: f...' line, got 'w'"),
    ("spn 1\nfibers 2\npath 1: f1\nw 2\n", "{name}:4: expected 'path <id>: f...' line, got 'w 2'"),
    # path line shape
    ("spn 1\nfibers 2\npath 1 f1\n", "{name}:3: expected 'path <id>: f...' line, got 'path 1 f1'"),
    ("spn 1\nfibers 2\npath: f1\n", "{name}:3: expected 'path <id>: f...' line, got 'path: f1'"),
    ("spn 1\nfibers 2\npath 1 2: f1\n", "{name}:3: expected 'path <id>: f...' line, got 'path 1 2: f1'"),
    ("spn 1\nfibers 2\nPath 1: f1\n", "{name}:3: expected 'path <id>: f...' line, got 'Path 1: f1'"),
    ("spn 1\nfibers 2\n1: f1\n", "{name}:3: expected 'path <id>: f...' line, got '1: f1'"),
    ("spn 1\nfibers 2\npath x: f1\n", "{name}:3: expected an integer path id, got 'x'"),
    ("spn 1\nfibers 2\npath ²: f1\n", "{name}:3: expected an integer path id, got '²'"),
    ("spn 1\nfibers 2\npath 1.5: f1\n", "{name}:3: expected an integer path id, got '1.5'"),
    # fiber tokens
    ("spn 1\nfibers 2\npath 1: 1\n", "{name}:3: expected fiber token like 'f3', got '1'"),
    ("spn 1\nfibers 2\npath 1: f1 x2\n", "{name}:3: expected fiber token like 'f3', got 'x2'"),
    ("spn 1\nfibers 2\npath 1: F1\n", "{name}:3: expected fiber token like 'f3', got 'F1'"),
    ("spn 1\nfibers 2\npath 1: 1f\n", "{name}:3: expected fiber token like 'f3', got '1f'"),
    ("spn 1\nfibers 2\npath 1: f\n", "{name}:3: expected an integer fiber id, got ''"),
    ("spn 1\nfibers 2\npath 1: ff1\n", "{name}:3: expected an integer fiber id, got 'f1'"),
    ("spn 1\nfibers 2\npath 1: f1f\n", "{name}:3: expected an integer fiber id, got '1f'"),
    ("spn 1\nfibers 2\npath 1: f²\n", "{name}:3: expected an integer fiber id, got '²'"),
    ("spn 1\nfibers 2\npath 1: f1.0\n", "{name}:3: expected an integer fiber id, got '1.0'"),
    ("spn 1\nfibers 2\npath 1: f1,f2\n", "{name}:3: expected an integer fiber id, got '1,f2'"),
    # an earlier bad token wins over a later one, and over a later range error
    ("spn 1\nfibers 2\npath 1: f9 x1\n", "{name}:3: fiber 9 outside 1..2"),
    ("spn 1\nfibers 2\npath 1: x1 f9\n", "{name}:3: expected fiber token like 'f3', got 'x1'"),
    ("spn 1\nfibers 2\npath 1: f1 f1 f9\n", "{name}:3: duplicate fiber f1 on path 1"),
    ("spn 1\nfibers 2\npath 1: f9 f1 f1\n", "{name}:3: fiber 9 outside 1..2"),
    ("spn 1\nfibers 2\npath x: f9\n", "{name}:3: expected an integer path id, got 'x'"),
    # fiber range and duplicates
    ("spn 1\nfibers 2\npath 1: f3\n", "{name}:3: fiber 3 outside 1..2"),
    ("spn 1\nfibers 2\npath 1: f0\n", "{name}:3: fiber 0 outside 1..2"),
    ("spn 1\nfibers 2\npath 1: f-1\n", "{name}:3: fiber -1 outside 1..2"),
    ("spn 1\nfibers 0\npath 1: f1\n", "{name}:3: fiber 1 outside 1..0"),
    ("spn 1\nfibers 12\npath 1: f1_0 f+3 f04 f99\n", "{name}:3: fiber 99 outside 1..12"),
    ("spn 1\nfibers 2\npath 1: f1 f1\n", "{name}:3: duplicate fiber f1 on path 1"),
    ("spn 1\nfibers 2\npath 7: f2 f02\n", "{name}:3: duplicate fiber f2 on path 7"),
    ("spn 1\nfibers 4\npath 1: f+3 f3\n", "{name}:3: duplicate fiber f3 on path 1"),
    ("spn 1\nfibers 12\npath 1: f10 f1_0\n", "{name}:3: duplicate fiber f10 on path 1"),
    # path ids
    ("spn 1\nfibers 2\npath 1: f1\npath 1: f2\n", "{name}: path ids must be exactly 1..2 with no duplicates"),
    ("spn 1\nfibers 2\npath 2: f1\n", "{name}: path ids must be exactly 1..1 with no duplicates"),
    ("spn 1\nfibers 2\npath 0: f1\n", "{name}: path ids must be exactly 1..1 with no duplicates"),
    ("spn 1\nfibers 2\npath -1: f1\npath 1: f2\n", "{name}: path ids must be exactly 1..2 with no duplicates"),
    ("spn 1\nfibers 2\npath 1: f1\npath 3: f2\n", "{name}: path ids must be exactly 1..2 with no duplicates"),
    # declared caps against the paths
    ("spn 1\nfibers 1\nw 1\npath 1: f1\npath 2: f1\n", "{name}: 2 paths exceeds the w*m bound 1 implied by the declared load cap"),
    ("spn 1\nfibers 2\nk 1\npath 1: f1\npath 2: f1 f2\n", "{name}: path 2 uses 2 fibers, above the declared cap k=1"),
    ("spn 1\nfibers 3\nk 1\npath 2: f1 f3\npath 1: f1 f2\n", "{name}: path 1 uses 2 fibers, above the declared cap k=1"),
    ("spn 1\nfibers 2\nw 1\npath 1: f2\npath 2: f1 f2\n", "{name}: fiber 2 carries 2 paths, above the declared load cap w=1"),
    ("spn 1\nfibers 3\nw 1\nk 1\npath 1: f1 f2\npath 2: f2\n", "{name}: path 1 uses 2 fibers, above the declared cap k=1"),
    # line numbers: CRLF, form feeds and other splitlines() breaks inside a
    # line, blank and comment lines in the middle, no final newline
    ("spn 1\r\nfibers 2\r\n\r\npath 1: f1\r\npath 2: f3\r\n", "{name}:5: fiber 3 outside 1..2"),
    ("spn 1\rfibers 3\r\rpath 1: f1\rpath 2: f4\r", "{name}:5: fiber 4 outside 1..3"),
    ("spn 1\nfibers 2\npath 1: f1\x0cf2\npath 2: f1 x\n", "{name}:4: expected fiber token like 'f3', got 'x'"),
    ("spn 1\nfibers 2\npath 1\x0c: f1\npath 2:\x1ef2\x1d\x1cf9\n", "{name}:4: fiber 9 outside 1..2"),
    ("spn 1\nfibers\x0b3\npath 1: f1\x85f2\npath 2 f3\n", "{name}:4: expected 'path <id>: f...' line, got 'path 2 f3'"),
    ("spn 1\nfibers 2\npath 1: f1 f2\x0c\npath 2: f1\x0cf1\n", "{name}:4: duplicate fiber f1 on path 2"),
    ("spn 1\nfibers 3\npath 1: f1\n\n# a comment\n   # indented\npath 2: f2 f2\n", "{name}:7: duplicate fiber f2 on path 2"),
    ("#c\n\nspn 1\n#c\nfibers 3\n\nw 2\n#c\nk 2\n\npath 1: f1 f2 f3", "{name}: path 1 uses 3 fibers, above the declared cap k=2"),
    ("spn 1\nfibers 3\npath 1: f1\npath 2: f4", "{name}:4: fiber 4 outside 1..3"),
    ("spn 1\nfibers 3\npath 1: f1\npath 2 f4", "{name}:4: expected 'path <id>: f...' line, got 'path 2 f4'"),
    ("spn 1\nfibers 3\n\tpath 1:  f1\t f1 \n", "{name}:3: duplicate fiber f1 on path 1"),
]

# Inputs with unusual but valid tokens: the parse succeeds, with these paths.
SPN_ACCEPTED = [
    ("spn 1\nfibers 12\npath 1: f1_0 f+3 f04\n", 12, [{3, 4, 10}]),
    ("spn 1\nfibers 3\npath 01: f01\npath +2: f٣\n", 3, [{1}, {3}]),
    ("spn 01\nfibers 2\nw 0_1\nk +2\npath 1: f1\npath 2: f2\n", 2, [{1}, {2}]),
    ("spn 1\r\nfibers 2\r\npath 2: f2\r\npath 1:\r\n", 2, [set(), {2}]),
    ("spn 1\rfibers 2\rpath 1: f1\rpath 2: f2\n", 2, [{1}, {2}]),
    ("spn 1\nfibers 3\npath 1: f1\x0cf3\x1ef2\npath 2:f2", 3, [{1, 2, 3}, {2}]),
    ("spn 1\nfibers 0\n", 0, []),
]


# ---------------------------------------------------------------------------
# .lnet
# ---------------------------------------------------------------------------

LNET_ERRORS = [
    # header
    ("", "{name}: unexpected end of file, expected 'lnet <version>' header"),
    ("# c\n\n", "{name}: unexpected end of file, expected 'lnet <version>' header"),
    ("pnodes s t\n", "{name}:1: expected 'lnet 1' header, got 'pnodes s t'"),
    ("lnet\n", "{name}:1: expected 'lnet 1' header, got 'lnet'"),
    ("lnet 1 directed extra\n", "{name}:1: expected 'lnet 1' header, got 'lnet 1 directed extra'"),
    ("lnet x\n", "{name}:1: expected an integer version, got 'x'"),
    ("lnet ²\n", "{name}:1: expected an integer version, got '²'"),
    ("lnet 2\n", "{name}:1: unsupported lnet version 2"),
    ("lnet 1 sideways\npnodes s t\n", "{name}:1: unknown header flag 'sideways'"),
    (
        "lnet 1  # 'lnet 1 directed' for a directed logical layer\n",
        "{name}:1: expected 'lnet 1' header, got \"lnet 1  # 'lnet 1 directed' for a directed logical layer\"",
    ),
    ("lnet 1 #\n", "{name}:1: unknown header flag '#'"),
    # pnodes / pfibers
    ("lnet 1\n", "{name}: unexpected end of file, expected 'pnodes ...' line"),
    ("lnet 1\nlnodes s t\n", "{name}:2: expected 'pnodes <names...>', got 'lnodes s t'"),
    ("lnet 1\npnodes\n", "{name}:2: expected 'pnodes <names...>', got 'pnodes'"),
    ("lnet 1\npnodes s t\n", "{name}: unexpected end of file, expected 'pfibers' line"),
    ("lnet 1\npnodes s t\npfibers 1\n", "{name}:3: expected 'pfibers' section, got 'pfibers 1'"),
    ("lnet 1\npnodes s t\n1 s t\n", "{name}:3: expected 'pfibers' section, got '1 s t'"),
    # fiber lines
    ("lnet 1\npnodes s t\npfibers\n1 s\n", "{name}:4: expected '<id> <u> <v>' fiber line, got '1 s'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t x\n", "{name}:4: expected '<id> <u> <v>' fiber line, got '1 s t x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t: 1\n", "{name}:4: expected '<id> <u> <v>' fiber line, got '1 s t: 1'"),
    ("lnet 1\npnodes s t\npfibers\n² s t\n", "{name}:4: expected an integer fiber id, got '²'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n²\n", "{name}:5: expected '<id> <u> <v>' fiber line, got '²'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n² s t\n3 s\n", "{name}:5: expected an integer fiber id, got '²'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n3 s\n² s t\n", "{name}:5: expected '<id> <u> <v>' fiber line, got '3 s'"),
    ("lnet 1\npnodes s t\npfibers\n2 s t\n", "{name}: fiber ids must be exactly 1..1"),
    ("lnet 1\npnodes s t\npfibers\n0 s t\n", "{name}: fiber ids must be exactly 1..1"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n1 t s\n", "{name}: fiber ids must be exactly 1..2"),
    ("lnet 1\npnodes s t\npfibers\n01 s t\n002 t s\n4 s t\n", "{name}: fiber ids must be exactly 1..3"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n", "{name}: unexpected end of file, expected 'lnodes ...' line"),
    # tokens that are not all digits end the fiber section
    ("lnet 1\npnodes s t\npfibers\n1 s t\n1_0 s t\n", "{name}:5: expected 'lnodes <names...>', got '1_0 s t'"),
    ("lnet 1\npnodes s t\npfibers\n+3 s t\n", "{name}:4: expected 'lnodes <names...>', got '+3 s t'"),
    ("lnet 1\npnodes s t\npfibers\n-1 s t\n", "{name}:4: expected 'lnodes <names...>', got '-1 s t'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes\n", "{name}:5: expected 'lnodes <names...>', got 'lnodes'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\n", "{name}: unexpected end of file, expected 'llinks' line"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks x\n", "{name}:6: expected 'llinks' section, got 'llinks x'"),
    # link lines
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t 1\n", "{name}:7: expected '<id> <u> <v>: <fibers...>', got '1 s t 1'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s: 1\n", "{name}:7: expected '<id> <u> <v>: <fibers...>', got '1 s: 1'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t x: 1\n", "{name}:7: expected '<id> <u> <v>: <fibers...>', got '1 s t x: 1'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: x\n", "{name}:7: expected an integer fiber id, got 'x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: f1\n", "{name}:7: expected an integer fiber id, got 'f1'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1 ²\n", "{name}:7: expected an integer fiber id, got '²'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1: 1\n", "{name}:7: expected an integer fiber id, got '1:'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t:\n", "{name}:7: logical link has an empty routing"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t:  # none\n", "{name}:7: expected an integer fiber id, got '#'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n² s t: 1\n", "{name}:7: expected an integer link id, got '²'"),
    # the route is read before the link id
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n² s t: x\n", "{name}:7: expected an integer fiber id, got 'x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n² s t:\n", "{name}:7: logical link has an empty routing"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n2 s t: 1\n", "{name}: link ids must be exactly 1..1"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n1 t s: 1\n", "{name}: link ids must be exactly 1..2"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n", "{name}: unexpected end of file, expected 'st <source> <sink>' line"),
    # st line and trailing content
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n1_0 s t: 1\n", "{name}:8: expected 'st <source> <sink>', got '1_0 s t: 1'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s\n", "{name}:8: expected 'st <source> <sink>', got 'st s'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t x\n", "{name}:8: expected 'st <source> <sink>', got 'st s t x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t\nextra\n", "{name}:9: unexpected trailing content 'extra'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t\nst s t\n", "{name}:9: unexpected trailing content 'st s t'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t\n2 s t: 1\n", "{name}:9: unexpected trailing content '2 s t: 1'"),
    # an earlier error wins over a later one in the same section
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1 x\n2 s t\n", "{name}:7: expected an integer fiber id, got 'x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t\n2 s t: x\n", "{name}:7: expected '<id> <u> <v>: <fibers...>', got '1 s t'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n² s t: 1\n3 s t:\n", "{name}:8: expected an integer link id, got '²'"),
    # line numbers: CRLF, form feeds and splitlines() breaks inside a line,
    # blank and comment lines in a section, no final newline
    ("lnet 1\r\npnodes s t\r\npfibers\r\n1 s t\r\n\r\n2 s\r\n", "{name}:6: expected '<id> <u> <v>' fiber line, got '2 s'"),
    ("lnet 1\npnodes s\x0ct\npfibers\n1 s\x0ct\n2 s\x1ct x\n", "{name}:5: expected '<id> <u> <v>' fiber line, got '2 s\\x1ct x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n# c\n\n  # c\n2 s\n", "{name}:8: expected '<id> <u> <v>' fiber line, got '2 s'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\x0c1\n\n# c\n2 s t: 1\x85x\n", "{name}:10: expected an integer fiber id, got 'x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s t\nmore", "{name}:9: unexpected trailing content 'more'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s", "{name}:8: expected 'st <source> <sink>', got 'st s'"),
    # topology errors reached through read_lnet (no file prefix)
    ("lnet 1\npnodes s s\npfibers\n1 s s\nlnodes s t\nllinks\n1 s t: 1\nst s t\n", "duplicate physical node name"),
    ("lnet 1\npnodes s t\npfibers\n1 s x\nlnodes s t\nllinks\n1 s t: 1\nst s t\n", "fiber 1 references unknown node 's' or 'x'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\n2 t t\nlnodes s t\nllinks\n1 s t: 1\nst s t\n", "fiber 2 is a self-loop at 't'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t s\nllinks\n1 s t: 1\nst s t\n", "duplicate logical node name"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s q: 1\nst s t\n", "logical link 1 references unknown node 's' or 'q'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\n2 t t: 1\nst s t\n", "logical link 2 is a self-loop at 't'"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s q\n", "source/sink must be logical nodes"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 1\nst s s\n", "source and sink must differ"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t u\nllinks\n1 s u: 1\nst s t\n", "logical link 1 endpoints 's','u' are not physical nodes"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 2\nst s t\n", "logical link 1 routed over unknown fiber 2"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: 0\nst s t\n", "logical link 1 routed over unknown fiber 0"),
    ("lnet 1\npnodes s t\npfibers\n1 s t\nlnodes s t\nllinks\n1 s t: -1\nst s t\n", "logical link 1 routed over unknown fiber -1"),
    ("lnet 1\npnodes s x t\npfibers\n1 s x\n2 x t\nlnodes s t\nllinks\n1 s t: 2 1\nst s t\n", "logical link 1: fiber 2 does not touch node 's', routing is not a connected walk"),
    ("lnet 1\npnodes s x t\npfibers\n1 s x\n2 x t\nlnodes s t\nllinks\n1 s t: 1\nst s t\n", "logical link 1: routing ends at 'x', expected 't'"),
    ("lnet 1 directed\npnodes s x t\npfibers\n1 s x\n2 x t\nlnodes s t\nllinks\n1 t s: 1 2\nst s t\n", "logical link 1: fiber 1 does not touch node 't', routing is not a connected walk"),
]

# Unusual but valid inputs: (text, fiber count, routes, directed).
TEN_FIBERS = "".join(f"{i} s#1 t\n" for i in range(1, 11))
LNET_ACCEPTED = [
    ("lnet 01\npnodes s t\npfibers\n01 s t\nlnodes s t\nllinks\n001 s t: +1\nst s t\n", 1, [(1,)], False),
    (
        "lnet 1\tdirected\npnodes s#1 t\npfibers\n" + TEN_FIBERS
        + "lnodes s#1 t\nllinks\n1 s#1 t: 1_0\nst s#1 t",
        10,
        [(10,)],
        True,
    ),
    (
        "lnet 1\r\npnodes s x t\r\npfibers\r\n2 x t\r\n1 s x\r\nlnodes s t\r\n"
        "llinks\r\n1 s t: 1\x0c2\r\nst s t\r\n",
        2,
        [(1, 2)],
        False,
    ),
    (
        "lnet 1\rpnodes s x t\rpfibers\r2 x t\r\n1 s x\rlnodes s t\r"
        "llinks\r1 s t: 1 2\rst s t\r",
        2,
        [(1, 2)],
        False,
    ),
]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus")


def _sources(text: str, workdir, suffix: str):
    """Yield (source, name): a stream, then a file holding ``text`` byte for byte."""
    yield io.StringIO(text), f"<{suffix}>"
    target = workdir / f"case.{suffix}"
    target.write_bytes(text.encode("utf-8"))
    yield str(target), target.name


def _check_message(reader, text: str, expected: str, workdir, suffix: str) -> None:
    for source, name in _sources(text, workdir, suffix):
        with pytest.raises(ValidationError) as info:
            reader(source)
        assert str(info.value) == expected.replace("{name}", name)


@pytest.mark.parametrize("text, expected", SPN_ERRORS)
def test_spn_error_message(text, expected, workdir):
    _check_message(read_spn, text, expected, workdir, "spn")


@pytest.mark.parametrize("text, expected", LNET_ERRORS)
def test_lnet_error_message(text, expected, workdir):
    _check_message(read_lnet, text, expected, workdir, "lnet")


@pytest.mark.parametrize("text, fibers, paths", SPN_ACCEPTED)
def test_spn_unusual_tokens_accepted(text, fibers, paths, workdir):
    for source, _ in _sources(text, workdir, "spn"):
        inst = read_spn(source)
        assert inst.num_fibers == fibers
        assert [set(p.fibers_used) for p in inst.catalog.paths] == paths
        assert [p.used_mask for p in inst.catalog.paths] == [
            sum(1 << (f - 1) for f in s) for s in paths
        ]


@pytest.mark.parametrize("text, fibers, routes, directed", LNET_ACCEPTED)
def test_lnet_unusual_tokens_accepted(text, fibers, routes, directed, workdir):
    for source, _ in _sources(text, workdir, "lnet"):
        net = read_lnet(source)
        assert net.num_fibers == fibers
        assert list(net.routing.routes) == routes
        assert net.logical.directed is directed


# A few corpus files through the command line, in process and in a fresh
# interpreter: the message reaches stderr unchanged, and the exit code is 64.
def _case(cases, expected: str):
    (case,) = [c for c in cases if c[1] == expected]
    return case


CLI_CASES = [
    ("spn", _case(SPN_ERRORS, "{name}:5: fiber 3 outside 1..2")),
    ("spn", _case(SPN_ERRORS, "{name}:4: duplicate fiber f1 on path 2")),
    ("spn", _case(SPN_ERRORS, "{name}: 2 paths exceeds the w*m bound 1 implied by the declared load cap")),
    ("lnet", _case(LNET_ERRORS, "{name}:4: expected an integer fiber id, got '²'")),
    ("lnet", _case(LNET_ERRORS, "{name}: link ids must be exactly 1..2")),
    ("lnet", _case(LNET_ERRORS, "logical link 1: routing ends at 'x', expected 't'")),
]


@pytest.mark.parametrize("suffix, case", CLI_CASES)
def test_solve_reports_the_parse_error(suffix, case, tmp_path, capsys):
    text, expected = case
    target = tmp_path / f"case.{suffix}"
    target.write_bytes(text.encode("utf-8"))
    code = main(["solve", "mfsp", "--alg", "exact", "--in", str(target)])
    out, err = capsys.readouterr()
    assert (code, out) == (64, "")
    assert err == "survpath solve: error: " + expected.replace("{name}", target.name) + "\n"


def test_solve_reports_the_parse_error_in_a_fresh_interpreter(tmp_path):
    for suffix, (text, expected) in (CLI_CASES[0], CLI_CASES[3]):
        target = tmp_path / f"case.{suffix}"
        target.write_bytes(text.encode("utf-8"))
        proc = subprocess.run(
            [sys.executable, "-m", "survpath", "solve", "msp", "--alg", "greedy", "--in", str(target)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr == (
            "survpath solve: error: " + expected.replace("{name}", target.name) + "\n"
        )
