"""A comparison of long texts that fails fast.

pytest's assertion rewriting diffs two unequal strings in full, which takes
minutes on the tens of thousands of lines of a DIMACS file; a test compares
through ``first_difference`` instead, and a failure names one line.
"""

from itertools import zip_longest


def first_difference(text, expected):
    """The first (line number, line, expected line) where two texts, both
    strings or both bytes, differ, with None for a missing line; None where
    they are equal."""
    if text == expected:
        return None
    pairs = zip_longest(text.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs, 1) if a != b), None)
