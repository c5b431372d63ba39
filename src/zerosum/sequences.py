"""Multisets over a group: the free abelian monoid of sequences.

A sequence is an unordered multiset of group elements with concatenation as
the monoid operation.  Multiplicities are stored sparsely, since the extremal
objects here have tiny support but large multiplicities.  A fixed total order
on elements ((eps, a) lexicographic) keeps counts sorted, so equality and
hashing are exact, enumeration is deterministic and output reproducible.

Sequence file format (UTF-8 text, one sequence per file)::

    group metacyclic n=15 s=11
    seq y^1 * 29, y^2 * 14, x*y^7 * 1

Grammar: ``seq <term> (, <term>)*`` with ``<term> := <element> '*' <mult>``,
whitespace-insensitive, multiplicities >= 1.  Parse errors carry line/column.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .groups import (
    Element,
    GroupSpec,
    format_element,
    format_group,
    parse_element,
    parse_group,
)


class NotASubsequence(ValueError):
    def __init__(self, element: Element):
        super().__init__(f"not a subsequence: too many copies of {format_element(element)}")
        self.element = element


class SequenceParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Sequence:
    """An immutable multiset of group elements; operations return new values."""

    group: GroupSpec
    counts: tuple[tuple[Element, int], ...]  # sorted by element, multiplicities >= 1

    def __post_init__(self):
        prev = None
        for el, m in self.counts:
            self.group.check(el)
            if m < 1:
                raise ValueError(f"multiplicity {m} < 1 for {format_element(el)}")
            if prev is not None and el <= prev:
                raise ValueError("counts must be strictly sorted by element")
            prev = el

    # -- construction

    @classmethod
    def from_counts(cls, group: GroupSpec, counts: Mapping[Element, int] | Iterable[tuple[Element, int]]) -> "Sequence":
        merged: dict[Element, int] = {}
        items = counts.items() if isinstance(counts, Mapping) else counts
        for el, m in items:
            if m:
                merged[el] = merged.get(el, 0) + m
        return cls(group, tuple(sorted(merged.items())))

    @classmethod
    def from_terms(cls, group: GroupSpec, terms: Iterable[Element]) -> "Sequence":
        merged: dict[Element, int] = {}
        for el in terms:
            merged[el] = merged.get(el, 0) + 1
        return cls(group, tuple(sorted(merged.items())))

    @classmethod
    def empty(cls, group: GroupSpec) -> "Sequence":
        return cls(group, ())

    # -- basic views

    @functools.cached_property
    def length(self) -> int:
        return sum(m for _, m in self.counts)

    def __len__(self) -> int:
        return self.length

    @property
    def support(self) -> tuple[Element, ...]:
        return tuple(el for el, _ in self.counts)

    @functools.cached_property
    def _index(self) -> dict[Element, int]:
        return dict(self.counts)

    def multiplicity(self, el: Element) -> int:
        return self._index.get(el, 0)

    def terms(self) -> Iterator[Element]:
        """All terms with repetition, in canonical order."""
        for el, m in self.counts:
            for _ in range(m):
                yield el

    def __str__(self) -> str:
        return format_sequence(self)

    # -- monoid operations

    def concat(self, other: "Sequence") -> "Sequence":
        if other.group != self.group:
            raise ValueError("cannot concatenate sequences over different groups")
        merged = dict(self.counts)
        for el, m in other.counts:
            merged[el] = merged.get(el, 0) + m
        return Sequence(self.group, tuple(sorted(merged.items())))

    def remove(self, other: "Sequence") -> "Sequence":
        """Delete the terms of `other`; requires other | self."""
        if other.group != self.group:
            raise ValueError("cannot remove a sequence over a different group")
        merged = dict(self.counts)
        for el, m in other.counts:
            have = merged.get(el, 0)
            if m > have:
                raise NotASubsequence(el)
            if m == have:
                del merged[el]
            else:
                merged[el] = have - m
        return Sequence(self.group, tuple(sorted(merged.items())))

    # -- restriction

    def y_part(self) -> "Sequence":
        """Terms from <y> (eps = 0)."""
        return Sequence(self.group, tuple((el, m) for el, m in self.counts if el.eps == 0))

    def x_part(self) -> "Sequence":
        """Terms from the coset x<y> (eps = 1)."""
        return Sequence(self.group, tuple((el, m) for el, m in self.counts if el.eps == 1))


# -- file format ----------------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<elem>1|x\s*\*\s*y\^-?\d+|x|y\^-?\d+)\s*\*\s*(?P<mult>\d+)\s*$"
)


def format_sequence(seq: Sequence) -> str:
    return "seq " + ", ".join(f"{format_element(el)} * {m}" for el, m in seq.counts)


def format_sequence_file(seq: Sequence) -> str:
    return f"group {format_group(seq.group)}\n{format_sequence(seq)}\n"


def parse_sequence_file(text: str) -> Sequence:
    """Parse the two-line format; '#' lines and blank lines are ignored."""
    group: GroupSpec | None = None
    seq: Sequence | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("group"):
            if group is not None:
                raise SequenceParseError("duplicate group line", lineno, 1)
            try:
                group = parse_group(line[len("group"):].strip())
            except Exception as exc:
                raise SequenceParseError(str(exc), lineno, raw.index("group") + 1) from None
        elif line.startswith("seq"):
            if group is None:
                raise SequenceParseError("seq line before group line", lineno, 1)
            if seq is not None:
                raise SequenceParseError("duplicate seq line", lineno, 1)
            seq = _parse_seq_line(raw, group, lineno)
        else:
            raise SequenceParseError(f"unrecognized line {line.split()[0]!r}", lineno, 1)
    if group is None:
        raise SequenceParseError("missing group line", 1, 1)
    if seq is None:
        raise SequenceParseError("missing seq line", 1, 1)
    return seq


def _parse_seq_line(raw: str, group: GroupSpec, lineno: int) -> Sequence:
    body_at = raw.index("seq") + len("seq")
    body = raw[body_at:]
    if not body.strip():
        return Sequence.empty(group)
    counts: dict[Element, int] = {}
    offset = 0
    for chunk in body.split(","):
        col = body_at + offset + 1
        m = _TERM_RE.match(chunk)
        if not m:
            raise SequenceParseError(
                f"bad term {chunk.strip()!r} (expected '<element> * <multiplicity>')",
                lineno,
                col + (len(chunk) - len(chunk.lstrip())),
            )
        try:
            el = parse_element(m.group("elem"), group)
        except Exception as exc:
            raise SequenceParseError(str(exc), lineno, col) from None
        mult = int(m.group("mult"))
        if mult < 1:
            raise SequenceParseError("multiplicity must be >= 1", lineno, col)
        counts[el] = counts.get(el, 0) + mult
        offset += len(chunk) + 1
    return Sequence.from_counts(group, counts)
