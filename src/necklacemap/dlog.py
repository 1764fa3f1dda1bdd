"""Discrete logs of word residues and their rotation/offset split.

In each quotient field the log of a nonzero residue splits as
log = turns * x_exponent + offset.  Rotating the word by one place
multiplies every residue by x_class = generator**x_exponent, so it adds
x_exponent to the log: `turns` advances by one (mod rotation_order) while
`offset` never moves; offset is the rotation-invariant part.  This shift
law holds on every support (zero residues stay zero), and rotate_profile
applies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import CosetTable, crt_split
from .fields import QuotientFieldCtx


@dataclass(frozen=True)
class DlogEntry:
    turns: int
    offset: int


@dataclass(frozen=True, eq=True)
class ResidueProfile:
    """Support pattern plus the split logs of all nonzero residues."""

    support: tuple[tuple[int, ...], ...]
    entries: dict

    def entry(self, i: int, j: int) -> DlogEntry:
        return self.entries[(i, j)]


def split_log(qctx: QuotientFieldCtx, log: int) -> tuple[int, int]:
    """(turns, offset) with log = turns * x_exponent + offset."""
    if not 0 <= log < max(qctx.group_order, 1):
        raise ValueError(f"log {log} outside [0, {qctx.group_order})")
    return divmod(log, qctx.x_exponent)


def profile(tables: CosetTable, word) -> ResidueProfile:
    """Support and split discrete logs for one word."""
    residues = crt_split(tables, word)
    support = []
    entries = {}
    for i, (block, group) in enumerate(zip(tables.blocks, residues)):
        live = []
        for j, (qctx, residue) in enumerate(zip(block.quotients, group)):
            if residue == qctx.field.zero:
                continue
            live.append(j)
            turns, offset = split_log(qctx, qctx.dlog(residue))
            entries[(i, j)] = DlogEntry(turns=turns, offset=offset)
        support.append(tuple(live))
    return ResidueProfile(support=tuple(support), entries=entries)


def split_support(tables: CosetTable, word) -> tuple[tuple[int, ...], ...]:
    """The support of profile(tables, word), with no log: the zero pattern of crt_split's
    digit bytes, which quotients hold a nonzero F_p digit (SplitTable.support), with no
    residue tuple built.  A factor with no table compares its divided residues with zero."""
    word = tables.check_word(word)
    return tuple(block.split.support(word) for block in tables.blocks)


def rotate_profile(tables: CosetTable, prof: ResidueProfile, k: int) -> ResidueProfile:
    """Profile of the word shifted by k places, from the word's own profile.

    Equals profile(tables, shift(word, k)) by the shift law, without
    splitting the shifted word again or taking any discrete log.
    """
    entries = {}
    for (i, j), entry in prof.entries.items():
        qctx = tables.blocks[i].quotients[j]
        turns = (entry.turns + k) % qctx.rotation_order
        entries[(i, j)] = DlogEntry(turns=turns, offset=entry.offset)
    return ResidueProfile(support=prof.support, entries=entries)
