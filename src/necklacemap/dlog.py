"""Discrete logs of word residues: one log per supported quotient.

Rotating a word by one place multiplies every residue by
x_class = generator**x_exponent, so it adds x_exponent to each residue's log,
mod group_order (zero residues stay zero).  This shift law holds on every
support.  Only the codec splits a log, as turns * x_exponent + offset: a
rotation advances the turns by one (mod rotation_order) and never moves the
offset, so the map encodes a rotation by k by adding k to the word's turns
(bijection.aligned_turns).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import CosetTable, crt_split


@dataclass(frozen=True, eq=True)
class ResidueProfile:
    """Support pattern plus {(i, j): log} of every nonzero residue, each in [0, group_order)."""

    support: tuple[tuple[int, ...], ...]
    logs: dict


def profile(tables: CosetTable, word) -> ResidueProfile:
    """Support and discrete logs for one word."""
    residues = crt_split(tables, word)
    support = []
    logs = {}
    for i, (block, group) in enumerate(zip(tables.blocks, residues)):
        live = []
        for j, (qctx, residue) in enumerate(zip(block.quotients, group)):
            if residue == qctx.field.zero:
                continue
            live.append(j)
            logs[(i, j)] = qctx.dlog(residue)
        support.append(tuple(live))
    return ResidueProfile(support=tuple(support), logs=logs)


def split_support(tables: CosetTable, word) -> tuple[tuple[int, ...], ...]:
    """The support of profile(tables, word), with no log: the zero pattern of crt_split's
    digit bytes, which quotients hold a nonzero F_p digit (SplitTable.support), with no
    residue tuple built.  A factor with no table compares its divided residues with zero."""
    word = tables.check_word(word)
    return tuple(block.split.support(word) for block in tables.blocks)
