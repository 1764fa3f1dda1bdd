"""Reference forward map: encode every distinct rotation and keep the one
with weighted sum 0.

This is the direct reading of the definition, n encodings per word.  The
library's map_necklace solves for the rotation instead; tests compare the
two.
"""

from necklacemap.bijection import encode_word, weighted_sum
from necklacemap.decomposition import CosetTable, shift
from necklacemap.errors import UniquenessViolationError


def map_necklace_by_trial(tables: CosetTable, word) -> tuple[int, ...]:
    """Image of the necklace through the unique zero-sum rotation.

    Exactly one distinct rotation must pass the weighted-sum test; any
    other count raises UniquenessViolationError.
    """
    word = tables.check_word(word)
    n = tables.params.n
    seen = set()
    hits = []
    for k in range(n):
        rotated = shift(word, k)
        if rotated in seen:
            continue
        seen.add(rotated)
        image = encode_word(tables, rotated)
        if weighted_sum(n, image) == 0:
            hits.append(image)
    if len(hits) != 1:
        raise UniquenessViolationError(
            f"{len(hits)} rotations passed the weighted-sum test; expected exactly 1"
        )
    return hits[0]
