"""``glued_chain_complex`` checks every boundary word of a ``GluedComplex``.

The words are built by ``build_reduced``, not read from input, so a word
that is empty or does not close up is an ``InternalError`` (exit 4), not a
parse error."""

import pytest

from graphconf.errors import InternalError
from graphconf.nerve import SemiSimplicialSet
from graphconf.reduced import GluedComplex, glued_chain_complex


def two_cell(word):
    return GluedComplex(
        vertices=["p", "q"],
        edges=[("a", "p", "q"), ("b", "q", "p"), ("c", "p", "p")],
        faces2=[("f", [("c", 1)]), ("g", word)],
        complex=SemiSimplicialSet([["p", "q"]], [[]]),
        model=None,
        kept=[],
    )


def test_closed_words_pass():
    glued_chain_complex(two_cell([("a", 1), ("b", 1)]))
    glued_chain_complex(two_cell([("c", 1), ("a", 1), ("b", 1)]))
    glued_chain_complex(two_cell([("b", -1), ("a", -1)]))


@pytest.mark.parametrize(
    "word, message",
    [
        ([], "empty boundary word"),
        ([("a", 1)], "not a closed walk"),
        ([("a", 1), ("b", -1)], "not a closed walk"),
        ([("a", 1), ("c", 1), ("b", 1)], "not a closed walk"),
    ],
    ids=["empty", "open-edge", "wrong-sign", "loop-off-the-path"],
)
def test_bad_word_is_an_internal_error(word, message):
    with pytest.raises(InternalError, match=message):
        glued_chain_complex(two_cell(word))
