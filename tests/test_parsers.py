"""Every text parser refuses malformed text with InputError and nothing else."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnkit.burning import read_schedule
from burnkit.errors import InputError
from burnkit.graph import read_graph, read_intervals
from burnkit.partition import read_instance
from burnkit.permutation_reduction import read_permutation

PARSERS = [read_graph, read_schedule, read_instance, read_permutation,
           read_intervals]

# numeric tokens stay under five characters, so no graph header asks for
# the 10,000+ vertices whose allocation would slow the run down; the size
# cap has its own test in test_cli.py
tokens = st.one_of(
    st.integers(-3, 40).map(str),
    st.text(alphabet="0123456789-+_.ex٣", min_size=1, max_size=4),
)
texts = st.one_of(
    st.lists(st.lists(tokens, max_size=4).map(" ".join), max_size=6)
    .map("\n".join),
    st.text(alphabet=st.characters(blacklist_categories=("Nd",)),
            max_size=30),
)


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None)
@given(text=texts)
def test_parsers_raise_only_input_error(parse, text):
    try:
        parse(text)
    except InputError:
        pass
