from hypothesis import given, settings
from hypothesis import strategies as st

from compasscoh import gf2


# up to 10 masks of up to 12 bits; few bits make zeros and repeats common
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda bits: st.tuples(
    st.just(bits), st.lists(st.integers(0, (1 << bits) - 1), max_size=7), st.integers(0, 3))))
def test_rank_and_span_match_brute_force(case):
    bits, masks, repeats = case
    masks = masks + masks[:repeats]
    span = {0}
    for m in masks:
        span |= {s ^ m for s in span}
    basis = gf2.reduce_basis(masks)
    assert 1 << len(basis) == len(span)
    assert all(v.bit_length() - 1 == top for top, v in basis.items())
    assert {v for v in range(1 << bits) if gf2.in_span(v, basis)} == span
