"""Small F2 linear-algebra helpers on int bit masks.  A basis is an echelon
dict ``{leading bit: vector}``: no two vectors share a leading bit."""


def _reduce(mask, basis):
    """``mask`` XORed with the vector at its leading bit while there is one."""
    while mask and (top := mask.bit_length() - 1) in basis:
        mask ^= basis[top]
    return mask


def reduce_basis(masks):
    """Echelon basis of the span of ``masks``; its length is their rank."""
    basis = {}
    for m in masks:
        if m := _reduce(int(m), basis):
            basis[m.bit_length() - 1] = m
    return basis


def in_span(mask, basis):
    """Whether ``mask`` lies in the span of an echelon ``basis``."""
    return _reduce(int(mask), basis) == 0
