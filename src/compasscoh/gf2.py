"""Small F2 linear-algebra helpers on int bit masks."""


def reduce_basis(masks):
    """Row-reduced basis (descending leading bits) of the span of ``masks``."""
    basis = []
    for m in masks:
        m = int(m)
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
    return basis


def in_span(mask, basis):
    """Whether ``mask`` lies in the span of a reduced ``basis``."""
    m = int(mask)
    for b in basis:
        m = min(m, m ^ b)
    return m == 0
