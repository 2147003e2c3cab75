"""Hypothesis strategies for random constructor trees of families.

Leaves are ``example1`` and ``irreducible`` families over C2, C3 and S3;
nodes are ``restricted``, ``induced``, ``outer`` and ``tensor``.
"""

from fractions import Fraction

from hypothesis import strategies as st

from wreathprob.groups import cyclic_group, symmetric3_group
from wreathprob.wreath import (
    _FIELDS,
    FAMILY_KINDS,
    Example1Family,
    InducedFamily,
    IrreducibleFamily,
    OuterFamily,
    RestrictedFamily,
    TensorFamily,
)

PROPERTY_GROUPS = (cyclic_group(2), cyclic_group(3), symmetric3_group())

# bases with odd free cumulants give irrational c values, so float entries
SHAPES = ((1,), (2,), (1, 1), (2, 1), (3, 1))


def leaves(ct, shaped=False):
    """Leaf families; with shaped, ``irreducible`` leaves draw their base diagrams."""
    k = ct.num_irreps
    # nonnegative integers, not all zero
    counts = st.lists(st.integers(0, 2), min_size=k, max_size=k).map(
        lambda raw: raw if any(raw) else [1] + raw[1:]
    )
    shares = counts.map(lambda raw: [Fraction(w, sum(raw)) for w in raw])
    bases = st.lists(st.sampled_from(SHAPES), min_size=k, max_size=k) if shaped else st.none()
    return st.one_of(
        counts.map(lambda mults: Example1Family(ct, mults)),
        shares.map(lambda weights: Example1Family(ct, weights=weights)),
        st.builds(IrreducibleFamily, st.just(ct), shares, bases),
    )


def one_per_kind(ct):
    """One small family of every kind over ct, on left-regular and uniform leaves."""
    k = ct.num_irreps
    base, uniform = Example1Family(ct), IrreducibleFamily(ct, [Fraction(1, k)] * k)
    return [
        base,
        uniform,
        RestrictedFamily(base, 2),
        InducedFamily(base, Fraction(1, 2)),
        OuterFamily(base, uniform, Fraction(1, 2)),
        TensorFamily(base, uniform),
    ]


def trees(ct, depth, shaped=False):
    """Families at most depth constructor nodes above the leaves."""
    if depth == 0:
        return leaves(ct, shaped)
    return st.one_of(leaves(ct, shaped), nodes(ct, depth, shaped))


def nodes(ct, depth, shaped=False):
    """Trees whose root is a constructor node, depth >= 1."""
    sub = trees(ct, depth - 1, shaped)
    return st.one_of(
        st.builds(RestrictedFamily, sub, st.sampled_from([1, Fraction(3, 2), 2])),
        st.builds(InducedFamily, sub, st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1])),
        st.builds(OuterFamily, sub, sub, st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1])),
        st.builds(TensorFamily, sub, sub),
    )


def box_tensors(ct):
    """Tensors of independent-box families, nested too: each is one itself (``boxes``)."""
    boxes = leaves(ct).filter(lambda fam: fam.kind == "example1")
    inner = boxes | st.builds(TensorFamily, boxes, boxes)
    return st.builds(TensorFamily, inner, inner)


def box_trees(ct):
    """Constructor trees of at most two nodes that are independent-box families (``boxes``)."""
    return nodes(ct, 2).filter(lambda fam: fam.boxes)


def moment_factors(ct):
    """One or two (slot, rows) moment factors, each of one or two rows of length 1-3."""
    rows = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(
        lambda r: tuple(sorted(r, reverse=True))
    )
    return st.lists(st.tuples(st.integers(0, ct.num_irreps - 1), rows), min_size=1, max_size=2)


def descriptors(doc):
    """Every family descriptor in a descriptor tree, the root first."""
    yield doc
    for key in ("parent", "left", "right"):
        if key in doc:
            yield from descriptors(doc[key])


@st.composite
def stray_keys(draw):
    """(descriptor, key): a random tree's descriptor with one unknown key at a random depth.

    Any key but ``kind`` and the fields of the kind it joins is unknown
    there, so another kind's field, such as ``left`` beside an induced
    ``parent``, is drawn too.
    """
    ct = draw(st.sampled_from(PROPERTY_GROUPS))
    doc = draw(trees(ct, 2, shaped=True)).to_json()
    target = draw(st.sampled_from(list(descriptors(doc))))
    known = {"kind", *FAMILY_KINDS[target["kind"]].fields}
    keys = st.sampled_from(sorted(_FIELDS)) | st.text(max_size=8)
    key = draw(keys.filter(lambda key: key not in known))
    family = st.just({"kind": "example1", "group": "cyclic:2"})
    target[key] = draw(st.none() | st.integers() | st.text(max_size=4) | family)
    return doc, key
