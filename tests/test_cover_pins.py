"""Every cover count, pinned by one digest.

The line and plane annulus covers and the square covers of the box
products, counted on the construction-pin instances and at the extreme
deltas 1/2, 1/4 and 0.5 - 1e-13.  A change to how the covers are walked
must keep this digest; one that means to move a count re-pins it and says
why.
"""

import hashlib

from diophlab.approx_sets import product_set_cover_cost
from diophlab.planar import cover_rectangles, decompose_planar_product_set

from test_construction_pins import _instances

PINNED_COVER_DIGEST = ("d63ea6d3916ed3030821857783f00578"
                       "6b97691a735e6441ef08552d101ccf05")
EXTRA_DELTAS = (0.5, 0.25, 0.5 - 1e-13)


def cover_digest() -> str:
    h = hashlib.sha256()
    for i, (p, delta, eta, xi) in enumerate(_instances()):
        h.update(repr((p, delta, eta, xi)).encode())
        h.update(repr(product_set_cover_cost(p, delta)).encode())
        h.update(repr(cover_rectangles(p, eta, xi, 0.5)).encode())
        # the plane's b-factors walk every b-window, so half the instances
        if i % 2 == 0:
            h.update(repr(decompose_planar_product_set(p, delta)).encode())
        if i % 4 == 0:
            for d in EXTRA_DELTAS:
                h.update(repr((product_set_cover_cost(p, d),
                               decompose_planar_product_set(p, d))).encode())
    return h.hexdigest()


def test_cover_counts_are_pinned():
    assert cover_digest() == PINNED_COVER_DIGEST
