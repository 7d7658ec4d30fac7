"""Every bit of the constructions, pinned by one digest.

A refactor that means to keep the arrays as they are must keep this digest.
A change that moves endpoints on purpose re-pins it and says why.  The
instances are drawn from a fixed seed, with b up to 1e5, thresholds
0.5 - 10**-k near the vacuous 1/2 and integer shifts among them.
"""

import hashlib
import math

import numpy as np

from diophlab.approx_sets import (FracParams, cover_simultaneous,
                                  decompose_product_set, product_set,
                                  simultaneous_set)
from diophlab.dimension import estimate_box_dimension
from diophlab.lattice import count_near_pairs
from diophlab.planar import product_rectangle_set
from diophlab.sequences import PsiSpec, SequenceSpec

PINNED_CONSTRUCTION_DIGEST = ("01fdbcf23d3d70e3d4d20a6b06948035"
                              "7a5dcd74a56ad0a6c0d4be580ff65b25")
INSTANCES = 400


def _threshold(rng) -> float:
    if rng.random() < 0.25:
        return 0.5 - 10.0 ** -int(rng.integers(1, 16))
    return float(np.exp(rng.uniform(math.log(1e-4), math.log(0.5))))


def _instances():
    rng = np.random.default_rng(20261020)
    for i in range(INSTANCES):
        integer = i % 3 == 0
        a = float(rng.integers(1, 101)) if integer else float(rng.uniform(1, 100))
        b = float(np.exp(rng.uniform(math.log(a), math.log(1e5))))
        if integer:
            b = float(max(round(b), a))
            c, d = (float(v) for v in rng.integers(-2, 3, size=2))
        else:
            c, d = (float(v) for v in rng.uniform(-2, 2, size=2))
        yield FracParams(a, b, c, d), _threshold(rng), _threshold(rng), _threshold(rng)


def _update(h, *arrays) -> None:
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        h.update(b"|")


def construction_digest() -> str:
    h = hashlib.sha256()
    for p, delta, eta, xi in _instances():
        h.update(repr((p, delta, eta, xi)).encode())
        for s in (product_set(p, delta), simultaneous_set(p, eta, xi)):
            _update(h, s.los, s.his)
        box = product_rectangle_set(p, eta, xi)
        _update(h, box.x_set.los, box.x_set.his, box.y_set.los, box.y_set.his)
        dec = decompose_product_set(p, delta)
        for s in (dec.simultaneous, dec.first_far, dec.second_far, dec.product):
            _update(h, s.los, s.his)
        h.update(repr((cover_simultaneous(p, eta, xi),
                       count_near_pairs(p, eta, xi))).encode())
    seq = SequenceSpec(kind="exponential", a=2, b=3)
    psi = PsiSpec(kind="scaled-base", t=1.0, seq=seq)
    est = estimate_box_dimension(seq, psi, 2, 10, [2.0 ** -k for k in range(3, 13)])
    h.update(repr(est.counts).encode())
    return h.hexdigest()


def test_construction_bits_are_pinned():
    assert construction_digest() == PINNED_CONSTRUCTION_DIGEST
