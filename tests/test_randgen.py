import random
from fractions import Fraction

import pytest

from cxlab import randgen
from cxlab.trees import EXACT, FLOAT, TreeDomain


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_random_weight_draws_quarters(mode):
    nodes = list(TreeDomain(5).nodes())
    for seed in range(51):
        w = randgen.random_weight(random.Random(seed), nodes, mode)
        rng = random.Random(seed)
        want = [Fraction(rng.randint(1, 16), 4) for _ in nodes]
        if mode == FLOAT:
            want = [float(v) for v in want]
        assert [(n, type(v), v) for n, v in w.items()] == \
            [(n, type(v), v) for n, v in zip(nodes, want)]
