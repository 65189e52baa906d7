import random
from fractions import Fraction

import pytest

from cxlab import randgen
from cxlab.trees import EXACT, FLOAT, TreeDomain

from helpers import random_increasing_fraction, random_superadditive_fraction


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_random_weight_draws_quarters(mode):
    nodes = list(TreeDomain(5).nodes())
    for seed in range(51):
        w = randgen.random_quarter_weight(random.Random(seed), nodes, mode)[0]
        rng = random.Random(seed)
        want = [Fraction(rng.randint(1, 16), 4) for _ in nodes]
        if mode == FLOAT:
            want = [float(v) for v in want]
        assert [(n, type(v), v) for n, v in w.items()] == \
            [(n, type(v), v) for n, v in zip(nodes, want)]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("levels", [1, 4, 8, 12])
@pytest.mark.parametrize("gen, oracle", [
    (randgen.random_superadditive, random_superadditive_fraction),
    (randgen.random_increasing, random_increasing_fraction),
])
def test_int_numerator_generators_match_fraction_oracles(gen, oracle, levels, mode):
    d = TreeDomain(levels)
    for seed in range(500):
        rng, rng_oracle = random.Random(seed), random.Random(seed)
        got, want = gen(rng, d, mode=mode), oracle(rng_oracle, d, mode=mode)
        assert [(n, type(v), v) for n, v in got.items()] == \
            [(n, type(v), v) for n, v in want.items()]
        # the same draws, in the same order
        assert rng.getstate() == rng_oracle.getstate()
