import itertools
import json
import random
from fractions import Fraction

import pytest

from cxlab import experiments, randgen
from cxlab.hardy import PointMeasure, rectangle_mass_fn
from cxlab.lemmas import build_phi
from cxlab.structure import special_form_g
from cxlab.trees import EXACT, FLOAT, BiNode, NodeAddress, SparseFn, TreeDomain

import helpers
from helpers import (
    STDLIB_RANDGEN,
    below_stdlib,
    random_increasing_fraction,
    random_superadditive_fraction,
    rectangle_mass_fn_binode,
    special_form_g_fraction,
    tree_nodes_bfs,
)


def _entries(x):
    """A generator's output with the type of every value."""
    if isinstance(x, (SparseFn, dict)):
        return [(n, type(v), v) for n, v in x.items()]
    if isinstance(x, PointMeasure):
        return [(n, type(v), v) for n, v in x.atoms]
    return type(x), x


def test_below_is_randrange():
    """_below draws as CPython's Random._randbelow: a change to that shows
    here first."""
    for n in range(1, 71):
        rng, ref = random.Random(n), random.Random(n)
        assert [randgen._below(rng.getrandbits, n) for _ in range(50)] == \
            [ref.randrange(n) for _ in range(50)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_below_an_empty_range_raises(n):
    with pytest.raises(ValueError, match="empty range"):
        randgen._below(random.Random(0).getrandbits, n)


@pytest.mark.parametrize("name, args", [
    ("dyadic", (16, 5, 4)),
    ("random_sparse", (TreeDomain(3), 0)),
    ("random_point_measure", (0, 3)),
    ("random_point_measure", (3, 3, 0)),
])
def test_an_empty_range_raises_as_the_stdlib_does(name, args):
    """Where a stdlib draw raises ValueError on an empty range, the
    generator raises it too, rather than drawing forever."""
    with pytest.raises(ValueError):
        STDLIB_RANDGEN[name](random.Random(0), *args)
    with pytest.raises(ValueError, match="empty range"):
        getattr(randgen, name)(random.Random(0), *args)


@pytest.mark.parametrize("n", [0, 1, 7, 30])
def test_random_bits_are_choices(n):
    rng, ref = random.Random(n), random.Random(n)
    assert randgen._random_bits(rng.getrandbits, n) == "".join(ref.choice("01") for _ in range(n))
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("count", [0, 1, 255, 4095])
def test_quarter_numerators_are_randints(count):
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert randgen.random_quarters(rng, count) == [ref.randint(1, 16) for _ in range(count)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_random_weight_draws_quarters(mode):
    """The phi trial's w is the stdlib weight on every node, kept on supp g
    in g's order and then on the rest of supp f."""
    for levels, seed in [(5, seed) for seed in range(51)] + [(8, 0), (8, 1)]:
        d = TreeDomain(levels)
        w, g, f = experiments._phi_instance(random.Random(seed), d, mode)[:3]
        rng = random.Random(seed)
        random_superadditive_fraction(rng, d, mode=mode)
        w_full = helpers.random_quarter_weight(rng, tree_nodes_bfs(d.levels), mode)[0]
        kept = dict.fromkeys(itertools.chain(g.support(), f.support()))
        assert _entries(w) == [(n, type(w_full.get(n)), w_full.get(n)) for n in kept]


# each generator called at `levels` tree levels, in `mode` where it takes one
CALLS = {
    "dyadic": lambda gen, rng, levels, mode: gen(rng),
    "random_superadditive": lambda gen, rng, levels, mode: gen(rng, TreeDomain(levels),
                                                               mode=mode),
    "random_increasing": lambda gen, rng, levels, mode: gen(rng, TreeDomain(levels), mode=mode),
    "random_sparse": lambda gen, rng, levels, mode: gen(rng, TreeDomain(levels), mode=mode),
    "random_quarters": lambda gen, rng, levels, mode: gen(rng, 2 ** levels - 1),
    "random_point_measure": lambda gen, rng, levels, mode: gen(rng, levels, levels),
    "random_special_form_measure": lambda gen, rng, levels, mode: gen(rng, levels, levels),
}


def test_every_generator_has_an_oracle():
    public = {name for name in vars(randgen) if name.startswith(("random_", "dyadic"))}
    assert public == set(CALLS) == set(STDLIB_RANDGEN)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_generators_match_stdlib_oracles(name, mode):
    """The same entries, value types and order as the stdlib draws, and the
    same generator state after."""
    call, gen, oracle = CALLS[name], getattr(randgen, name), STDLIB_RANDGEN[name]
    for levels in range(1, 11):
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _entries(call(gen, rng, levels, mode)) == \
                _entries(call(oracle, ref, levels, mode)), (levels, seed)
            assert rng.getstate() == ref.getstate()


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


def _measures():
    """Random atomic measures with Fraction and int masses, repeated atoms
    included."""
    rng = random.Random(5)
    for seed in range(40):
        m = helpers.random_point_measure_stdlib(random.Random(seed), 6, 6)
        yield m
        yield PointMeasure.of((n, rng.randint(1, 9)) for n, _ in m.atoms)
        yield PointMeasure.of(m.atoms + m.atoms[:1])
    yield PointMeasure.of([])
    yield PointMeasure.of([(BiNode(NodeAddress("01"), NodeAddress("")), Fraction(1, 3)),
                           (BiNode(NodeAddress("0"), NodeAddress("1")), Fraction(1, 10)),
                           (BiNode(NodeAddress("011"), NodeAddress("1")), Fraction(1, 5))])


def test_rectangle_masses_match_binode_form():
    for m in _measures():
        assert _entries(rectangle_mass_fn(m)) == _entries(rectangle_mass_fn_binode(m))


@pytest.mark.parametrize("p", [2, 2.0, 1.5, Fraction(4, 3), Fraction(5, 4), 3, 2.5])
def test_special_form_matches_fraction_form(p):
    for m in _measures():
        exact = rectangle_mass_fn_binode(m)
        for r in (exact, {q: float(v) for q, v in exact.items()}):
            for beta in dict.fromkeys(n.y for n in r):
                assert _entries(special_form_g(r, beta, p)) == \
                    _entries(special_form_g_fraction(r, beta, p))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
def test_suites_match_stdlib_draws(suite, mode, monkeypatch):
    """Every trial's report, not only the first that a golden prints, is the
    report of the stdlib draws, the BiNode rectangle masses and the Fraction
    special form."""
    def reports():
        return [json.dumps(r.to_dict(), sort_keys=True)
                for r in experiments.run_verify_suite(suite, 100, 8, 11, mode)]

    got = reports()
    for name, oracle in STDLIB_RANDGEN.items():
        monkeypatch.setattr(randgen, name, oracle)
    monkeypatch.setattr(experiments, "_below", below_stdlib)
    monkeypatch.setattr(experiments, "special_form_g", special_form_g_fraction)
    assert got == reports()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("levels", [8, 13])
def test_build_phi_reads_w_only_on_supp_g_and_f(levels, mode):
    """phi and its report are the same with w on every node of d and with w
    restricted to supp g and supp f, at 8 and 13 levels: on the trial's
    instances, and on instances whose f is 1/2 on a whole sublevel set
    {I(wg) <= delta}, where phi is nonzero."""
    d = TreeDomain(levels)
    nodes = tree_nodes_bfs(d.levels)
    nonzero = shrunk = 0
    for seed in range(30 if levels == 8 else 6):
        w, g, f, lam, delta = helpers.phi_instance_dict(random.Random(seed), d, mode)
        iwg = helpers.hardy_up_scalars(w.mul(g), nodes)
        half = sorted(iwg.values())[len(nodes) // 4]
        f_half = SparseFn({n: Fraction(1, 2) for n, v in iwg.items() if v <= half}, mode)
        for f, lam, delta in ((f, lam, delta), (f_half, 4 * half, half)):
            w_kept = SparseFn(
                {n: w.get(n) for n in itertools.chain(g.support(), f.support())}, mode)
            assert len(w) == len(nodes)
            shrunk += len(w_kept) < len(nodes)
            phi, report = build_phi(w, g, f, lam, delta, d, seed=seed)
            phi_kept, report_kept = build_phi(w_kept, g, f, lam, delta, d, seed=seed)
            assert _entries(phi_kept) == _entries(phi)
            assert report_kept.to_dict() == report.to_dict()
            nonzero += bool(phi)
    assert nonzero > 0 and shrunk > 0
