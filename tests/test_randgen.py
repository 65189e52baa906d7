import itertools
import json
import random
from fractions import Fraction

import pytest

from cxlab import experiments, randgen
from cxlab.hardy import rectangle_mass_fn
from cxlab.lemmas import build_phi
from cxlab.structure import special_form_g
from cxlab.lemmas import EXACT, FLOAT
from cxlab.trees import SparseFn, TreeDomain

import helpers
from helpers import (
    STDLIB_RANDGEN,
    below_stdlib,
    fn,
    fraction_masses,
    get,
    items,
    random_increasing_fraction,
    random_superadditive_fraction,
    rectangle_mass_fn_fraction,
    special_form_g_fraction,
    support,
    tree_nodes_bfs,
)


def _entries(x):
    """A generator's output with the type of every value; rectangle masses
    as Fractions, whatever denominator they are kept over."""
    if isinstance(x, SparseFn):
        return [(n, type(v), v) for n, v in items(x)]
    if isinstance(x, tuple):
        x = fraction_masses(x)
    if isinstance(x, dict):
        return [(n, type(v), v) for n, v in x.items()]
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
    ("random_sparse", (TreeDomain(3), 0)),
    ("random_special_form_measure", (0, 3)),
    ("random_special_form_measure", (3, 3, 0)),
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


def test_random_weight_draws_quarters():
    """The phi trial's w is the stdlib weight on every node, kept on supp g
    in g's order and then on the rest of supp f."""
    for levels, seed in [(5, seed) for seed in range(51)] + [(8, 0), (8, 1)]:
        d = TreeDomain(levels)
        w, g, f = experiments._phi_instance(random.Random(seed), d)[:3]
        rng = random.Random(seed)
        random_superadditive_fraction(rng, d)
        w_full = helpers.random_quarter_weight(rng, tree_nodes_bfs(d.levels))[0]
        kept = dict.fromkeys(itertools.chain(support(g), support(f)))
        assert _entries(w) == [(n, type(get(w_full, n)), get(w_full, n)) for n in kept]


# each generator called at `levels` tree levels
CALLS = {
    "random_superadditive": lambda gen, rng, levels: gen(rng, TreeDomain(levels)),
    "random_increasing": lambda gen, rng, levels: gen(rng, TreeDomain(levels)),
    "random_sparse": lambda gen, rng, levels: gen(rng, TreeDomain(levels)),
    "random_quarters": lambda gen, rng, levels: gen(rng, 2 ** levels - 1),
    "random_special_form_measure": lambda gen, rng, levels: gen(rng, levels, levels),
}


def test_every_generator_has_an_oracle():
    public = {name for name in vars(randgen) if name.startswith("random_")}
    assert public == set(CALLS) == set(STDLIB_RANDGEN)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_generators_match_stdlib_oracles(name):
    """The same entries, value types and order as the stdlib draws, and the
    same generator state after."""
    call, gen, oracle = CALLS[name], getattr(randgen, name), STDLIB_RANDGEN[name]
    for levels in range(1, 11):
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            assert _entries(call(gen, rng, levels)) == \
                _entries(call(oracle, ref, levels)), (levels, seed)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("levels", [1, 4, 8, 12])
@pytest.mark.parametrize("gen, oracle", [
    (randgen.random_superadditive, random_superadditive_fraction),
    (randgen.random_increasing, random_increasing_fraction),
])
def test_int_numerator_generators_match_fraction_oracles(gen, oracle, levels):
    d = TreeDomain(levels)
    for seed in range(500):
        rng, rng_oracle = random.Random(seed), random.Random(seed)
        got, want = gen(rng, d), oracle(rng_oracle, d)
        assert [(n, type(v), v) for n, v in items(got)] == \
            [(n, type(v), v) for n, v in items(want)]
        # the same draws, in the same order
        assert rng.getstate() == rng_oracle.getstate()


def _measures():
    """Random (x path, y path, k) atom lists, with other masses and repeated
    atoms, an empty one and a hand-built one."""
    rng = random.Random(5)
    for seed in range(40):
        atoms = helpers.random_atoms_stdlib(random.Random(seed), 6, 6)
        yield atoms
        yield [(x, y, rng.randint(1, 9)) for x, y, _ in atoms]
        yield atoms + atoms[:1]
    yield []
    yield [("01", "", 5), ("0", "1", 16), ("011", "1", 3)]


def test_rectangle_masses_match_fraction_form():
    for m in _measures():
        assert _entries(rectangle_mass_fn(m)) == _entries(rectangle_mass_fn_fraction(m))
        assert all(type(s) is int for s in rectangle_mass_fn(m)[0].values())


def _special_form_entries(construct, r, beta, p):
    """The entries of the special form, or the message of its ValueError."""
    try:
        return _entries(construct(r, beta, p))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [2, 2.0, 1.5, Fraction(4, 3), Fraction(5, 4), 3, 2.5])
def test_special_form_matches_fraction_form(p):
    # p = 3 and 2.5 give a non-integral q - 1, refused by both
    integral = p not in (3, 2.5)
    for m in _measures():
        r = rectangle_mass_fn(m)
        for beta in dict.fromkeys(y for _, y in r[0]):
            got = _special_form_entries(special_form_g, r, beta, p)
            assert got == _special_form_entries(special_form_g_fraction, r, beta, p)
            assert isinstance(got, str) != integral


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("suite", experiments.VERIFY_NAMES)
def test_suites_match_stdlib_draws(suite, mode, monkeypatch):
    """Every trial's report, not only the first that a golden prints, is the
    report of the stdlib draws, the Fraction rectangle masses and the
    Fraction special form."""
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
        w, g, f, lam, delta = helpers.phi_instance_dict(random.Random(seed), d)
        iwg = helpers.hardy_up_scalars(w.mul(g), nodes)
        half = sorted(iwg.values())[len(nodes) // 4]
        f_half = fn({n: Fraction(1, 2) for n, v in iwg.items() if v <= half})
        for f, lam, delta in ((f, lam, delta), (f_half, 4 * half, half)):
            w_kept = fn({n: get(w, n) for n in itertools.chain(support(g), support(f))})
            assert len(w) == len(nodes)
            shrunk += len(w_kept) < len(nodes)
            phi, report = build_phi(w, g, f, lam, delta, d, seed=seed, mode=mode)
            phi_kept, report_kept = build_phi(w_kept, g, f, lam, delta, d, seed=seed, mode=mode)
            assert _entries(phi_kept) == _entries(phi)
            assert report_kept.to_dict() == report.to_dict()
            nonzero += bool(phi)
    assert nonzero > 0 and shrunk > 0
