import random
from fractions import Fraction

import numpy as np
import pytest

from cxlab.trees import BiTreeDomain, NodeAddress, ResourceError, binode
from cxlab.hardy import PointMeasure, energy, eval_hardy_down, kernel, potential
from cxlab.capacity import (
    ADMISSIBLE_N,
    EquilibriumResult,
    _instance_matrix,
    _reduced_matrix,
    build_instance,
    capacity_bruteforce,
    capacity_qp,
    capacity_qp_instance,
    check_lemma_g,
    report_d2,
)
from cxlab import randgen

from helpers import atoms_fn, random_family, rho_full


class TestBuildInstance:
    def test_rejects_bad_n(self):
        for bad in (0, 8, 32, 1024):
            with pytest.raises(ValueError):
                build_instance(bad)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_norm_and_containment(self, n):
        inst = build_instance(n)
        assert inst.nu.total_mass() == inst.delta
        assert inst.delta * inst.n * inst.s == 1
        # every q_jk contains its corner omega_j
        count = inst.n // inst.s
        for j in range(count):
            omega = inst.atom_rects[j].to_binode()
            for k in range(inst.s + 1):
                q = inst.family[j * (inst.s + 1) + k]
                assert q.contains(omega)

    def test_n16_shape(self):
        inst = build_instance(16)
        assert inst.s == 4 and inst.M == 2
        assert len(inst.nu) == 4
        assert inst.atom_mass == Fraction(1, 256)
        assert inst.delta == Fraction(1, 64)

    def test_potential_at_root_is_delta(self):
        for n in (4, 16):
            inst = build_instance(n)
            assert potential(inst.nu, binode("", "")) == inst.delta

    def test_structured_kernel_matches_generic(self):
        inst = build_instance(16)
        S, _ = _instance_matrix(inst, use_symmetry=False)
        for i, a in enumerate(inst.family):
            for j, b in enumerate(inst.family):
                assert S[i, j] == kernel(a, b)

    @pytest.mark.parametrize("use_symmetry", [True, False])
    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_instance_matrix_matches_pairwise(self, n, use_symmetry):
        inst = build_instance(n)
        classes = inst.symmetry_classes if use_symmetry \
            else [[i] for i in range(inst.family_size)]
        S, b = _instance_matrix(inst, use_symmetry)
        S_pair, b_pair = _reduced_matrix(kernel, inst.family, classes)
        assert np.array_equal(S, S_pair)
        assert np.array_equal(b, b_pair)

    def test_large_instance_potentials_match_pairwise(self):
        inst = build_instance(65536)
        assert inst.rects is None and inst.family is None
        assert inst.family_size == 4096 * 17
        prefixes = [format(j, "012b") for j in range(inst.count)]
        for (xe, ye), value in zip(inst.extras, inst.potentials):
            total = sum(_pairwise_kernel(prefixes[0], xe, ye, w, inst.n, inst.n)
                        for w in prefixes)
            assert value == inst.atom_mass * total

    def test_structured_potentials_match_generic(self):
        inst = build_instance(16)
        for k in range(inst.s + 1):
            assert inst.potentials[k] == potential(inst.nu, inst.family[k])

    def test_lambda_from_potentials(self):
        inst = build_instance(16)
        assert inst.lam == max(inst.potentials) / 4


def _pairwise_kernel(pa: str, xa: int, ya: int, pb: str, xb: int, yb: int) -> int:
    """Common-ancestor count of the rectangles pa + 0^xa x pa + 0^ya and
    pb + 0^xb x pb + 0^yb, with pa and pb of equal length."""
    if pa == pb:
        m = len(pa)
        return (m + min(xa, xb) + 1) * (m + min(ya, yb) + 1)
    t = next(i for i, (ca, cb) in enumerate(zip(pa, pb)) if ca != cb)
    return (t + 1) * (t + 1)


class TestLemmaG:
    def test_n16_values(self):
        report = check_lemma_g(build_instance(16))
        assert report["values"] == [Fraction(v, 256) for v in (82, 61, 55, 61, 82)]
        assert report["symmetric_j"]
        assert report["ratio"] == Fraction(82, 55)
        assert report["inclusion"] == "full"

    def test_n256_ratio_below_eight(self):
        report = check_lemma_g(build_instance(256))
        assert report["symmetric_j"]
        assert report["ratio"] <= 8
        assert report["n_min"] == Fraction(625, 256)
        assert report["n_max"] == Fraction(1975, 256)


class TestCapacityQP:
    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_single_node_forced(self, a, b):
        node = binode("0" * a, "1" * b)
        want = Fraction(1, (a + 1) * (b + 1))
        assert capacity_bruteforce([node]) == want
        eq = capacity_qp([node])
        assert eq.converged
        assert eq.cap == pytest.approx(float(want), rel=1e-9)

    def test_root_capacity_one(self):
        assert capacity_bruteforce([binode("", "")]) == 1

    def test_duplicate_constraints(self):
        node = binode("01", "1")
        assert capacity_bruteforce([node, node]) == capacity_bruteforce([node])

    def test_two_nodes_sharing_root(self):
        a, b = binode("0", "0"), binode("11", "1")
        # K = [[4, 1], [1, 6]]; solving K rho = 1 gives rho = (5/23, 3/23)
        exact = capacity_bruteforce([a, b])
        assert exact == Fraction(5, 23) + Fraction(3, 23)
        eq = capacity_qp([a, b])
        assert eq.cap == pytest.approx(float(exact), rel=1e-9)

    def test_oracle_equivalence_random(self):
        rng = random.Random(99)
        for _ in range(25):
            family = random_family(rng)
            exact = float(capacity_bruteforce(family))
            eq = capacity_qp(family)
            assert eq.converged
            assert abs(eq.cap - exact) / exact <= 1e-6

    def test_monotone_in_family(self):
        rng = random.Random(101)
        for _ in range(20):
            family = random_family(rng, max_members=5)
            extra = random_family(rng, max_members=1)
            small = float(capacity_bruteforce(family))
            big = float(capacity_bruteforce(family + extra))
            assert big >= small - 1e-12

    def test_bruteforce_size_budget(self):
        family = [binode("0" * i, "") for i in range(13)]
        with pytest.raises(ResourceError):
            capacity_bruteforce(family)

    def test_non_convergence_flagged(self):
        inst = build_instance(16)
        eq = capacity_qp_instance(inst, tol=0.0, max_iters=3)
        assert not eq.converged
        with pytest.raises(ValueError):
            report_d2(inst, eq)


class TestEquilibrium:
    @pytest.mark.parametrize("n", [4, 16])
    def test_kkt_conditions(self, n):
        inst = build_instance(n)
        eq = capacity_qp_instance(inst, tol=1e-10)
        assert eq.converged
        rho = rho_full(eq, inst.symmetry_classes)
        mu = PointMeasure.of(
            (q, m) for q, m in zip(inst.family, rho) if m > 0)
        # potential >= 1 - tol on the family, = 1 +- tol on the support
        for q, m in zip(inst.family, rho):
            v = float(potential(mu, q))
            assert v >= 1 - 1e-8
            if m > 0:
                assert v == pytest.approx(1.0, abs=1e-8)
        # cap = total mass = energy at equilibrium
        assert eq.cap == pytest.approx(float(mu.total_mass()), rel=1e-12)
        assert eq.cap == pytest.approx(float(energy(mu)), rel=1e-8)

    def test_primal_dual_identity(self):
        # sum over all rectangles of (I* mu)^2 equals the energy, exactly
        inst = build_instance(4)
        eq = capacity_qp_instance(inst, tol=1e-12)
        masses = [Fraction(m).limit_denominator(10 ** 12)
                  for m in rho_full(eq, inst.symmetry_classes)]
        mu = PointMeasure.of(
            (q, m) for q, m in zip(inst.family, masses) if m > 0)
        nu = atoms_fn(mu)
        depth = inst.M + inst.n + 1
        total = sum(eval_hardy_down(nu, q) ** 2
                    for q in BiTreeDomain(depth, depth).nodes())
        assert total == energy(mu)

    def test_energy_psd(self):
        rng = random.Random(7)
        for _ in range(20):
            m = randgen.random_point_measure(rng, 4, 4)
            assert energy(m) >= 0

    def test_symmetry_of_rho(self):
        inst = build_instance(16)
        eq = capacity_qp_instance(inst, tol=1e-10, use_symmetry=False)
        assert eq.converged
        rho = eq.rho
        s = inst.s
        for k in range(s + 1):
            per_j = [rho[j * (s + 1) + k] for j in range(inst.n // s)]
            assert np.ptp(per_j) <= 1e-8


class TestReportD2:
    def test_table_row(self):
        inst = build_instance(16)
        eq = capacity_qp_instance(inst)
        row = report_d2(inst, eq)
        assert row["n"] == 16
        assert row["delta"] == Fraction(1, 64)
        assert row["delta_over_lambda"] == inst.delta / inst.lam
        assert row["cap"] > 0
        assert row["band_mean_rho_times_n"] > 0

    def test_refutation_signal(self):
        rows = []
        for n in (16, 256):
            inst = build_instance(n)
            rows.append(report_d2(inst, capacity_qp_instance(inst)))
        caps = [r["cap"] for r in rows]
        ratios = [float(r["delta_over_lambda"]) for r in rows]
        assert max(caps) / min(caps) <= 2
        assert ratios[0] / ratios[1] >= 1.5


def test_admissible_list():
    assert ADMISSIBLE_N == (4, 16, 256, 65536)
