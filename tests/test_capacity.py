import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from cxlab.trees import ResourceError
from cxlab.hardy import kernel
from cxlab import capacity
from cxlab.capacity import (
    ADMISSIBLE_N,
    _class_kernel,
    _common_ancestors,
    _green_solve,
    _member_rows,
    build_instance,
    capacity_bruteforce,
    check_lemma_g,
    equilibrium,
    prefix_capacity,
    prefix_members,
    report_d2,
)
from cxlab.cli import main

from helpers import (
    _reduced_matrix, atoms_fn, bitree_atoms, bitree_family, bitree_nodes, capacity_qp,
    energy, eval_hardy_down, kernel_block, measure, member_kernel, perturb_closed_form,
    potential, random_atoms_stdlib, random_family, rect_contains, rho_full, solve_qp,
    symmetry_classes,
)


class TestBuildInstance:
    def test_rejects_bad_n(self):
        for bad in (0, 8, 32, 1024):
            with pytest.raises(ValueError):
                build_instance(bad)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_norm_and_containment(self, n):
        inst = build_instance(n)
        nu, family = bitree_atoms(n), bitree_family(n)
        assert sum(mass for _, mass in nu) == inst.delta
        assert inst.delta * inst.n * inst.s == 1
        assert len(nu) == inst.count and len(family) == inst.family_size
        # every q_jk contains its corner omega_j
        for j, (omega, mass) in enumerate(nu):
            assert mass == inst.atom_mass
            for k in range(inst.s + 1):
                q = family[j * (inst.s + 1) + k]
                assert rect_contains(q, omega)

    def test_n16_shape(self):
        inst = build_instance(16)
        assert inst.s == 4 and inst.M == 2
        assert inst.count == 4 and len(bitree_atoms(16)) == 4
        assert inst.atom_mass == Fraction(1, 256)
        assert inst.delta == Fraction(1, 64)

    def test_potential_at_root_is_delta(self):
        for n in (4, 16):
            inst = build_instance(n)
            assert potential(bitree_atoms(n), ("", "")) == inst.delta

    def test_structured_kernel_matches_generic(self):
        inst = build_instance(16)
        triples = [(j, xe, ye) for j in range(inst.count) for xe, ye in inst.extras]
        ref = member_kernel(inst)
        family = bitree_family(16)
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                entry = _common_ancestors(inst.M, *triples[i], *triples[j])
                assert type(entry) is int
                assert entry == ref[i][j] == kernel(a, b)

    @pytest.mark.parametrize("use_symmetry", [True, False])
    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_instance_matrix_matches_pairwise(self, n, use_symmetry):
        inst = build_instance(n)
        classes = symmetry_classes(n) if use_symmetry \
            else [[i] for i in range(inst.family_size)]
        S_pair, b_pair = _reduced_matrix(kernel, bitree_family(n), classes)
        if use_symmetry:
            S = _class_kernel(inst)
        else:  # each member row of the pairwise kernel, its columns summed per class
            S = _member_rows(inst)
            S_pair = S_pair.reshape(len(S_pair), inst.count, inst.s + 1).sum(axis=1)
        assert np.array_equal(np.array(S), S_pair)
        # b is count per class with symmetry, 1 per member without
        assert set(b_pair) == {inst.count if use_symmetry else 1}

    def test_large_instance_potentials_match_pairwise(self):
        inst = build_instance(65536)
        assert inst.family_size == 4096 * 17
        prefixes = [format(j, "012b") for j in range(inst.count)]
        for (xe, ye), value in zip(inst.extras, inst.potentials):
            total = sum(_pairwise_kernel(prefixes[0], xe, ye, w, inst.n, inst.n)
                        for w in prefixes)
            assert value == inst.atom_mass * total

    def test_structured_potentials_match_generic(self):
        inst = build_instance(16)
        nu, family = bitree_atoms(16), bitree_family(16)
        for k in range(inst.s + 1):
            assert inst.potentials[k] == potential(nu, family[k])

    def test_lambda_from_potentials(self):
        inst = build_instance(16)
        assert inst.lam == max(inst.potentials) / 4

    @pytest.mark.parametrize("n", ADMISSIBLE_N)
    def test_builds_no_node(self, n, monkeypatch, capsys):
        """The command holds its rectangles as triples only: without
        --oracle no rectangle is built as a pair of full-length paths."""
        class Built(Exception):
            pass

        def refuse(inst, j):
            raise Built(j)

        monkeypatch.setattr(capacity, "prefix_members", refuse)
        assert main(["capacity", "--n", str(n)]) == 0
        assert '"cap"' in capsys.readouterr().out
        if n == 16:  # the oracle does reach it
            with pytest.raises(Built):
                main(["capacity", "--n", "16", "--oracle"])


class TestPrefixMembers:
    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_matches_definition(self, n):
        inst = build_instance(n)
        family = bitree_family(n)
        for j in range(inst.count):
            block = family[j * (inst.s + 1):(j + 1) * (inst.s + 1)]
            assert prefix_members(inst, j) == block


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

    @pytest.mark.parametrize("n", [16, 65536])
    def test_cross_check_can_fail(self, n):
        """The cross-check sums over the atoms itself, so one wrong
        potential shows."""
        inst = build_instance(n)
        assert check_lemma_g(inst)["symmetric_j"]
        values = list(inst.potentials)
        values[inst.s // 2] += inst.atom_mass
        report = check_lemma_g(dataclasses.replace(inst, potentials=values))
        assert not report["symmetric_j"]


class TestCapacityQP:
    """The exact brute-force oracle against the float reference QP."""

    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_single_node_forced(self, a, b):
        node = ("0" * a, "1" * b)
        want = Fraction(1, (a + 1) * (b + 1))
        assert capacity_bruteforce([node]) == want
        eq = capacity_qp([node])
        assert eq.converged
        assert eq.cap == pytest.approx(float(want), rel=1e-9)

    def test_root_capacity_one(self):
        assert capacity_bruteforce([("", "")]) == 1

    def test_duplicate_constraints(self):
        node = ("01", "1")
        assert capacity_bruteforce([node, node]) == capacity_bruteforce([node])

    def test_two_nodes_sharing_root(self):
        a, b = ("0", "0"), ("11", "1")
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
        family = [("0" * i, "") for i in range(13)]
        with pytest.raises(ResourceError):
            capacity_bruteforce(family)


class TestClosedForm:
    @pytest.mark.parametrize("n", ADMISSIBLE_N)
    def test_tridiagonal_inverse(self, n):
        """y = A^-1 1 for A[k1][k2] = a_min b_max, and every D_k > 0."""
        inst = build_instance(n)
        D, y = _green_solve(inst)
        assert len(D) == inst.s and min(D) > 0
        xe, ye = np.array(inst.extras).T
        A = kernel_block(inst.M, 0, xe[:, None], ye[:, None], 0, xe, ye).tolist()
        assert [sum(a * v for a, v in zip(row, y)) for row in A] == [1] * (inst.s + 1)

    @pytest.mark.parametrize("n", ADMISSIBLE_N)
    def test_certified(self, n):
        inst = build_instance(n)
        eq = equilibrium(inst)
        assert eq.certified and eq.failed_check is None
        assert eq.kkt_max_violation == 0.0
        assert all(r > 0 for r in eq.rho)
        assert eq.cap == inst.count * sum(eq.rho)
        S = _class_kernel(inst)
        assert [sum(a * r for a, r in zip(row, eq.rho)) for row in S] == \
            [inst.count] * (inst.s + 1)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_matches_float_reference(self, n):
        S, b = _reduced_matrix(kernel, bitree_family(n), symmetry_classes(n))
        ref = solve_qp(S, b)
        eq = equilibrium(build_instance(n))
        assert ref.converged
        assert float(eq.cap) == pytest.approx(ref.cap, rel=1e-12)
        assert [float(r) for r in eq.rho] == pytest.approx(list(ref.rho), rel=1e-9)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_prefix_capacity_is_bruteforce(self, n):
        inst = build_instance(n)
        assert prefix_capacity(inst) == capacity_bruteforce(prefix_members(inst, 0))

    def test_n16_values(self):
        inst = build_instance(16)
        assert equilibrium(inst).cap == Fraction(139, 1458)
        assert prefix_capacity(inst) == Fraction(139, 4998)

    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_member_kernel_certifies_the_same_rho(self, n):
        inst = build_instance(n)
        eq, full = equilibrium(inst), equilibrium(inst, use_symmetry=False)
        assert full.certified and full.kkt_max_violation == 0.0
        assert (full.rho, full.cap) == (eq.rho, eq.cap)

    def test_no_symmetry_family_bound(self):
        with pytest.raises(ResourceError):
            equilibrium(build_instance(65536), use_symmetry=False)

    @pytest.mark.parametrize("use_symmetry", [True, False])
    @pytest.mark.parametrize("edit, failed", [
        (lambda D, y: ([-d for d in D], y), "D_k > 0"),
        (lambda D, y: (D, y[:-1] + [-y[-1]]), "rho > 0"),
        (lambda D, y: (D, [y[0] * (1 + Fraction(1, 10 ** 9))] + y[1:]), "S rho = b"),
    ])
    def test_each_check_can_fail(self, monkeypatch, edit, failed, use_symmetry):
        perturb_closed_form(monkeypatch, edit)
        inst = build_instance(16)
        eq = equilibrium(inst, use_symmetry=use_symmetry)
        assert not eq.certified and eq.failed_check == failed
        assert (eq.kkt_max_violation > 0) == (failed != "D_k > 0")
        with pytest.raises(ValueError, match=failed):
            report_d2(inst, eq)


class TestEquilibrium:
    @pytest.mark.parametrize("n", [4, 16])
    def test_kkt_conditions(self, n):
        inst = build_instance(n)
        eq = equilibrium(inst)
        rho = rho_full(eq.rho, symmetry_classes(n))
        family = bitree_family(n)
        mu = list(zip(family, rho))
        # the potential is exactly 1 on the family, and the family is the support
        assert all(potential(mu, q) == 1 for q in family)
        # cap = total mass = energy at equilibrium
        assert eq.cap == sum(rho) == energy(mu)

    def test_primal_dual_identity(self):
        # sum over all rectangles of (I* mu)^2 equals the energy, exactly
        inst = build_instance(4)
        eq = equilibrium(inst)
        mu = list(zip(bitree_family(4), rho_full(eq.rho, symmetry_classes(4))))
        nu = atoms_fn(mu)
        depth = inst.M + inst.n + 1
        total = sum(eval_hardy_down(nu, q) ** 2
                    for q in bitree_nodes(depth, depth))
        assert total == energy(mu) == eq.cap

    def test_energy_psd(self):
        rng = random.Random(7)
        for _ in range(20):
            m = measure(random_atoms_stdlib(rng, 4, 4))
            assert energy(m) >= 0

    def test_symmetry_of_rho(self):
        """The float QP on the member-by-member kernel, with no symmetry
        assumed, finds the closed form's rho on every prefix."""
        inst = build_instance(16)
        S = np.array(member_kernel(inst), dtype=float)
        ref = solve_qp(S, np.ones(len(S)))
        assert ref.converged
        want = [float(r) for r in equilibrium(inst).rho] * inst.count
        assert list(ref.rho) == pytest.approx(want, rel=1e-8)


class TestReportD2:
    def test_table_row(self):
        inst = build_instance(16)
        row = report_d2(inst, equilibrium(inst))
        assert row["n"] == 16
        assert row["delta"] == Fraction(1, 64)
        assert row["delta_over_lambda"] == inst.delta / inst.lam
        assert row["cap"] > 0
        assert row["band_mean_rho_times_n"] > 0
        assert "iterations" not in row

    def test_refutation_signal(self):
        rows = []
        for n in (16, 256):
            inst = build_instance(n)
            rows.append(report_d2(inst, equilibrium(inst)))
        caps = [r["cap"] for r in rows]
        ratios = [float(r["delta_over_lambda"]) for r in rows]
        assert max(caps) / min(caps) <= 2
        assert ratios[0] / ratios[1] >= 1.5


def test_admissible_list():
    assert ADMISSIBLE_N == (4, 16, 256, 65536)
