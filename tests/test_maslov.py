import itertools

import numpy as np
import pytest

import maslov as ms


def test_is_lagrangian_examples():
    sp = ms.standard_symplectic(1)
    assert ms.is_lagrangian(sp, np.array([[1.0], [0.0]]))
    assert not ms.is_lagrangian(sp, np.eye(2))
    sp2 = ms.standard_symplectic(3)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((3, 3))
    graph = ms.lagrangian_from_graph(3, 0.5 * (s + s.T))
    assert ms.is_lagrangian(sp2, graph)


def test_degenerate_basis_rejected():
    sp = ms.standard_symplectic(2)
    bad = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ms.DegenerateBasis):
        ms.maslov_index(sp, bad, bad, bad)


def test_contract_trivial_cases():
    sp = ms.standard_symplectic(2)
    rng = np.random.default_rng(1)
    L = ms.random_lagrangian(2, rng)
    img, quo = ms.contract(sp, L, np.zeros((4, 0)))
    assert quo.space.dim == 4 and img.shape[1] == 2
    img2, quo2 = ms.contract(sp, L, L)
    assert quo2.space.dim == 0 and img2.shape[1] == 0


def test_contract_requires_isotropic():
    sp = ms.standard_symplectic(1)
    with pytest.raises(ms.NotIsotropic):
        ms.contract(sp, np.array([[1.0], [0.0]]), np.eye(2))


def test_contraction_preserves_lagrangian():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sp = ms.standard_symplectic(n)
        A_full = ms.random_lagrangian(n, rng)
        A = A_full[:, :int(rng.integers(0, n + 1))]
        L = ms.random_lagrangian(n, rng)
        img, quo = ms.contract(sp, L, A)
        assert ms.is_lagrangian(quo.space, img)


def test_maslov_degenerate_and_fixture():
    sp = ms.standard_symplectic(1)
    L = lambda th: np.array([[np.cos(th)], [np.sin(th)]])
    rng = np.random.default_rng(3)
    L1 = ms.random_lagrangian(1, rng)
    L2 = ms.random_lagrangian(1, rng)
    assert ms.maslov_index(sp, L1, L1, L2) == 0
    # sign convention fixture in the plane
    assert ms.maslov_index(sp, L(0), L(np.pi / 4), L(np.pi / 2)) == 1


def test_maslov_antisymmetry_scan():
    rng = np.random.default_rng(4)
    perms = list(itertools.permutations([0, 1, 2]))

    def sgn(p):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return 1 if inv % 2 == 0 else -1

    count = 0
    for n in (1, 2, 3):
        sp = ms.standard_symplectic(n)
        for _ in range(34):
            Ls = [ms.random_lagrangian(n, rng) for _ in range(3)]
            m0 = ms.maslov_index(sp, *Ls)
            assert abs(m0) <= 2 * n
            for p in perms:
                mp = ms.maslov_index(sp, Ls[p[0]], Ls[p[1]], Ls[p[2]])
                assert mp == sgn(p) * m0
            count += 1
    assert count >= 100


def test_maslov_cocycle_identity():
    """tau(L2, L3, L4) - tau(L1, L3, L4) + tau(L1, L2, L4) - tau(L1, L2, L3) = 0,
    also with a Lagrangian repeated."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        sp = ms.standard_symplectic(n)
        for _ in range(100):
            Ls = [ms.random_lagrangian(n, rng) for _ in range(4)]
            if rng.random() < 0.2:
                Ls[int(rng.integers(1, 4))] = Ls[0]
            l1, l2, l3, l4 = Ls
            assert (ms.maslov_index(sp, l2, l3, l4) - ms.maslov_index(sp, l1, l3, l4)
                    + ms.maslov_index(sp, l1, l2, l4) - ms.maslov_index(sp, l1, l2, l3)) == 0


def test_maslov_additive_under_direct_sums():
    """The index of L_i + L_i' in the direct sum of two spaces is the sum of
    the two indices."""
    rng = np.random.default_rng(6)

    def direct_sum(a, b):
        return np.block([[a, np.zeros((a.shape[0], b.shape[1]))],
                         [np.zeros((b.shape[0], a.shape[1])), b]])

    for _ in range(300):
        n, m = (int(x) for x in rng.integers(1, 4, 2))
        sn, sm = ms.standard_symplectic(n), ms.standard_symplectic(m)
        sp = ms.SymplecticSpace(direct_sum(sn.form, sm.form))
        a = [ms.random_lagrangian(n, rng) for _ in range(3)]
        b = [ms.random_lagrangian(m, rng) for _ in range(3)]
        want = ms.maslov_index(sn, *a) + ms.maslov_index(sm, *b)
        assert ms.maslov_index(sp, *map(direct_sum, a, b)) == want


def test_not_lagrangian_rejected():
    sp = ms.standard_symplectic(2)
    not_lag = np.eye(4)[:, [0, 2]]  # omega(e0, e2) = 1
    lag = np.eye(4)[:, [0, 1]]
    with pytest.raises(ms.NotLagrangian):
        ms.maslov_index(sp, not_lag, lag, lag)
