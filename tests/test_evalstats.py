import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ccmorph import evalstats as es


def _rand_mask(rng, p=0.1, n=16):
    return rng.random((n, n, n)) < p


class TestDice:
    def test_identical(self):
        rng = np.random.default_rng(0)
        m = _rand_mask(rng, 0.3)
        assert es.dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=int)
        b = np.zeros((4, 4, 4), dtype=int)
        a[0, 0, 0] = 1
        b[3, 3, 3] = 1
        assert es.dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4, 4), dtype=int)
        b = np.zeros((4, 4, 4), dtype=int)
        a[0, 0, :4] = 1
        b[0, 0, 2:4] = 1
        b[1, 1, 0:2] = 1
        assert es.dice(a, b) == 0.5

    def test_both_empty_warns(self):
        z = np.zeros((3, 3, 3), dtype=int)
        with pytest.warns(UserWarning):
            assert es.dice(z, z) == 1.0

    def test_empty_vs_nonempty(self):
        z = np.zeros((3, 3, 3), dtype=int)
        o = z.copy()
        o[1, 1, 1] = 1
        assert es.dice(z, o) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_symmetry_property(self, seed_a, seed_b):
        ra = np.random.default_rng(seed_a)
        rb = np.random.default_rng(seed_b)
        a = _rand_mask(ra, 0.3, 8)
        b = _rand_mask(rb, 0.3, 8)
        if not a.any() or not b.any():
            return
        assert es.dice(a, b) == es.dice(b, a)

    def test_monotone_under_overlap_growth(self):
        a = np.zeros((5, 5, 5), dtype=int)
        a[:3, :3, :3] = 1
        prev = -1.0
        for grow in range(4):
            b = np.zeros_like(a)
            b[:3, :3, :grow] = 1
            b[4, 4, : 3 - grow] = 1  # keep |B| constant
            if not b.any():
                continue
            d = es.dice(a, b)
            assert d >= prev
            prev = d


class TestHausdorff95:
    def test_identity_zero(self):
        rng = np.random.default_rng(1)
        m = _rand_mask(rng, 0.2)
        assert es.hausdorff95(m, m) == 0.0

    def test_two_voxels(self):
        a = np.zeros((8, 8, 8), dtype=int)
        b = np.zeros((8, 8, 8), dtype=int)
        a[1, 1, 1] = 1
        b[4, 1, 1] = 1
        assert es.hausdorff95(a, b) == 3.0

    def test_voxel_size_scales(self):
        a = np.zeros((8, 8, 8), dtype=int)
        b = np.zeros((8, 8, 8), dtype=int)
        a[1, 1, 1] = 1
        b[4, 1, 1] = 1
        assert es.hausdorff95(a, b, voxel_size=(0.5, 1.0, 1.0)) == 1.5

    def test_empty_raises(self):
        z = np.zeros((4, 4, 4), dtype=int)
        o = z.copy()
        o[0, 0, 0] = 1
        with pytest.raises(ValueError):
            es.hausdorff95(z, o)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = _rand_mask(rng, 0.08)
            b = _rand_mask(rng, 0.08)
            if not a.any() or not b.any():
                continue
            ba = es.boundary_voxels(a)
            bb = es.boundary_voxels(b)
            d_ab = np.sqrt(((ba[:, None, :] - bb[None, :, :]) ** 2).sum(-1)).min(1)
            d_ba = np.sqrt(((bb[:, None, :] - ba[None, :, :]) ** 2).sum(-1)).min(1)
            oracle = float(np.percentile(np.concatenate([d_ab, d_ba]), 95))
            assert es.hausdorff95(a, b) == oracle

    def test_directed_variant_flag(self):
        rng = np.random.default_rng(8)
        a = _rand_mask(rng, 0.1)
        b = _rand_mask(rng, 0.1)
        pooled = es.hausdorff95(a, b, pooled=True)
        directed = es.hausdorff95(a, b, pooled=False)
        assert directed >= 0 and pooled >= 0

    def test_boundary_extraction_six_connectivity(self):
        m = np.zeros((5, 5, 5), dtype=int)
        m[1:4, 1:4, 1:4] = 1
        bv = es.boundary_voxels(m)
        # a 3x3x3 cube has 26 surface voxels (all but the center)
        assert len(bv) == 26

    def test_border_voxels_are_surface(self):
        # all-ones cube: array-border voxels face the outside, only the
        # center voxel is interior
        m = np.ones((3, 3, 3), dtype=int)
        assert len(es.boundary_voxels(m)) == 26

    def test_matches_six_neighbour_loop(self):
        # a voxel is on the surface when one of its six neighbours is off the mask or off the array
        rng = np.random.default_rng(11)
        steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        masks = [rng.random(shape) < p for shape in ((4, 5, 6), (1, 4, 5), (6, 2, 3)) for p in (0.3, 0.7, 0.95)]
        masks.append(np.ones((3, 4, 5), dtype=bool))
        for m in masks:
            want = [
                ijk
                for ijk in np.ndindex(m.shape)
                if m[ijk]
                and not all(
                    all(0 <= a + d < n for a, d, n in zip(ijk, step, m.shape)) and m[tuple(np.add(ijk, step))]
                    for step in steps
                )
            ]
            got = es.boundary_voxels(m, (0.5, 1.0, 2.0))
            assert got.tolist() == (np.array(want, dtype=float).reshape(-1, 3) * [0.5, 1.0, 2.0]).tolist()
        assert all(m[0].any() or m[-1].any() for m in masks)


class TestWilcoxon:
    def test_identical_multisets(self):
        w, p = es.wilcoxon_ranksum([1, 2, 3], [1, 2, 3])
        assert p == 1.0

    def test_separated_exact(self):
        w, p = es.wilcoxon_ranksum([1, 2, 3], [4, 5, 6])
        assert w == 6.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_symmetric_in_samples(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=12)
        b = rng.normal(0.8, size=15)
        _, p1 = es.wilcoxon_ranksum(a, b)
        _, p2 = es.wilcoxon_ranksum(b, a)
        assert p1 == pytest.approx(p2, rel=1e-12)

    def test_exact_enumeration_with_ties(self):
        # pooled sample with ties; brute-force the null distribution here too
        a = [1.0, 2.0, 2.0]
        b = [2.0, 3.0, 4.0]
        w, p = es.wilcoxon_ranksum(a, b)
        from itertools import combinations

        pooled = np.array(a + b)
        ranks = es._midranks(pooled)
        mu = 3 * 7 / 2.0
        dev = abs(w - mu)
        hits = sum(
            1
            for c in combinations(range(6), 3)
            if abs(ranks[list(c)].sum() - mu) >= dev - 1e-12
        )
        assert p == pytest.approx(hits / 20.0)

    def test_normal_approximation_reasonable(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=40)
        b = rng.normal(size=40) + 2.0
        _, p = es.wilcoxon_ranksum(a, b)
        assert p < 1e-6
        a2 = rng.normal(size=40)
        b2 = rng.normal(size=40)
        _, p2 = es.wilcoxon_ranksum(a2, b2)
        assert p2 > 0.01

    def test_all_tied_large(self):
        _, p = es.wilcoxon_ranksum(np.ones(20), np.ones(20))
        assert p == 1.0

    def test_exact_vs_normal_branch_agree_near_boundary(self):
        # n + m = 10 uses the exact branch; duplicating each sample keeps
        # the effect but switches to the approximation, which should land in
        # the same neighborhood
        a = [1.0, 2.0, 3.0, 4.0, 9.0]
        b = [5.0, 6.0, 7.0, 8.0, 10.0]
        _, p_exact = es.wilcoxon_ranksum(a, b)
        _, p_norm = es.wilcoxon_ranksum(np.repeat(a, 2), np.repeat(b, 2))
        assert 0 < p_exact < 0.5
        assert 0 < p_norm < p_exact


def _t_sf_oracle(t, dof):
    c, _ = quad(
        lambda u: (1 + u * u / dof) ** (-(dof + 1) / 2.0), t, np.inf, limit=200
    )
    from math import gamma, pi, sqrt

    norm = gamma((dof + 1) / 2.0) / (sqrt(dof * pi) * gamma(dof / 2.0))
    return c * norm


class TestOLS:
    def test_exact_linear_fit(self):
        x = np.arange(10.0)
        y = 3.0 - 2.0 * x
        fit = es.ols_fit(y, np.column_stack([np.ones(10), x]))
        np.testing.assert_allclose(fit.beta, [3.0, -2.0], atol=1e-12)
        assert fit.rss < 1e-18

    def test_intercept_only_mean(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=23)
        fit = es.ols_fit(y, np.ones((23, 1)))
        assert fit.beta[0] == pytest.approx(y.mean(), rel=1e-12)

    def test_six_row_hand_solved(self):
        # normal equations solved by hand: beta1 = 31/35, beta0 = 9/7,
        # RSS = 132/35, se1 = sqrt(132/2450)
        x = np.arange(6.0)
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 6.0])
        fit = es.ols_fit(y, np.column_stack([np.ones(6), x]))
        assert fit.beta[1] == pytest.approx(31.0 / 35.0, abs=1e-12)
        assert fit.beta[0] == pytest.approx(9.0 / 7.0, abs=1e-12)
        assert fit.rss == pytest.approx(132.0 / 35.0, abs=1e-10)
        se1 = np.sqrt(132.0 / 2450.0)
        assert fit.stderr[1] == pytest.approx(se1, abs=1e-12)
        t1 = (31.0 / 35.0) / se1
        assert fit.tstat[1] == pytest.approx(t1, abs=1e-10)
        # two-sided p against an independent quadrature oracle of the t density
        p_oracle = 2.0 * _t_sf_oracle(t1, 4)
        assert fit.p_value[1] == pytest.approx(p_oracle, abs=1e-6)

    def test_rank_deficient(self):
        x = np.arange(8.0)
        X = np.column_stack([np.ones(8), x, 2 * x])
        with pytest.raises(ValueError, match="rank-deficient"):
            es.ols_fit(x, X)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        y = rng.normal(size=40)
        fit = es.ols_fit(y, X)
        assert np.abs(X.T @ fit.residuals).max() < 1e-9


class TestBH:
    def test_hand_computed(self):
        np.testing.assert_allclose(
            es.bh_correct([0.01, 0.02, 0.03, 0.04]), [0.04, 0.04, 0.04, 0.04]
        )

    def test_all_ones(self):
        np.testing.assert_allclose(es.bh_correct(np.ones(7)), 1.0)

    def test_single(self):
        np.testing.assert_allclose(es.bh_correct([0.37]), [0.37])

    def test_order_mapping(self):
        p = np.array([0.9, 0.001, 0.5, 0.02])
        adj = es.bh_correct(p)
        assert adj[1] == pytest.approx(0.004)
        assert np.all(adj >= p)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_properties(self, p):
        p = np.asarray(p)
        adj = es.bh_correct(p)
        assert np.all(adj >= p - 1e-15)
        assert np.all(adj <= 1.0)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-12)


class TestThicknessGroupMap:
    @staticmethod
    def _table(rng, n_cases=200, n_pos=100, deficit_band=None, deficit=0.2):
        group = np.repeat([0, 1], n_cases // 2)
        age = rng.uniform(20, 80, n_cases)
        sex = rng.integers(0, 2, n_cases).astype(float)
        tbv = rng.normal(1.3e6, 1e5, n_cases)
        base = 6.0 + 0.4 * np.sin(np.linspace(0, np.pi, n_pos))
        thick = np.tile(base, (n_cases, 1))
        thick += 0.002 * (age[:, None] - 50.0)  # mild age effect
        thick += rng.normal(0, 0.5, size=(n_cases, n_pos))
        if deficit_band is not None:
            lo, hi = deficit_band
            thick[group == 1, lo : hi + 1] *= 1.0 - deficit
        return es.GroupTable([f"c{i}" for i in range(n_cases)], group, age, sex, tbv, thick)

    def test_null_calibration(self):
        rng = np.random.default_rng(123)
        table = self._table(rng)
        stats = es.thickness_group_map(table)
        raw_hits = sum(1 for s in stats if s.p < 0.05)
        adj_hits = sum(1 for s in stats if s.p_adj < 0.05)
        assert raw_hits <= 12  # about 5% of 100 expected
        assert adj_hits == 0

    def test_injected_deficit_recovered(self):
        rng = np.random.default_rng(7)
        table = self._table(rng, deficit_band=(40, 60))
        stats = es.thickness_group_map(table)
        flagged = {s.position for s in stats if s.p_adj < 0.05}
        assert set(range(40, 61)) <= flagged
        assert flagged <= set(range(38, 63))
        betas = {s.position: s.beta for s in stats}
        assert betas[50] < 0  # patients thinner

    def test_constant_thickness_zero_betas(self):
        rng = np.random.default_rng(9)
        table = self._table(rng)
        thick = np.full_like(table.thickness, 5.0)
        table2 = es.GroupTable(table.case_ids, table.group, table.age, table.sex, table.tbv, thick)
        stats = es.thickness_group_map(table2)
        assert max(abs(s.beta) for s in stats) < 1e-12

    def test_missing_covariate_rejected(self):
        with pytest.raises(ValueError, match="covariate"):
            es.GroupTable(
                ["a", "b"],
                np.array([0, 1]),
                np.array([50.0, np.nan]),
                np.array([0.0, 1.0]),
                np.array([1e6, 1e6]),
                np.zeros((2, 5)),
            )
