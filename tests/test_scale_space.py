import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsalign import scale_space as ssc
from fsalign import synth

def make_blobs(centers, n_per, spread, seed):
    rng = np.random.default_rng(seed)
    pts = [
        c + rng.normal(scale=spread, size=(n_per, 2))
        for c in np.asarray(centers, dtype=np.float64)
    ]
    return np.concatenate(pts)


def density(points, x, sigma):
    """Blurred scatter-image value at x: the sum of the kernel responses."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(x, dtype=np.float64)
    return float(np.exp(-(d * d).sum(axis=1) / (2.0 * sigma * sigma)).sum())


class TestMeanShiftStep:
    """The mean-shift update, driven through `converge_centers`."""

    def test_symmetric_midpoint_is_fixed(self):
        cfg = ssc.ScaleSweepConfig()
        ops = ssc.kernel_operands([(-1.0, 0.0), (1.0, 0.0)])
        for sigma in (0.5, 1.0, 7.0):
            snap = ssc.converge_centers(ops, [(0.0, 0.0)], sigma, cfg)
            assert snap.iters == 1
            np.testing.assert_allclose(snap.centers, [[0.0, 0.0]], atol=1e-15)

    def test_single_point_is_global_mode(self):
        cfg = ssc.ScaleSweepConfig()
        snap = ssc.converge_centers(ssc.kernel_operands([(5.0, 5.0)]), [(0.0, 0.0)], 10.0, cfg)
        np.testing.assert_allclose(snap.centers, [[5.0, 5.0]], atol=1e-12)

    def test_iteration_converges_to_near_mode(self):
        cfg = ssc.ScaleSweepConfig()
        snap = ssc.converge_centers(ssc.kernel_operands([(0.0, 0.0), (10.0, 0.0)]), [(0.1, 0.0)],
                                    1.0, cfg)
        np.testing.assert_allclose(snap.centers, [[0.0, 0.0]], atol=1e-6)

    def test_mode_ascent(self):
        # one mean-shift step per call: the density never drops along the way
        cfg = ssc.ScaleSweepConfig(max_inner_iters=1)
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(40, 2)) * 3.0
        ops = ssc.kernel_operands(pts)
        for sigma in (0.5, 1.5):
            c = rng.normal(size=2) * 3.0
            prev = density(pts, c, sigma)
            for _ in range(50):
                c = ssc.converge_centers(ops, [c], sigma, cfg).centers[0]
                cur = density(pts, c, sigma)
                assert cur >= prev - 1e-12
                prev = cur


class TestConvergeCenters:
    def test_single_point(self):
        cfg = ssc.ScaleSweepConfig()
        snap = ssc.converge_centers(ssc.kernel_operands([(2.0, 3.0)]), [(0.0, 0.0)], 5.0, cfg)
        assert snap.K == 1
        np.testing.assert_allclose(snap.centers[0], [2.0, 3.0], atol=1e-5)

    def test_two_blobs_resolved_at_small_scale(self):
        pts = make_blobs([(0, 0), (30, 0)], 50, 1.0, seed=5)
        cfg = ssc.ScaleSweepConfig()
        snap = ssc.converge_centers(ssc.kernel_operands(pts), pts, 2.0, cfg)
        assert snap.K == 2
        # oracle: brute-force per-blob sample means
        m0 = pts[:50].mean(axis=0)
        m1 = pts[50:].mean(axis=0)
        got = snap.centers[np.argsort(snap.centers[:, 0])]
        want = np.stack([m0, m1])[np.argsort([m0[0], m1[0]])]
        assert np.linalg.norm(got - want, axis=1).max() < 0.5

    def test_two_blobs_merge_at_large_scale(self):
        pts = make_blobs([(0, 0), (30, 0)], 50, 1.0, seed=5)
        cfg = ssc.ScaleSweepConfig()
        snap = ssc.converge_centers(ssc.kernel_operands(pts), pts, 100.0, cfg)
        assert snap.K == 1
        np.testing.assert_allclose(snap.centers[0], pts.mean(axis=0), atol=0.5)

    # unchecked, these fail late or not at all: an unpacking error, or NaN
    # centers (with RuntimeWarnings for a sigma of 0 or NaN) after all 500
    # iterations
    @pytest.mark.parametrize("init", [[], [[1.0, 2.0, 3.0]], [[math.nan, 0.0]],
                                      [[math.inf, 0.0]], [1.0, 2.0]],
                             ids=["empty", "three_columns", "nan", "inf", "one_dim"])
    def test_bad_init_centers_rejected(self, init):
        ops = ssc.kernel_operands([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match=r"init_centers must be a finite \(K, 2\)"):
            ssc.converge_centers(ops, init, 1.0, ssc.ScaleSweepConfig())

    @pytest.mark.parametrize("sigma,message", [
        (0.0, "sigma must be finite and positive"), (math.nan, "sigma must be finite"),
        (-1.0, "sigma must be finite"), (math.inf, "sigma must be finite"),
        (1e-200, r"sigma = 1e-200 is too small: 2\*sigma\*\*2 underflows")],
        ids=["zero", "nan", "negative", "inf", "underflow"])
    def test_bad_sigma_rejected(self, sigma, message):
        ops = ssc.kernel_operands([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match=message):
            ssc.converge_centers(ops, [(0.5, 0.0)], sigma, ssc.ScaleSweepConfig())


def test_the_default_sweep_checks_no_spec(monkeypatch):
    """A sweep given no config shares one default, checked when it was built."""
    calls = []
    monkeypatch.setattr(ssc, "require", lambda *args: calls.append(args))
    points = make_blobs([(0, 0), (30, 0)], 5, 1.0, seed=1)
    ssc.scale_sweep(points)
    ssc.cluster_points(points)
    assert calls == []


class TestScaleSweep:
    def test_single_point_single_snapshot(self):
        snaps, truncated = ssc.scale_sweep([(1.0, 1.0)])
        assert len(snaps) == 1 and snaps[0].K == 1 and not truncated

    def test_three_blob_run_exists(self):
        pts = make_blobs([(0, 0), (35, 5), (10, 40)], 100, 2.0, seed=9)
        cfg = ssc.ScaleSweepConfig(sigma0=0.5, k=1.05)
        snaps, truncated = ssc.scale_sweep(pts, cfg)
        assert not truncated
        ks = [s.K for s in snaps]
        assert 3 in ks
        run = max(
            (len(list(g)) for k, g in __import__("itertools").groupby(ks) if k == 3),
            default=0,
        )
        assert run >= 2

    def test_sigma_values_exact_geometric(self):
        pts = make_blobs([(0, 0), (20, 0)], 30, 1.0, seed=3)
        cfg = ssc.ScaleSweepConfig(sigma0=0.7, k=1.1)
        snaps, _ = ssc.scale_sweep(pts, cfg)
        for j, s in enumerate(snaps):
            assert s.sigma == 0.7 * 1.1**j

    def test_monotone_k(self):
        pts = make_blobs([(0, 0), (25, 0), (0, 25)], 60, 2.0, seed=17)
        snaps, _ = ssc.scale_sweep(pts)
        ks = [s.K for s in snaps]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_truncation_flag(self):
        pts = make_blobs([(0, 0), (50, 0)], 20, 0.5, seed=2)
        cfg = ssc.ScaleSweepConfig(sigma0=0.1, max_scales=5)
        snaps, truncated = ssc.scale_sweep(pts, cfg)
        assert truncated and len(snaps) == 5 and snaps[-1].K > 1

    # 2*sigma0**2 underflows to 0 below ~1e-162: the kernel of a center at
    # its own point is then 0/0, which used to give NaN centers, a sweep run
    # out to max_scales and every point labelled 0
    UNDERFLOW_POINTS = np.array([[0.0, 0.0], [1e-170, 0.0], [0.0, 2e-170]])

    def test_underflowing_sigma0_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            ssc.ScaleSweepConfig(sigma0=1e-170, epsilon=1e-171)
        with pytest.raises(ValueError, match="underflows"):
            ssc.cluster_points(self.UNDERFLOW_POINTS,
                               ssc.ScaleSweepConfig(sigma0=1e-170, epsilon=1e-171))

    def test_underflowing_default_sigma0_rejected(self):
        # the default sigma0 is clamped to epsilon, which underflows here
        cfg = ssc.ScaleSweepConfig(epsilon=1e-171)
        with pytest.raises(ValueError, match="underflows"):
            ssc.scale_sweep(self.UNDERFLOW_POINTS, cfg)

    def test_sigma0_below_epsilon_rejected(self):
        # epsilon is the smallest starting scale: the default sigma0 is
        # clamped up to it, and a given one below it is rejected
        pts = make_blobs([(0, 0), (20, 0)], 10, 1.0, seed=4)
        with pytest.raises(ValueError, match=r"sigma0 = 0\.001 is below epsilon = 0\.01"):
            ssc.ScaleSweepConfig(sigma0=0.001)
        with pytest.raises(ValueError, match="below epsilon"):
            ssc.cluster_points(pts, ssc.ScaleSweepConfig(sigma0=0.001))
        ssc.ScaleSweepConfig(sigma0=0.01)  # sigma0 == epsilon is fine

    def test_kernel_operands_built_once_per_sweep(self, monkeypatch):
        calls = []
        build = ssc.kernel_operands
        monkeypatch.setattr(ssc, "kernel_operands", lambda pts: calls.append(1) or build(pts))
        snaps, _ = ssc.scale_sweep(make_blobs([(0, 0), (12, 0)], 10, 1.0, seed=6))
        assert len(snaps) >= 10 and len(calls) == 1

    def test_tiny_valid_sigma0_accepted(self):
        cfg = ssc.ScaleSweepConfig(sigma0=1e-150, epsilon=1e-150, max_scales=3)
        snaps, _ = ssc.scale_sweep(self.UNDERFLOW_POINTS * 1e20, cfg)
        assert all(np.isfinite(s.centers).all() for s in snaps)


def snapshots_from_ks(ks, sigma0=0.5, k=1.05):
    """A hand-built ladder; snapshot j's centers all sit at (j, j)."""
    return [
        ssc.ClusterSnapshot(sigma=sigma0 * k**j, centers=np.full((kk, 2), float(j)))
        for j, kk in enumerate(ks)
    ]


class TestLifetimeTable:
    def test_consecutive_step_counts(self):
        table = ssc.build_lifetime_table(snapshots_from_ks([3, 3, 3, 2, 2, 1]))
        assert table == {3: (0, 2), 2: (3, 4), 1: (5, 5)}

    def test_single_snapshot(self):
        assert ssc.build_lifetime_table(snapshots_from_ks([4])) == {4: (0, 0)}

    def test_keys_match_brute_force_scan(self):
        pts = make_blobs([(0, 0), (28, 3), (5, 30)], 80, 2.0, seed=12)
        snaps, _ = ssc.scale_sweep(pts, ssc.ScaleSweepConfig())
        table = ssc.build_lifetime_table(snaps)
        assert set(table) == {s.K for s in snaps}
        for K, (first, last) in table.items():
            assert [j for j, s in enumerate(snaps) if s.K == K] == list(range(first, last + 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ssc.build_lifetime_table([])

    @pytest.mark.parametrize("ks, at", [([2, 3], 1), ([3, 2, 2, 3, 1], 3)])
    def test_growing_k_rejected(self, ks, at):
        # a sweep never lets K grow; a ladder where it does is not one
        with pytest.raises(ValueError, match=f"K grows from .* at snapshot {at}$"):
            ssc.build_lifetime_table(snapshots_from_ks(ks))


class TestSelectModel:
    def test_longest_run_lower_median(self):
        snaps = snapshots_from_ks([3, 3, 3, 3, 2, 1])
        table = ssc.build_lifetime_table(snaps)
        model = ssc.select_model(snaps, table)
        assert model.K == 3
        assert model.sigma_star == snaps[1].sigma  # lower median of 4 scales

    def test_k1_only_fallback(self):
        snaps = snapshots_from_ks([1])
        table = ssc.build_lifetime_table(snaps)
        assert ssc.select_model(snaps, table).K == 1

    def test_k1_excluded_even_if_longest(self):
        snaps = snapshots_from_ks([2, 1, 1, 1, 1, 1])
        table = ssc.build_lifetime_table(snaps)
        assert ssc.select_model(snaps, table).K == 2

    def test_tie_breaks_toward_larger_k(self):
        snaps = snapshots_from_ks([3, 3, 2, 2, 1])
        table = ssc.build_lifetime_table(snaps)
        assert ssc.select_model(snaps, table).K == 3

    def test_three_blob_recovery_vs_blob_means(self):
        centers = [(0, 0), (32, 4), (8, 36)]
        pts = make_blobs(centers, 100, 2.0, seed=23)
        result = ssc.cluster_points(pts)
        assert result.model.K == 3
        # oracle: per-blob brute-force means
        for i, c in enumerate(centers):
            blob_mean = pts[i * 100 : (i + 1) * 100].mean(axis=0)
            d = np.linalg.norm(result.model.centers - blob_mean, axis=1).min()
            assert d < 0.5


class TestAssignPoints:
    def model(self, centers, sigma):
        return ssc.SelectedModel(
            centers=np.asarray(centers, dtype=np.float64), sigma_star=sigma
        )

    def test_outlier_beyond_sigma_star(self):
        a = ssc.assign_points([(3.0, 0.0)], self.model([(0, 0)], 2.0))
        assert a.labels[0] == ssc.OUTLIER

    def test_inlier_within_sigma_star(self):
        a = ssc.assign_points([(1.0, 1.0)], self.model([(0, 0)], 2.0))
        assert a.labels[0] == 0

    def test_equidistant_takes_lower_index(self):
        a = ssc.assign_points([(1.0, 0.0)], self.model([(0, 0), (2, 0)], 5.0))
        assert a.labels[0] == 0

    def test_assignment_invariants(self):
        pts = make_blobs([(0, 0), (30, 0)], 40, 1.5, seed=31)
        result = ssc.cluster_points(pts)
        labels = result.assignment.labels
        dists = np.linalg.norm(
            pts[:, None, :] - result.model.centers[None, :, :], axis=2
        )
        for i, lab in enumerate(labels):
            if lab == ssc.OUTLIER:
                assert dists[i].min() > result.model.sigma_star
            else:
                assert dists[i, lab] <= result.model.sigma_star
                assert dists[i, lab] <= dists[i].min() + 1e-12


class TestGlobalProperties:
    def test_translation_equivariance(self):
        pts = make_blobs([(0, 0), (25, 10)], 50, 1.5, seed=41)
        shift = np.array([113.0, -47.0])
        cfg = ssc.ScaleSweepConfig(sigma0=0.8)
        r1 = ssc.cluster_points(pts, cfg)
        r2 = ssc.cluster_points(pts + shift, cfg)
        assert r1.model.K == r2.model.K
        assert r1.model.sigma_star == r2.model.sigma_star
        c1 = r1.model.centers[np.lexsort(r1.model.centers.T)]
        c2 = r2.model.centers[np.lexsort((r2.model.centers - shift).T)]
        np.testing.assert_allclose(c1 + shift, c2, atol=1e-9)
        np.testing.assert_array_equal(r1.assignment.labels == ssc.OUTLIER,
                                      r2.assignment.labels == ssc.OUTLIER)
        assert ssc.build_lifetime_table(r1.snapshots) == ssc.build_lifetime_table(r2.snapshots)

    def test_bitwise_determinism(self):
        pts = make_blobs([(0, 0), (18, 12), (40, 2)], 70, 2.0, seed=55)
        r1 = ssc.cluster_points(pts)
        r2 = ssc.cluster_points(pts)
        assert np.array_equal(r1.model.centers, r2.model.centers)
        assert r1.model.sigma_star == r2.model.sigma_star
        assert np.array_equal(r1.assignment.labels, r2.assignment.labels)


# ---------------------------------------------------------------------------
# reference sweeps: the straightforward mean-shift loop, all in numpy. With
# the expanded exponent and the product mass it is the one the fast loop must
# match bit for bit; with the direct distances and row sums it is the one the
# fast loop must match in K, iterations and partitions, and in centers within
# 1e-8.
# ---------------------------------------------------------------------------

def ref_shift_all(points, centers, sigma):
    """(x, y, x^2 + y^2, 1) @ [-2px, -2py, 1, px^2 + py^2] / (-2 sigma^2) is
    the exponent, and one product with [px, py, 1] gives the weighted sums
    and the mass."""
    px, py = points[:, 0], points[:, 1]
    ones = np.ones_like(px)
    rows = np.column_stack([centers, centers[:, 0] ** 2 + centers[:, 1] ** 2,
                            np.ones(len(centers))])
    exponent = (np.stack([-2.0 * px, -2.0 * py, ones, px * px + py * py])
                / (-2.0 * sigma * sigma))
    sums = np.exp(rows @ exponent) @ np.column_stack([px, py, ones])
    return _normalise(sums[:, :2], sums[:, 2], centers)


def ref_shift_all_direct(points, centers, sigma):
    """exp(-|c - p|^2 / (2 sigma^2)) from the differences, with numpy's row
    sums for the mass."""
    diff = centers[:, None, :] - points[None, :, :]
    w = np.exp(-(diff * diff).sum(axis=2) / (2.0 * sigma * sigma))
    return _normalise(w @ points, w.sum(axis=1), centers)


def _normalise(moved, total, centers):
    isolated = total < np.finfo(np.float64).tiny
    safe = np.where(isolated, 1.0, total)
    new = moved / safe[:, None]
    new[isolated] = centers[isolated]
    return new, isolated


def ref_merge(centers, tol):
    """The depth-first search over the "within tol" matrix that the closure
    in `_merge_centers` replaced, with no shortcut for nothing merging."""
    n = len(centers)
    if n == 1:
        return centers.copy()
    diff = centers[:, None, :] - centers[None, :, :]
    close = (diff * diff).sum(axis=2) <= tol * tol
    comp = np.full(n, -1, dtype=np.int64)
    n_comp = 0
    for i in range(n):
        if comp[i] >= 0:
            continue
        stack = [i]
        comp[i] = n_comp
        while stack:
            j = stack.pop()
            for m in np.nonzero(close[j] & (comp < 0))[0]:
                comp[m] = n_comp
                stack.append(int(m))
        n_comp += 1
    return np.stack([centers[comp == c].mean(axis=0) for c in range(n_comp)])


# ---------------------------------------------------------------------------
# reference selection: the float lifetimes the run lengths replaced, scored
# from epsilon with the constant log 1.05 whatever the ladder's k
# ---------------------------------------------------------------------------

def ref_lifetime(sigma, cfg):
    """log(sigma / epsilon) / log(1.05)."""
    if sigma < cfg.epsilon:
        raise ValueError("sigma must be >= epsilon")
    return 1.0 / math.log(1.05) * math.log(sigma / cfg.epsilon)


def ref_lifetime_table(snapshots, cfg):
    """{K: (sigma_inf, sigma_sup, lifetime)} of each K's longest run."""
    entries = {}
    j = 0
    while j < len(snapshots):
        k_val = snapshots[j].K
        j2 = j
        while j2 + 1 < len(snapshots) and snapshots[j2 + 1].K == k_val:
            j2 += 1
        life = (ref_lifetime(snapshots[j2].sigma, cfg)
                - ref_lifetime(snapshots[j].sigma, cfg))
        if k_val not in entries or life > entries[k_val][2]:
            entries[k_val] = (snapshots[j].sigma, snapshots[j2].sigma, life)
        j = j2 + 1
    return entries


def ref_select(snapshots, entries):
    """(K, sigma_star, centers): the longest-lived K other than 1, ties
    within 1e-9 to the larger K, at the lower median scale of its run."""
    entries = dict(entries)
    if len(entries) > 1:
        entries.pop(1, None)
    best_life = max(e[2] for e in entries.values())
    best_k = max(k for k, e in entries.items() if e[2] >= best_life - 1e-9)
    lo, hi, _ = entries[best_k]
    run = [j for j, s in enumerate(snapshots) if s.K == best_k and lo <= s.sigma <= hi]
    snap = snapshots[run[(len(run) - 1) // 2]]
    return snap.K, snap.sigma, snap.centers


def assert_selection_matches_reference(snapshots, cfg):
    model = ssc.select_model(snapshots, ssc.build_lifetime_table(snapshots))
    K, sigma_star, centers = ref_select(snapshots, ref_lifetime_table(snapshots, cfg))
    assert model.K == K and model.sigma_star == sigma_star
    assert np.array_equal(model.centers, centers)


def ref_converge(points, init_centers, sigma, cfg, shift=ref_shift_all):
    """(merged centers, iterations, whether any row was isolated)."""
    centers = np.array(init_centers, dtype=np.float64)
    tol = cfg.convergence_tol * sigma
    active = np.ones(len(centers), dtype=bool)
    iters, any_isolated = 0, False
    for _ in range(cfg.max_inner_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        iters += 1
        new, isolated = shift(points, centers[idx], sigma)
        any_isolated |= bool(isolated.any())
        moved = np.linalg.norm(new - centers[idx], axis=1)
        centers[idx] = new
        active[idx[(moved < tol) | isolated]] = False
    return ref_merge(centers, cfg.merge_tol * sigma), iters, any_isolated


def ref_sigma0(points, cfg):
    return (cfg.sigma0 if cfg.sigma0 is not None
            else ssc.default_sigma0(ssc.pairwise_distances(points), cfg))


def ref_sweep(points, cfg, shift=ref_shift_all):
    """([(sigma, centers, iters)], truncated), run on to K = 1 or max_scales."""
    points = ssc.as_points(points)
    sigma0 = ref_sigma0(points, cfg)
    snaps, seeds = [], points
    for j in range(cfg.max_scales):
        sigma = sigma0 * cfg.k**j
        centers, iters, _ = ref_converge(points, seeds, sigma, cfg, shift)
        snaps.append((float(sigma), centers, iters))
        seeds = centers
        if len(centers) == 1:
            return snaps, False
    return snaps, True


# each (cloud, config, shift) is swept once per session: several tests and
# both checks of `assert_sweep_matches_reference` read the same sweep
_REF_SWEEPS = {}


def cached_ref_sweep(points, cfg, shift=ref_shift_all):
    points = ssc.as_points(points)
    key = (points.tobytes(), repr(cfg), shift.__name__)
    if key not in _REF_SWEEPS:
        _REF_SWEEPS[key] = ref_sweep(points, cfg, shift)
    return _REF_SWEEPS[key]


def ref_j_max(points, cfg):
    """The first scale j < max_scales where, for the diameter D and
    rho = (D / 2 sigma_j)^2, rho < 1, 2 convergence_tol rho / (1 - rho) <=
    merge_tol and rho^(max_inner_iters - 1) D < convergence_tol sigma_j;
    else None."""
    pts = ssc.as_points(points).tolist()
    diameter = max(math.dist(p, q) for p in pts for q in pts)
    sigma0 = ref_sigma0(ssc.as_points(points), cfg)
    for j in range(cfg.max_scales):
        sigma = sigma0 * cfg.k**j
        rho = diameter**2 / (4.0 * sigma**2)
        if (rho < 1.0 and 2.0 * cfg.convergence_tol * rho / (1.0 - rho) <= cfg.merge_tol
                and rho ** (cfg.max_inner_iters - 1) * diameter < cfg.convergence_tol * sigma):
            return j
    return None


def ref_stop(ks, j_max):
    """The first snapshot j of a full sweep's K ladder after which the sweep
    may stop: j < j_max, K_j >= 2, and some run that ended before K_j's began
    spans at least j_max - 1 - first scale steps, where K_j's run began at
    `first`. None if there is none."""
    if j_max is None:
        return None
    for j in range(min(j_max, len(ks))):
        first = ks.index(ks[j])
        closed = [ks.count(K) - 1 for K in set(ks[:first])]
        if ks[j] >= 2 and closed and max(closed) >= j_max - 1 - first:
            return j
    return None


def cut_ref_sweep(points, cfg, shift=ref_shift_all):
    """The full reference sweep, the part of it a stopping sweep returns,
    and that part's truncation flag."""
    want, want_truncated = cached_ref_sweep(points, cfg, shift)
    j_max = ref_j_max(points, cfg)
    # the bound: the sweep reaches K = 1 by j_max
    assert j_max is None or (not want_truncated and len(want) <= j_max + 1)
    stop = ref_stop([len(centers) for _, centers, _ in want], j_max)
    if stop is None:
        return want, want, want_truncated
    return want, want[:stop + 1], False


def proposal_cloud(objects, redundancy, background, seed):
    spec = synth.SceneSpec(object_count_range=(objects, objects))
    noise = synth.ProposalNoiseSpec(redundancy=redundancy, background_count=background)
    scene = synth.generate_scene(spec, seed=seed)
    return synth.generate_proposals(scene, noise, seed=seed + 1).centers()


def assert_selects_as_full_reference(result, points, full, cfg):
    """The model and labels of `result` are those the reference selection
    picks over the full reference sweep `full`."""
    snaps = [ssc.ClusterSnapshot(sigma, centers, iters) for sigma, centers, iters in full]
    K, sigma_star, centers = ref_select(snaps, ref_lifetime_table(snaps, cfg))
    assert result.model.K == K and result.model.sigma_star == sigma_star
    assert np.array_equal(result.model.centers, centers)
    labels = ssc.assign_points(points, ssc.SelectedModel(centers, sigma_star)).labels
    assert np.array_equal(result.assignment.labels, labels)


def assert_sweep_matches_reference(points, cfg):
    """The sweep is the full reference sweep cut where the reference stop
    rule fires, snapshot for snapshot and bit for bit, and it selects what
    the full reference sweep selects."""
    result = ssc.cluster_points(points, cfg)
    full, want, want_truncated = cut_ref_sweep(points, cfg)
    snaps = result.snapshots
    assert result.truncated == want_truncated
    assert len(snaps) == len(want)
    for snap, (sigma, centers, iters) in zip(snaps, want):
        assert snap.sigma == sigma
        assert snap.centers.shape == centers.shape
        assert np.array_equal(snap.centers, centers)
        assert snap.iters == iters
    assert_selects_as_full_reference(result, points, full, cfg)
    return snaps, result.truncated


def assert_sweep_near_direct_reference(points, cfg):
    """The same K and iterations at every scale, the same selected model
    and labels, and centers within 1e-8 of the direct-distance sweep."""
    result = ssc.cluster_points(points, cfg)
    _, want, want_truncated = cut_ref_sweep(points, cfg, ref_shift_all_direct)
    assert result.truncated == want_truncated
    assert ([(s.sigma, s.K, s.iters) for s in result.snapshots]
            == [(sigma, len(centers), iters) for sigma, centers, iters in want])
    for snap, (_, centers, _) in zip(result.snapshots, want):
        np.testing.assert_allclose(snap.centers, centers, rtol=0.0, atol=1e-8)
    snaps = [ssc.ClusterSnapshot(sigma, centers, iters) for sigma, centers, iters in want]
    model = ssc.select_model(snaps, ssc.build_lifetime_table(snaps))
    assert result.model.K == model.K and result.model.sigma_star == model.sigma_star
    assert np.array_equal(result.assignment.labels, ssc.assign_points(points, model).labels)


# (objects, redundancy, background) -> N = objects * redundancy + background
PROPOSAL_LAYOUTS = [((1, 1, 0), 1), ((1, 2, 0), 2), ((2, 3, 2), 8), ((2, 12, 2), 26),
                    ((4, 12, 2), 50)]


class TestSweepBitIdentity:
    @pytest.mark.parametrize("layout,n", PROPOSAL_LAYOUTS)
    @pytest.mark.parametrize("seed", [3, 40])
    def test_proposal_clouds(self, layout, n, seed):
        pts = proposal_cloud(*layout, seed=seed)
        assert len(pts) == n
        assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig())

    def test_coincident_centers(self):
        pts = np.array([(3.0, 3.0)] * 4 + [(10.0, 10.0)] * 3 + [(10.0, 14.0)])
        snaps, _ = assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig())
        assert snaps[0].K <= 3  # coincident seeds leave one center

    def test_tiny_sigma0(self):
        # every kernel but a point's own underflows, so every row stops after
        # one iteration at the first scales
        pts = proposal_cloud(2, 3, 2, seed=5)
        cfg = ssc.ScaleSweepConfig(sigma0=1e-3, epsilon=1e-3, max_scales=40)
        snaps, truncated = assert_sweep_matches_reference(pts, cfg)
        assert truncated and snaps[0].iters == 1

    def test_isolated_rows(self):
        # rows started far from every point at a tiny scale have underflowed
        # kernel mass and stay put, beside rows that converge
        pts = proposal_cloud(2, 6, 2, seed=7)
        init = np.concatenate([pts[:5], [(1e4, 1e4), (-3e3, 50.0)]])
        cfg = ssc.ScaleSweepConfig()
        for sigma in (0.5, 2.0):
            snap = ssc.converge_centers(ssc.kernel_operands(pts), init, sigma, cfg)
            centers, iters, any_isolated = ref_converge(pts, init, sigma, cfg)
            assert any_isolated
            assert np.array_equal(snap.centers, centers) and snap.iters == iters
            assert any(np.array_equal(c, [1e4, 1e4]) for c in snap.centers)

    def test_truncated_sweep(self):
        pts = proposal_cloud(4, 12, 2, seed=11)
        cfg = ssc.ScaleSweepConfig(max_scales=5)
        snaps, truncated = assert_sweep_matches_reference(pts, cfg)
        assert truncated and len(snaps) == 5

    def test_out_of_iterations(self):
        # max_inner_iters cuts every scale short while rows still move
        pts = proposal_cloud(3, 6, 2, seed=13)
        cfg = ssc.ScaleSweepConfig(max_inner_iters=3)
        snaps, _ = assert_sweep_matches_reference(pts, cfg)
        assert max(s.iters for s in snaps) == 3

    def test_transitive_chain_merges_to_one(self):
        # 0~1 and 1~2 are within tol, 0~2 is not: one component
        centers = np.array([(0.0, 0.0), (0.6, 0.0), (1.2, 0.0), (5.0, 5.0)])
        merged = ssc._merge_centers(centers, 1.0)
        assert np.array_equal(merged, ref_merge(centers, 1.0))
        assert np.array_equal(merged, [[0.6, 0.0], [5.0, 5.0]])

    def test_no_merge_returns_copy(self):
        centers = np.array([(0.0, 0.0), (1.5, 0.0), (0.0, 1.5)])
        merged = ssc._merge_centers(centers, 1.0)
        assert np.array_equal(merged, ref_merge(centers, 1.0))
        assert np.array_equal(merged, centers) and merged is not centers


class TestEarlyStop:
    """The sweep stops where the reference stop rule fires, and no earlier;
    `assert_sweep_matches_reference` also checks the bound on the full
    reference sweep."""

    # 3 proposals on each of 2 objects plus 2 background. Seed 40: K = 5 at
    # scale 0, 4 for 30 scales, then 3 for 3, 2 for 8 and 1, with the bound
    # at scale 57. Seed 2: K = 4 spans 22 steps (snapshots 9-31), and the
    # K = 2 run begun at 37 can span at most 60 - 1 - 37 = 22 before the
    # bound: a tie, which the larger K wins, so the sweep stops as that run
    # begins
    @pytest.mark.parametrize("seed,stopped,full_length", [(40, 32, 43), (2, 38, 49)])
    def test_the_stop_fires_on_a_proposal_cloud(self, seed, stopped, full_length):
        pts = proposal_cloud(2, 3, 2, seed=seed)
        snaps, truncated = assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig())
        full, _ = cached_ref_sweep(pts, ssc.ScaleSweepConfig())
        assert (len(snaps), len(full)) == (stopped, full_length) and not truncated
        assert snaps[-1].K > 1 and full[-1][1].shape == (1, 2)

    def test_two_points_at_rho_one(self):
        # the default sigma0 is half their distance, so rho = 1 at scale 0:
        # no contraction, and the rows run out of iterations apart
        pts = np.array([(0.0, 0.0), (3.0, 0.0)])
        snaps, truncated = assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig())
        assert [(s.K, s.iters) for s in snaps] == [(2, 500), (1, 88)] and not truncated

    def test_equilateral_triangle(self):
        # by symmetry K = 3 holds until the three centers merge at once, so
        # no run closes before K = 1 and the stop never fires
        pts = np.array([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))])
        snaps, _ = assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig(sigma0=0.25))
        assert [s.K for s in snaps] == [3] * 26 + [1]

    def test_coincident_points(self):
        # D = 0: every scale is past the bound, and scale 0 already ends
        snaps, truncated = assert_sweep_matches_reference(np.array([(2.0, 5.0)] * 4),
                                                          ssc.ScaleSweepConfig())
        assert len(snaps) == 1 and snaps[0].K == 1 and not truncated

    def test_no_stop_when_the_bound_lies_beyond_max_scales(self):
        # the bound's scale is 57 here; taking max_scales = 40 in its place
        # would stop at snapshot 31, where the K = 4 run outlasts any other
        pts = proposal_cloud(2, 3, 2, seed=40)
        snaps, truncated = assert_sweep_matches_reference(pts,
                                                          ssc.ScaleSweepConfig(max_scales=40))
        assert truncated and len(snaps) == 40 and snaps[-1].K == 2

    def test_one_iteration_per_scale(self):
        # rows cut off after one step have no bound on their spread, so the
        # bound waits until one step is below the convergence tolerance
        # (scale 358); rho < 1 alone, from scale 61, would stop at 57
        pts = proposal_cloud(3, 6, 2, seed=3)
        snaps, truncated = assert_sweep_matches_reference(
            pts, ssc.ScaleSweepConfig(max_inner_iters=1))
        assert len(snaps) == 63 and snaps[-1].K == 1 and not truncated

    def test_a_bound_beyond_the_float_range(self):
        # a step of up to D = 1e9 is below 1e-300 sigma only for sigma >
        # 1e309: sigma0 * 10.0**300 is inf and 10.0**309 raises, and neither
        # is a bound, so the sweep runs as if there were none
        cfg = ssc.ScaleSweepConfig(k=10.0, convergence_tol=1e-300, max_inner_iters=1)
        assert ssc._one_center_scale(1e9, 5e8, cfg) is None
        snaps, truncated = ssc.scale_sweep([(0.0, 0.0), (1e9, 0.0)], cfg)
        assert [s.K for s in snaps] == [2, 1] and not truncated

    def test_points_whose_squares_overflow_are_rejected(self):
        pts = [[1e160, 0.0], [1e160, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="points must lie within"):
            ssc.scale_sweep(pts)
        with pytest.raises(ValueError, match="points must lie within"):
            ssc.cluster_points(pts)

    @pytest.mark.parametrize("pts,scale,sigma,largest", [
        ([[1e8, 1e8], [1e8 + 0.02, 1e8], [1e8 + 5, 1e8], [1e8 + 5.02, 1e8]],
         0, "0.01", "1e+08"),
        ([[1e150, 0.0], [1e150 + 1e140, 0.0]], 0, "4.99999", "1e+150"),
    ], ids=["offset_1e8", "offset_1e150"])
    def test_centers_that_turn_non_finite_name_the_cause(self, pts, scale, sigma, largest):
        # within _COORD_LIMIT, but so far from the origin that the expanded
        # exponent's rounding error overflows exp at scale 0, and scale 1
        # would start from NaN seeds
        with pytest.warns(RuntimeWarning) as warned:
            with pytest.raises(ValueError) as err:
                ssc.cluster_points(pts)
        assert "overflow encountered in exp" in [str(w.message) for w in warned]
        message = str(err.value)
        assert message.startswith(f"scale {scale} (sigma = {sigma}")
        assert "kernel exponent lost its precision" in message
        assert f"coordinates up to {largest}," in message


class TestMergeCenters:
    def test_a_pair_exactly_at_tol_merges(self):
        # 0.75^2 + 1^2 == 1.25^2 in binary, so the test is decided by `<=`
        centers = np.array([(0.0, 0.0), (0.75, 1.0)])
        merged = ssc._merge_centers(centers, 1.25)
        assert np.array_equal(merged, ref_merge(centers, 1.25))
        assert np.array_equal(merged, [[0.375, 0.5]])

    def test_a_pair_just_beyond_tol_stays_apart(self):
        centers = np.array([(0.0, 0.0), (0.75, 1.0)])
        tol = np.nextafter(1.25, 0)
        assert np.array_equal(ssc._merge_centers(centers, tol), centers)
        assert np.array_equal(ref_merge(centers, tol), centers)

    def test_a_shuffled_chain_merges_transitively(self):
        # a chain along x, listed out of order, with a far center that sits
        # between its links in x and a copy of one link
        chain = [(0.9 * i, 0.3 * (i % 2)) for i in range(6)]
        centers = np.array([chain[3], (2.0, 9.0), chain[0], chain[5], chain[1],
                            chain[4], chain[2], chain[1]])
        merged = ssc._merge_centers(centers, 1.0)
        assert np.array_equal(merged, ref_merge(centers, 1.0))
        assert len(merged) == 2 and np.array_equal(merged[1], [2.0, 9.0])

    def test_lone_centers_come_out_as_their_mean_when_others_merge(self):
        # the mean of -0.0 alone is 0.0; np.array_equal cannot tell them apart
        centers = np.array([(-0.0, 5.0), (3.0, 3.0), (3.5, 3.0)])
        merged = ssc._merge_centers(centers, 1.0)
        assert merged.tobytes() == ref_merge(centers, 1.0).tobytes()
        assert merged.tobytes() == np.array([(0.0, 5.0), (3.25, 3.0)]).tobytes()


class TestRowWriteBack:
    """Rows leave the active set in the iteration they stop, in place."""

    def test_isolated_stopped_and_moving_rows_in_one_iteration(self):
        # at sigma 1.5, in iteration 1: row 0 is far from every point and
        # isolated, row 1 sits on the mode between (-1, 0) and (1, 0) and
        # stops, row 2 starts off the mode of the right pair and moves on
        pts = np.array([(-1.0, 0.0), (1.0, 0.0), (20.0, -1.0), (20.0, 1.0)])
        init = np.array([(1e4, 1e4), (0.0, 0.0), (20.0, 0.7)])
        cfg, sigma = ssc.ScaleSweepConfig(), 1.5
        ops = ssc.kernel_operands(pts)
        one = ssc.converge_centers(ops, init, sigma, ssc.ScaleSweepConfig(max_inner_iters=1))
        snap = ssc.converge_centers(ops, init, sigma, cfg)
        centers, iters, any_isolated = ref_converge(pts, init, sigma, cfg)
        assert any_isolated and iters > 1
        assert np.array_equal(snap.centers, centers) and snap.iters == iters
        assert np.array_equal(snap.centers[0], init[0])       # left in place
        assert np.array_equal(snap.centers[1], one.centers[1])  # stopped after one step
        assert not np.array_equal(snap.centers[1], init[1])
        assert not np.array_equal(snap.centers[2], one.centers[2])  # kept moving
        assert abs(snap.centers[2, 1]) < 1e-5

    def test_every_row_stops_in_the_first_iteration(self):
        # every point's kernel reaches only itself at this scale, so each row
        # started on a point stays there; the last row is isolated
        pts = np.array([(0.0, 0.0), (3.0, 1.0), (7.5, -2.25)])
        init = np.concatenate([pts, [(500.0, 500.0)]])
        cfg, sigma = ssc.ScaleSweepConfig(), 0.05
        snap = ssc.converge_centers(ssc.kernel_operands(pts), init, sigma, cfg)
        centers, iters, any_isolated = ref_converge(pts, init, sigma, cfg)
        assert snap.iters == iters == 1 and any_isolated
        assert np.array_equal(snap.centers, centers)
        assert np.array_equal(snap.centers, init)


class TestLoneRow:
    """The last moving row iterates alone, on 1-D products; its centers and
    iteration count match the batched reference bit for bit."""

    POINTS = np.array([(-1.0, 0.0), (1.0, 0.0), (20.0, -1.0), (20.0, 1.0)])

    def assert_matches_reference(self, init, sigma, cfg):
        snap = ssc.converge_centers(ssc.kernel_operands(self.POINTS), init, sigma, cfg)
        centers, iters, any_isolated = ref_converge(self.POINTS, init, sigma, cfg)
        assert snap.centers.tobytes() == centers.tobytes() and snap.iters == iters
        return snap, any_isolated

    def test_an_isolated_row_stays_in_place(self):
        snap, any_isolated = self.assert_matches_reference([(1e4, 1e4)], 0.5,
                                                           ssc.ScaleSweepConfig())
        assert any_isolated and snap.iters == 1
        assert snap.centers.tobytes() == np.array([(1e4, 1e4)]).tobytes()

    @pytest.mark.parametrize("max_inner_iters", [500, 3])
    def test_a_row_at_rho_one_runs_out_of_iterations(self, max_inner_iters):
        # the left pair is 2 apart, so at sigma 1 the mean shift's contraction
        # factor is 1 and the row creeps toward 0 by less each step
        cfg = ssc.ScaleSweepConfig(max_inner_iters=max_inner_iters)
        snap, _ = self.assert_matches_reference([(0.3, 0.0)], 1.0, cfg)
        assert snap.iters == max_inner_iters

    def test_a_row_continues_alone_once_the_other_stops(self):
        # (20.5, 0) steps onto the right pair's mode and stops in iteration
        # 2; (0.3, 0) runs on alone to the end
        cfg = ssc.ScaleSweepConfig()
        ops = ssc.kernel_operands(self.POINTS)
        assert ssc.converge_centers(ops, [(20.5, 0.0)], 1.0, cfg).iters == 2
        snap, _ = self.assert_matches_reference([(0.3, 0.0), (20.5, 0.0)], 1.0, cfg)
        assert snap.iters == 500


class TestIterationCounter:
    def test_single_point_stops_after_one_iteration(self):
        snap = ssc.converge_centers(ssc.kernel_operands([(2.0, 3.0)]), [(2.0, 3.0)], 1.0,
                                    ssc.ScaleSweepConfig())
        assert snap.iters == 1

    def test_counts_match_reference_and_sum(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.2), (9.0, 9.0), (9.5, 8.0)])
        cfg = ssc.ScaleSweepConfig()
        result = ssc.cluster_points(pts, cfg)
        _, want, _ = cut_ref_sweep(pts, cfg)
        assert [s.iters for s in result.snapshots] == [it for _, _, it in want]
        assert all(s.iters >= 1 for s in result.snapshots)
        assert result.inner_iters == sum(it for _, _, it in want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    grid=st.lists(st.tuples(st.integers(0, 256), st.integers(0, 256)),
                  min_size=1, max_size=20),
    e=st.integers(-3, 4),
)
def test_scale_equivariance(grid, e):
    # points on a quarter-pixel grid and power-of-two factors keep every
    # step exact, so labels must match and scales and centers scale exactly
    pts = np.asarray(grid, dtype=np.float64) / 4.0
    f = 2.0**e
    cfg = ssc.ScaleSweepConfig()
    r1 = ssc.cluster_points(pts, cfg)
    r2 = ssc.cluster_points(pts * f, ssc.ScaleSweepConfig(epsilon=cfg.epsilon * f))
    assert np.array_equal(r1.assignment.labels, r2.assignment.labels)
    assert r2.model.sigma_star == r1.model.sigma_star * f
    assert np.array_equal(r2.model.centers, r1.model.centers * f)
    assert [s.iters for s in r1.snapshots] == [s.iters for s in r2.snapshots]


# 1 to 30 points in [0, 40]^2, some of them repeated
random_clouds = dict(
    cloud=st.integers(1, 25).flatmap(lambda n: st.lists(
        st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)), min_size=n, max_size=n)),
    repeats=st.lists(st.integers(0, 24), max_size=5),
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(**random_clouds)
def test_sweep_matches_reference_on_random_clouds(cloud, repeats):
    # 1 to 30 points, some of them repeated; every snapshot bit for bit
    pts = np.array(cloud + [cloud[i % len(cloud)] for i in repeats])
    assert_sweep_matches_reference(pts, ssc.ScaleSweepConfig())


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    blobs=st.lists(st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0), st.integers(1, 5)),
                   min_size=2, max_size=4),
    jitter=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=20, max_size=20),
    cfg=st.sampled_from([ssc.ScaleSweepConfig(), ssc.ScaleSweepConfig(k=1.2),
                         ssc.ScaleSweepConfig(convergence_tol=1e-3, max_inner_iters=60)]),
)
def test_stopped_sweep_selects_as_the_full_sweep_on_blob_clouds(blobs, jitter, cfg):
    # a few proposals on each of two to four objects, where the sweep
    # often decides its selection well before K = 1
    pts = np.array([(x, y) for x, y, n in blobs for _ in range(n)])
    assert_sweep_matches_reference(pts + np.array(jitter[:len(pts)]), cfg)


class TestDirectDistances:
    """The expanded exponent against the direct |c - p|^2: the same
    partitions, with centers apart only in their last bits."""

    @pytest.mark.parametrize("layout,n", PROPOSAL_LAYOUTS)
    @pytest.mark.parametrize("seed", [3, 40])
    def test_proposal_clouds(self, layout, n, seed):
        assert_sweep_near_direct_reference(proposal_cloud(*layout, seed=seed),
                                           ssc.ScaleSweepConfig())

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(**random_clouds)
    def test_random_clouds(self, cloud, repeats):
        pts = np.array(cloud + [cloud[i % len(cloud)] for i in repeats])
        assert_sweep_near_direct_reference(pts, ssc.ScaleSweepConfig())

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    @pytest.mark.parametrize("layout", [(2, 3, 2), (3, 6, 2), (2, 12, 2), (4, 12, 2)])
    def test_a_far_offset_keeps_the_partition(self, layout, offset):
        # |c|^2 - 2 c.p + |p|^2 cancels most where the coordinates are large
        pts = proposal_cloud(*layout, seed=3)
        near = ssc.cluster_points(pts)
        far = ssc.cluster_points(pts + offset)
        assert far.model.K == near.model.K
        assert np.array_equal(far.assignment.labels, near.assignment.labels)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    runs=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    top=st.integers(1, 9),
    k=st.floats(1.01, 2.0),
    sigma0=st.floats(0.01, 5.0),
)
def test_run_length_selection_matches_lifetimes(runs, top, k, sigma0):
    # a non-increasing ladder: run i holds K = top + len(runs) - 1 - i for
    # runs[i] scales, so the last run is K = top
    ks = [top + len(runs) - 1 - i for i, n in enumerate(runs) for _ in range(n)]
    snaps = snapshots_from_ks(ks, sigma0=sigma0, k=k)
    assert_selection_matches_reference(snaps, ssc.ScaleSweepConfig(sigma0=sigma0, k=k))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    cloud=st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
                   min_size=1, max_size=20),
    k=st.sampled_from([1.05, 1.1, 1.3]),
)
def test_k_never_grows_along_a_sweep(cloud, k):
    cfg = ssc.ScaleSweepConfig(k=k)
    snaps, _ = ssc.scale_sweep(np.array(cloud), cfg)
    ks = [s.K for s in snaps]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert_selection_matches_reference(snaps, cfg)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    steps=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                   min_size=1, max_size=30),
    jumps=st.lists(st.integers(0, 29), max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_closure_merge_matches_dfs(steps, jumps, order):
    # random walks with steps near tol = 1 chain near-neighbours; a jump
    # starts a new walk far away, and the centers are shuffled
    walk = np.array(steps)
    for j in jumps:
        if j < len(walk):
            walk[j] += 50.0
    centers = np.cumsum(walk, axis=0)
    centers = centers[order.sample(range(len(centers)), len(centers))]
    assert np.array_equal(ssc._merge_centers(centers, 1.0), ref_merge(centers, 1.0))
