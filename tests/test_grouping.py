import numpy as np
import pytest

from fsalign import grouping as grp
from fsalign import synth, training
from fsalign.scale_space import ScaleSweepConfig

PILES = ((12.0, 12.0), (52.0, 12.0))


def two_object_centers(seed=0, jitter=2.0, per_object=6):
    """Box centers jittered around the two PILES plus two background centers
    whose modes die early in the sweep (moderate distance from the object
    piles), so they end up outliers rather than singleton clusters."""
    rng = np.random.default_rng(seed)
    pts = [(cx + rng.normal() * jitter, cy + rng.normal() * jitter)
           for cx, cy in PILES for _ in range(per_object)]
    pts += [(cx + rng.normal() * 0.7, cy + rng.normal() * 0.7)
            for cx, cy in ((12.0, 25.0), (52.0, 25.5))]
    return np.array(pts)


# corners of a square: the default sigma0 (half the 5th-percentile distance,
# 7.07) starts the sweep where the four modes merge. K = 4 lives one scale,
# with centers 0.55 from the origin, so every point lies farther than
# sigma_star from every center and is an outlier
SQUARE = [(10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)]


class TestBoundingBox:
    def test_corners(self):
        b = grp.BoundingBox(bx=10, by=20, w=4, h=6)
        assert b.corners() == (8.0, 17.0, 12.0, 23.0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            grp.BoundingBox(bx=0, by=0, w=0, h=1)

    def test_iou_identity(self):
        b = grp.BoundingBox(bx=5, by=5, w=4, h=4)
        assert grp.iou(b, b) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        a = grp.BoundingBox(bx=0, by=0, w=2, h=2)
        b = grp.BoundingBox(bx=10, by=0, w=2, h=2)
        assert grp.iou(a, b) == 0.0

    def test_iou_half_overlap(self):
        a = grp.BoundingBox(bx=0, by=0, w=2, h=2)
        b = grp.BoundingBox(bx=1, by=0, w=2, h=2)
        # intersection 1x2=2, union 4+4-2=6
        assert grp.iou(a, b) == pytest.approx(2.0 / 6.0)

    def test_delta_round_trip(self):
        p = grp.BoundingBox(bx=10, by=12, w=8, h=6)
        g = grp.BoundingBox(bx=11.5, by=10.0, w=10.0, h=5.0)
        refined = grp.apply_deltas(p, grp.encode_deltas(p, g))
        assert refined.bx == pytest.approx(g.bx)
        assert refined.by == pytest.approx(g.by)
        assert refined.w == pytest.approx(g.w)
        assert refined.h == pytest.approx(g.h)


class TestClusterProposals:
    """Proposal grouping: `cluster_box_centers` on (N, 2) box centers."""

    def test_single_proposal_single_group(self):
        members, outliers, _ = grp.cluster_box_centers([(10.0, 10.0)])
        assert members == [[0]] and outliers == []

    def test_two_objects_and_background_outliers(self):
        pts = two_object_centers(seed=11)
        members, outliers, res = grp.cluster_box_centers(pts)
        assert res.model.K == 2
        assert set(outliers) == {12, 13}
        # oracle: brute-force distance to the two known object centers
        for m in members:
            for i in m:
                assert min(np.hypot(*(pts[i] - c)) for c in PILES) < 6.0

    def test_partition_property(self):
        pts = two_object_centers(seed=21)
        members, outliers, _ = grp.cluster_box_centers(pts)
        seen = [i for m in members for i in m] + outliers
        assert sorted(seen) == list(range(len(pts)))

    def test_permutation_invariance(self):
        pts = two_object_centers(seed=31)
        perm = np.random.default_rng(0).permutation(len(pts))
        m1, o1, _ = grp.cluster_box_centers(pts)
        m2, o2, _ = grp.cluster_box_centers(pts[perm])
        assert {frozenset(m) for m in m1} == {
            frozenset(int(perm[i]) for i in m) for m in m2
        }
        assert {int(perm[i]) for i in o2} == set(o1)

    def test_adaptive_k_tracks_object_count(self):
        rng = np.random.default_rng(51)

        def make_centers(objects):
            return np.array([(cx + rng.normal(), cy + rng.normal())
                             for cx, cy in objects for _ in range(6)])

        cfg = ScaleSweepConfig()
        _, _, r2 = grp.cluster_box_centers(make_centers([(10, 10), (50, 50)]), cfg)
        centers5 = [(10, 10), (50, 10), (10, 50), (50, 50), (30, 30)]
        _, _, r5 = grp.cluster_box_centers(make_centers(centers5), cfg)
        assert r2.model.K == 2
        assert r5.model.K == 5

    def test_coincident_centers_far_point_is_outlier(self):
        members, outliers, _ = grp.cluster_box_centers([(0, 0), (0, 0), (200, 200)])
        assert members == [[0, 1]] and outliers == [2]


class TestDegenerateFallback:
    def test_evenly_spaced_centers_raise(self):
        with pytest.raises(grp.DegenerateGroupingError) as err:
            grp.cluster_box_centers(SQUARE)
        # the error carries the clustering that flagged every proposal
        result = err.value.result
        assert (result.assignment.labels == -1).all()
        assert result.model.K == 4 and not result.truncated

    def test_trainer_falls_back_to_one_group(self):
        # the square moved to the middle of a 32x32 image, so every box lies
        # inside it; grouping sees only distances, so it still degenerates
        pset = grp.ProposalSet([
            grp.Proposal(box=grp.BoundingBox(bx=16.0 + bx, by=16.0 + by, w=8.0, h=8.0))
            for bx, by in SQUARE
        ])
        sample = synth.Sample("square", "source", np.zeros((3, 32, 32)),
                              np.zeros((1, 32, 32)),
                              [grp.BoundingBox(bx=16.0, by=16.0, w=8.0, h=8.0)], [1])
        entry = training._grouped_entry(sample, pset, ScaleSweepConfig())
        assert entry.groups == [[0, 1, 2, 3]] and entry.outliers == []
        # the diagnostics describe the sweep that degenerated: all four
        # proposals flagged, then the fallback
        with pytest.raises(grp.DegenerateGroupingError) as err:
            grp.cluster_box_centers(pset.centers())
        result = err.value.result
        assert entry.grouping == training.GroupingDiagnostics(
            K=4, sigma_star=result.model.sigma_star, outliers=4, truncated=False,
            inner_iters=result.inner_iters, fallback=True)
        assert entry.grouping.inner_iters > 0
        np.testing.assert_array_equal(entry.group_matrix, np.full((1, 4), 0.25))
