import math

import numpy as np
import pytest

from fsalign import grouping as grp
from fsalign import synth, training
from fsalign.boxes import ProposalSet, apply_deltas, box_iou, corners, encode_deltas
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


# the per-box formulas the array code replaced, kept as references: each
# array result must equal them bit for bit
def ref_corners(box):
    bx, by, w, h = box
    return bx - w / 2.0, by - h / 2.0, bx + w / 2.0, by + h / 2.0


def ref_iou(a, b):
    ax0, ay0, ax1, ay1 = ref_corners(a)
    bx0, by0, bx1, by1 = ref_corners(b)
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def ref_encode_deltas(p, g):
    return [(g[0] - p[0]) / p[2], (g[1] - p[1]) / p[3],
            math.log(g[2] / p[2]), math.log(g[3] / p[3])]


def ref_apply_deltas(box, deltas):
    tx, ty, tw, th = deltas
    tw = min(max(tw, -4.0), 4.0)
    th = min(max(th, -4.0), 4.0)
    return [box[0] + tx * box[2], box[1] + ty * box[3],
            box[2] * math.exp(tw), box[3] * math.exp(th)]


def random_boxes(rng, n):
    """Center-format boxes, half on a coarse grid (so that edges touch and
    boxes nest or coincide) and half continuous."""
    grid = np.column_stack([rng.integers(0, 9, size=(n, 2)) * 4.0,
                            rng.integers(1, 5, size=(n, 2)) * 4.0])
    free = np.column_stack([rng.uniform(0.0, 32.0, size=(n, 2)),
                            rng.uniform(0.5, 20.0, size=(n, 2))])
    return np.concatenate([grid, free])


# touching edges, nested, coincident and disjoint boxes
SPECIAL = np.array([[0.0, 0.0, 2.0, 2.0], [2.0, 0.0, 2.0, 2.0], [0.0, 2.0, 2.0, 2.0],
                    [5.0, 5.0, 10.0, 10.0], [5.0, 5.0, 4.0, 4.0], [5.0, 5.0, 10.0, 10.0],
                    [40.0, 40.0, 3.0, 3.0]])


class TestBoundingBox:
    """Center-format boxes (bx, by, w, h) as rows of arrays."""

    def test_corners(self):
        np.testing.assert_array_equal(corners([[10, 20, 4, 6], [1, 1, 1, 3]]),
                                      [[8.0, 17.0, 12.0, 23.0], [0.5, -0.5, 1.5, 2.5]])

    def test_apply_deltas_rejects_non_finite(self):
        box = np.array([[10.0, 12.0, 8.0, 6.0]])
        for bad in ([np.nan, 0, 0, 0], [0, np.inf, 0, 0], [0, 0, -np.inf, 0]):
            with pytest.raises(ValueError, match="deltas must be finite"):
                apply_deltas(box, np.array([bad]))
        # finite deltas whose refined box overflows fail as loudly
        with pytest.raises(ValueError, match="refined box"):
            apply_deltas(box, np.array([[1e308, 0.0, 0.0, 0.0]]))
        # the log-scales clamp to +-4
        clamped = apply_deltas(box, np.array([[0.0, 0.0, 9.0, -9.0]]))
        np.testing.assert_array_equal(
            clamped, [[10.0, 12.0, 8.0 * math.exp(4.0), 6.0 * math.exp(-4.0)]])

    def test_iou_identity(self):
        b = np.array([[5.0, 5.0, 4.0, 4.0]])
        assert box_iou(b, b)[0, 0] == 1.0

    def test_iou_disjoint(self):
        a = np.array([[0.0, 0.0, 2.0, 2.0]])
        b = np.array([[10.0, 0.0, 2.0, 2.0], [2.0, 0.0, 2.0, 2.0]])
        # the second box touches the first along an edge
        np.testing.assert_array_equal(box_iou(a, b), [[0.0, 0.0]])

    def test_iou_half_overlap(self):
        a = np.array([[0.0, 0.0, 2.0, 2.0]])
        b = np.array([[1.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0]])
        # intersection 1x2=2, union 4+4-2=6; the nested box covers a quarter
        np.testing.assert_allclose(box_iou(a, b), [[2.0 / 6.0, 0.25]], rtol=1e-15)

    def test_delta_round_trip(self):
        p = np.array([[10.0, 12.0, 8.0, 6.0]])
        g = np.array([[11.5, 10.0, 10.0, 5.0]])
        np.testing.assert_allclose(apply_deltas(p, encode_deltas(p, g)), g,
                                   rtol=1e-14)


class TestArraysMatchThePerBoxFormulas:
    def test_box_iou(self):
        rng = np.random.default_rng(3)
        a = np.concatenate([random_boxes(rng, 40), SPECIAL])
        b = np.concatenate([random_boxes(rng, 30), SPECIAL])
        want = np.array([[ref_iou(x, y) for y in b.tolist()] for x in a.tolist()])
        got = box_iou(a, b)
        assert got.shape == (len(a), len(b))
        assert np.array_equal(got, want)
        # the cases the grid and SPECIAL are there for
        assert (want == 0.0).any() and (want == 1.0).any()
        assert ((want > 0.0) & (want < 1.0)).any()

    def test_deltas(self):
        # enough rows that np.log or np.exp in place of math.log and math.exp
        # would differ in the last bit somewhere
        rng = np.random.default_rng(4)
        p = np.concatenate([random_boxes(rng, 2000), SPECIAL])
        g = np.concatenate([random_boxes(rng, 2000), SPECIAL[::-1]])
        deltas = encode_deltas(p, g)
        want = np.array([ref_encode_deltas(x, y) for x, y in zip(p.tolist(), g.tolist())])
        assert np.array_equal(deltas, want)
        # spread wide enough that the log-scale clamp bites on some rows
        pred = rng.normal(0.0, 3.0, size=p.shape)
        want = np.array([ref_apply_deltas(x, d) for x, d in zip(p.tolist(), pred.tolist())])
        assert (np.abs(pred[:, 2:]) > 4.0).any()
        assert np.array_equal(apply_deltas(p, pred), want)


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


class TestProposalSet:
    BOXES = [[10.0, 10.0, 6.0, 8.0], [20.0, 20.0, 8.0, 8.0]]

    def test_accepts_finite_boxes_of_positive_size(self):
        pset = ProposalSet(boxes=self.BOXES, objectness=[0.5, 0.9])
        assert pset.boxes.shape == (2, 4) and pset.objectness.shape == (2,)

    @pytest.mark.parametrize("boxes, objectness, match", [
        ([], [], "at least one"),
        ([[10.0, 10.0, 6.0]], [1.0], r"not \(1, 3\) and"),
        ([10.0, 10.0, 6.0, 8.0], [1.0], r"not \(4,\) and"),
        (BOXES, np.ones(5), r"and \(5,\)"),
        (BOXES, [[0.5, 0.9]], r"and \(1, 2\)"),
        # a NaN width used to be cast to an int in `roi_pool_matrix`, with
        # only a RuntimeWarning, and every proposal labelled background
        ([[10.0, 10.0, np.nan, 8.0], [20.0, 20.0, 8.0, 8.0]], [0.5, 0.9], "finite boxes"),
        ([[np.inf, 10.0, 6.0, 8.0], [20.0, 20.0, 8.0, 8.0]], [0.5, 0.9], "finite boxes"),
        (BOXES, [0.5, np.nan], "finite boxes"),
        ([[10.0, 10.0, 0.0, 8.0], [20.0, 20.0, 8.0, 8.0]], [0.5, 0.9], "positive"),
        ([[10.0, 10.0, 6.0, 8.0], [20.0, 20.0, 8.0, -1.0]], [0.5, 0.9], "positive"),
    ], ids=["empty", "three-columns", "one-flat-box", "five-scores", "2d-scores",
            "nan-width", "inf-center", "nan-score", "zero-width", "negative-height"])
    def test_rejects_malformed_proposals(self, boxes, objectness, match):
        with pytest.raises(ValueError, match=match):
            ProposalSet(boxes=boxes, objectness=objectness)


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
        pset = ProposalSet(boxes=np.array([[16.0 + bx, 16.0 + by, 8.0, 8.0]
                                           for bx, by in SQUARE]),
                           objectness=np.ones(len(SQUARE)))
        sample = synth.Sample("square", "source", np.zeros((3, 32, 32)),
                              np.zeros((1, 32, 32)), [[16.0, 16.0, 8.0, 8.0]], [1])
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
