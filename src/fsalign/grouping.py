"""Grouping of region proposals by scale-space clustering of box centers.

Proposal boxes are clustered on their (bx, by) centers only; widths and
heights ride along. Proposals flagged as outliers (farther than sigma_star
from every cluster center) are excluded from grouping. Each surviving group
is pooled over the backbone's f3 features by `network.group_mean_matrix`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import scale_space as ssc


class DegenerateGroupingError(ValueError):
    """Every proposal was flagged as an outlier; no group survives.

    `result` is the clustering that flagged them."""

    def __init__(self, result):
        super().__init__("all proposals were flagged as outliers; fall back to one group")
        self.result = result


@dataclass
class BoundingBox:
    """Center-format box: center (bx, by), width w, height h, in pixels."""

    bx: float
    by: float
    w: float
    h: float

    def __post_init__(self):
        vals = (self.bx, self.by, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("box coordinates must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError("box width and height must be positive")

    def corners(self):
        """(x0, y0, x1, y1) corner coordinates."""
        return (
            self.bx - self.w / 2.0,
            self.by - self.h / 2.0,
            self.bx + self.w / 2.0,
            self.by + self.h / 2.0,
        )

    @property
    def area(self):
        return self.w * self.h


def iou(a, b):
    """Intersection-over-union of two center-format boxes."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def encode_deltas(proposal_box, gt_box):
    """Regression targets mapping a proposal box onto a ground-truth box."""
    return np.array(
        [
            (gt_box.bx - proposal_box.bx) / proposal_box.w,
            (gt_box.by - proposal_box.by) / proposal_box.h,
            math.log(gt_box.w / proposal_box.w),
            math.log(gt_box.h / proposal_box.h),
        ]
    )


def apply_deltas(box, deltas):
    """Refine a box with predicted deltas (log-scales clamped to +-4)."""
    tx, ty, tw, th = (float(d) for d in deltas)
    tw = min(max(tw, -4.0), 4.0)
    th = min(max(th, -4.0), 4.0)
    return BoundingBox(
        bx=box.bx + tx * box.w,
        by=box.by + ty * box.h,
        w=box.w * math.exp(tw),
        h=box.h * math.exp(th),
    )


@dataclass
class Proposal:
    box: BoundingBox
    objectness: float = 1.0


@dataclass
class ProposalSet:
    proposals: list

    def __post_init__(self):
        if not self.proposals:
            raise ValueError("a proposal set needs at least one proposal")

    def centers(self):
        return np.array([[p.box.bx, p.box.by] for p in self.proposals])


def cluster_box_centers(centers, cfg=None):
    """Cluster (N, 2) box centers into proposal groups.

    Returns (member_index_lists, outlier_indices, clustering_result); empty
    clusters are dropped. Raises DegenerateGroupingError, carrying the
    clustering result, when every center is an outlier.
    """
    result = ssc.cluster_points(centers, cfg)
    labels = result.assignment.labels
    members = [
        [int(i) for i in np.nonzero(labels == k)[0]]
        for k in range(result.model.K)
    ]
    members = [m for m in members if m]
    outliers = [int(i) for i in np.nonzero(labels == ssc.OUTLIER)[0]]
    if not members:
        raise DegenerateGroupingError(result)
    return members, outliers, result

