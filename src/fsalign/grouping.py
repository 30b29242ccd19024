"""Grouping of region proposals by scale-space clustering of box centers.

Proposal boxes are clustered on their (bx, by) centers only; widths and
heights ride along. Proposals flagged as outliers (farther than sigma_star
from every cluster center) are excluded from grouping, and each surviving
cluster is summarised by the mean of its members' instance features.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import scale_space as ssc


class DegenerateGroupingError(ValueError):
    """Every proposal was flagged as an outlier; no group survives."""


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
    feature: np.ndarray
    objectness: float = 1.0

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.float64)


@dataclass
class ProposalSet:
    proposals: list
    image_id: str = ""

    def __post_init__(self):
        if not self.proposals:
            raise ValueError("a proposal set needs at least one proposal")
        dims = {p.feature.shape for p in self.proposals}
        if len(dims) > 1:
            raise ValueError("all proposal features must share one length")

    def centers(self):
        return np.array([[p.box.bx, p.box.by] for p in self.proposals])


@dataclass
class InstanceGroup:
    member_indices: list
    center: np.ndarray
    pooled_feature: np.ndarray


@dataclass
class GroupingResult:
    groups: list
    outliers: list
    model: ssc.SelectedModel
    clustering: ssc.ClusteringResult = field(default=None, repr=False)


def pool_group(features):
    """Componentwise mean of a nonempty list of equal-length vectors."""
    if not len(features):
        raise ValueError("cannot pool an empty group")
    arr = [np.asarray(f, dtype=np.float64) for f in features]
    if len({a.shape for a in arr}) > 1:
        raise ValueError("feature lengths differ")
    return np.mean(arr, axis=0)


def cluster_box_centers(centers, cfg=None):
    """Geometric core shared with the trainer: cluster (N, 2) box centers.

    Returns (member_index_lists, outlier_indices, clustering_result); empty
    clusters are dropped. Raises DegenerateGroupingError when every center is
    an outlier.
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
        raise DegenerateGroupingError(
            "all proposals were flagged as outliers; fall back to one group"
        )
    return members, outliers, result


def _build_groups(pset, cfg, feature_of):
    members, outliers, result = cluster_box_centers(pset.centers(), cfg)
    labels = result.assignment.labels
    groups = []
    for m in members:
        k = int(labels[m[0]])
        groups.append(
            InstanceGroup(
                member_indices=m,
                center=result.model.centers[k].copy(),
                pooled_feature=pool_group([feature_of(i) for i in m]),
            )
        )
    return GroupingResult(
        groups=groups, outliers=outliers, model=result.model, clustering=result
    )


def cluster_proposals(pset, cfg=None):
    """Group a proposal set; each group pools its members' raw features."""
    return _build_groups(pset, cfg, lambda i: pset.proposals[i].feature)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def proposal_set_to_dict(pset):
    return {
        "image_id": pset.image_id,
        "proposals": [
            {
                "bx": p.box.bx,
                "by": p.box.by,
                "w": p.box.w,
                "h": p.box.h,
                "objectness": p.objectness,
                "feature": [float(v) for v in p.feature],
            }
            for p in pset.proposals
        ],
    }


def proposal_set_from_dict(data):
    props = [
        Proposal(
            box=BoundingBox(bx=d["bx"], by=d["by"], w=d["w"], h=d["h"]),
            feature=np.asarray(d["feature"], dtype=np.float64),
            objectness=float(d.get("objectness", 1.0)),
        )
        for d in data["proposals"]
    ]
    return ProposalSet(proposals=props, image_id=str(data.get("image_id", "")))


def load_proposal_set(path):
    with open(path, "r", encoding="utf-8") as fh:
        return proposal_set_from_dict(json.load(fh))


def grouping_result_to_dict(result):
    out = {
        "groups": [
            {
                "members": list(g.member_indices),
                "center": [float(g.center[0]), float(g.center[1])],
                "pooled_feature": [float(v) for v in g.pooled_feature],
            }
            for g in result.groups
        ],
        "outliers": list(result.outliers),
    }
    if result.clustering is not None:
        out["clustering"] = ssc.result_to_dict(result.clustering)
    return out
