"""Grouping of region proposals by scale-space clustering of box centers.

A box is a center-format row (bx, by, w, h) in pixels, and an image's
proposals are one (P, 4) array with their objectness scores
(`ProposalSet`); `box_iou`, `encode_deltas` and `apply_deltas` work on
whole arrays. Proposal boxes are clustered on their (bx, by) centers only;
widths and heights ride along. Proposals flagged as outliers (farther than
sigma_star from every cluster center) are excluded from grouping. Each
surviving group is pooled over the backbone's f3 features by
`network.group_mean_matrix`.
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


def corners(boxes):
    """(..., 4) center-format boxes (bx, by, w, h) -> corners (x0, y0, x1, y1)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    half = boxes[..., 2:] / 2.0
    return np.concatenate([boxes[..., :2] - half, boxes[..., :2] + half], axis=-1)


def box_iou(a, b):
    """(len(a), len(b)) intersection-over-union of two sets of center-format
    boxes, (A, 4) and (B, 4)."""
    ca, cb = corners(a)[:, None], corners(b)[None]
    overlap = np.minimum(ca[..., 2:], cb[..., 2:]) - np.maximum(ca[..., :2], cb[..., :2])
    inter = np.where((overlap > 0).all(axis=-1), overlap[..., 0] * overlap[..., 1], 0.0)
    area_a, area_b = a[:, 2] * a[:, 3], b[:, 2] * b[:, 3]
    return inter / (area_a[:, None] + area_b - inter)


def _elementwise(fn, x):
    """`fn` (math.log or math.exp) of each element of an array: numpy's own
    log and exp round differently in the last bit."""
    return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)


def encode_deltas(proposal_boxes, gt_boxes):
    """(P, 4) regression targets mapping each proposal box onto the
    ground-truth box in the same row."""
    p, g = proposal_boxes, gt_boxes
    return np.concatenate([(g[:, :2] - p[:, :2]) / p[:, 2:],
                           _elementwise(math.log, g[:, 2:] / p[:, 2:])], axis=1)


def apply_deltas(boxes, deltas):
    """Refine (P, 4) boxes with (P, 4) predicted deltas (log-scales clamped
    to +-4). Non-finite deltas, or refined boxes that overflow, raise."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if not np.isfinite(deltas).all():
        raise ValueError("box deltas must be finite")
    scale = _elementwise(math.exp, np.clip(deltas[:, 2:], -4.0, 4.0))
    with np.errstate(over="ignore"):  # an overflow raises below
        refined = np.concatenate([boxes[:, :2] + deltas[:, :2] * boxes[:, 2:],
                                  boxes[:, 2:] * scale], axis=1)
    if not np.isfinite(refined).all():
        raise ValueError("refined box coordinates must be finite")
    return refined


@dataclass
class ProposalSet:
    """One image's proposals: (P, 4) center-format boxes, finite and with
    positive widths and heights, and (P,) finite objectness scores."""

    boxes: np.ndarray
    objectness: np.ndarray

    def __post_init__(self):
        self.boxes = boxes = np.asarray(self.boxes, dtype=np.float64)
        self.objectness = scores = np.asarray(self.objectness, dtype=np.float64)
        if not len(boxes):
            raise ValueError("a proposal set needs at least one proposal")
        if boxes.ndim != 2 or boxes.shape[1] != 4 or scores.shape != (len(boxes),):
            raise ValueError(f"proposals need (P, 4) boxes and (P,) objectness, not "
                             f"{boxes.shape} and {scores.shape}")
        if not (np.isfinite(boxes).all() and np.isfinite(scores).all()
                and (boxes[:, 2:] > 0).all()):
            raise ValueError("proposals need finite boxes and objectness, and box "
                             "widths and heights that are positive")

    def centers(self):
        """(P, 2) box centers, a C-contiguous copy."""
        return self.boxes[:, :2].copy()


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

