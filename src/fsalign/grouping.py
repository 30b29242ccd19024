"""Grouping of region proposals by scale-space clustering of box centers.

An image's proposals (`boxes.ProposalSet`; see `boxes` for the box format)
are clustered on their (bx, by) centers only; widths and heights ride along.
Proposals flagged as outliers (farther than sigma_star from every cluster
center) are excluded from grouping. Each surviving group is pooled over the
backbone's f3 features by `network.group_mean_matrix`.
"""

import numpy as np

from . import scale_space as ssc


class DegenerateGroupingError(ValueError):
    """Every proposal was flagged as an outlier; no group survives.

    `result` is the clustering that flagged them."""

    def __init__(self, result):
        super().__init__("all proposals were flagged as outliers; fall back to one group")
        self.result = result


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

