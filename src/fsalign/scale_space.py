"""Scale-space filtering for 2-D point clustering.

Each point is treated as a unit light source; blurring the scatter image with
a Gaussian of scale sigma gives a density surface whose modes are cluster
centers. Modes are tracked with mean-shift iterations while sigma grows
geometrically (sigma_{j+1} = k * sigma_j); centers merge as the surface
smooths out, so the cluster count K falls monotonically. The K with the
longest lifetime is selected: its lifetime, the log-scale span over which it
survives, is the number of scale steps it survives in units of log k. Points
farther than the selected scale from every center are flagged as outliers.

The sweep stops at K = 1, or earlier once no later scale can change the
selection: past a scale set by the points' diameter every center provably
merges into one (`scale_sweep`). The selection, labels and `truncated` are
those of the sweep run on to K = 1, whose snapshots it returns a prefix of.

A mean-shift iteration's cost is set by its numpy calls, not by its rows,
so `converge_centers` packs each iteration into two matrix products whose
point matrices `kernel_operands` builds once per sweep.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specs import is_count, is_real, require

OUTLIER = -1

# smallest normal float64; a row whose kernel mass falls below it is isolated
_WEIGHT_FLOOR = float(np.finfo(np.float64).tiny)

# the largest coordinate whose squares cannot overflow: a squared distance
# is at most 8 times its square, and a squared norm 2 times
_COORD_LIMIT = math.sqrt(float(np.finfo(np.float64).max) / 8.0)


def _check_kernel_scale(sigma, name="sigma0"):
    """Reject a scale whose kernel denominator 2*sigma**2 underflows to 0:
    every self-distance term would be 0/0 and every center NaN."""
    if not 2.0 * sigma * sigma > 0:
        raise ValueError(f"{name} = {sigma!r} is too small: 2*{name}**2 underflows to 0")


@dataclass(frozen=True)
class ScaleSweepConfig:
    """Knobs of the scale sweep.

    `epsilon` is the smallest starting scale: `sigma0 = None` picks half the
    5th percentile of the nonzero pairwise point distances clamped up to it,
    and a given `sigma0` below it is rejected. `convergence_tol` and
    `merge_tol` are fractions of the current sigma; absolute tolerances do
    not survive a geometric sweep.
    """

    sigma0: float | None = None
    k: float = 1.05
    epsilon: float = 0.01
    convergence_tol: float = 1e-6
    merge_tol: float = 1e-2
    max_inner_iters: int = 500
    max_scales: int = 400

    def __post_init__(self):
        require(self, lambda v: v is None or (is_real(v) and v > 0),
                "finite and positive (or None for the default)", "sigma0")
        require(self, lambda v: is_real(v) and v > 1, "a finite scale multiplier k > 1", "k")
        require(self, lambda v: is_real(v) and v > 0, "finite and positive",
                "epsilon", "convergence_tol", "merge_tol")
        require(self, is_count, "an integer >= 1", "max_inner_iters", "max_scales")
        if self.sigma0 is not None:
            # epsilon is the smallest starting scale, for the default sigma0
            # and a given one alike
            if self.sigma0 < self.epsilon:
                raise ValueError(f"sigma0 = {self.sigma0!r} is below "
                                 f"epsilon = {self.epsilon!r}")
            _check_kernel_scale(self.sigma0)


# the knobs of a sweep given no config: built and checked once, then shared,
# which a frozen spec allows
DEFAULT_SWEEP = ScaleSweepConfig()


@dataclass
class ClusterSnapshot:
    """Converged, deduplicated centers at one blur scale."""

    sigma: float
    centers: np.ndarray  # (K, 2)
    iters: int = 0  # mean-shift iterations run at this scale

    @property
    def K(self):
        return len(self.centers)


@dataclass
class SelectedModel:
    centers: np.ndarray  # (K, 2)
    sigma_star: float

    @property
    def K(self):
        return len(self.centers)


@dataclass
class Assignment:
    """Per-point labels: cluster index in [0, K) or OUTLIER (-1)."""

    labels: np.ndarray


@dataclass
class ClusteringResult:
    """The selected model and labels, and the sweep they came from.

    `snapshots` holds one snapshot per scale the sweep ran: up to the first
    K = 1, or fewer, up to the scale where `scale_sweep` found the selection
    decided. `table` maps each K in them to the (first, last) snapshot index
    of its run, so the last K's run may be cut short there.
    """

    model: SelectedModel
    assignment: Assignment
    table: dict
    snapshots: list
    truncated: bool

    @property
    def inner_iters(self):
        """Mean-shift iterations summed over the scales the sweep ran, which
        stop once the selection is decided."""
        return sum(s.iters for s in self.snapshots)


def as_points(points):
    """Coerce to a finite (N, 2) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("points must have shape (N, 2) with N >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _merge_centers(centers, tol):
    """Merge centers within `tol` of each other (transitively) into a new
    (K', 2) array; each surviving center is the mean of its component,
    ordered by smallest member index. `centers` is a (K, 2) array or a list
    of [x, y] pairs.

    One pass over the centers in x order finds every pair within tol: a
    pair is close when dx*dx + dy*dy <= tol*tol, and once dx*dx alone
    exceeds tol*tol so does every later center's, so the scan for that
    center stops there.
    """
    tt = tol * tol
    order = sorted((x, y, i) for i, (x, y) in enumerate(centers))
    root = None  # root[i] leads toward i's smallest member, once a pair is close

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for a, (x, y, i) in enumerate(order):
        for u, v, j in order[a + 1:]:
            dx, dy = u - x, v - y
            if dx * dx > tt:
                break
            if dx * dx + dy * dy <= tt:
                root = root or list(range(len(order)))
                ri, rj = find(i), find(j)
                root[max(ri, rj)] = min(ri, rj)
    if root is None:  # nothing merges
        return np.array(centers, dtype=np.float64)
    # [sum x, sum y, count] per component: the sums start from 0.0 and add
    # the members in index order, as numpy's mean(axis=0) does, so the mean
    # is bit for bit numpy's (a lone -0.0 comes out as 0.0)
    sums = {}
    for i, (x, y) in enumerate(centers):
        s = sums.setdefault(find(i), [0.0, 0.0, 0])
        s[0] += x
        s[1] += y
        s[2] += 1
    return np.array([[sx / n, sy / n] for sx, sy, n in sums.values()])


def kernel_operands(points):
    """The (4, N) basis [-2px, -2py, 1, px^2 + py^2] and the (N, 3) sums
    matrix [px, py, 1] that `converge_centers` multiplies by at every scale
    of a sweep; neither depends on sigma. `points` are checked by `as_points`."""
    points = as_points(points)
    px, py = points[:, 0], points[:, 1]
    ones = np.ones_like(px)
    return (np.stack([-2.0 * px, -2.0 * py, ones, px * px + py * py]),
            np.stack([px, py, ones], axis=1))


def converge_centers(operands, init_centers, sigma, cfg):
    """Run every center to convergence at one scale, then deduplicate.

    `operands` is `kernel_operands(points)`, built once per sweep. Raises
    ValueError, naming the argument, unless `init_centers` is a finite
    (K, 2) array with K >= 1 and `sigma` is finite and positive with
    2 sigma^2 > 0. Movement below `cfg.convergence_tol * sigma` (or
    kernel-mass underflow) stops a center; converged centers within
    `cfg.merge_tol * sigma` of each other collapse to their mean.

    An iteration is two matrix products over the still-moving rows. Each row
    is (x, y, x^2 + y^2, 1), and its product with the basis divided by
    -2 sigma^2 is the Gaussian exponent -|c - p|^2 / (2 sigma^2) against
    every point. After `exp`, one product with the sums matrix gives each
    row's weighted sums and its kernel mass. The per-row rest (the isolation
    test, the division by the mass, the movement test) runs on Python floats
    read back with `tolist()`. The rows are made an array with `np.array`
    and both products are `ndarray.dot` methods, which give the same bits
    as `np.dot` and `@` with less Python dispatch around the BLAS call.

    The expansion |c|^2 - 2 c.p + |p|^2 cancels where c is near p, so the
    exponent carries an absolute error of about eps * (|c|^2 + |p|^2) /
    sigma^2 (eps = 2.2e-16): 4e-12 on a 64 x 64 canvas and 9e-10 for
    coordinates near 1000, at sigma 1. The centers thus differ in their
    last bits from those of the direct |c - p|^2 (by up to 3e-9 px over the
    benchmark's 864 proposal clouds), with the same iteration counts and
    partitions.
    """
    centers = np.asarray(init_centers, dtype=np.float64)
    if (centers.ndim != 2 or centers.shape[1] != 2 or len(centers) < 1
            or np.count_nonzero(np.isfinite(centers)) != centers.size):
        raise ValueError("init_centers must be a finite (K, 2) array with K >= 1")
    if not (is_real(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, not {sigma!r}")
    _check_kernel_scale(sigma, "sigma")
    basis, sums = operands
    exponent = basis / (-2.0 * sigma * sigma)
    tol = float(cfg.convergence_tol * sigma)
    # bound to locals: an iteration's cost is mostly interpreter overhead
    array, exp, sqrt, floor = np.array, np.exp, math.sqrt, _WEIGHT_FLOOR
    # `out` holds every row's position, written when the row stops; `rows`
    # and `cur` are the indices and (x, y, x^2 + y^2, 1) of the rows still
    # moving
    out = centers.tolist()
    rows, cur, iters = list(range(len(out))), [[x, y, x * x + y * y, 1.0] for x, y in out], 0
    for iters in range(1, cfg.max_inner_iters + 1):
        w = array(cur).dot(exponent)
        exp(w, out=w)
        moved = w.dot(sums).tolist()
        next_rows, next_cur = [], []
        for r, (sx, sy, m), (cx, cy, _, _) in zip(rows, moved, cur):
            if m < floor:  # isolated: the row stays where it is
                out[r] = [cx, cy]
                continue
            x, y = sx / m, sy / m
            dx, dy = x - cx, y - cy
            if sqrt(dx * dx + dy * dy) < tol:
                out[r] = [x, y]
            else:
                next_rows.append(r)
                next_cur.append([x, y, x * x + y * y, 1.0])
        rows, cur = next_rows, next_cur
        if not rows:
            break
    for r, (x, y, _, _) in zip(rows, cur):  # rows still moving when the iterations ran out
        out[r] = [x, y]
    merged = _merge_centers(out, cfg.merge_tol * sigma)
    return ClusterSnapshot(sigma=float(sigma), centers=merged, iters=iters)


def pairwise_distances(points):
    """The N(N-1)/2 distances between distinct rows of checked (N, 2) points
    (`as_points`), in `np.triu_indices` order."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))[np.triu_indices(len(points), k=1)]


def default_sigma0(dists, cfg):
    """Half the 5th percentile of the nonzero `pairwise_distances`, >= epsilon."""
    nz = dists[dists > 0]
    return max(0.5 * float(np.percentile(nz, 5)), cfg.epsilon) if nz.size else cfg.epsilon


def _one_center_scale(diameter, sigma0, cfg):
    """The first scale index j < max_scales at which every center provably
    ends as one, or None.

    Mean shift maps a center x to m(x) = sum_i w_i(x) p_i, with w(x) the
    kernel weights normalised to sum to 1. Its Jacobian Cov_w(p) / sigma^2
    has norm at most rho = (D / 2 sigma)^2 for points of diameter D
    (Popoviciu's inequality), so on the points' convex hull, which holds
    every center, m is a rho-contraction when rho < 1. A row that stopped on
    a step shorter than tol = convergence_tol * sigma then lies within
    rho tol / (1 - rho) of the one fixed point, so all stopped rows merge
    when 2 convergence_tol rho / (1 - rho) <= merge_tol. Every row stops
    within max_inner_iters when rho^(max_inner_iters - 1) D < tol, since its
    t-th step is at most rho^(t - 1) D. No row is isolated, since every
    point lies within D < 2 sigma of it (kernel mass >= e^-2). A sigma beyond
    the float range is no bound: the sweep could not run that scale.
    """
    try:
        for j in range(cfg.max_scales):
            sigma = sigma0 * cfg.k**j
            rho = (diameter / (2.0 * sigma)) ** 2
            if (sigma < math.inf and rho < 1.0
                    and 2.0 * cfg.convergence_tol * rho / (1.0 - rho) <= cfg.merge_tol
                    and rho ** (cfg.max_inner_iters - 1) * diameter < cfg.convergence_tol * sigma):
                return j
    except OverflowError:  # k**j left the float range before the conditions held
        pass
    return None


def scale_sweep(points, cfg=None):
    """Track cluster centers across the geometric scale ladder until the
    selection is decided.

    Scale j uses sigma_j = sigma0 * k**j. Scale 0 starts from all data
    points; every later scale starts from the previous converged centers, so
    K is non-increasing. Returns (snapshots, truncated). The snapshots end
    at the first K = 1, or earlier, once `select_model` would pick the same
    model from every continuation: K is 1 at `_one_center_scale` j_max, so
    after snapshot j < j_max the current K's run, begun at snapshot `first`,
    can last at most j_max - 1 - first steps, and a later run is shorter and
    has a smaller K. The sweep stops when the longest closed run of K >= 2
    is at least that long, since the closed run wins a tie by its larger K.
    `truncated` is True when max_scales ran out before K reached 1 or the
    selection was decided. Raises ValueError when a coordinate is so large
    that its squares overflow, or when the resolved sigma0 is so small that
    2*sigma0**2 underflows to 0.
    """
    cfg = cfg or DEFAULT_SWEEP
    points = as_points(points)
    if float(np.abs(points).max()) > _COORD_LIMIT:
        raise ValueError(f"points must lie within {_COORD_LIMIT:.3g} of 0 on each axis: "
                         "beyond it their squared distances overflow")
    dists = pairwise_distances(points)
    sigma0 = cfg.sigma0 if cfg.sigma0 is not None else default_sigma0(dists, cfg)
    _check_kernel_scale(sigma0)
    j_max = _one_center_scale(float(dists.max(initial=0.0)), sigma0, cfg)
    operands = kernel_operands(points)
    snapshots = []
    seeds = points
    first, longest = 0, -1  # where the current K's run began; the longest closed run
    for j in range(cfg.max_scales):
        sigma = sigma0 * cfg.k**j
        snap = converge_centers(operands, seeds, sigma, cfg)
        if snapshots and snap.K != snapshots[-1].K:
            first, longest = j, max(longest, j - 1 - first)
        snapshots.append(snap)
        seeds = snap.centers
        if snap.K == 1 or (j_max is not None and j < j_max and longest >= j_max - 1 - first):
            return snapshots, False
    return snapshots, True


def build_lifetime_table(snapshots):
    """The run of snapshot indices each cluster count spans: {K: (first, last)}.

    K survives last - first scale steps, its lifetime in units of log k.
    Raises ValueError if K grows anywhere along the snapshots, which a sweep
    never does.
    """
    if not snapshots:
        raise ValueError("snapshots must be nonempty")
    runs = {}
    for j, snap in enumerate(snapshots):
        if j and snap.K > snapshots[j - 1].K:
            raise ValueError(f"K grows from {snapshots[j - 1].K} to {snap.K} "
                             f"at snapshot {j}")
        runs[snap.K] = (runs.get(snap.K, (j,))[0], j)
    return runs


def select_model(snapshots, runs):
    """Pick the K that survives the most scale steps, at its median scale.

    K = 1 persists forever as sigma grows, so it is skipped unless it is the
    only K. Ties break toward larger K; an even-length run takes the lower
    median scale.
    """
    if not runs:
        raise ValueError("the run table is empty")
    ks = [k for k in runs if k != 1] or [1]
    first, last = runs[max(ks, key=lambda k: (runs[k][1] - runs[k][0], k))]
    snap = snapshots[(first + last) // 2]
    return SelectedModel(centers=snap.centers.copy(), sigma_star=snap.sigma)


def assign_points(points, model):
    """Nearest-center labels; points farther than sigma_star from every
    center get the OUTLIER label. Equidistant points take the lower index."""
    points = as_points(points)
    diff = points[:, None, :] - model.centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    labels = dist.argmin(axis=1).astype(np.int64)
    nearest = dist[np.arange(len(points)), labels]
    labels[nearest > model.sigma_star] = OUTLIER
    return Assignment(labels=labels)


def cluster_points(points, cfg=None):
    """Full pipeline: sweep, run table, model selection, assignment."""
    cfg = cfg or DEFAULT_SWEEP
    points = as_points(points)
    snapshots, truncated = scale_sweep(points, cfg)
    table = build_lifetime_table(snapshots)
    model = select_model(snapshots, table)
    assignment = assign_points(points, model)
    return ClusteringResult(
        model=model,
        assignment=assignment,
        table=table,
        snapshots=snapshots,
        truncated=truncated,
    )

