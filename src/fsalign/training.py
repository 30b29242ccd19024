"""Adversarial training loop for the toy two-domain detector.

Every step takes one source and one target image. `compute_losses` builds
one loss graph from one forward of the pair, with the branches the loss
weights make live (`beta` the separation, `lam` the alignment; with both 0
it is the detector on the source image alone). Each branch is a named node,
and their sum `composite` is what `train_step` minimises;
`finite_difference_check`, the CLI's gradient check, tests these same
nodes. The adversarial branches are wired through gradient reversal, so
the classifiers minimise their domain losses while the feature path
maximises them. SGD with momentum and a single-step learning-rate decay
drives every parameter the graph reaches. Also hosts the evaluation
protocol (domain probe on frozen pooled features, target detection match
rate) on held-out samples drawn from the corpus's sample streams,
checkpoints, and `run_experiment`, which trains, evaluates and writes the
adapted net and its source-only twin in one loop.
"""

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import network as nw
from . import synth
from .boxes import ProposalSet, apply_deltas, box_iou
from .grouping import DegenerateGroupingError, cluster_box_centers
from .scale_space import OUTLIER, ScaleSweepConfig
from .specs import is_count, is_real, require

LOGGED_TERMS = ("L_c", "L_r", "L_rec", "L_diff", "L_lg", "L_ri")  # branch names, capitalised

REVERSED_BRANCHES = ("l_adv1", "l_adv2", "l_adv3", "l_ri")
ALL_BRANCHES = ("l_c", "l_r", "l_rec", "l_diff") + REVERSED_BRANCHES + ("composite",)


class TrainingDiverged(RuntimeError):
    """A loss branch produced a non-finite value."""


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 2000
    lr_initial: float = 1e-3
    lr_after_decay: float = 1e-4
    decay_step: int | None = None  # defaults to 70% of iterations
    momentum: float = 0.9
    weights: L.ObjectiveWeights = field(default_factory=L.ObjectiveWeights)
    seed: int = 0
    corpus_size: int = 40
    eval_size: int = 40
    probe_size: int = 40
    network: nw.NetworkSpec = field(default_factory=nw.NetworkSpec)
    scene: synth.SceneSpec = field(default_factory=synth.SceneSpec)
    shift: synth.DomainShiftSpec = field(default_factory=synth.DomainShiftSpec)
    proposal_noise: synth.ProposalNoiseSpec = field(
        default_factory=synth.ProposalNoiseSpec
    )
    cluster: ScaleSweepConfig = field(default_factory=ScaleSweepConfig)
    # per-pixel reconstruction normalization: keeps the decoder's gradient
    # scale sane at toy image sizes (the loss itself defaults to the raw sum)
    normalize_reconstruction: bool = True
    # optional ramp of the GRL coefficient, (2/(1 + e^(-10r)) - 1) * weights.lam
    # as r goes from 0 to 1 over this many steps, so from 0 to 0.99991 * lam, at
    # which it stays (0 = constant weights.lam, the paper's fixed setting)
    lambda_warmup_steps: int = 0

    def resolved_decay_step(self):
        return self.decay_step if self.decay_step is not None else int(
            0.7 * self.iterations
        )

    def __post_init__(self):
        require(self, lambda v: is_real(v) and v > 0, "finite and positive",
                "lr_initial", "lr_after_decay")
        require(self, lambda v: is_real(v) and 0.0 <= v < 1.0, "in [0, 1)", "momentum")
        require(self, is_count, "an integer >= 1",
                "iterations", "corpus_size", "eval_size", "probe_size")
        require(self, lambda v: v is None or is_count(v, 0),
                "an integer >= 0 (or None for the default)", "decay_step")
        require(self, lambda v: is_count(v, 0), "an integer >= 0", "lambda_warmup_steps", "seed")
        require(self, lambda v: isinstance(v, bool), "true or false", "normalize_reconstruction")
        # a nested spec checked its own fields when it was built
        for f in dataclasses.fields(self):
            if dataclasses.is_dataclass(f.type):
                require(self, lambda v: isinstance(v, f.type), f"of type {f.type.__name__}",
                        f.name)
        if any(n % nw.STRIDE for n in self.scene.canvas):
            raise ValueError(f"canvas sides must be multiples of the network "
                             f"stride {nw.STRIDE}")
        synth.check_blur_radius(self.shift.blur_radius, self.scene.canvas)
        top = max(synth.SHAPE_CLASS_IDS[s] for s in self.scene.shapes)
        if self.network.num_classes < top:
            raise ValueError(f"network num_classes {self.network.num_classes} is below "
                             f"the class id {top} that scene shapes can draw")


# JSON key of a dataclass field where it differs from the field name
_JSON_KEYS = {"lam": "lambda"}


def config_to_dict(cfg):
    """JSON form of a config or any of its values: dataclasses (the nested
    specs too) become dicts keyed by field name, tuples become lists."""
    if dataclasses.is_dataclass(cfg):
        return {_JSON_KEYS.get(f.name, f.name): config_to_dict(getattr(cfg, f.name))
                for f in dataclasses.fields(cfg)}
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


def _from_plain(cls, data, name="config"):
    """Inverse of `config_to_dict` for dataclass `cls` from JSON section `name`:
    missing keys keep the field defaults (a spec stores its lists as tuples),
    and an unknown key or a section that is not an object raises."""
    if not isinstance(data, dict):
        raise TypeError(f"{name} must be a JSON object, not {type(data).__name__}")
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise TypeError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    kwargs = {}
    for key, value in data.items():
        f = fields[key]
        kwargs[f.name] = (_from_plain(f.type, value, key) if dataclasses.is_dataclass(f.type)
                          else value)
    return cls(**kwargs)


def config_from_dict(data):
    return _from_plain(TrainConfig, data)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# corpus with cached grouping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupingDiagnostics:
    """What the scale sweep did on one image: the selected cluster count K
    and scale `sigma_star`, how many proposals it flagged as outliers,
    whether it ran out of scales before K reached 1, its mean-shift
    iterations over the scales it ran (it stops once its selection is
    decided, often before K = 1), and whether every proposal was an outlier,
    so that the entry fell back to one group of all proposals."""

    K: int
    sigma_star: float
    outliers: int
    truncated: bool
    inner_iters: int
    fallback: bool


@dataclass
class CorpusEntry:
    """One training image with its proposals (`pset`, whose (P, 4) boxes
    are the RoIs in proposal order), their grouping and the constants every
    step on it reads, built once by `_grouped_entry`.

    `roi_matrix` averages the f3 cells each proposal covers
    (`network.roi_pool_matrix`), `group_matrix` takes the mean of each
    group's pooled rows (`network.group_mean_matrix`).
    `targets` holds the detector targets of a source image and is None for
    a target image, whose truth stays evaluation-only. `grouping` describes
    the sweep; `groups` and `outliers` are what training uses.
    """

    sample: synth.Sample
    pset: ProposalSet
    groups: list      # member index lists (grouping fallback applied)
    outliers: list
    roi_matrix: np.ndarray
    group_matrix: np.ndarray
    targets: nw.DetectorTargets | None
    grouping: GroupingDiagnostics


def _grouped_entry(sample, pset, cluster_cfg):
    try:
        members, outliers, result = cluster_box_centers(pset.centers(), cluster_cfg)
        fallback = False
    except DegenerateGroupingError as err:
        members, outliers, result = [list(range(len(pset.boxes)))], [], err.result
        fallback = True
    grouping = GroupingDiagnostics(
        K=result.model.K, sigma_star=result.model.sigma_star,
        outliers=int(np.count_nonzero(result.assignment.labels == OUTLIER)),
        truncated=result.truncated, inner_iters=result.inner_iters, fallback=fallback)
    boxes = pset.boxes
    hf, wf = (n // nw.STRIDE for n in sample.rgb.shape[-2:])
    targets = (nw.detector_targets(boxes, sample.boxes, sample.labels)
               if sample.domain == "source" else None)
    return CorpusEntry(
        sample=sample, pset=pset, groups=members, outliers=outliers,
        roi_matrix=nw.roi_pool_matrix(boxes, hf, wf),
        group_matrix=nw.group_mean_matrix(members, len(boxes)), targets=targets,
        grouping=grouping)


def build_training_corpus(cfg):
    src, tgt = synth.build_pair_corpus(
        cfg.scene, cfg.shift, cfg.proposal_noise, cfg.corpus_size, cfg.seed
    )
    source = [_grouped_entry(s, p, cfg.cluster) for s, p in src]
    target = [_grouped_entry(t, p, cfg.cluster) for t, p in tgt]
    return source, target


def build_eval_sets(cfg):
    """Held-out sets, each drawn from the corpus's sample streams (see
    `synth`) at its own start index: probe training and probe evaluation
    (source, target) pairs of `probe_size` samples per domain from 20_000
    and 30_000, and `eval_size` target detection samples from 10_000."""
    def stream(domain, start, n):
        return synth.domain_samples(domain, cfg.scene, cfg.shift, cfg.proposal_noise,
                                    n, cfg.seed, start)

    n = cfg.probe_size
    probe_train = (stream("source", 20_000, n), stream("target", 20_000, n))
    probe_eval = (stream("source", 30_000, n), stream("target", 30_000, n))
    return probe_train, probe_eval, stream("target", 10_000, cfg.eval_size)


# ---------------------------------------------------------------------------
# the loss graph and one optimisation step
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _branch(name):
    """Turn a non-finite value raised inside the block into `TrainingDiverged`
    naming the branch."""
    try:
        yield
    except FloatingPointError as exc:
        raise TrainingDiverged(f"non-finite value in branch {name}") from exc


def compute_losses(net, source_entry, target_entry, weights, lam, normalize_rec):
    """The loss graph of one source/target pair, with the branches the
    weights make live.

    The detector (`l_c`, `l_r`) is always built; the separation branch
    (private encoders, decoder, `l_rec`, `l_diff`) when `weights.beta > 0`;
    the alignment branches (d1-d3 and the region head: `l_adv1`-`l_adv3`,
    `l_lg`, `l_ri`, and the domain probabilities `p3`, one per image, and
    `dri`, one per group, source groups first) when `weights.lam > 0`. With
    neither, the backbone runs on the source image alone. `lam` is the GRL
    coefficient of this step. Otherwise every module runs once on the
    stacked (2, ...) pair, source first: the shared ones with one set of
    weights, the private encoders with each domain's kernels on its own
    image. RoI and group pooling are block-diagonal matmuls over the images,
    and one least-squares loss (`L.local_adv_loss`) serves all three
    levels. `composite`, the sum of the built terms, is the minimised
    objective. A non-finite value raises `TrainingDiverged` naming the
    block it appeared in.
    """
    if source_entry.targets is None:
        raise ValueError("the source entry holds no detector targets")
    separate, align = weights.beta > 0, weights.lam > 0
    entries = (source_entry, target_entry) if separate or align else (source_entry,)
    out = {}
    with _branch("pair forward"):
        f1, f2, f3 = net.forward_backbone(np.array([e.sample.rgb for e in entries]))
        roi = nw.roi_pool(f3, nw.block_diag([e.roi_matrix for e in entries]))
        if separate:
            gray = np.array([e.sample.gray for e in entries])
            d = net.encode_private(gray)
            xhat = net.reconstruct(d, f3)
        if align:
            groups_per_image = [len(e.groups) for e in entries]
            p1map, f_l = net.local_domain(ad.grl(f1, lam))
            p2, f_m = net.mid_domain(ad.grl(f2, lam))
            out["p3"], f_g = net.global_domain(ad.grl(f3, lam))
            # the context is held fixed (detached) for the region-instance head
            ctx = np.concatenate([f_l, f_m, f_g], axis=1)
            members = nw.block_diag([e.group_matrix for e in entries])
            fused = ad.concat([np.repeat(ctx, groups_per_image, axis=0),
                               ad.grl(ad.matmul(members, roi), lam)], axis=1)
            out["dri"] = net.region_domain(fused)
    with _branch("detector"):
        # on the source proposals, the first rows of the RoIs
        logits, deltas = net.detector_head(
            ad.take_rows(roi, np.arange(len(source_entry.pset.boxes))))
        out["l_c"], out["l_r"] = nw.detector_losses(logits, deltas, source_entry.targets)
    if separate:
        with _branch("reconstruction"):
            out["l_rec"] = L.reconstruction_loss(gray, xhat, normalize=normalize_rec)
        with _branch("difference"):
            out["l_diff"] = L.difference_loss(d, f3)
    if align:
        with _branch("local adversarial"):
            out["l_adv1"] = L.local_adv_loss(p1map)
        with _branch("mid adversarial"):
            out["l_adv2"] = L.local_adv_loss(p2)
        with _branch("global adversarial"):
            out["l_adv3"] = L.local_adv_loss(out["p3"])
        with _branch("region instance"):
            out["l_ri"] = L.region_instance_loss(out["dri"], groups_per_image,
                                                 weights.gamma)
        out["l_lg"] = out["l_adv1"] + out["l_adv2"] + out["l_adv3"]
    with _branch("composite"):
        out["composite"] = out["l_c"] + out["l_r"]
        if separate:
            out["composite"] += weights.beta * (out["l_rec"] + out["l_diff"])
        if align:
            out["composite"] += out["l_lg"] + out["l_ri"]
    return out


def train_step(net, source_entry, target_entry, weights, optimizer,
               normalize_rec=True, lam=None):
    """One min-max update on a source/target image pair; returns the loss
    terms its graph has as floats, plus domain-classifier diagnostics when
    the alignment branches are built. The logged `total` is the saddle value
    at the GRL coefficient `lam` the step ran at, an absent term read as 0."""
    lam = weights.lam if lam is None else lam
    out = compute_losses(net, source_entry, target_entry, weights, lam, normalize_rec)
    optimizer.zero_grad()
    out["composite"].backward()
    optimizer.step()

    vals = {c: float(out[c.lower()].value) for c in LOGGED_TERMS if c.lower() in out}
    vals["total"] = L.total_objective(*(vals.get(c, 0.0) for c in LOGGED_TERMS),
                                      replace(weights, lam=lam))
    if "p3" in out:
        # d3 is pushed toward 0 on the source image, the region head (whose
        # output is P(source)) toward 1 on the source groups
        p3 = out["p3"].value
        vals["acc_d3"] = 0.5 * (float(p3[0] <= 0.5) + float(p3[1] > 0.5))
        dri = out["dri"].value
        is_source = np.arange(dri.size) < len(source_entry.groups)
        vals["acc_dri"] = float(((dri > 0.5) == is_source).mean())
    if not all(np.isfinite(v) for v in vals.values()):
        raise TrainingDiverged("non-finite loss component in logs")
    return vals


@dataclass
class TrainResult:
    net: nw.SeparationNet
    rows: list


def train(cfg, source=None, target=None):
    """Run the configured number of steps; returns the net and per-step rows."""
    if source is None or target is None:
        source, target = build_training_corpus(cfg)
    net = nw.SeparationNet(cfg.network, seed=cfg.seed)
    opt = ad.SGD(net.params(), lr=cfg.lr_initial, momentum=cfg.momentum)
    batch_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17]))
    decay_step = cfg.resolved_decay_step()
    rows = []
    for step in range(cfg.iterations):
        opt.lr = cfg.lr_initial if step < decay_step else cfg.lr_after_decay
        if cfg.lambda_warmup_steps > 0:
            ramp = min(1.0, step / cfg.lambda_warmup_steps)
            lam = cfg.weights.lam * (2.0 / (1.0 + np.exp(-10.0 * ramp)) - 1.0)
        else:
            lam = cfg.weights.lam
        si = int(batch_rng.integers(len(source)))
        ti = int(batch_rng.integers(len(target)))
        vals = train_step(net, source[si], target[ti], cfg.weights, opt,
                          normalize_rec=cfg.normalize_reconstruction, lam=lam)
        vals["step"] = step
        rows.append(vals)
    return TrainResult(net=net, rows=rows)


def source_only_config(cfg):
    """Same run at beta = lam = 0: `compute_losses` builds the detector alone."""
    return replace(cfg, weights=replace(cfg.weights, beta=0.0, lam=0.0))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def pooled_features(net, samples):
    """(len(samples), C3) spatially pooled f3 features, one image at a time."""
    out = np.empty((len(samples), net.spec.channels[2]))
    for i, sample in enumerate(samples):
        _, _, f3 = net.forward_backbone(sample.rgb[None])
        out[i] = nw.global_pool(f3).value[0]
    return out


def _logistic_fit(x, y, iters=500, lr=0.5, l2=1e-3):
    xb = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    w = np.zeros(xb.shape[1])
    for _ in range(iters):
        z = np.clip(xb @ w, -500.0, 500.0)
        p = 1.0 / (1.0 + np.exp(-z))
        grad = xb.T @ (p - y) / len(y) + l2 * w
        w -= lr * grad
    return w


def probe_domain_accuracy(net, probe_train, probe_eval):
    """Train a fresh logistic probe on frozen pooled shared features of the
    (source, target) sample pair `probe_train` and report its source/target
    accuracy on the held-out pair `probe_eval`."""
    def features(pair):
        xs, xt = (pooled_features(net, [s for s, _ in samples]) for samples in pair)
        return np.concatenate([xs, xt]), np.repeat([0.0, 1.0], [len(xs), len(xt)])

    x, y = features(probe_train)
    mu, sd = x.mean(axis=0), x.std(axis=0) + 1e-8
    w = _logistic_fit((x - mu) / sd, y)
    ex, ey = features(probe_eval)
    xb = np.concatenate([(ex - mu) / sd, np.ones((len(ex), 1))], axis=1)
    pred = (xb @ w) > 0
    return float((pred == ey.astype(bool)).mean())


def target_match_rate(net, detect_eval):
    """Fraction of target ground-truth boxes matched by a proposal whose
    predicted class is correct and whose refined box reaches IoU >= 0.5."""
    matched = total = 0
    for sample, pset in detect_eval:
        _, _, f3 = net.forward_backbone(sample.rgb[None])
        feats = nw.roi_pool(f3, nw.roi_pool_matrix(pset.boxes, *f3.shape[2:]))
        logits, deltas = net.detector_head(feats)
        pred_cls = logits.value.argmax(axis=1)
        refined = apply_deltas(pset.boxes, deltas.value)
        # (G, P): proposal p finds ground-truth box g
        found = ((box_iou(sample.eval_boxes(), refined) >= 0.5)
                 & (pred_cls == sample.eval_labels()[:, None]))
        matched += int(found.any(axis=1).sum())
        total += len(found)
    return matched / total if total else 0.0


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def save_checkpoint(net, out_dir):
    """Write `out_dir`/checkpoint.npz: each parameter under its name, and the
    net's `NetworkSpec` as JSON under "network"."""
    np.savez(os.path.join(out_dir, "checkpoint.npz"),
             network=json.dumps(config_to_dict(net.spec)),
             **{name: p.value for name, p in net.named_params()})


def load_checkpoint(net, out_dir):
    """Load `out_dir`/checkpoint.npz, written by `save_checkpoint`, into
    `net`. It must hold float64 values for exactly the net's parameters, each
    in the net's shape, saved from a net of the same `NetworkSpec`; otherwise
    a ValueError names what differs. It is read without unpickling, so an
    object array raises too. On any error, `net` is left unchanged."""
    # np.load leaves a path it opened open when the archive fails to parse
    with (open(os.path.join(out_dir, "checkpoint.npz"), "rb") as fh,
          np.load(fh, allow_pickle=False) as npz):
        files = [f for f in npz.files if f != "network"]
        arrays = {f: npz[f] for f in files}
        saved = json.loads(str(npz["network"])) if "network" in npz.files else {}
    params = dict(net.named_params())
    if sorted(files) != sorted(params):
        raise ValueError(f"checkpoint parameters differ from the net's: missing "
                         f"{sorted(set(params) - set(files))}, unexpected "
                         f"{sorted(set(files) - set(params))} (or a name repeats)")
    for name, p in params.items():
        arr = arrays[name]
        if arr.dtype != np.float64 or arr.shape != p.value.shape:
            raise ValueError(f"checkpoint {name} has dtype {arr.dtype} and shape "
                             f"{arr.shape}, not float64 and the net's {p.value.shape}")
    if not isinstance(saved, dict):
        raise ValueError(f"checkpoint network spec is not a JSON object: {saved!r}")
    spec = config_to_dict(net.spec)
    differ = sorted(k for k in {**saved, **spec} if saved.get(k) != spec.get(k))
    if differ:
        raise ValueError("checkpoint network differs from the net's in " + ", ".join(
            f"{k} ({saved.get(k)!r} vs {spec.get(k)!r})" for k in differ))
    for name, p in params.items():
        p.value = arrays[name]
    return net


def run_experiment(cfg, out_dir=None):
    """Adapted run plus source-only twin, probed under the same protocol.

    Both twins train on one grouped corpus and are evaluated on the same
    held-out samples; the twin (`source_only_config`) is the detector alone.
    Returns each twin's `probe_accuracy` and `target_match_rate` under its
    name ("adapted", "source_only"), next to the "seeds". With `out_dir`,
    config.json (`config_to_dict`, which `load_config` reads back) comes
    first, then each twin writes `<twin>/steps.jsonl`, one JSON line per
    `train` row, and `<twin>/checkpoint.npz`; then the metrics go to
    metrics.json.
    """
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "config.json"), config_to_dict(cfg))
    source, target = build_training_corpus(cfg)
    probe_train, probe_eval, detect_eval = build_eval_sets(cfg)
    metrics = {}
    for twin, twin_cfg in (("adapted", cfg), ("source_only", source_only_config(cfg))):
        result = train(twin_cfg, source, target)
        metrics[twin] = {
            "probe_accuracy": probe_domain_accuracy(result.net, probe_train, probe_eval),
            "target_match_rate": target_match_rate(result.net, detect_eval)}
        if out_dir:
            twin_dir = os.path.join(out_dir, twin)
            os.makedirs(twin_dir, exist_ok=True)
            with open(os.path.join(twin_dir, "steps.jsonl"), "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(row) + "\n" for row in result.rows)
            save_checkpoint(result.net, twin_dir)
    metrics["seeds"] = {"train": cfg.seed}
    if out_dir:
        _write_json(os.path.join(out_dir, "metrics.json"), metrics)
    return metrics


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# the gradient check
# ---------------------------------------------------------------------------

def gradcheck_config():
    """The gradient check's setting, kept cheap for finite-difference sweeps:
    a narrow network and one source/target pair of 32x32 scenes with light
    proposal noise, under the default loss weights."""
    return TrainConfig(
        corpus_size=1,
        network=nw.NetworkSpec(channels=(4, 6, 8), d1_hidden=4, d23_hidden=6,
                               dri_hidden=8, head_hidden=12),
        scene=synth.SceneSpec(canvas=(32, 32), object_count_range=(1, 2),
                              radius_range=(4.0, 6.0)),
        proposal_noise=synth.ProposalNoiseSpec(jitter_std=1.5, redundancy=3,
                                               background_count=1,
                                               background_margin=8.0),
    )


def branch_gradients(named_params, losses, branches):
    """{branch: [gradient per parameter]} of each named scalar node of
    `losses`, by one backward per branch through their shared graph. A
    parameter the branch does not reach gets zeros."""
    out = {}
    for branch in branches:
        for _, p in named_params:
            p.grad = None
        losses[branch].backward()
        out[branch] = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.value)
            for _, p in named_params
        ]
    return out


def finite_difference_check(seed=0, eps=1e-5, coords_per_param=50, branches=None):
    """Per-branch finite-difference report on `gradcheck_config` at `seed`.

    Every branch is a node of the trained loss graph (`compute_losses`),
    checked at lam = -1, where gradient reversal is exactly transparent.
    Up to `coords_per_param` coordinates of every parameter tensor are
    sampled, the same ones for every branch, so a branch that reaches a
    parameter it should not shows up as a mismatch; each is moved by +-eps,
    and one forward per perturbation serves every branch. `branches=None`
    checks them all. For the reversed branches, the lam = -1 gradients are
    compared with those at lam = +1: the backbone's, upstream of every GRL,
    must negate exactly and every other parameter's must stay the same.
    Returns {branch: {"max_rel_err": float, "per_param": {...},
    "sign_symmetric": bool}}, the last for the reversed branches only.
    """
    branches = list(ALL_BRANCHES if branches is None else branches)
    if not branches:
        raise ValueError("branches is empty; pass None to check every branch")
    unknown = [b for b in branches if b not in ALL_BRANCHES]
    if unknown:
        raise ValueError(f"unknown branches {unknown!r}")
    if not is_count(coords_per_param):
        raise ValueError("coords_per_param must be an integer of at least 1")
    if not (is_real(eps) and eps > 0):
        raise ValueError("eps must be finite and positive")
    cfg = replace(gradcheck_config(), seed=seed)
    net = nw.SeparationNet(cfg.network, seed=seed)
    (source_entry,), (target_entry,) = build_training_corpus(cfg)
    named = net.named_params()

    def build(lam=-1.0):
        return compute_losses(net, source_entry, target_entry, cfg.weights, lam,
                              cfg.normalize_reconstruction)

    analytic = branch_gradients(named, build(), branches)
    rng = np.random.default_rng(seed + 1)
    per_param = {branch: {} for branch in branches}
    for k, (name, p) in enumerate(named):
        flat = p.value.reshape(-1)
        n = flat.size
        idx = np.arange(n) if n <= coords_per_param else rng.choice(
            n, size=coords_per_param, replace=False
        )
        worst = dict.fromkeys(branches, 0.0)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            hi = build()
            flat[i] = orig - eps
            lo = build()
            flat[i] = orig
            for branch in branches:
                fd = (float(hi[branch].value) - float(lo[branch].value)) / (2.0 * eps)
                ag = analytic[branch][k].reshape(-1)[i]
                err = abs(ag - fd) / max(abs(ag), abs(fd), 1e-6)
                worst[branch] = max(worst[branch], err)
        for branch in branches:
            per_param[branch][name] = worst[branch]

    reversed_branches = [b for b in branches if b in REVERSED_BRANCHES]
    g_pos = branch_gradients(named, build(1.0), reversed_branches) if reversed_branches else {}
    upstream = [name.startswith("backbone.") for name, _ in named]
    report = {}
    for branch in branches:
        report[branch] = {"max_rel_err": max(per_param[branch].values()),
                          "per_param": per_param[branch]}
        if branch in REVERSED_BRANCHES:
            report[branch]["sign_symmetric"] = all(
                np.array_equal(gp, -gn if up else gn)
                for up, gp, gn in zip(upstream, g_pos[branch], analytic[branch]))
    return report
