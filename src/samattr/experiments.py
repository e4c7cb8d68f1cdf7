"""Experiment drivers: data valuation, noise detection, misclassification
tracing, model editing, and estimator calibration, all batch-mode and
seed-deterministic. Each driver returns a Report of its experiment id and
config digest for emit_report. Every retrain goes through the removal
oracle: valuate and detect-noise retrain all their removal sets in one
sweep, and a set that removes nothing replays the trained model.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import datasets, model as mod, oracle
from .errors import ConfigError
from .influence import ESTIMATORS, NeumannConfig, influence_scores, influence_vectors
from .report import Report
from .samtrain import SAMConfig, train_sam, write_trajectory

Array = np.ndarray

_RECALL_GRID = [round(0.05 * i, 2) for i in range(1, 21)]
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "blobs(200, 10, 2, 3.0, 1)"
    label_column: str = "label"
    val_fraction: float = 0.15  # used only when the source has no splits
    test_fraction: float = 0.15
    model: str = "logistic"
    hidden: tuple[int, ...] = (8,)
    activation: str = "tanh"
    rho: float = 0.05
    p: float = 2.0
    lam: float = 0.01
    eta: str = "0.5"  # constant, or step-decay "0:0.5,500:0.05"
    batch_size: int = 0  # 0 = full batch
    steps: int = 1000
    epoch_shuffled: bool = False
    estimator: str = "if_fast"
    gif_mode: str = "sgd"
    removal_fractions: tuple[float, ...] = (0.02, 0.05, 0.1)
    flip_fraction: float = 0.0
    top_m: int = 5
    max_trace_points: int = 10
    edit_indices: tuple[int, ...] = ()
    sample_size: int = 0  # 0 = every training point (calibrate)
    neumann_order: int = 500  # GMRES iteration cap
    neumann_damp: float = 0.01
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        if any(not 0.0 <= f <= 1.0 for f in self.removal_fractions):
            raise ConfigError("removal fractions must lie in [0, 1]")
        if not 0.0 <= self.flip_fraction <= 0.5:
            raise ConfigError("flip fraction must lie in [0, 0.5]")
        if min(self.top_m, self.max_trace_points) < 0:
            raise ConfigError("top_m and max_trace_points must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        est = self.estimator.replace("-", "_")
        if est not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        object.__setattr__(self, "estimator", est)
        if self.model not in ("logistic", "mlp"):
            raise ConfigError(f"unknown model kind {self.model!r}")
        if self.gif_mode not in ("gd", "sgd"):
            raise ConfigError(f"unknown gif mode {self.gif_mode!r}")

    def digest(self) -> str:
        """Hash of every field as the run uses it: `eta` parsed, so equal
        schedules written differently hash alike, and neither `out` (where
        the run is written) nor, for a logistic model, the MLP-only
        `hidden` and `activation`."""
        unused = {"out"} | ({"hidden", "activation"} if self.model == "logistic" else set())
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in unused}
        values["eta"] = self.parsed_eta()
        parts = [f"{name}={value}" for name, value in values.items()]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def parsed_eta(self):
        text = self.eta.strip()
        try:
            if ":" not in text:
                return float(text)
            return tuple(
                (int(pair.split(":")[0]), float(pair.split(":")[1]))
                for pair in text.split(",")
            )
        except (ValueError, IndexError):
            raise ConfigError(f"malformed eta schedule {self.eta!r}") from None

    def neumann(self) -> NeumannConfig:
        return NeumannConfig(order=self.neumann_order, damp=self.neumann_damp)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat key=value config file; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "lambda":
            key = "lam"
        values[key] = value
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return _build_config(values, path)


def _build_config(values: dict, origin: str) -> ExperimentConfig:
    kwargs = {}
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    for key, value in values.items():
        if key not in by_name:
            raise ConfigError(f"{origin}: unknown config key {key!r}")
        if not isinstance(value, str):
            kwargs[key] = value
            continue
        default = getattr(ExperimentConfig, key)
        try:
            if isinstance(default, bool):
                kwargs[key] = _BOOLEANS[value.lower()]
            elif isinstance(default, int):
                kwargs[key] = int(value)
            elif isinstance(default, float):
                kwargs[key] = float(value)
            elif isinstance(default, tuple):
                if value.strip() == "":
                    kwargs[key] = ()
                elif key == "removal_fractions":
                    kwargs[key] = tuple(float(v) for v in value.split(","))
                else:
                    kwargs[key] = tuple(int(v) for v in value.split(","))
            else:
                kwargs[key] = value
        except (KeyError, ValueError):
            raise ConfigError(f"{origin}: bad value for {key!r}: {value!r}") from None
    return ExperimentConfig(**kwargs)


def setup(cfg: ExperimentConfig) -> tuple[mod.ModelSpec, mod.Dataset, SAMConfig]:
    """Ingest the dataset, infer the model spec, build the SAM config."""
    ds = datasets.ingest(cfg.dataset, cfg.label_column)
    if ds.indices("val").size == 0 and ds.indices("test").size == 0:
        ds = datasets.split_dataset(ds, cfg.val_fraction, cfg.test_fraction, cfg.seed)
    C = int(ds.labels.max()) + 1
    if cfg.model == "logistic":
        spec = mod.ModelSpec("logistic", (ds.d, C))
    else:
        spec = mod.ModelSpec("mlp", (ds.d, *cfg.hidden, C), cfg.activation)
    n_train = int(ds.indices("train").size)
    if n_train == 0:
        raise ConfigError("dataset has no training rows")
    sam = SAMConfig(
        rho=cfg.rho,
        p=cfg.p,
        lam=cfg.lam,
        eta=cfg.parsed_eta(),
        batch_size=cfg.batch_size or n_train,
        steps=cfg.steps,
        seed=cfg.seed,
        epoch_shuffled=cfg.epoch_shuffled,
    )
    return spec, ds, sam


def _scores(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig, params: Array,
    trajectory, queries: Array,
) -> Array:
    """scores[n, m] of every training point against m query gradients."""
    return influence_scores(cfg.estimator, spec, ds, params, sam.rho, sam.p, sam.lam,
                            cfg.neumann(), range(ds.indices("train").size), trajectory,
                            cfg.gif_mode, queries)


def _val_scores(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig, params: Array,
    trajectory,
) -> Array:
    """scores[n] against the validation loss gradient, one solve for all
    points; positive = valuable (removal predicted to raise validation loss)."""
    _, gval = mod.subset_loss_grad(spec, params, ds, ds.indices("val"), 1.0)
    return _scores(cfg, spec, ds, sam, params, trajectory, gval[None])[:, 0]


def _vectors(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig, params: Array,
    trajectory, ks,
) -> Array:
    """Influence vectors of the training points ks, one row per point."""
    return influence_vectors(cfg.estimator, spec, ds, params, sam.rho, sam.p, sam.lam,
                             cfg.neumann(), ks, trajectory, cfg.gif_mode)


def score_all(
    cfg: ExperimentConfig,
    spec: mod.ModelSpec,
    ds: mod.Dataset,
    sam: SAMConfig,
    params: Array,
    trajectory,
) -> tuple[Array, Array]:
    """Influence vectors and scores for every training point.

    Returns (scores[n], ifvecs[n, P]); scores are the commands' scores
    (one transposed solve against the validation gradient), oriented
    positive = valuable. The vectors cost one solve per point; the
    commands ask only for those of the points they remove.
    """
    n = ds.indices("train").size
    scores = _val_scores(cfg, spec, ds, sam, params, trajectory)
    return scores, _vectors(cfg, spec, ds, sam, params, trajectory, range(n))


def rank_descending(scores: Array) -> Array:
    """Most valuable first; ties break toward the smaller training index."""
    return np.lexsort((np.arange(scores.size), -scores))


def rank_ascending(scores: Array) -> Array:
    """Most harmful first; ties break toward the smaller training index."""
    return np.lexsort((np.arange(scores.size), scores))


def _removal_accuracies(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig,
    order: Array, salt: int,
) -> tuple[list, list, float]:
    """Per removal fraction f: test accuracy after retraining without the
    first round(f*n) points of order, and without a seeded random set of
    the same size, all in one oracle sweep, and the sweep's wall time. A
    fraction that removes nothing retrains on the empty set, which replays
    the trained model bit for bit."""
    start = time.perf_counter()
    n = order.size
    sets = []
    for fi, f in enumerate(cfg.removal_fractions):
        m = int(round(f * n))
        rand = np.random.default_rng([cfg.seed, salt, fi]).choice(n, size=m, replace=False)
        sets += [order[:m], rand]
    accs = [mod.accuracy(spec, w, ds, "test") for w in oracle.loo_retrain_many(spec, ds, sets, sam)]
    return accs[0::2], accs[1::2], time.perf_counter() - start


def cmd_train(cfg: ExperimentConfig) -> Report:
    """Train and persist the trajectory; report losses and accuracies."""
    spec, ds, sam = setup(cfg)
    start = time.perf_counter()
    params, traj = train_sam(spec, ds, sam)
    wall = time.perf_counter() - start
    report = Report("train", cfg.digest())
    os.makedirs(cfg.out, exist_ok=True)
    write_trajectory(traj, os.path.join(cfg.out, f"trajectory_{report.config_digest[:8]}.samt"))
    rows = ds.indices("train")
    train_loss, _ = mod.subset_loss_grad(spec, params, ds, rows, 1.0 / rows.size)
    report.add("train_loss", [cfg.steps], [train_loss], [wall])
    for split in ("train", "val", "test"):
        report.add(f"{split}_acc", [cfg.steps], [mod.accuracy(spec, params, ds, split)])
    return report


def cmd_attribute(cfg: ExperimentConfig) -> Report:
    """Influence scores for every training point under one estimator."""
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    start = time.perf_counter()
    scores = _val_scores(cfg, spec, ds, sam, params, traj)
    wall = time.perf_counter() - start
    report = Report("attribute", cfg.digest())
    report.add(f"influence_score_{cfg.estimator}", np.arange(scores.size), scores, [wall])
    return report


def cmd_valuate(cfg: ExperimentConfig) -> Report:
    """Remove the most valuable points at each fraction; compare test
    accuracy after retraining, after influence editing, and after
    removing a random set of the same size."""
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    scores = _val_scores(cfg, spec, ds, sam, params, traj)
    n = scores.size
    order = rank_descending(scores)
    fractions = list(cfg.removal_fractions)
    acc_retrain, acc_random, wall = _removal_accuracies(cfg, spec, ds, sam, order, 0x7A)
    sizes = [int(round(f * n)) for f in fractions]
    top = _vectors(cfg, spec, ds, sam, params, traj, order[: max(sizes, default=0)])
    acc_edit = [mod.accuracy(spec, params - top[:m].sum(axis=0), ds, "test") for m in sizes]
    report = Report("valuate", cfg.digest())
    report.add("acc_retrain", fractions, acc_retrain, [wall])
    report.add("acc_edit", fractions, acc_edit)
    report.add("acc_random", fractions, acc_random)
    report.add("acc_baseline", [0.0], [mod.accuracy(spec, params, ds, "test")])
    return report


def cmd_detect_noise(cfg: ExperimentConfig) -> Report:
    """Flip a seeded label fraction, train, rank by ascending influence
    score, and report flip-recall and removal-accuracy curves with
    random controls."""
    if cfg.flip_fraction <= 0.0:
        raise ConfigError("detect-noise needs flip_fraction > 0")
    spec, ds, sam = setup(cfg)
    noisy, flipped = datasets.flip_labels(ds, cfg.flip_fraction, cfg.seed)
    params, traj = train_sam(spec, noisy, sam)
    scores = _val_scores(cfg, spec, noisy, sam, params, traj)
    n = scores.size
    order = rank_ascending(scores)  # most harmful (most negative) first
    random_order = np.random.default_rng([cfg.seed, 0x4E]).permutation(n)
    flipped_set = set(flipped.tolist())

    def recall_curve(ranking):
        out = []
        for q in _RECALL_GRID:
            inspected = ranking[: int(np.ceil(q * n))]
            hits = sum(1 for i in inspected if int(i) in flipped_set)
            out.append(hits / len(flipped_set))
        return out

    report = Report("detect_noise", cfg.digest())
    report.add("recall_is", _RECALL_GRID, recall_curve(order))
    report.add("recall_random", _RECALL_GRID, recall_curve(random_order))

    fractions = list(cfg.removal_fractions)
    acc_is, acc_random, wall = _removal_accuracies(cfg, spec, noisy, sam, order, 0x4F)
    report.add("acc_removed_is", fractions, acc_is, [wall])
    report.add("acc_removed_random", fractions, acc_random)
    return report


def cmd_trace(cfg: ExperimentConfig) -> Report:
    """For misclassified test points, list the most helpful and most
    harmful training points by per-test-point influence score."""
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    test_rows = ds.indices("test")
    preds = mod.predict_labels(spec, params, ds.features[test_rows])
    mis = test_rows[preds != ds.labels[test_rows]][: cfg.max_trace_points]
    report = Report("trace", cfg.digest())
    report.add("misclassified_count", [0.0], [float(mis.size)])
    if mis.size == 0:
        return report
    start = time.perf_counter()
    g_test = mod.example_grads(spec, params, ds, mis)
    scores = _scores(cfg, spec, ds, sam, params, traj, g_test)  # one column per test point
    m = min(cfg.top_m, scores.shape[0])
    for row, point_scores in zip(mis, scores.T):
        helpful = rank_descending(point_scores)[:m]
        harmful = rank_ascending(point_scores)[:m]
        report.add(f"helpful_test{row}", helpful, point_scores[helpful])
        report.add(f"harmful_test{row}", harmful, point_scores[harmful])
    report.runs[0].wall_times = [time.perf_counter() - start]
    return report


def cmd_edit(cfg: ExperimentConfig) -> Report:
    """Edit the model by subtracting summed influence vectors of the
    removal set (explicit indices, or the bottom fraction by score) and
    compare against retraining without those points (the oracle's
    replayed schedule)."""
    spec, ds, sam = setup(cfg)
    n = int(ds.indices("train").size)
    removed = np.asarray(cfg.edit_indices, dtype=np.int64)
    if removed.size and (
        removed.min() < 0 or removed.max() >= n or np.unique(removed).size != removed.size
    ):
        raise ConfigError(f"edit_indices must be distinct train positions in 0..{n - 1}")
    params, traj = train_sam(spec, ds, sam)
    if not removed.size:
        f = cfg.removal_fractions[0] if cfg.removal_fractions else 0.1
        removed = rank_ascending(_val_scores(cfg, spec, ds, sam, params, traj))[: int(round(f * n))]
    start = time.perf_counter()
    w_edit = params - _vectors(cfg, spec, ds, sam, params, traj, removed).sum(axis=0)
    edit_wall = time.perf_counter() - start
    start = time.perf_counter()
    w_retrain = oracle.loo_retrain(spec, ds, removed, sam)
    retrain_wall = time.perf_counter() - start
    report = Report("edit", cfg.digest())
    report.add("acc_baseline", [0.0], [mod.accuracy(spec, params, ds, "test")])
    report.add("acc_edited", [0.0], [mod.accuracy(spec, w_edit, ds, "test")], [edit_wall])
    report.add("acc_retrained", [0.0], [mod.accuracy(spec, w_retrain, ds, "test")], [retrain_wall])
    rel = float(np.linalg.norm(w_edit - w_retrain) / max(np.linalg.norm(params), 1e-300))
    report.add("param_distance_rel", [0.0], [rel])
    os.makedirs(cfg.out, exist_ok=True)
    np.save(os.path.join(cfg.out, f"edited_params_{report.config_digest[:8]}.npy"), w_edit)
    return report


def cmd_calibrate(cfg: ExperimentConfig) -> Report:
    """Estimator-vs-oracle calibration over a leave-one-out sweep."""
    spec, ds, sam = setup(cfg)
    n = int(ds.indices("train").size)
    sample = cfg.sample_size or n
    start = time.perf_counter()
    cal = oracle.calibrate_estimator(
        spec, ds, sam, cfg.estimator, sample, cfg.neumann(), cfg.gif_mode
    )
    wall = time.perf_counter() - start
    report = Report("calibrate", cfg.digest())
    report.add(f"pearson_{cfg.estimator}", [0.0], [cal.pearson], [wall])
    report.add(f"spearman_{cfg.estimator}", [0.0], [cal.spearman])
    report.add(f"sign_agreement_{cfg.estimator}", [0.0], [cal.sign_agreement])
    report.add(f"n_points_{cfg.estimator}", [0.0], [cal.n_points])
    return report
