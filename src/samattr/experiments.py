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
from .errors import ConfigError, InvalidInputError
from .numcore import _removal_set
from .influence import ESTIMATORS, GIF_MODES, NeumannConfig, influence_scores, influence_vectors
from .report import Report
from .samtrain import SAMConfig, train_sam, write_trajectory

Array = np.ndarray

_RECALL_GRID = [round(0.05 * i, 2) for i in range(1, 21)]
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = "blobs(200, 10, 2, 3.0, 1)"
    label_column: str = "label"
    val_fraction: float = 0.15  # used only when the source has no splits; checked always
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
        datasets.check_split_fractions(self.val_fraction, self.test_fraction)
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
        if self.activation not in mod.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if any(size < 1 for size in self.hidden):
            raise ConfigError(f"hidden layer sizes must be >= 1, got {self.hidden}")
        if self.gif_mode not in GIF_MODES:
            raise ConfigError(f"unknown gif mode {self.gif_mode!r}")
        self.neumann()  # the solver settings are checked before any training

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
    """Parse a flat key=value config file; '#' starts a comment. A key given
    twice ("lambda" and "lam", "-" and "_" spellings alike) is a ConfigError;
    overrides apply on top of the file."""
    values: dict = {}
    key_lines: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as f:
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
        if key in values:
            raise ConfigError(f"{path}:{line_no}: key {key!r} repeats line {key_lines[key]}")
        values[key], key_lines[key] = value, line_no
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
    n_train = mod._split_rows(spec, ds, "train")[1].size
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


def _estimate(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig, params: Array,
    trajectory, ks, queries: Array | None = None,
) -> Array:
    """The config's estimator over the removal sets ks: their influence
    vectors, one row per set, or with queries (m, P) their scores[len(ks), m]."""
    args = (cfg.estimator, spec, ds, params, sam.rho, sam.p, sam.lam, cfg.neumann(), ks,
            trajectory, cfg.gif_mode)
    return influence_vectors(*args) if queries is None else influence_scores(*args, queries)


def _val_scores(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig, params: Array,
    trajectory, val: tuple[Array, Array],
) -> Array:
    """scores[n] against the validation loss gradient over the val split's
    checked rows val = (X, y): one solve for all points (if_fast, hif) or
    one gif replay projected onto that gradient; positive = valuable
    (removal predicted to raise validation loss)."""
    X, y = val
    gval = mod.stacked_loss_grad(spec, params[None], X[None], y[None])[1]
    n = ds.indices("train").size
    return _estimate(cfg, spec, ds, sam, params, trajectory, range(n), gval)[:, 0]


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
    (_val_scores: one transposed solve, or gif's one replay, against the
    validation gradient), oriented positive = valuable. The vectors cost
    one solve per point; the commands ask only for those of the sets they
    remove, one solve per set (valuate's top set per fraction, edit's one
    set).
    """
    n = ds.indices("train").size
    scores = _val_scores(cfg, spec, ds, sam, params, trajectory, mod._split_rows(spec, ds, "val"))
    return scores, _estimate(cfg, spec, ds, sam, params, trajectory, range(n))


def rank_descending(scores: Array) -> Array:
    """Most valuable first; ties break toward the smaller training index."""
    return np.lexsort((np.arange(scores.size), -scores))


def rank_ascending(scores: Array) -> Array:
    """Most harmful first; ties break toward the smaller training index."""
    return np.lexsort((np.arange(scores.size), scores))


def _removal_sizes(fractions, n: int) -> list[int]:
    """round(f * n) train points per removal fraction f, checked as the
    retrain sweep checks its sets, so a fraction that would remove every
    train point fails before any training."""
    sizes = [int(round(f * n)) for f in fractions]
    _removal_set(n, range(max(sizes, default=0)), "loo_retrain_many")
    return sizes


def _removal_accuracies(
    cfg: ExperimentConfig, spec: mod.ModelSpec, ds: mod.Dataset, sam: SAMConfig,
    order: Array, sizes: list[int], salt: int, test: tuple[Array, Array],
) -> tuple[Array, Array, Array, float]:
    """Per removal size m (_removal_sizes'): accuracy on the checked test rows after
    retraining without the first m points of order and without a seeded random set of the
    same size, in one sweep and one _evaluate; the first sets' retrained rows; the sweep's
    wall time. A size of 0 retrains on the empty set: the trained model, bit for bit."""
    start = time.perf_counter()
    n = order.size
    sets = []
    for fi, m in enumerate(sizes):
        rand = np.random.default_rng([cfg.seed, salt, fi]).choice(n, size=m, replace=False)
        sets += [order[:m], rand]
    retrained = oracle.loo_retrain_many(spec, ds, sets, sam)
    accs = mod._evaluate(spec, retrained, *test)[1]
    return accs[0::2], accs[1::2], retrained[0::2], time.perf_counter() - start


def _distance(a: Array, b: Array, params: Array) -> float:
    """||a - b|| relative to the trained parameters' norm."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(params), 1e-300))


def cmd_train(cfg: ExperimentConfig) -> Report:
    """Train and persist the trajectory; report losses and accuracies."""
    spec, ds, sam = setup(cfg)
    rows = {split: mod._split_rows(spec, ds, split) for split in ("train", "val", "test")}
    start = time.perf_counter()
    params, traj = train_sam(spec, ds, sam)
    wall = time.perf_counter() - start
    report = Report("train", cfg.digest())
    os.makedirs(cfg.out, exist_ok=True)
    write_trajectory(traj, os.path.join(cfg.out, f"trajectory_{report.config_digest[:8]}.samt"))
    evals = {split: mod._evaluate(spec, params[None], X, y) for split, (X, y) in rows.items()}
    train_loss = (1.0 / rows["train"][1].size) * float(evals["train"][0][0])
    report.add("train_loss", [cfg.steps], [train_loss], [wall])
    for split, (_, acc) in evals.items():
        report.add(f"{split}_acc", [cfg.steps], acc)
    return report


def cmd_attribute(cfg: ExperimentConfig) -> Report:
    """Influence scores for every training point under one estimator."""
    spec, ds, sam = setup(cfg)
    val = mod._split_rows(spec, ds, "val")  # checked before training
    params, traj = train_sam(spec, ds, sam)
    start = time.perf_counter()
    scores = _val_scores(cfg, spec, ds, sam, params, traj, val)
    wall = time.perf_counter() - start
    report = Report("attribute", cfg.digest())
    report.add(f"influence_score_{cfg.estimator}", np.arange(scores.size), scores, [wall])
    return report


def cmd_valuate(cfg: ExperimentConfig) -> Report:
    """Remove the most valuable points at each fraction; compare test
    accuracy after retraining, after influence editing, and after
    removing a random set of the same size, and the edited and unedited
    parameters' distances to the retrained ones, as edit reports them."""
    spec, ds, sam = setup(cfg)
    val = mod._split_rows(spec, ds, "val")  # both read below; checked before training
    test = mod._split_rows(spec, ds, "test")
    sizes = _removal_sizes(cfg.removal_fractions, ds.indices("train").size)
    params, traj = train_sam(spec, ds, sam)
    order = rank_descending(_val_scores(cfg, spec, ds, sam, params, traj, val))
    fractions = list(cfg.removal_fractions)
    acc_retrain, acc_random, retrained, wall = _removal_accuracies(
        cfg, spec, ds, sam, order, sizes, 0x7A, test)
    edited = params - _estimate(cfg, spec, ds, sam, params, traj, [order[:m] for m in sizes])
    accs = mod._evaluate(spec, np.vstack([params, edited]), *test)[1]  # baseline first
    report = Report("valuate", cfg.digest())
    report.add("acc_retrain", fractions, acc_retrain, [wall])
    report.add("acc_edit", fractions, accs[1:])
    report.add("acc_random", fractions, acc_random)
    report.add("acc_baseline", [0.0], accs[:1])
    report.add("param_distance_rel", fractions,
               [_distance(w, r, params) for w, r in zip(edited, retrained)])
    report.add("param_distance_none", fractions, [_distance(params, r, params) for r in retrained])
    return report


def cmd_detect_noise(cfg: ExperimentConfig) -> Report:
    """Flip a seeded label fraction, train, rank by ascending influence
    score, and report flip-recall and removal-accuracy curves with
    random controls."""
    if cfg.flip_fraction <= 0.0:
        raise ConfigError("detect-noise needs flip_fraction > 0")
    spec, ds, sam = setup(cfg)
    val = mod._split_rows(spec, ds, "val")  # both read below; checked before training
    test = mod._split_rows(spec, ds, "test")  # flip_labels leaves these rows as they are
    n = ds.indices("train").size
    sizes = _removal_sizes(cfg.removal_fractions, n)
    noisy, flipped = datasets.flip_labels(ds, cfg.flip_fraction, cfg.seed)  # train labels only
    if flipped.size == 0:
        raise ConfigError(f"flip_fraction {cfg.flip_fraction} flips no label of {n} train points")
    params, traj = train_sam(spec, noisy, sam)
    scores = _val_scores(cfg, spec, noisy, sam, params, traj, val)
    order = rank_ascending(scores)  # most harmful (most negative) first
    random_order = np.random.default_rng([cfg.seed, 0x4E]).permutation(n)
    inspected = np.ceil(np.array(_RECALL_GRID) * n).astype(np.int64)  # >= 1 per grid point

    def recall_curve(ranking):
        return np.cumsum(np.isin(ranking, flipped))[inspected - 1] / flipped.size

    report = Report("detect_noise", cfg.digest())
    report.add("recall_is", _RECALL_GRID, recall_curve(order))
    report.add("recall_random", _RECALL_GRID, recall_curve(random_order))

    fractions = list(cfg.removal_fractions)
    acc_is, acc_random, _, wall = _removal_accuracies(cfg, spec, noisy, sam, order, sizes, 0x4F,
                                                      test)
    report.add("acc_removed_is", fractions, acc_is, [wall])
    report.add("acc_removed_random", fractions, acc_random)
    return report


def cmd_trace(cfg: ExperimentConfig) -> Report:
    """Count the misclassified test points; for the first max_trace_points
    of them, list the most helpful and most harmful training points by
    per-test-point influence score."""
    spec, ds, sam = setup(cfg)
    params, traj = train_sam(spec, ds, sam)
    test_rows = ds.indices("test")
    preds = mod.predict_labels(spec, params, ds.features[test_rows])
    mis = test_rows[preds != ds.labels[test_rows]]
    report = Report("trace", cfg.digest())
    report.add("misclassified_count", [0.0], [float(mis.size)])
    mis = mis[: cfg.max_trace_points]
    if mis.size == 0:
        return report
    start = time.perf_counter()
    g_test = mod.example_grads(spec, params, ds, mis)
    scores = _estimate(cfg, spec, ds, sam, params, traj, range(ds.indices("train").size), g_test)
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
    replayed schedule): the edited and the unedited parameters' distances
    to the retrained ones, relative to the trained parameters' norm."""
    spec, ds, sam = setup(cfg)
    test = mod._split_rows(spec, ds, "test")  # read below; checked before training, as val is
    val = None if cfg.edit_indices else mod._split_rows(spec, ds, "val")  # ranks the set
    n = int(ds.indices("train").size)
    removed = np.asarray(cfg.edit_indices, dtype=np.int64)
    if removed.size:
        try:
            removed = _removal_set(n, removed, "edit_indices")
        except InvalidInputError as exc:
            raise ConfigError(f"edit_indices must be distinct train positions in 0..{n - 1}, "
                              f"not all of them ({exc})") from exc
    size = removed.size or _removal_sizes(cfg.removal_fractions[:1] or (0.1,), n)[0]
    params, traj = train_sam(spec, ds, sam)
    if val is not None:
        removed = rank_ascending(_val_scores(cfg, spec, ds, sam, params, traj, val))[:size]
    start = time.perf_counter()
    w_edit = params - _estimate(cfg, spec, ds, sam, params, traj, [removed])[0]
    edit_wall = time.perf_counter() - start
    start = time.perf_counter()
    w_retrain = oracle.loo_retrain(spec, ds, removed, sam)
    retrain_wall = time.perf_counter() - start
    acc = mod._evaluate(spec, np.stack([params, w_edit, w_retrain]), *test)[1]
    report = Report("edit", cfg.digest())
    report.add("acc_baseline", [0.0], acc[:1])
    report.add("acc_edited", [0.0], acc[1:2], [edit_wall])
    report.add("acc_retrained", [0.0], acc[2:], [retrain_wall])
    report.add("param_distance_rel", [0.0], [_distance(w_edit, w_retrain, params)])
    # The no-edit control: an edit helps only where param_distance_rel is below it.
    report.add("param_distance_none", [0.0], [_distance(params, w_retrain, params)])
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
