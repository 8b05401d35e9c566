"""Synthetic covariate-shift scenarios and their evaluation.

Two plane families: the interleaved two-moons pair (2 classes) and
Gaussian clusters spread evenly on a circle (any class count). A domain
is the base distribution pushed through its own affine shift (rotation,
translation, noise rescaling), so source and target share structure but
not geometry. Everything is a pure function of the ScenarioSpec: the
same ScenarioSpec always yields bit-identical datasets.

Labels exist for evaluation only. Training code receives bare feature
arrays and an evaluation callback that it hands its epoch-end
predictions; nothing in the adaptation path can read a target label.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ContractError

# rng stream indices reserved per domain kind; sources use their index m
TARGET_STREAM = 7919
HOLDOUT_STREAM = 104729

MAX_CLASSES = 256  # the most classes a scenario may have
MAX_SAMPLES = 20_000  # the most samples a domain may have
MAX_SOURCES = 16  # the most source domains a scenario may have
_MAX_SCALE = 1e6  # the largest translation, radius, noise and noise scale: beyond, a net's forward can overflow

FAMILIES = ("moons", "gaussians")
REGIMES = ("closed", "partial")


class Record:
    """Dataclass mixin: `to_dict`/`from_dict` derived from the fields.

    Nested records become dicts and tuples become lists. `from_dict`
    rejects unknown keys, missing required keys and values of the wrong
    type with a ContractError; absent optional keys take their defaults.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj):
        name = cls.__name__
        if not isinstance(obj, dict):
            raise ContractError(f"{name} must be a JSON object, got {type(obj).__name__}")
        declared = {f.name: f for f in fields(cls)}
        unknown = sorted(set(obj) - set(declared))
        if unknown:
            raise ContractError(f"unknown {name} keys {unknown}")
        hints = get_type_hints(cls)
        kwargs = {}
        for key, f in declared.items():
            if key in obj:
                kwargs[key] = _typed(hints[key], obj[key], f"{name}.{key}")
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ContractError(f"{name} is missing the required key {key!r}")
        return cls(**kwargs)


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _typed(kind, value, where: str):
    """`value` as an instance of the annotated type `kind`, or a ContractError."""
    if get_origin(kind) is tuple:  # always tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ContractError(f"{where} must be a list, got {value!r}")
        return tuple(_typed(get_args(kind)[0], v, where) for v in value)
    if isinstance(kind, type) and issubclass(kind, Record):
        return kind.from_dict(value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        ok = number and (isinstance(value, int) or value.is_integer())
    elif kind is float:
        ok = number and (isinstance(value, float) or abs(value) <= sys.float_info.max)  # an int a float can hold
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ContractError(f"{where} must be {kind.__name__}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Shift(Record):
    """Affine domain transform: rotate about the origin, translate, and
    rescale the generator's noise level. The rotation is finite, the (x, y)
    translation within [-1e6, 1e6] and the noise scale within [0, 1e6]."""

    rotation_deg: float = 0.0
    translation: tuple[float, ...] = (0.0, 0.0)
    noise_scale: float = 1.0

    def __post_init__(self):
        if not (len(self.translation) == 2 and all(abs(t) <= _MAX_SCALE for t in self.translation)):
            raise ContractError(f"translation must be 2 numbers in [-1e6, 1e6], got {list(self.translation)}")
        if not math.isfinite(self.rotation_deg):
            raise ContractError(f"rotation_deg must be finite, got {self.rotation_deg}")
        if not 0.0 <= self.noise_scale <= _MAX_SCALE:
            raise ContractError(f"noise_scale must lie in [0, 1e6], got {self.noise_scale}")

    def matrix(self) -> np.ndarray:
        theta = np.deg2rad(self.rotation_deg)
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s], [s, c]])

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix().T + np.asarray(self.translation, dtype=np.float64)


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Declarative description of one domain-shift experiment."""

    family: str
    num_classes: int
    n_source: int = 1000
    n_target: int = 1000
    source_shifts: tuple[Shift, ...] = (Shift(),)
    target_shift: Shift = field(default_factory=Shift)
    regime: str = "closed"
    k_target: int = 0  # partial regime only; 0 means "all classes"
    seed: int = 2020
    noise: float = 0.12
    radius: float = 2.0
    in_dim = 2  # not a field: every family draws points in the plane

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.regime not in REGIMES:
            raise ContractError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if self.family == "moons" and self.num_classes != 2:
            raise ContractError("the moons family has exactly 2 classes")
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ContractError(f"num_classes must lie in [2, {MAX_CLASSES}], got {self.num_classes}")
        if not (0 < self.n_source <= MAX_SAMPLES and 0 < self.n_target <= MAX_SAMPLES):
            raise ContractError(f"sample counts n_source and n_target must lie in [1, {MAX_SAMPLES}], "
                                f"got {self.n_source} and {self.n_target}")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.noise <= _MAX_SCALE:
            raise ContractError(f"noise must lie in [0, 1e6], got {self.noise}")
        if not abs(self.radius) <= _MAX_SCALE:
            raise ContractError(f"radius must lie in [-1e6, 1e6], got {self.radius}")
        if not 1 <= self.num_sources <= MAX_SOURCES:
            raise ContractError(f"source_shifts must hold 1 to {MAX_SOURCES} source domains, got {self.num_sources}")
        if self.regime == "partial":
            if not 1 <= self.k_target < self.num_classes:
                raise ContractError(
                    f"partial regime needs 1 <= k_target < {self.num_classes}, got {self.k_target}"
                )
        elif self.k_target not in (0, self.num_classes):
            raise ContractError("k_target is only meaningful in the partial regime")

    @property
    def num_sources(self) -> int:
        return len(self.source_shifts)

    @property
    def target_classes(self) -> tuple:
        k = self.k_target if self.regime == "partial" else self.num_classes
        return tuple(range(k))


@dataclass
class DomainData:
    features: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.features.shape[0]


def _sample_domain(spec: ScenarioSpec, shift: Shift, n: int, classes, rng) -> DomainData:
    """n points of `classes` through `shift`: the counts differ by at most
    one, lower classes first, and each class is drawn in turn from `rng`.

    Moons: two opposing half-circles, centered at the origin. Class 0 arcs
    upward, class 1 downward, offset so the arc tips interleave. The arcs
    sit 0.5 apart vertically so the between-class valley survives moderate
    rotations. Gaussians: one isotropic cluster per class, centers evenly
    spaced on a circle of the given radius."""
    sigma = abs(spec.noise * shift.noise_scale)  # a noise of -0.0 passes the checks, but numpy refuses it
    if spec.family == "moons":
        def draw(cls, count):
            t = rng.uniform(0.0, np.pi, count)
            if cls == 0:
                base = np.stack([np.cos(t), np.sin(t) + 0.25], axis=1)
            else:
                base = np.stack([1.0 - np.cos(t), -np.sin(t) - 0.25], axis=1)
            base = base - np.array([0.5, 0.0])
            base += rng.normal(0.0, sigma, base.shape)
            return base
    else:
        angles = 2.0 * np.pi * np.arange(spec.num_classes) / spec.num_classes
        centers = spec.radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

        def draw(cls, count):
            return centers[cls] + rng.normal(0.0, sigma, (count, 2))
    each, rem = divmod(n, len(classes))
    counts = [each + (1 if i < rem else 0) for i in range(len(classes))]
    points = np.concatenate([draw(cls, count) for cls, count in zip(classes, counts)])
    labels = np.concatenate([np.full(count, cls, dtype=np.int64) for cls, count in zip(classes, counts)])
    return DomainData(shift.apply(points), labels)


def generate(spec: ScenarioSpec):
    """All source domains plus the target domain, deterministically.

    Each domain draws from its own seeded stream, so adding a source
    domain never perturbs the others or the target.
    """
    all_classes = tuple(range(spec.num_classes))
    sources = [
        _sample_domain(spec, shift, spec.n_source, all_classes, np.random.default_rng([spec.seed, m]))
        for m, shift in enumerate(spec.source_shifts)
    ]
    target = _sample_domain(
        spec,
        spec.target_shift,
        spec.n_target,
        spec.target_classes,
        np.random.default_rng([spec.seed, TARGET_STREAM]),
    )
    return sources, target


def holdout(spec: ScenarioSpec, domain: int, n: int) -> DomainData:
    """A fresh draw from source domain `domain`, disjoint from the
    training stream; used to report source test accuracy."""
    shift = spec.source_shifts[domain]
    rng = np.random.default_rng([spec.seed, HOLDOUT_STREAM + domain])
    return _sample_domain(spec, shift, n, tuple(range(spec.num_classes)), rng)


def evaluate(net, data: DomainData) -> dict:
    """Accuracy (percent) of the net's argmax predictions, plus the mean
    of per-class accuracies over the classes present.

    The argmax always spans the full K-way head; in the partial regime
    the target simply contains no samples of the dropped classes.
    """
    probs = net.predict_proba(data.features)
    pred = probs.argmax(axis=1)
    per_class = [100.0 * float(np.mean(pred[data.labels == cls] == cls)) for cls in np.unique(data.labels)]
    return {"accuracy": bank_accuracy(probs, data.labels), "per_class_accuracy": float(np.mean(per_class))}


def bank_accuracy(rows: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy (percent) of argmax over probability rows: a teacher
    bank's, a net's predictions handed to an epoch-end callback, or
    `evaluate`'s."""
    pred = np.asarray(rows).argmax(axis=1)
    return 100.0 * float(np.mean(pred == np.asarray(labels)))


# fixed reference scenarios ---------------------------------------------


# name -> the ScenarioSpec keywords of each preset but its seed
_PRESETS = {
    "moons-rot30": dict(family="moons", num_classes=2, target_shift=Shift(rotation_deg=30.0), noise=0.12),
    "gauss4-rot30": dict(family="gaussians", num_classes=4, target_shift=Shift(rotation_deg=30.0), noise=0.45,
                         radius=2.0),
    "multi3-gauss4": dict(family="gaussians", num_classes=4,
                          source_shifts=(Shift(rotation_deg=-20.0), Shift(), Shift(rotation_deg=20.0)),
                          target_shift=Shift(rotation_deg=35.0), noise=0.45, radius=2.0),
    "partial-gauss8": dict(family="gaussians", num_classes=8, target_shift=Shift(rotation_deg=18.0),
                           regime="partial", k_target=4, noise=0.18, radius=2.2),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str, seed: int = 2020) -> ScenarioSpec:
    if name not in _PRESETS:
        raise ContractError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    return ScenarioSpec(**_PRESETS[name], seed=seed)
