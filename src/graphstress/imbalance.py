"""Step-imbalance training-set construction and major/minor recall.

The protocol sorts classes by their original training count, declares the
lower half minor, and downsamples every minor class's training units to
max(1, floor(n_major / rho)) while leaving major classes, validation and test
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .determinism import StreamKey, uniform
from .errors import EmptyEvalSet, TooFewClasses
from .metrics import PredictionTable, per_class_recall


@dataclass(frozen=True)
class ImbalanceSpec:
    """Imbalance ratio plus the class bookkeeping it induces."""

    rho: float
    major_classes: tuple[int, ...]
    minor_classes: tuple[int, ...]
    n_major: int
    targets: dict[int, int] = field(hash=False)  # per-class kept train count


DEFAULT_RHOS = (5.0, 10.0, 20.0)


def partition_classes(train_counts: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split class ids into (major, minor) by ascending (train count, class id).

    The first floor(C/2) classes in that order are minor; ties in count break
    toward the lower class id being minor.
    """
    train_counts = np.asarray(train_counts, dtype=np.int64)
    if int(np.sum(train_counts > 0)) < 2:
        raise TooFewClasses("imbalance protocol needs at least two populated classes")
    class_ids = np.arange(len(train_counts), dtype=np.int64)
    order = class_ids[np.lexsort((class_ids, train_counts))]
    n_minor = len(train_counts) // 2
    minor = tuple(sorted(int(c) for c in order[:n_minor]))
    major = tuple(sorted(int(c) for c in order[n_minor:]))
    return major, minor


def build_spec(train_counts: np.ndarray, rho: float) -> ImbalanceSpec:
    """Derive the full per-class downsampling plan for one imbalance ratio."""
    train_counts = np.asarray(train_counts, dtype=np.int64)
    major, minor = partition_classes(train_counts)
    n_major = int(max(train_counts[list(major)]))
    minor_target = max(1, int(n_major // rho))
    targets = {int(c): int(train_counts[c]) for c in major}
    targets.update({int(c): min(int(train_counts[c]), minor_target) for c in minor})
    return ImbalanceSpec(rho=float(rho), major_classes=major, minor_classes=minor,
                         n_major=n_major, targets=targets)


def step_downsample(labels: np.ndarray, train: np.ndarray, spec: ImbalanceSpec,
                    key: StreamKey) -> np.ndarray:
    """The train units kept under the imbalance plan, ascending. Each minor class keeps its
    target count of units with the lowest uniform(key, unit_id), unit id breaking ties, whatever
    their order in ``train``; a unit whose label has no target (unlabeled) is dropped."""
    train = np.asarray(train, dtype=np.int64)
    keep = np.zeros(len(train), dtype=bool)
    for cls, target in spec.targets.items():  # a major class's target is its whole count
        in_cls = np.asarray(labels)[train] == cls
        units = train[in_cls]
        if len(units) > target:
            order = np.lexsort((units, uniform(key, units)))
            in_cls[np.flatnonzero(in_cls)[order[target:]]] = False
        keep |= in_cls
    return np.sort(train[keep])


def major_minor_recall(predictions: PredictionTable, labels: np.ndarray,
                       spec: ImbalanceSpec, eval_set: np.ndarray) -> tuple[float, float]:
    """Unweighted mean recall over major classes and over minor classes.

    Classes with no eval support are excluded from their group mean; a group
    with no supported class at all yields NaN for that side.
    """
    eval_set = np.asarray(eval_set, dtype=np.int64)
    if len(eval_set) == 0:
        raise EmptyEvalSet("major/minor recall needs a nonempty eval set")
    num_classes = max(spec.major_classes + spec.minor_classes) + 1
    recall = per_class_recall(predictions, labels, eval_set, num_classes)

    def group_mean(classes):
        vals = recall[list(classes)]
        if not np.any(np.isfinite(vals)):
            return float("nan")
        return float(np.nanmean(vals))

    return group_mean(spec.major_classes), group_mean(spec.minor_classes)
