"""Synthetic classification datasets, CSV ingestion, and input perturbations.

The perturbations implement the "load" side of the control grid: label
randomization degrades data quality, subsampling shrinks data quantity,
and additive uniform noise corrupts features.  Probe sets are the
perturbed inputs similarity metrics are evaluated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, read_lines
from .rng import Rng

# Arm geometry for gen_spirals: radius r = R0 + (R1 - R0) * phi / PHI_MAX
# along angle phi in [0, PHI_MAX], rotated by 2*pi*c/C per class.
SPIRAL_R0 = 0.25
SPIRAL_R1 = 1.0
SPIRAL_PHI_MAX = 3.0 * math.pi


@dataclass
class Dataset:
    """Feature matrix with integer labels."""

    X: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).ravel()
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ParameterError("X rows and label count differ")
        if self.X.shape[0] < 1:
            raise ParameterError("dataset must contain at least one row")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ParameterError("labels must lie in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass
class ProbeSet:
    """Inputs for similarity measurement plus a descriptor of how they were made."""

    X: np.ndarray
    source: str

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] < 2:
            raise ParameterError("probe set needs at least two rows")

    @property
    def m(self) -> int:
        return self.X.shape[0]


def _class_counts(n: int, num_classes: int) -> list[int]:
    base, extra = divmod(n, num_classes)
    return [base + (1 if c < extra else 0) for c in range(num_classes)]


def gen_blobs(n: int, num_classes: int, dim: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around class centers spaced on the unit circle."""
    if n < num_classes or num_classes < 2:
        raise ParameterError("need n >= num_classes >= 2")
    if dim < 2:
        raise ParameterError("blobs need dim >= 2")
    if spread < 0:
        raise ParameterError("spread must be >= 0")
    rng = Rng(seed)
    counts = _class_counts(n, num_classes)
    rows = []
    labels = []
    for c, count in enumerate(counts):
        center = np.zeros(dim)
        ang = 2.0 * math.pi * c / num_classes
        center[0] = math.cos(ang)
        center[1] = math.sin(ang)
        noise = rng.normals(count * dim).reshape(count, dim)
        rows.append(center + spread * noise)
        labels.extend([c] * count)
    return Dataset(np.vstack(rows), np.array(labels), num_classes, name="blobs")


def gen_spirals(n: int, num_classes: int, noise: float, seed: int) -> Dataset:
    """Interleaved 2-D Archimedean spiral arms, one per class."""
    if n < num_classes or num_classes < 2:
        raise ParameterError("need n >= num_classes >= 2")
    if noise < 0:
        raise ParameterError("noise must be >= 0")
    rng = Rng(seed)
    counts = _class_counts(n, num_classes)
    rows = []
    labels = []
    for c, count in enumerate(counts):
        phi = rng.uniforms(count) * SPIRAL_PHI_MAX
        r = SPIRAL_R0 + (SPIRAL_R1 - SPIRAL_R0) * phi / SPIRAL_PHI_MAX
        if noise > 0:
            r = r + noise * rng.normals(count)
        ang = phi + 2.0 * math.pi * c / num_classes
        rows.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        labels.extend([c] * count)
    return Dataset(np.vstack(rows), np.array(labels), num_classes, name="spirals")


def load_csv(path) -> Dataset:
    raw = read_lines(path)
    if not raw or not raw[0].startswith("#"):
        raise FormatError(f"{path}:1: missing '# d=<d> classes=<C>' header")
    header = raw[0][1:].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        dim = int(fields["d"])
        num_classes = int(fields["classes"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"{path}:1: malformed header: {raw[0].strip()!r}") from exc
    rows = []
    labels = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != dim + 1:
            raise FormatError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts[:-1]])
            label = int(parts[-1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: unparsable value") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise FormatError(f"{path}:{lineno}: non-finite feature")
        if not 0 <= label < num_classes:
            raise FormatError(f"{path}:{lineno}: label {label} out of range [0, {num_classes})")
        labels.append(label)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Dataset(np.array(rows), np.array(labels), num_classes, name=name)


def randomize_labels(ds: Dataset, frac: float, seed: int) -> Dataset:
    """Flip exactly k = round(frac*n) labels to a uniformly drawn *different* class:
    ``Rng(seed)`` picks the k rows by ``choose(n, k)``, then their classes by one
    ``integers(num_classes - 1, k)``, skipping each row's own class."""
    if not 0.0 <= frac <= 1.0:
        raise ParameterError("frac must lie in [0, 1]")
    if ds.num_classes < 2:
        raise ParameterError("label randomization needs num_classes >= 2")
    y = ds.y.copy()
    k = round(frac * ds.n)
    if k:
        rng = Rng(seed)
        rows = rng.choose(ds.n, k)
        other = rng.integers(ds.num_classes - 1, k)
        other += other >= y[rows]
        y[rows] = other
    return Dataset(ds.X.copy(), y, ds.num_classes, name=ds.name)


def subsample(ds: Dataset, n_keep: int, seed: int) -> Dataset:
    """Uniform without-replacement row selection, original order preserved."""
    if not 1 <= n_keep <= ds.n:
        raise ParameterError(f"n_keep must lie in [1, {ds.n}]")
    idx = Rng(seed).choose(ds.n, n_keep)
    return Dataset(ds.X[idx].copy(), ds.y[idx].copy(), ds.num_classes, ds.name)


def perturb_uniform(X: np.ndarray, magnitude: float, seed: int) -> np.ndarray:
    """A new array: ``X`` plus independent Uniform[0, magnitude] noise on every entry."""
    if not 0 <= magnitude < math.inf:
        raise ParameterError(f"magnitude must be finite and >= 0, got {magnitude!r}")
    if magnitude == 0:
        return X.copy()
    return X + Rng(seed).uniforms(X.size).reshape(X.shape) * magnitude


def raw_probes(ds: Dataset, m: int, seed: int) -> ProbeSet:
    """m training rows sampled with replacement, unmodified: ``Rng(seed).integers(n, m)``."""
    if m < 2:
        raise ParameterError("probe count must be >= 2")
    return ProbeSet(ds.X[Rng(seed).integers(ds.n, m)], "raw")


def mixup_probes(ds: Dataset, m: int = 640, alpha: float = 16.0, seed: int = 0) -> ProbeSet:
    """Convex combinations of distinct training-row pairs, Beta(alpha, alpha) weights.

    ``Rng(seed)`` draws the m rows a, then the m rows b != a, then the m
    weights lam, one array call each (``integers``, ``integers``, ``beta``);
    the rows ``lam * X[a] + (1 - lam) * X[b]`` are formed in place on X[a], X[b].
    """
    if ds.n < 2:
        raise ParameterError("mixup needs at least two rows")
    if m < 2:
        raise ParameterError("probe count must be >= 2")
    if alpha <= 0:
        raise ParameterError("alpha must be > 0")
    rng = Rng(seed)
    a = rng.integers(ds.n, m)
    b = rng.integers(ds.n - 1, m)
    b += b >= a
    lam = rng.beta(alpha, m)[:, None]
    X = ds.X[a]
    X *= lam
    Xb = ds.X[b]
    Xb *= 1.0 - lam
    X += Xb
    return ProbeSet(X, f"mixup(alpha={alpha:g})")
