"""Discretization of continuous covariates into ordinal categories.

Three methods:

* ``sigma``  — boundaries at mean +/- one population standard deviation;
  the middle interval is inclusive on both sides ("within +/- sigma"),
  labelled Low / Average / High;
* ``kde``    — boundaries at interior strict local minima of a Gaussian
  kernel density (Silverman bandwidth, 512-point grid); falls back to
  quantile binning when the density has too few minima;
* ``quantile`` — equal-mass bins from sorted order statistics.

``apply_bins_array`` maps values to codes: each value's index into its
scheme's labels.  Fitted schemes serialize to JSON so they can be
persisted and re-applied across datasets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SchemaError, TooFewValuesError
from .ingest import THREE_LEVELS, is_finite_number, load_json

_KDE_GRID = 512


def _labels(bins: int) -> tuple[str, ...]:
    if bins == 3:
        return THREE_LEVELS
    return tuple(f"L{i + 1}" for i in range(bins))


@dataclass(frozen=True)
class BinningScheme:
    """Per-variable discretization: method, boundaries, ordered labels."""

    variable: str
    method: str
    boundaries: tuple[float, ...]
    labels: tuple[str, ...]
    mean: float | None = None
    std: float | None = None
    bandwidth: float | None = None

    def __post_init__(self):
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise SchemaError(
                f"{self.variable}: boundaries must be strictly increasing")
        if len(self.labels) != len(self.boundaries) + 1:
            raise SchemaError(
                f"{self.variable}: need #boundaries + 1 labels")
        if self.method == "sigma" and len(self.boundaries) not in (0, 2):
            raise SchemaError(f"{self.variable}: a sigma scheme needs 0 or "
                              f"2 boundaries, not {len(self.boundaries)}")

    def to_dict(self) -> dict:
        doc = {"variable": self.variable, "method": self.method,
               "boundaries": list(self.boundaries), "labels": list(self.labels)}
        stats = {}
        for name in ("mean", "std", "bandwidth"):
            value = getattr(self, name)
            if value is not None:
                stats[name] = value
        if stats:
            doc["stats"] = stats
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BinningScheme":
        try:
            stats = doc.get("stats", {})
            variable = doc["variable"]
            if not isinstance(variable, str):
                raise TypeError(f"variable {variable!r} is not a string")
            method, labels = doc["method"], doc["labels"]
            if method not in ("sigma", "kde", "quantile"):
                raise SchemaError(f"{variable}: unknown method {method!r}")
            if not (isinstance(labels, list)
                    and all(isinstance(label, str) for label in labels)):
                raise SchemaError(f"{variable}: labels must be a list of "
                                  f"strings, not {labels!r}")
            for b in doc["boundaries"]:
                if not is_finite_number(b):
                    raise SchemaError(f"{variable}: boundary {b!r} is not a "
                                      f"finite number")
            return cls(variable, method,
                       tuple(float(b) for b in doc["boundaries"]),
                       tuple(labels),
                       mean=stats.get("mean"), std=stats.get("std"),
                       bandwidth=stats.get("bandwidth"))
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"bad binning scheme document: {exc}") from None


def fit_sigma_bins(values: Sequence[float], variable: str = "value"
                   ) -> BinningScheme:
    """Three-way binning at mean +/- population standard deviation.

    A degenerate sample (zero spread) collapses to a single 'Average'
    category.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise TooFewValuesError(f"{variable}: need >= 2 values, got {x.size}")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        return BinningScheme(variable, "sigma", (), ("Average",),
                             mean=mu, std=sigma)
    return BinningScheme(variable, "sigma", (mu - sigma, mu + sigma),
                         THREE_LEVELS, mean=mu, std=sigma)


def fit_quantile_bins(values: Sequence[float], bins: int = 3,
                      variable: str = "value") -> BinningScheme:
    """Equal-mass bins: boundaries are order statistics at i*n/bins.

    On distinct-valued data each bin holds n/bins +/- 1 points.  Tied
    boundary values are deduplicated, and the scheme keeps the first
    #boundaries + 1 of the ``bins`` labels: a shrunk three-bin scheme is
    Low / Average, so its codes index the graph's Low / Average / High.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size < bins:
        raise TooFewValuesError(
            f"{variable}: need >= {bins} values, got {x.size}")
    boundaries: list[float] = []
    for i in range(1, bins):
        b = float(x[(i * x.size) // bins])
        if not boundaries or b > boundaries[-1]:
            boundaries.append(b)
    return BinningScheme(variable, "quantile", tuple(boundaries),
                         _labels(bins)[:len(boundaries) + 1])


def _silverman_bandwidth(x: np.ndarray) -> float:
    sigma = float(np.std(x))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    return 0.9 * spread * x.size ** (-0.2)


def gaussian_kde_grid(x: np.ndarray, bandwidth: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density on a uniform grid of ``_KDE_GRID`` points
    over [min-3h, max+3h]."""
    grid = np.linspace(x.min() - 3 * bandwidth, x.max() + 3 * bandwidth,
                       _KDE_GRID)
    # evaluate in chunks to bound the (n, grid) distance matrix
    density = np.zeros(_KDE_GRID)
    norm = 1.0 / (x.size * bandwidth * np.sqrt(2 * np.pi))
    for start in range(0, x.size, 4096):
        chunk = x[start:start + 4096]
        z = (grid[None, :] - chunk[:, None]) / bandwidth
        density += norm * np.exp(-0.5 * z * z).sum(axis=0)
    return grid, density


def fit_kde_bins(values: Sequence[float], bins: int = 3,
                 variable: str = "value") -> BinningScheme:
    """Boundaries at interior strict local minima of the kernel density.

    If the density has more than bins-1 interior minima, the bins-1 with
    lowest density win; with fewer, the scheme falls back to equal-mass
    quantile binning and is flagged ``method='quantile'``.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 10:
        raise TooFewValuesError(f"{variable}: need >= 10 values, got {x.size}")
    h = _silverman_bandwidth(x)
    if h <= 0.0:
        return fit_quantile_bins(x, bins, variable)
    grid, density = gaussian_kde_grid(x, h)
    interior = np.flatnonzero((density[1:-1] < density[:-2])
                              & (density[1:-1] < density[2:])) + 1
    if interior.size < bins - 1:
        return fit_quantile_bins(x, bins, variable)
    if interior.size > bins - 1:
        keep = interior[np.argsort(density[interior], kind="stable")[:bins - 1]]
        interior = np.sort(keep)
    boundaries = tuple(float(g) for g in grid[interior])
    return BinningScheme(variable, "kde", boundaries, _labels(bins),
                         mean=float(np.mean(x)), std=float(np.std(x)),
                         bandwidth=h)


def apply_bins_array(scheme: BinningScheme, values: Sequence[float]
                     ) -> np.ndarray:
    """Each value's index into ``scheme.labels`` (total, deterministic).

    Generic boundaries are half-open: x >= b_i enters bin i+1, and NaN
    the last bin.  The sigma method keeps the middle interval inclusive
    on both ends, so exactly the values within one standard deviation of
    the mean, and NaN, are 'Average'.
    """
    x = np.asarray(values, dtype=np.float64)
    if scheme.method == "sigma" and scheme.boundaries:
        lo, hi = scheme.boundaries
        return 1 - (x < lo) + (x > hi)
    return np.searchsorted(scheme.boundaries, x, side="right")


def write_schemes(schemes: Sequence[BinningScheme]) -> str:
    doc = {s.variable: s.to_dict() for s in schemes}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_schemes(text: str) -> dict[str, BinningScheme]:
    doc = load_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("a schemes document must be a JSON object")
    return {name: BinningScheme.from_dict(entry) for name, entry in doc.items()}
