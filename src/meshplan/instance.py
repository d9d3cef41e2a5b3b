"""Planning instances: candidate sites on a grid, demand points, radio limits."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1


class InstanceError(ValueError):
    """Invalid instance parameters or malformed instance file."""


def _positive(values) -> bool:
    """True if every value is a finite number above zero; NaN fails."""
    return bool(np.all(np.greater(values, 0) & np.less(values, np.inf)))


@dataclass(frozen=True)
class RadioParams:
    """Per-node radio limits shared by every candidate site."""

    traffic: float = 2.0
    capacity: float = 54.0
    radios: int = 3
    channels: int = 11
    max_hops: int = 3


@dataclass(frozen=True, eq=False)
class PlanningInstance:
    """Immutable problem data: geometry, traffic, radio limits, capacities.

    Sites are indexed row-major on the grid; site j sits at
    (col * spacing, row * spacing). Coverage/connectivity matrices are derived
    from geometry unless a seeded random override (density) is active.
    """

    rows: int
    cols: int
    spacing: float
    sites: np.ndarray          # (s, 2) float64 positions
    dp_positions: np.ndarray   # (n, 2) float64
    dp_traffic: np.ndarray     # (n,) float64
    coverage_radius: float
    backbone_range: float
    R: int
    K: int
    C_max: float
    A: int
    M: float
    seed: int
    capacity_overrides: tuple = ()          # ((j, l, k, capacity), ...)
    random_matrix_density: float | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InstanceError("grid must have at least one site")
        if not _positive(self.spacing):
            raise InstanceError("spacing must be positive and finite")
        if not _positive((self.coverage_radius, self.backbone_range)):
            raise InstanceError("radii must be positive and finite")
        if self.R < 1:
            raise InstanceError("radios must be >= 1")
        if self.K < self.R:
            raise InstanceError(f"channels ({self.K}) must be >= radios ({self.R})")
        if not _positive(self.C_max):
            raise InstanceError("capacity must be positive and finite")
        if self.A < 1:
            raise InstanceError("hop bound must be >= 1")
        if not _positive(self.dp_traffic):
            raise InstanceError("demand traffic must be positive and finite")
        if not _positive(self.M):
            raise InstanceError("gateway big-M must be positive and finite")
        if self.seed < 0:
            raise InstanceError("seed must be >= 0")
        if self.sites.shape != (self.rows * self.cols, 2):
            raise InstanceError("sites array does not match grid shape")
        if self.dp_positions.shape != (len(self.dp_traffic), 2):
            raise InstanceError("demand point arrays disagree on count")
        if not (np.isfinite(self.sites).all() and np.isfinite(self.dp_positions).all()):
            raise InstanceError("site and demand point positions must be finite")
        if self.random_matrix_density is not None and not (
            0.0 < self.random_matrix_density <= 1.0
        ):
            raise InstanceError("random matrix density must be in (0, 1]")
        for j, l, k, cap in self.capacity_overrides:
            if not (0 <= j < self.num_sites and 0 <= l < self.num_sites):
                raise InstanceError(f"capacity override site out of range: ({j},{l})")
            if not 0 <= k < self.K:
                raise InstanceError(f"capacity override channel out of range: {k}")
            if not _positive(cap):
                raise InstanceError("link capacity must be positive and finite")
        self.sites.setflags(write=False)
        self.dp_positions.setflags(write=False)
        self.dp_traffic.setflags(write=False)

    @property
    def num_sites(self) -> int:
        return self.rows * self.cols

    @property
    def num_dps(self) -> int:
        return len(self.dp_traffic)

    def link_capacities(self) -> dict:
        """{(j, l, k): capacity} of every override, held in both directions.

        Every link without an entry has capacity C_max, so a generated grid
        gives an empty mapping. Read it per link row with `row_capacities`.
        """
        caps = {}
        for j, l, k, value in self.capacity_overrides:
            caps[j, l, k] = caps[l, j, k] = float(value)
        return caps

    def content_hash(self) -> str:
        """Stable sha256 over the canonical serialized form."""
        blob = json.dumps(instance_to_dict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def row_capacities(instance: PlanningInstance, links: np.ndarray) -> list[float]:
    """Capacity of each (j, l, k) row of an (m, 3) link array, in row order."""
    caps = instance.link_capacities()
    c_max = float(instance.C_max)
    if not caps:
        return [c_max] * len(links)
    return [caps.get(key, c_max) for key in map(tuple, links.tolist())]


def build_grid_instance(
    rows: int,
    cols: int,
    n_dps: int,
    radio: RadioParams,
    seed: int,
    spacing: float = 1.0,
    coverage_radius: float | None = None,
    backbone_range: float | None = None,
    random_matrix_density: float | None = None,
) -> PlanningInstance:
    """Grid of rows x cols candidate sites plus n_dps uniform demand points."""
    if rows < 2 or cols < 2:
        raise InstanceError("grid generation needs rows >= 2 and cols >= 2")
    if n_dps < 1:
        raise InstanceError("need at least one demand point")
    if seed < 0:
        raise InstanceError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    sites = np.array(
        [(c * spacing, r * spacing) for r in range(rows) for c in range(cols)],
        dtype=np.float64,
    )
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    dp_positions = np.column_stack(
        [rng.uniform(0.0, width, n_dps), rng.uniform(0.0, height, n_dps)]
    )
    dp_traffic = np.full(n_dps, radio.traffic, dtype=np.float64)
    M = n_dps * float(np.max(dp_traffic))
    if math.isinf(M):  # PlanningInstance refuses NaN traffic by name
        raise InstanceError(
            f"demand traffic summed over {n_dps} demand points must be finite"
        )
    return PlanningInstance(
        rows=rows,
        cols=cols,
        spacing=spacing,
        sites=sites,
        dp_positions=dp_positions,
        dp_traffic=dp_traffic,
        coverage_radius=coverage_radius if coverage_radius is not None else spacing,
        backbone_range=backbone_range if backbone_range is not None else spacing,
        R=radio.radios,
        K=radio.channels,
        C_max=radio.capacity,
        A=radio.max_hops,
        M=M,
        seed=seed,
        random_matrix_density=random_matrix_density,
    )


def coverage_matrix(instance: PlanningInstance) -> np.ndarray:
    """a[i, j] = 1 iff demand point i lies within coverage_radius of site j."""
    cached = instance._cache.get("coverage")
    if cached is not None:
        return cached
    if instance.random_matrix_density is not None:
        rng = np.random.default_rng((instance.seed, 0xC0))
        a = (
            rng.random((instance.num_dps, instance.num_sites))
            < instance.random_matrix_density
        ).astype(np.uint8)
    else:
        d = np.hypot(
            instance.dp_positions[:, None, 0] - instance.sites[None, :, 0],
            instance.dp_positions[:, None, 1] - instance.sites[None, :, 1],
        )
        a = (d <= instance.coverage_radius + 1e-12).astype(np.uint8)
    a.setflags(write=False)
    instance._cache["coverage"] = a
    return a


def connectivity_matrix(instance: PlanningInstance) -> np.ndarray:
    """b[j, l] = 1 iff sites j, l are within backbone_range (symmetric, zero diag)."""
    cached = instance._cache.get("connectivity")
    if cached is not None:
        return cached
    if instance.random_matrix_density is not None:
        rng = np.random.default_rng((instance.seed, 0xB0))
        upper = rng.random((instance.num_sites, instance.num_sites))
        b = (upper < instance.random_matrix_density).astype(np.uint8)
        b = np.triu(b, k=1)
        b = (b | b.T).astype(np.uint8)
    else:
        d = np.hypot(
            instance.sites[:, None, 0] - instance.sites[None, :, 0],
            instance.sites[:, None, 1] - instance.sites[None, :, 1],
        )
        b = (d <= instance.backbone_range + 1e-12).astype(np.uint8)
        np.fill_diagonal(b, 0)
    b.setflags(write=False)
    instance._cache["connectivity"] = b
    return b


def grid_neighbors(instance: PlanningInstance, j: int) -> list[int]:
    """4-neighborhood in fixed north, east, south, west order (north = +row)."""
    row, col = divmod(j, instance.cols)
    out = []
    if row + 1 < instance.rows:
        out.append((row + 1) * instance.cols + col)
    if col + 1 < instance.cols:
        out.append(row * instance.cols + col + 1)
    if row - 1 >= 0:
        out.append((row - 1) * instance.cols + col)
    if col - 1 >= 0:
        out.append(row * instance.cols + col - 1)
    return out


def _read(value, kind: type, name: str):
    """A field's value as `kind`; bools, strings and (for int) fractions are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        what = "an integer" if kind is int else "a number"
        raise InstanceError(f"instance field {name!r} must be {what}, not {value!r}")
    return kind(value)


#: The instance file's scalar fields, each with the kind it is read as.
SCALAR_FIELDS = {
    "rows": int, "cols": int, "spacing": float,
    "coverage_radius": float, "backbone_range": float,
    "R": int, "K": int, "C_max": float, "A": int, "M": float, "seed": int,
}
#: The fields of one `link_capacities` entry, in `capacity_overrides` order.
LINK_FIELDS = {"j": int, "l": int, "k": int, "capacity": float}


def instance_to_dict(instance: PlanningInstance) -> dict:
    data = {
        "version": FORMAT_VERSION,
        **{k: kind(getattr(instance, k)) for k, kind in SCALAR_FIELDS.items()},
        "sites": [[float(x), float(y)] for x, y in instance.sites],
        "demand_points": [
            {"x": float(x), "y": float(y), "traffic": float(traffic)}
            for (x, y), traffic in zip(instance.dp_positions, instance.dp_traffic)
        ],
    }
    if instance.capacity_overrides:
        data["link_capacities"] = [
            dict(zip(LINK_FIELDS, entry)) for entry in instance.capacity_overrides
        ]
    if instance.random_matrix_density is not None:
        data["random_matrices"] = {"density": instance.random_matrix_density}
    return data


def save_instance(instance: PlanningInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def instance_from_dict(data: dict) -> PlanningInstance:
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise InstanceError(f"unsupported instance format version: {version!r}")
    missing = [k for k in (*SCALAR_FIELDS, "sites", "demand_points") if k not in data]
    if missing:
        raise InstanceError(f"instance file missing fields: {', '.join(missing)}")
    try:
        dps = data["demand_points"]
        overrides = tuple(
            tuple(_read(entry[key], kind, key) for key, kind in LINK_FIELDS.items())
            for entry in data.get("link_capacities", ())
        )
        density = None
        if "random_matrices" in data:
            density = _read(data["random_matrices"]["density"], float, "density")
        return PlanningInstance(
            **{k: _read(data[k], kind, k) for k, kind in SCALAR_FIELDS.items()},
            sites=np.array(
                [[_read(v, float, "sites") for v in pair] for pair in data["sites"]]
            ),
            dp_positions=np.array(
                [[_read(p[c], float, c) for c in "xy"] for p in dps]
            ).reshape(-1, 2),
            dp_traffic=np.array([_read(p["traffic"], float, "traffic") for p in dps]),
            capacity_overrides=overrides,
            random_matrix_density=density,
        )
    except InstanceError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"invalid instance field: {exc}") from exc


def load_instance(path) -> PlanningInstance:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise InstanceError(f"instance file is not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def default_gateway_count(assigned_demand: float, c_max: float) -> int:
    """max(1, ceil(demand / C_max)) with a guard against float fuzz."""
    return max(1, math.ceil(assigned_demand / c_max - 1e-12))
