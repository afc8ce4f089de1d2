"""Empirical verification of localized Gagliardo-Nirenberg inequalities.

For a vector function phi = (phi_1, ..., phi_alpha) the two variants compare

    main:   sum_l ||phi_l||_{L^e}^e  <=  C (sup_x ||phi||_{L2(Q_x)})^{4/d}
            sum_l ||phi_l||_{H1}^2,          e = (2d+4)/d
    cubic:  sum_l ||phi_l||_{L3}^3   <=  C (sup_x ||phi||_{L2(Q_x)})
            sum_l ||phi_l||_{H1}^2,

where Q_x runs over unit cubes (restricted here to grid-aligned positions;
the continuum sup exceeds the grid sup by at most an O(h) boundary sliver).
Both ratios are exactly invariant under amplitude scaling and translation.
The constant C is never asserted: corpora only establish that the empirical
sup ratio is finite and stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, cube_sup_l2, mode_numbers, transform

MAIN = "main"
CUBIC = "cubic"
VARIANTS = (MAIN, CUBIC)
GENERATORS = ("band-limited", "bumps", "bump-trains")


@dataclass
class GNReport:
    variant: str
    generator: str
    count: int
    seed: int
    ratios: np.ndarray
    sup_ratio: float
    median_ratio: float

    def drift_alarm(self) -> bool:
        """True when some sample exceeds 10x the corpus median."""
        return bool(self.sup_ratio > 10.0 * self.median_ratio)


def gn_ratio(fields: tuple[ScalarField, ...] | list[ScalarField], variant: str) -> float:
    """LHS/RHS ratio of the chosen inequality variant for one vector sample."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    fields = tuple(fields)
    if not fields:
        raise ValueError("need at least one component")
    density = sum(np.abs(f.values) ** 2 for f in fields)
    if not density.any():
        raise ValueError("the ratio is undefined for identically zero input")
    return _ratio(fields, variant, cube_sup_l2(fields[0].grid, density))


def unlocalized_gn_ratio(fields, variant: str) -> float:
    """Same ratio with the cube sup replaced by the full L2 norm (the limit
    for data concentrated inside a single unit cube)."""
    fields = tuple(fields)
    return _ratio(fields, variant, math.sqrt(sum(f.l2_norm() ** 2 for f in fields)))


def _ratio(fields: tuple[ScalarField, ...], variant: str, l2_scale: float) -> float:
    """The variant's ratio with ``l2_scale`` standing for the L2 size of the sample."""
    h1sq = sum(f.h1_norm() ** 2 for f in fields)
    d = fields[0].grid.d
    if variant == MAIN:
        e = (2.0 * d + 4.0) / d
        lhs = sum(f.lq_norm(e) ** e for f in fields)
        return lhs / (l2_scale ** (4.0 / d) * h1sq)
    lhs = sum(f.lq_norm(3.0) ** 3 for f in fields)
    return lhs / (l2_scale * h1sq)


# ---------------------------------------------------------------------------
# Sample generators.  All randomness flows from one 64-bit seed through
# numpy SeedSequence spawning: sample i of a corpus uses the i-th child of
# SeedSequence(seed), the same as SeedSequence(seed).spawn(count)[i], and
# component l within a sample draws from the same stream in component order.
# ---------------------------------------------------------------------------

def _band_limited(grid: GridSpec, alpha: int, rng: np.random.Generator) -> tuple[ScalarField, ...]:
    """Random fields with Gaussian spectral envelope, hard-cut at |j| <= M/6."""
    jmax = max(2, grid.m // 6)
    mesh = np.meshgrid(*([mode_numbers(grid.m)] * grid.d), indexing="ij")
    keep = np.max(np.abs(mesh), axis=0) <= jmax
    env = np.exp(-sum(a * a for a in mesh) / (2.0 * (jmax / 2.0) ** 2))
    out = []
    for _ in range(alpha):
        coef = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        coef *= env * keep
        vals = transform(grid, coef, inverse=True)
        vals *= grid.m ** (grid.d / 2)
        out.append(ScalarField(vals, grid))
    return tuple(out)


def _gaussian_bump(grid: GridSpec, amp: float, width: float, center) -> np.ndarray:
    r2 = sum((x - c) ** 2 for x, c in zip(grid.x_mesh, center))
    return amp * np.exp(-r2 / (2.0 * width ** 2))


def _bumps(grid: GridSpec, alpha: int, rng: np.random.Generator) -> tuple[ScalarField, ...]:
    """One translated and scaled bump per component."""
    out = []
    for _ in range(alpha):
        amp = rng.uniform(0.3, 2.0)
        width = rng.uniform(0.4, 2.5)
        center = rng.uniform(-0.4 * grid.l, 0.4 * grid.l, size=grid.d)
        out.append(ScalarField(_gaussian_bump(grid, amp, width, center).astype(complex), grid))
    return tuple(out)


def _bump_trains(grid: GridSpec, alpha: int, rng: np.random.Generator) -> tuple[ScalarField, ...]:
    """Sums of 2-5 separated bumps per component."""
    out = []
    for _ in range(alpha):
        vals = np.zeros(grid.shape, dtype=complex)
        for _ in range(rng.integers(2, 6)):
            amp = rng.uniform(0.2, 1.5)
            width = rng.uniform(0.3, 1.2)
            center = rng.uniform(-0.6 * grid.l, 0.6 * grid.l, size=grid.d)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            vals += np.exp(1j * phase) * _gaussian_bump(grid, amp, width, center)
        out.append(ScalarField(vals, grid))
    return tuple(out)


_GEN = {"band-limited": _band_limited, "bumps": _bumps, "bump-trains": _bump_trains}


def generate_sample(grid: GridSpec, alpha: int, generator: str,
                    rng: np.random.Generator) -> tuple[ScalarField, ...]:
    if generator not in _GEN:
        raise ValueError(f"generator must be one of {GENERATORS}, got {generator!r}")
    return _GEN[generator](grid, alpha, rng)


def corpus_sup_ratio(grid: GridSpec, alpha: int, generator: str, count: int,
                     variant: str, seed: int) -> GNReport:
    """Deterministic seeded corpus; reports per-sample ratios and their sup.

    Sample i draws from the i-th child of SeedSequence(seed), spawned as it is drawn.
    Raises if the drift alarm fires (a sample above 10x the corpus median),
    which indicates a degenerate sample rather than a large constant.
    """
    if count < 1:
        raise ValueError("corpus must contain at least one sample")
    parent = np.random.SeedSequence(seed)
    ratios = np.empty(count)
    for i in range(count):
        rng = np.random.default_rng(parent.spawn(1)[0])
        ratios[i] = gn_ratio(generate_sample(grid, alpha, generator, rng), variant)
    report = GNReport(variant=variant, generator=generator, count=count,
                      seed=seed, ratios=ratios, sup_ratio=float(ratios.max()),
                      median_ratio=float(np.median(ratios)))
    if not np.isfinite(ratios).all():
        raise RuntimeError("corpus produced a non-finite ratio")
    if report.drift_alarm():
        raise RuntimeError(
            f"drift alarm: sup ratio {report.sup_ratio:.4g} exceeds 10x the "
            f"corpus median {report.median_ratio:.4g}")
    return report
