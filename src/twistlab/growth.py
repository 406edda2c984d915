"""Growth and decay probes: class shell counts, norm-decay falsification,
torus orbit equidistribution diagnostics.

Everything here is evidence-grade except the falsification path: a sample
whose compressed norm exceeds the decay bound is a certified violation,
because compressions only underestimate the true norm.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from .cocycles import Cocycle
from .errors import SpecError
from .groups import DEFAULT_NODE_BUDGET, Element, Group, conjugacy_class_partial, walk
from .phase import Phase

if TYPE_CHECKING:
    from .spectral import FiniteFunction  # for annotations only

SAMPLE_RADIUS = 4  # kappa_decay_probe's random samples lie in this ball
MAX_SUPPORT = 6  # on at most this many of its elements
GRID = 32  # corners per side of star_discrepancy_grid's grid


class LengthFunction(NamedTuple):
    """kappa(g) = (1 + word length)^s for a rational power s >= 0."""

    group: Group
    power: Fraction = Fraction(1)

    def __call__(self, g: Element) -> float:
        base = 1 + self.group.length(g)
        try:
            return float(base) ** float(self.power)
        except OverflowError:  # a large power: the weight exceeds every float
            return math.inf

    @classmethod
    def parse(cls, group: Group, text: str) -> LengthFunction:
        """Accepts "1+L", "(1+L)^2", "(1+L)^(3/2)" and plain "1"."""
        t = text.replace(" ", "")
        if t in ("1", "const", "constant"):
            return cls(group, Fraction(0))
        if t in ("1+L", "(1+L)"):
            return cls(group, Fraction(1))
        if t.startswith("(1+L)^"):
            exp = t[len("(1+L)^") :].strip("()")
            try:
                power = Fraction(exp)
            except (ValueError, ZeroDivisionError):
                raise SpecError(f"exponent {exp!r} is not a rational number", path="kappa") from None
            if power < 0:
                raise SpecError(f"exponent {exp!r} is negative; the power must be at least 0", path="kappa")
            return cls(group, power)
        raise SpecError(f"cannot parse length function {text!r}", path="kappa")


class GrowthProfile(NamedTuple):
    subject: Element
    counts: dict[int, int]
    k_max: int
    radius: int
    kappa_power: Fraction

    def to_json(self) -> dict:
        return {
            "subject": self.subject.group.element_to_json(self.subject),
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "k_max": self.k_max,
            "radius": self.radius,
            "kappa": f"(1+L)^{self.kappa_power}",
        }


def class_growth_counts(
    g: Element,
    kappa: LengthFunction,
    k_max: int,
    radius: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> GrowthProfile:
    """Bin a partial conjugacy class into unit shells of kappa.

    Counts are certified lower bounds for the true shell sizes and are
    monotone in the search radius.  Each shell is a count of the report, so
    more shells than the node budget is a spec error at `kmax`.
    """
    if k_max > node_budget:
        raise SpecError(f"{k_max} is above the node budget {node_budget}: each shell is a count of the report", path="kmax")
    counts: dict[int, int] = {k: 0 for k in range(1, k_max + 1)}
    for h in conjugacy_class_partial(g, radius, node_budget):
        weight = kappa(h)
        if weight <= k_max:  # shell k covers kappa in (k-1, k]
            counts[max(1, math.ceil(weight))] += 1
    return GrowthProfile(g, counts, k_max, radius, kappa.power)


def superpolynomial_probe(profile: GrowthProfile, degrees: list[int]) -> dict:
    """Per degree: does some populated shell beat k^degree?  Evidence only."""
    out = {}
    for d in degrees:
        crossing = None
        for k in range(1, profile.k_max + 1):
            if profile.counts.get(k, 0) > k**d:
                crossing = k
                break
        out[d] = {"exceeds": crossing is not None, "crossing_shell": crossing}
    return out


class DecayReport(NamedTuple):
    bound: float
    trials: int
    max_ratio: float
    violations: list[dict]

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "trials": self.trials,
            "max_ratio": self.max_ratio,
            "violations": self.violations,
        }


def kappa_decay_probe(
    group: Group,
    sigma: Cocycle,
    kappa: LengthFunction,
    bound: float,
    trials: int,
    radius: int,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    functions: list[FiniteFunction] | None = None,
) -> DecayReport:
    """Hunt for f with compressed norm above bound * weighted two-norm.

    A hit is a certified violation of the decay inequality, since the
    compression can only underestimate the operator norm; each hit is
    re-validated at radius + 2.
    """
    from .spectral import FiniteFunction, truncated_norm  # the float layer, for this probe only
    rng = random.Random(seed)
    pool = list(group.ball(SAMPLE_RADIUS, node_budget))
    max_ratio = 0.0
    violations = []
    samples = functions if functions is not None else []
    for t in range(trials):
        if functions is None:
            size = rng.randint(1, MAX_SUPPORT)
            support = rng.sample(pool, k=min(size, len(pool)))
            coeffs = {}
            for x in support:
                r = math.sqrt(rng.random())
                ang = rng.random()
                coeffs[x] = r * cmath.exp(2j * cmath.pi * ang)
            f = FiniteFunction(group, coeffs)
        else:
            if t >= len(samples):
                break
            f = samples[t]
        wnorm = f.weighted_l2(kappa)
        if wnorm == 0.0:
            continue
        lower = truncated_norm(f, sigma, radius, seed=seed, node_budget=node_budget).value
        scale = bound * wnorm
        ratio = lower / scale if scale else math.inf  # the product underflowed to zero
        max_ratio = max(max_ratio, ratio)
        if lower > scale * (1 + 1e-12):
            recheck = truncated_norm(f, sigma, radius + 2, seed=seed, node_budget=node_budget).value
            violations.append(
                {
                    "support": [group.element_to_json(g) for g in f.support()],
                    "lower_bound": lower,
                    "weighted_norm": wnorm,
                    "ratio": ratio,
                    "revalidated_at_radius_plus_2": recheck > scale * (1 + 1e-12),
                }
            )
    return DecayReport(bound, trials, max_ratio, violations)


# ---------------------------------------------------------------------------
# torus orbits
# ---------------------------------------------------------------------------


def _phi1(a: tuple[Phase, Phase], nu1: Phase) -> tuple[Phase, Phase]:
    # (z1, z2) -> (nu1 z1, z1^2 z2), written on angles
    return (nu1 * a[0], a[0].scale(2) * a[1])


def _phi2(a: tuple[Phase, Phase], nu2: Phase) -> tuple[Phase, Phase]:
    return (a[0] * a[1].scale(2), nu2 * a[1])


def phi1_iterate_angles(start: tuple[float, float], nu1: float, n: int) -> tuple[float, float]:
    """Closed form: the n-th iterate of the first torus map on angle coordinates."""
    a1, a2 = start
    return ((n * nu1 + a1) % 1.0, (n * (n - 1) * nu1 + 2 * n * a1 + a2) % 1.0)


def phi2_iterate_angles(start: tuple[float, float], nu2: float, n: int) -> tuple[float, float]:
    a1, a2 = start
    return ((n * (n - 1) * nu2 + a1 + 2 * n * a2) % 1.0, (n * nu2 + a2) % 1.0)


def star_discrepancy_grid(points: list[tuple[float, float]]) -> float:
    """Anchored-box discrepancy evaluated on a `GRID` x `GRID` grid of corners."""
    n, grid = len(points), GRID
    counts = [[0] * (grid + 1) for _ in range(grid + 1)]
    for x, y in points:
        i = min(grid, int(x * grid) + 1)
        j = min(grid, int(y * grid) + 1)
        counts[i][j] += 1
    # cumulative counts: cells strictly below each grid corner
    cum = [[0] * (grid + 1) for _ in range(grid + 1)]
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            cum[i][j] = counts[i][j] + cum[i - 1][j] + cum[i][j - 1] - cum[i - 1][j - 1]
    worst = 0.0
    for i in range(1, grid + 1):
        for j in range(1, grid + 1):
            area = (i / grid) * (j / grid)
            worst = max(worst, abs(cum[i][j] / n - area))
    return worst


def torus_orbit_probe(
    nu1: Phase,
    nu2: Phase | None,
    start: tuple[Phase, Phase],
    n_points: int,
    which: str = "phi1",
    orbit_cap: int = 100_000,
) -> dict:
    """Iterate the torus homeomorphisms and report an equidistribution
    diagnostic.

    An orbit is certified finite only when the exact orbit walk closes
    under the cap.  The walk runs only when the parameters and the start
    point are all torsion, so that every orbit point lies in one finite
    subgroup of the torus; torsion parameters alone do not bound the
    orbit of an irrational start.
    """
    report: dict = {"which": which, "points": n_points}
    s = (start[0].angle_float(), start[1].angle_float())
    if which in ("phi2", "both") and nu2 is None:
        raise SpecError("second map requested without its parameter", path="nu2")
    if which == "phi1":
        pts = [phi1_iterate_angles(s, nu1.angle_float(), n) for n in range(1, n_points + 1)]
    elif which == "phi2":
        pts = [phi2_iterate_angles(s, nu2.angle_float(), n) for n in range(1, n_points + 1)]
    elif which == "both":
        rng = random.Random(0)
        cur = s
        pts = []
        for _ in range(n_points):
            if rng.random() < 0.5:
                cur = phi1_iterate_angles(cur, nu1.angle_float(), 1)
            else:
                cur = phi2_iterate_angles(cur, nu2.angle_float(), 1)
            pts.append(cur)
    else:
        raise SpecError(f"unknown map selection {which!r}", path="which")
    report["discrepancy"] = star_discrepancy_grid(pts)
    torsion = all(p.is_torsion() for p in (nu1, *start, *([nu2] if nu2 is not None else [])))
    if torsion:
        report["orbit_size"] = _exact_orbit_size(nu1, nu2, start, which, orbit_cap)
    report["finite_certified"] = torsion and report["orbit_size"] is not None
    return report


def _exact_orbit_size(
    nu1: Phase, nu2: Phase | None, start: tuple[Phase, Phase], which: str, cap: int
) -> int | None:
    """The size of the orbit of a torsion start under torsion maps, or None
    once it passes `cap`.

    The maps send the finite subgroup of the torus that holds the
    parameters and the start into itself, and are injective there, so
    each permutes it and its inverse is one of its powers: the points
    reached by the maps alone are the whole orbit."""
    maps = [(f, nu) for f, nu, name in ((_phi1, nu1, "phi1"), (_phi2, nu2, "phi2")) if which in (name, "both")]
    size = sum(1 for _ in islice(walk(start, maps, lambda a, m: m[0](a, m[1])), cap + 1))
    return None if size > cap else size
