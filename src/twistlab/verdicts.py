"""Tri-state deciders for Kleppner-type conditions and the property classifier.

Every Certified or Refuted verdict is produced by a named rule with a
citation string describing the mathematical fact it encodes; searches alone
never certify.  Refuted verdicts carry witnesses that re-validate through the
regularity module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .cocycles import (
    BitstreamCocycle,
    BSInflationCocycle,
    Cocycle,
    FreeTimesZCharCocycle,
    LiftCocycle,
    ProductCocycle,
    SanovCocycle,
    SkewFormCocycle,
    ThetaCocycle,
    TrivialCocycle,
)
from .errors import BudgetExceededError, SpecError
from .groups import (
    DEFAULT_NODE_BUDGET,
    BaumslagSolitarNN,
    Element,
    FreeGroup,
    FreeTimesZ,
    Group,
    Sanov,
    SumZ,
    SumZ2,
    WreathZ,
    Zn,
    ZnSemidirectZ,
    resolve_subgroup,
)
from .phase import Phase
from .regularity import (
    is_regular_wrt_subgroup,
    is_sigma_regular,
    regular_vectors_in_box,
)

# citation strings attached to rules; they state the fact each rule encodes
CITES = {
    "icc_family": "for ICC groups every cocycle satisfies Kleppner's condition",
    "prime_reciprocal": "prime-reciprocal diagonals admit no nonzero regular vector: a row beyond the support gives a sum of distinct prime reciprocals that cannot be an integer",
    "finite_bandwidth_irrational": "with finitely many nonzero diagonals, one nontorsion diagonal forces triviality of the regular subgroup",
    "finite_bandwidth_torsion": "with finitely many nonzero torsion diagonals, a common multiple of the orders yields a nonzero regular vector with a singleton class",
    "kernel_scan": "a certified-regular vector in an abelian family has a singleton conjugacy class",
    "bitstream_nonperiodic": "a bitstream cocycle satisfies Kleppner's condition exactly when its symmetrized support set is nonperiodic",
    "bitstream_periodic": "a periodic symmetrized support set produces a nonzero regular vector",
    "skew_nontorsion": "an irrational skew parameter leaves no nonzero vector regular on the rank-2 lattice",
    "skew_torsion": "a torsion skew parameter makes a multiple of a basis vector regular",
    "bs_nontorsion": "the inflated one-relator cocycle satisfies Kleppner's condition exactly when the twisting unit is nontorsion",
    "bs_torsion": "a torsion twisting unit makes a central power of b regular with a singleton class",
    "f2xz_nontorsion": "with one defining character value nontorsion, no central element is regular and noncentral classes are infinite",
    "f2xz_torsion": "with both character values torsion, a central power is regular with a singleton class",
    "finite_exhaustive": "in a finite group all classes are finite, so the condition is decided by full enumeration",
    "relk_full": "the relative condition with the full subgroup holds vacuously",
    "relk_trivial": "the relative condition with the trivial subgroup always fails",
    "wreath_relk": "for wreath products the untwisted relative condition over the sum subgroup holds exactly when a factor is infinite, and it passes to every cocycle",
    "aperiodic_relk": "an aperiodic action makes every coset-nontrivial class over the abelian base infinite",
    "sanov_relk": "the lattice classes of elements outside the lattice are infinite for the matrix action",
    "bs_relk": "over a central subgroup, the relative condition holds exactly when no outside element is regular; the inflated cocycle decides this by torsion of the twisting unit",
    "f2xz_relk": "over the central integer factor, regular outside elements correspond to integer relations among the character angles",
    "central_subgroup_classes": "conjugation by central elements fixes everything, so the relative classes are singletons",
    "condition_x_skew": "an irrational skew parameter provides, for every nontrivial lattice element, a commuting partner with asymmetric phases",
    "condition_x_torsion": "a rational skew parameter kills all phase asymmetry on a multiple of a basis vector",
    "condition_x_reduce": "for FC-hypercentral groups condition X with the full subgroup reduces to Kleppner's condition",
    "fc_hypercentral": "for FC-hypercentral groups Kleppner's condition, unique trace, and simplicity of the twisted algebra coincide",
    "wreath_ut": "for invariant lifts to these wreath products, unique trace holds exactly when the base pair satisfies Kleppner's condition, and then simplicity follows",
    "lamplighter_odd_periodic": "for the odd-support bitstream an invariant coboundary trivializes the cocycle on the regular subgroup, so the lift is not simple",
    "anosov_equiv": "for the ICC rank-2 lattice extension, simplicity and unique trace of the skew lift hold exactly when the parameter is irrational",
    "sanov_equiv": "simplicity and unique trace for the lattice-by-free-group pair hold exactly when one defining parameter is nontorsion",
    "bs_equiv": "the one-relator groups with equal twisting exponents satisfy: Kleppner, simplicity, and unique trace are equivalent",
    "f2xz_equiv": "for the free-times-integers group, Kleppner, simplicity, and unique trace are equivalent to a nontorsion character value",
    "free_group": "free groups of rank at least two are C*-simple with unique trace, and their cocycles are all similar to the trivial one",
    "finite_factor": "for finite groups the twisted algebra is a matrix factor exactly when Kleppner's condition holds",
    "product_rule": "a product cocycle on a direct product has each property exactly when both factors do",
    "z_factor_fails": "every cocycle on the integers leaves a nonzero regular element with a singleton class",
    "kleppner_necessary": "Kleppner's condition is necessary both for simplicity and for uniqueness of the trace",
    "central_regular_witness": "a certified-regular element whose conjugacy class is finite by rule refutes the condition",
}


@dataclass
class Verdict:
    status: str  # "certified" | "refuted" | "inconclusive"
    rule: str = ""
    witness: Element | None = None
    bound: int | None = None
    detail: str = ""

    @property
    def cite(self) -> str:
        return CITES.get(self.rule, "")

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.rule:
            out["rule"] = self.rule
            out["cite"] = self.cite
        if self.witness is not None:
            out["witness"] = self.witness.group.element_to_json(self.witness)
        if self.bound is not None:
            out["bound"] = self.bound
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class PropertyReport:
    kleppner: Verdict
    unique_trace: Verdict
    cstar_simple: Verdict
    rule_trace: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kleppner": self.kleppner.to_json(),
            "unique_trace": self.unique_trace.to_json(),
            "cstar_simple": self.cstar_simple.to_json(),
            "trace": self.rule_trace,
        }


# ---------------------------------------------------------------------------
# bitstream periodicity
# ---------------------------------------------------------------------------


@dataclass
class PeriodicityResult:
    periodic: bool
    period: int | None = None
    reason: str = ""

    def to_json(self) -> dict:
        out: dict = {"periodic": self.periodic, "reason": self.reason}
        if self.period is not None:
            out["period"] = self.period
        return out


def bitstream_periodic(pre: Sequence[int], period: Sequence[int]) -> PeriodicityResult:
    """Decide periodicity of the symmetrized support set of a bitstream.

    The set in question is the union of the support with its mirror image;
    it is shift-periodic iff the stream is purely periodic with some period q
    such that bit q is 0 and bit r equals bit q-r for 0 < r < q.
    """
    pre = tuple(int(b) for b in pre)
    per = tuple(int(b) for b in period)

    def bit(m: int) -> int:
        if m <= len(pre):
            return pre[m - 1]
        if per:
            return per[(m - 1 - len(pre)) % len(per)]
        return 0

    infinite = bool(per) and any(per)
    if not infinite:
        if any(pre):
            return PeriodicityResult(False, reason="finite nonempty support set")
        return PeriodicityResult(True, period=1, reason="empty support set")

    p = len(per)
    p0 = next(d for d in range(1, p + 1) if p % d == 0 and per == per[:d] * (p // d))
    for m in range(1, len(pre) + 1):
        if bit(m) != bit(m + p0):
            return PeriodicityResult(
                False, reason=f"preperiod bit {m} breaks pure periodicity"
            )
    if bit(p0) != 0:
        return PeriodicityResult(
            False,
            reason="0 is never in the symmetrized set but its translate by the candidate period is",
        )
    for r in range(1, p0):
        if bit(r) != bit(p0 - r):
            return PeriodicityResult(
                False, reason=f"mirror symmetry fails at offset {r} of the period"
            )
    return PeriodicityResult(True, period=p0, reason="purely periodic, boundary and mirror conditions hold")


# ---------------------------------------------------------------------------
# finiteness certificates for conjugacy classes
# ---------------------------------------------------------------------------


def class_finite_certified(g: Element) -> bool:
    """Rule-based finiteness of the full conjugacy class of g."""
    G = g.group
    if G.abelian or G.finite:
        return True
    if isinstance(G, BaumslagSolitarNN):
        return G.is_central(g)
    if isinstance(G, FreeTimesZ):
        return g.data[0] == ()
    return False


def _try_refutation_witness(
    sigma: Cocycle, g: Element, radius: int, node_budget: int
) -> bool:
    """Sound witness check: finite class by rule plus certified regularity."""
    if g.is_identity() or not class_finite_certified(g):
        return False
    return is_sigma_regular(sigma, g, radius, node_budget).is_regular_certified


# ---------------------------------------------------------------------------
# Kleppner's condition
# ---------------------------------------------------------------------------


def decide_kleppner(
    group: Group,
    sigma: Cocycle,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
    candidates: Sequence[Element] = (),
) -> Verdict:
    """Certificate rules, then refutation search, then an inconclusive bound."""
    if sigma.group.key != group.key:
        raise SpecError("cocycle does not live on the given group")
    base = sigma.structural()

    for g in candidates:
        if _try_refutation_witness(sigma, g, radius, node_budget):
            return Verdict("refuted", rule=_refutation_rule(group), witness=g)

    # family-specific certificates
    if isinstance(base, ThetaCocycle) and isinstance(group, SumZ):
        return _kleppner_theta(group, sigma, base, radius)
    if isinstance(base, BitstreamCocycle) and isinstance(group, SumZ2) and not group.finite:
        return _kleppner_bitstream(group, sigma, base, radius, node_budget)
    if isinstance(base, SkewFormCocycle) and isinstance(group, Zn):
        eff = base.skew_angle()
        if not eff.is_torsion():
            return Verdict("certified", rule="skew_nontorsion")
        q = eff.rational.denominator
        witness = group.vector(*([q] + [0] * (group.n - 1)))
        return Verdict("refuted", rule="skew_torsion", witness=witness)
    if isinstance(base, BSInflationCocycle) and isinstance(group, BaumslagSolitarNN):
        if not base.lam.is_torsion():
            return Verdict("certified", rule="bs_nontorsion")
        t = base.lam.rational.denominator
        c0 = t // math.gcd(t, group.n)
        return Verdict("refuted", rule="bs_torsion", witness=group.b_power(c0 * group.n))
    if isinstance(base, FreeTimesZCharCocycle) and isinstance(group, FreeTimesZ):
        if not (base.mu.is_torsion() and base.nu.is_torsion()):
            return Verdict("certified", rule="f2xz_nontorsion")
        m = math.lcm(base.mu.rational.denominator, base.nu.rational.denominator)
        return Verdict("refuted", rule="f2xz_torsion", witness=group.pair((), m))
    if isinstance(base, ProductCocycle) and isinstance(group, FreeTimesZ):
        return Verdict("refuted", rule="z_factor_fails", witness=group.pair((), 1))
    if group.finite:
        return _kleppner_finite(group, sigma)

    # generic ICC metadata
    if group.icc:
        return Verdict("certified", rule="icc_family")

    # refutation search over rule-certified finite classes
    try:
        for g in group.central_candidates(radius):
            if _try_refutation_witness(sigma, g, radius, node_budget):
                return Verdict("refuted", rule=_refutation_rule(group), witness=g)
    except BudgetExceededError as exc:
        return Verdict("inconclusive", bound=exc.radius or radius, detail="search budget exhausted")
    return Verdict("inconclusive", bound=radius)


def _refutation_rule(group: Group) -> str:
    if group.abelian:
        return "kernel_scan"
    if group.finite:
        return "finite_exhaustive"
    return "central_regular_witness"


def _kleppner_theta(group: SumZ, sigma: Cocycle, base: ThetaCocycle, radius: int) -> Verdict:
    if base.rule == "prime_reciprocal":
        return Verdict("certified", rule="prime_reciprocal")
    w = base.finite_bandwidth
    if w is not None:
        diags = [base.diagonal_value(m) for m in range(1, w + 1)]
        if any(not d.is_torsion() for d in diags):
            return Verdict("certified", rule="finite_bandwidth_irrational")
        orders = [d.rational.denominator for d in diags] or [1]
        m = math.lcm(*orders)
        witness = group.basis_element(0, m)
        return Verdict("refuted", rule="finite_bandwidth_torsion", witness=witness)
    # eventually periodic with irrational entries: scan boxes for kernel vectors
    for wdw in range(1, min(radius, 4) + 1):
        found, certified = regular_vectors_in_box(sigma, wdw, min(wdw, 2))
        if found and certified:
            return Verdict("refuted", rule="kernel_scan", witness=found[0])
    return Verdict("inconclusive", bound=radius)


def _kleppner_bitstream(
    group: SumZ2, sigma: Cocycle, base: BitstreamCocycle, radius: int, node_budget: int
) -> Verdict:
    res = bitstream_periodic(base.pre, base.period)
    if not res.periodic:
        return Verdict("certified", rule="bitstream_nonperiodic", detail=res.reason)
    if not any(base.pre) and not any(base.period):
        witness = group.basis_element(0)
    else:
        witness = group.element((0, res.period))
    rep = is_sigma_regular(sigma, witness, radius, node_budget)
    if not rep.is_regular_certified:  # pragma: no cover - the construction is exact
        raise AssertionError("periodicity witness failed re-validation")
    return Verdict(
        "refuted", rule="bitstream_periodic", witness=witness, detail=f"period {res.period}"
    )


def _kleppner_finite(group: Group, sigma: Cocycle) -> Verdict:
    full = group.ball(group._finite_diameter())
    for g in full:
        if g.is_identity():
            continue
        if all(
            sigma.eval(g, h) == sigma.eval(h, g)
            for h in full
            if group.compose(g, h) == group.compose(h, g)
        ):
            return Verdict("refuted", rule="finite_exhaustive", witness=g)
    return Verdict("certified", rule="finite_exhaustive")


# ---------------------------------------------------------------------------
# relative Kleppner condition
# ---------------------------------------------------------------------------


def decide_relative_kleppner(
    group: Group,
    subgroup_name: str,
    sigma: Cocycle,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
    candidates: Sequence[Element] = (),
) -> Verdict:
    """Decide whether every regular-outside-the-subgroup element has an
    infinite subgroup-conjugacy class."""
    if sigma.group.key != group.key:
        raise SpecError("cocycle does not live on the given group")
    if subgroup_name == "full":
        return Verdict("certified", rule="relk_full")
    if subgroup_name == "trivial":
        first = next(g for g in group.ball(1) if not g.is_identity())
        return Verdict("refuted", rule="relk_trivial", witness=first)
    sub = resolve_subgroup(group, subgroup_name)
    base = sigma.structural()

    for g in candidates:
        if _try_relative_witness(sigma, sub, g, radius, node_budget):
            return Verdict("refuted", rule=_relk_rule(group), witness=g)

    if isinstance(group, WreathZ) and subgroup_name == "base":
        if group.m is None:
            return Verdict("certified", rule="wreath_relk")
        if isinstance(base, TrivialCocycle):
            witness = group.element(((), 1))
            return Verdict("refuted", rule="wreath_relk", witness=witness)
        return _relative_finite(group, sub, sigma)
    if isinstance(group, ZnSemidirectZ) and subgroup_name == "base":
        if group.icc:
            return Verdict("certified", rule="aperiodic_relk")
    if isinstance(group, Sanov) and subgroup_name in ("base", "z2"):
        return Verdict("certified", rule="sanov_relk")
    if isinstance(base, BSInflationCocycle) and subgroup_name == "center":
        if not base.lam.is_torsion():
            return Verdict("certified", rule="bs_relk")
        t = base.lam.rational.denominator
        m0 = t // math.gcd(t, group.n)
        witness = group.word(" ".join(["a"] * m0))
        return Verdict("refuted", rule="bs_relk", witness=witness)
    if isinstance(base, FreeTimesZCharCocycle) and subgroup_name in ("z", "center"):
        rel = _character_relation(base.mu, base.nu)
        if rel is None:
            return Verdict("certified", rule="f2xz_relk")
        ja, jb = rel
        word = "a " * abs(ja) + "b " * abs(jb)
        w: tuple[int, ...] = tuple([1 if ja > 0 else -1] * abs(ja) + [2 if jb > 0 else -2] * abs(jb))
        return Verdict("refuted", rule="f2xz_relk", witness=group.pair(w, 0))

    # generic search: subgroup-finite classes come from central/finite subgroups
    central_sub = subgroup_name in ("center", "z") or (sub.inner is not None and sub.inner.finite)
    if central_sub or (sub.inner is not None and getattr(sub.inner, "finite", False)):
        try:
            for g in group.ball(radius, node_budget):
                if _try_relative_witness(sigma, sub, g, radius, node_budget):
                    return Verdict("refuted", rule=_relk_rule(group), witness=g)
        except BudgetExceededError as exc:
            return Verdict("inconclusive", bound=exc.radius or radius)
    return Verdict("inconclusive", bound=radius)


def _relk_rule(group: Group) -> str:
    if isinstance(group, BaumslagSolitarNN):
        return "bs_relk"
    if isinstance(group, FreeTimesZ):
        return "f2xz_relk"
    if isinstance(group, WreathZ):
        return "wreath_relk"
    return "central_subgroup_classes"


def _try_relative_witness(sigma, sub, g: Element, radius: int, node_budget: int) -> bool:
    if sub.contains(g):
        return False
    if not _relative_class_finite_certified(sub, g):
        return False
    return is_regular_wrt_subgroup(sigma, g, sub, radius, node_budget).is_regular_certified


def _relative_class_finite_certified(sub, g: Element) -> bool:
    G = g.group
    if sub.inner is not None and sub.inner.finite:
        return True
    if isinstance(G, BaumslagSolitarNN) and sub.name == "center":
        return True
    if isinstance(G, FreeTimesZ) and sub.name == "z":
        return True
    return False


def _relative_finite(group: Group, sub, sigma: Cocycle) -> Verdict:
    full = group.ball(group._finite_diameter())
    hball = sub.ball(group._finite_diameter())
    for g in full:
        if sub.contains(g):
            continue
        if all(
            sigma.eval(g, s) == sigma.eval(s, g)
            for s in hball
            if group.compose(g, s) == group.compose(s, g)
        ):
            return Verdict("refuted", rule="finite_exhaustive", witness=g)
    return Verdict("certified", rule="finite_exhaustive")


def _character_relation(mu: Phase, nu: Phase) -> tuple[int, int] | None:
    """Nonzero (j,k) with j*angle(mu) + k*angle(nu) = 0 mod 1, when one exists."""
    symbols = sorted({s for s, _ in mu.irr} | {s for s, _ in nu.irr})
    cm = dict(mu.irr)
    cn = dict(nu.irr)
    from fractions import Fraction

    rows = [(cm.get(s, Fraction(0)), cn.get(s, Fraction(0))) for s in symbols]
    # integer kernel of the symbol constraint rows
    kernel: list[tuple[int, int]] = [(1, 0), (0, 1)]
    for a, b in rows:
        new_kernel = []
        vals = [a * u + b * v for (u, v) in kernel]
        nz = [(i, val) for i, val in enumerate(vals) if val != 0]
        if not nz:
            new_kernel = kernel
        elif len(nz) == 1:
            new_kernel = [kernel[i] for i, val in enumerate(vals) if val == 0]
        else:
            (i, vi), (j, vj) = nz
            num_i, num_j = vi.numerator * vj.denominator, vj.numerator * vi.denominator
            g = math.gcd(num_i, num_j)
            u = tuple(
                (num_j // g) * kernel[i][t] - (num_i // g) * kernel[j][t] for t in (0, 1)
            )
            new_kernel = [u] + [kernel[t] for t, val in enumerate(vals) if val == 0]
        kernel = new_kernel
        if not kernel:
            return None
    for (u, v) in kernel:
        if (u, v) == (0, 0):
            continue
        w = mu.rational * u + nu.rational * v
        q = w.denominator
        return (u * q, v * q)
    return None


# ---------------------------------------------------------------------------
# condition X
# ---------------------------------------------------------------------------


def check_condition_x(
    group: Group,
    sigma: Cocycle,
    subgroup_name: str,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Clause check: every nontrivial element of the designated normal
    subgroup must admit a commuting partner with asymmetric phases.

    The structural facts (the FC-center sits inside the subgroup, the
    quotient is FC-hypercentral) are family metadata validated here; the
    witness clause is certified by a family rule when one applies, otherwise
    elements are searched up to the budget and the result stays inconclusive.
    """
    base = sigma.structural()
    if subgroup_name == "full":
        if not (group.abelian or group.finite):
            raise SpecError("full-subgroup reduction requires an FC-hypercentral family")
        inner = decide_kleppner(group, sigma, radius, node_budget)
        return Verdict(inner.status, rule="condition_x_reduce", witness=inner.witness, bound=inner.bound)
    if not (isinstance(group, ZnSemidirectZ) and subgroup_name == "base"):
        raise SpecError(
            "condition X metadata (FC-center inclusion, FC-hypercentral quotient) "
            f"is not on file for {group.family!r} with subgroup {subgroup_name!r}",
            path="subgroup",
        )
    if not group.icc:
        raise SpecError("condition X facts are recorded for the ICC matrices only")
    if isinstance(base, LiftCocycle) and isinstance(base.base, SkewFormCocycle):
        eff = base.base.skew_angle()
        if not eff.is_torsion():
            return Verdict("certified", rule="condition_x_skew")
        q = eff.rational.denominator
        witness = group.pair([q] + [0] * (group.n - 1), 0)
        return Verdict("refuted", rule="condition_x_torsion", witness=witness)
    # generic: witness search for each subgroup element within the budget
    sub = resolve_subgroup(group, subgroup_name)
    checked = 0
    for h in sub.ball(radius, node_budget):
        if h.is_identity():
            continue
        pool = group.ball(radius, node_budget)
        if not any(
            group.compose(h, g) == group.compose(g, h) and sigma.eval(h, g) != sigma.eval(g, h)
            for g in pool
        ):
            return Verdict("inconclusive", bound=radius, detail=f"no witness found for {h!r}")
        checked += 1
    return Verdict("inconclusive", bound=radius, detail=f"witnesses found for {checked} elements")


# ---------------------------------------------------------------------------
# the property classifier
# ---------------------------------------------------------------------------


def classify(
    group: Group,
    sigma: Cocycle,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
    kleppner_candidates: Sequence[Element] = (),
) -> PropertyReport:
    """Chain the encoded theorems into verdicts for Kleppner's condition,
    unique trace, and simplicity."""
    base = sigma.structural()
    trace: list[dict] = []

    def note(rule: str, about: str) -> None:
        trace.append({"rule": rule, "about": about, "cite": CITES.get(rule, "")})

    kv = decide_kleppner(group, sigma, radius, node_budget, candidates=kleppner_candidates)
    if kv.rule:
        note(kv.rule, "kleppner")

    ut = Verdict("inconclusive", bound=radius)
    cs = Verdict("inconclusive", bound=radius)

    if group.abelian:
        ut = Verdict(kv.status, rule="fc_hypercentral", witness=kv.witness, bound=kv.bound)
        cs = Verdict(kv.status, rule="fc_hypercentral", witness=kv.witness, bound=kv.bound)
        note("fc_hypercentral", "unique_trace,cstar_simple")
    elif group.finite:
        ut = Verdict(kv.status, rule="finite_factor", witness=kv.witness, bound=kv.bound)
        cs = Verdict(kv.status, rule="finite_factor", witness=kv.witness, bound=kv.bound)
        note("finite_factor", "unique_trace,cstar_simple")
    elif isinstance(group, WreathZ) and group.m is None and isinstance(base, (LiftCocycle, TrivialCocycle)):
        base_group = group.base_group()
        base_sigma = base.base if isinstance(base, LiftCocycle) else TrivialCocycle(base_group)
        kb = decide_kleppner(base_group, base_sigma, radius, node_budget)
        note("wreath_ut", "unique_trace")
        if kb.status == "certified":
            ut = Verdict("certified", rule="wreath_ut", detail=f"base rule: {kb.rule}")
            cs = Verdict("certified", rule="wreath_ut", detail=f"base rule: {kb.rule}")
        elif kb.status == "refuted":
            ut = Verdict("refuted", rule="wreath_ut", witness=kb.witness)
            if _is_odd_support_bitstream(base_sigma):
                cs = Verdict("refuted", rule="lamplighter_odd_periodic")
                note("lamplighter_odd_periodic", "cstar_simple")
            else:
                cs = Verdict("inconclusive", bound=radius, detail="minimality of the shift action undetermined")
        else:
            ut = Verdict("inconclusive", bound=radius)
            cs = Verdict("inconclusive", bound=radius)
    elif isinstance(group, ZnSemidirectZ) and group.icc and isinstance(base, LiftCocycle) and isinstance(base.base, SkewFormCocycle):
        eff = base.base.skew_angle()
        note("anosov_equiv", "unique_trace,cstar_simple")
        if not eff.is_torsion():
            ut = Verdict("certified", rule="anosov_equiv")
            cs = Verdict("certified", rule="anosov_equiv")
        else:
            ut = Verdict("refuted", rule="anosov_equiv")
            cs = Verdict("refuted", rule="anosov_equiv")
    elif isinstance(group, Sanov) and isinstance(base, SanovCocycle):
        note("sanov_equiv", "unique_trace,cstar_simple")
        if any(not m.is_torsion() for m in (base.mu0, base.mu1, base.mu2)):
            ut = Verdict("certified", rule="sanov_equiv")
            cs = Verdict("certified", rule="sanov_equiv")
        else:
            ut = Verdict("refuted", rule="sanov_equiv")
            cs = Verdict("refuted", rule="sanov_equiv")
    elif isinstance(group, BaumslagSolitarNN) and isinstance(base, BSInflationCocycle):
        note("bs_equiv", "unique_trace,cstar_simple")
        ut = Verdict(kv.status, rule="bs_equiv", witness=kv.witness, bound=kv.bound)
        cs = Verdict(kv.status, rule="bs_equiv", witness=kv.witness, bound=kv.bound)
    elif isinstance(group, FreeTimesZ) and isinstance(base, FreeTimesZCharCocycle):
        note("f2xz_equiv", "unique_trace,cstar_simple")
        ut = Verdict(kv.status, rule="f2xz_equiv", witness=kv.witness, bound=kv.bound)
        cs = Verdict(kv.status, rule="f2xz_equiv", witness=kv.witness, bound=kv.bound)
    elif isinstance(group, FreeTimesZ) and isinstance(base, ProductCocycle):
        note("product_rule", "kleppner,unique_trace,cstar_simple")
        note("z_factor_fails", "kleppner")
        ut = Verdict("refuted", rule="product_rule", witness=kv.witness)
        cs = Verdict("refuted", rule="product_rule", witness=kv.witness)
    elif isinstance(group, FreeGroup) and group.rank >= 2:
        note("free_group", "unique_trace,cstar_simple")
        ut = Verdict("certified", rule="free_group")
        cs = Verdict("certified", rule="free_group")

    if kv.status == "refuted":
        if ut.status == "inconclusive":
            ut = Verdict("refuted", rule="kleppner_necessary", witness=kv.witness)
            note("kleppner_necessary", "unique_trace")
        if cs.status == "inconclusive":
            cs = Verdict("refuted", rule="kleppner_necessary", witness=kv.witness)
            note("kleppner_necessary", "cstar_simple")

    if kv.status == "refuted" and (ut.status == "certified" or cs.status == "certified"):
        raise AssertionError("inconsistent report: a certified property alongside refuted Kleppner")
    return PropertyReport(kv, ut, cs, trace)


def _is_odd_support_bitstream(sigma: Cocycle) -> bool:
    base = sigma.structural()
    if not isinstance(base, BitstreamCocycle):
        return False
    res = bitstream_periodic(base.pre, base.period)
    return bool(res.periodic and res.period == 2 and base.epsilon(1) == 1)
