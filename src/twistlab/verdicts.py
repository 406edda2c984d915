"""Tri-state deciders for Kleppner-type conditions and the property classifier.

Every Certified or Refuted verdict is produced by a named rule with a
citation string describing the mathematical fact it encodes; searches alone
never certify.  Refuted verdicts carry witnesses that re-validate through the
regularity module.

The deciders are generic: candidate witnesses, exhaustive enumeration of a
finite group, ICC metadata, budgeted searches and the classifier's chain.
What one family knows in closed form sits in `DECIDERS`, a table keyed by
the group's family and the structural cocycle's kind, so this module names
no group family or cocycle class.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence, TypedDict

from .cocycles import Cocycle, stream_bit
from .errors import BudgetExceededError, SpecError
from .groups import DEFAULT_NODE_BUDGET, Element, Group, Subgroup, resolve_subgroup
from .phase import Phase, phase_angles
from .regularity import (
    RowTable,
    asymmetric_partner,
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


class Verdict(NamedTuple):
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


class PropertyReport(NamedTuple):
    kleppner: Verdict
    unique_trace: Verdict
    cstar_simple: Verdict
    rule_trace: list[dict]

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


class PeriodicityResult(NamedTuple):
    periodic: bool
    period: int | None = None
    reason: str = ""


def bitstream_periodic(pre: Sequence[int], period: Sequence[int]) -> PeriodicityResult:
    """Decide periodicity of the symmetrized support set of a bitstream.

    The set in question is the union of the support with its mirror image;
    it is shift-periodic iff the stream is purely periodic with some period q
    such that bit q is 0 and bit r equals bit q-r for 0 < r < q.
    """
    pre = tuple(int(b) for b in pre)
    per = tuple(int(b) for b in period)
    bit = partial(stream_bit, pre, per)

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
    center = G.center()
    return center is not None and center.contains(g)


def _try_refutation_witness(
    sigma: Cocycle, g: Element, radius: int, node_budget: int
) -> bool:
    """Sound witness check: finite class by rule plus certified regularity."""
    if g.is_identity() or not class_finite_certified(g):
        return False
    return is_sigma_regular(sigma, g, radius, node_budget).is_regular_certified


def _first_witness(
    draw: Callable[[], Iterable[Element]], is_witness: Callable[[Element], bool], rule: str, radius: int
) -> Verdict | None:
    """Refute by `rule` with the first candidate that `is_witness` accepts.

    Candidates are tried in order as `draw()` produces them, so a lazy
    source stops enumerating at the first witness.  A budget that runs out
    while a candidate is produced or checked makes the verdict
    inconclusive; None means the candidates ran out first.
    """
    try:
        for g in draw():
            if is_witness(g):
                return Verdict("refuted", rule=rule, witness=g)
    except BudgetExceededError as exc:
        return Verdict("inconclusive", bound=exc.radius or radius, detail="search budget exhausted")
    return None


def _table(group: Group, base: Cocycle, slot: str):
    """The pair's `DECIDERS` slot, else its family's, else None."""
    own = DECIDERS.get((group.family, base.kind), {})
    return own[slot] if slot in own else DECIDERS.get((group.family, None), {}).get(slot)


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

    def refutes(g: Element) -> bool:
        return _try_refutation_witness(sigma, g, radius, node_budget)

    if found := _first_witness(lambda: candidates, refutes, _refutation_rule(group), radius):
        return found

    # family-specific certificates
    rule = _table(group, base, "kleppner")
    if rule is not None and (found := rule(group, sigma, base, radius, node_budget)):
        return found
    if group.finite:
        return _finite_exhaustive(group, sigma, node_budget)

    # generic ICC metadata
    if group.icc:
        return Verdict("certified", rule="icc_family")

    # refutation search over rule-certified finite classes
    found = _first_witness(
        lambda: group.central_candidates(radius, node_budget), refutes, _refutation_rule(group), radius
    )
    return found or Verdict("inconclusive", bound=radius)


def _bs_exponent(base: Cocycle, group: Group) -> int | None:
    """The least c > 0 with lambda^(c n) = 1, that is t/gcd(t, n) for a
    twisting unit of order t; None when the unit is nontorsion."""
    t = base.lam.torsion_order()
    return None if t is None else t // math.gcd(t, group.n)


def _refutation_rule(group: Group) -> str:
    if group.abelian:
        return "kernel_scan"
    if group.finite:
        return "finite_exhaustive"
    return "central_regular_witness"


def _kleppner_theta(group: Group, sigma: Cocycle, base: Cocycle, radius: int, node_budget: int) -> Verdict:
    if base.rule == "prime_reciprocal":
        return Verdict("certified", rule="prime_reciprocal")
    w = base.finite_bandwidth
    if w is not None:
        orders = [base.diagonal_value(m).torsion_order() for m in range(1, w + 1)]
        if None in orders:
            return Verdict("certified", rule="finite_bandwidth_irrational")
        witness = group.basis_element(0, math.lcm(1, *orders))
        return Verdict("refuted", rule="finite_bandwidth_torsion", witness=witness)
    # eventually periodic with irrational entries: scan boxes for kernel vectors
    for wdw in range(1, min(radius, 4) + 1):
        try:
            found, _ = regular_vectors_in_box(sigma, wdw, min(wdw, 2))
        except BudgetExceededError as exc:  # keys past int64: refuse, never refute on wrapped keys
            return Verdict("inconclusive", bound=radius, detail=str(exc))
        if found:
            return Verdict("refuted", rule="kernel_scan", witness=found[0])
    return Verdict("inconclusive", bound=radius)


def _kleppner_bitstream(
    group: Group, sigma: Cocycle, base: Cocycle, radius: int, node_budget: int
) -> Verdict | None:
    if group.finite:  # a finite sum is decided by enumeration
        return None
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


def _kleppner_skew(group: Group, sigma: Cocycle, base: Cocycle, radius: int, node_budget: int) -> Verdict:
    q = base.skew_angle().torsion_order()
    if q is None:
        return Verdict("certified", rule="skew_nontorsion")
    return Verdict("refuted", rule="skew_torsion", witness=group.vector(q, *[0] * (group.n - 1)))


def _kleppner_bs(group: Group, sigma: Cocycle, base: Cocycle, radius: int, node_budget: int) -> Verdict:
    c0 = _bs_exponent(base, group)
    if c0 is None:
        return Verdict("certified", rule="bs_nontorsion")
    return Verdict("refuted", rule="bs_torsion", witness=group.b_power(c0 * group.n))


def _kleppner_f2xz(group: Group, sigma: Cocycle, base: Cocycle, radius: int, node_budget: int) -> Verdict:
    orders = (base.mu.torsion_order(), base.nu.torsion_order())
    if None in orders:
        return Verdict("certified", rule="f2xz_nontorsion")
    return Verdict("refuted", rule="f2xz_torsion", witness=group.pair(b"", math.lcm(*orders)))


def _finite_exhaustive(group: Group, sigma: Cocycle, node_budget: int, sub: Subgroup | None = None) -> Verdict:
    """Decide the condition on a finite group, relative to `sub` when one is
    given, by enumerating the whole group: the first element outside the
    subgroup (or nontrivial) with no asymmetric partner in the subgroup (or
    in the group) refutes it."""
    full, diameter = group.whole(node_budget)
    if sub is None:
        inside, pool = Element.is_identity, full
    else:
        inside, pool = sub.contains, sub.ball(diameter, node_budget)

    def refutes(g: Element) -> bool:
        return not inside(g) and asymmetric_partner(sigma, g, pool) is None

    found = _first_witness(lambda: full, refutes, "finite_exhaustive", diameter)
    return found or Verdict("certified", rule="finite_exhaustive")


# ---------------------------------------------------------------------------
# relative Kleppner condition
# ---------------------------------------------------------------------------


def _first_generator(group: Group, node_budget: int) -> Element:
    """The least nontrivial element of the radius-1 ball, or, when that ball
    exceeds the budget, the first one its enumeration meets."""
    try:
        return next(g for g in group.ball(1, node_budget) if not g.is_identity())
    except BudgetExceededError:
        return group.element(next(d for r, d in group._nodes(1) if r == 1))


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
        return Verdict("refuted", rule="relk_trivial", witness=_first_generator(group, node_budget))
    sub = resolve_subgroup(group, subgroup_name)
    base = sigma.structural()
    # None where no subgroup's classes are certified finite, so no witness is found
    relk_rule = _table(group, base, "relk_rule")

    def refutes(g: Element) -> bool:
        return _try_relative_witness(sigma, sub, g, radius, node_budget)

    if found := _first_witness(lambda: candidates, refutes, relk_rule, radius):
        return found

    rule = (_table(group, base, "relative") or {}).get(sub.name)
    if rule is not None and (found := rule(group, sigma, base, sub, node_budget)):
        return found

    # generic search: subgroup-finite classes come from central/finite subgroups
    if not relative_class_finite_certified(sub):
        return Verdict("inconclusive", bound=radius)
    found = _first_witness(lambda: group.ball(radius, node_budget), refutes, relk_rule, radius)
    return found or Verdict("inconclusive", bound=radius)


def _try_relative_witness(sigma, sub: Subgroup, g: Element, radius: int, node_budget: int) -> bool:
    if sub.contains(g) or not relative_class_finite_certified(sub):
        return False
    return is_regular_wrt_subgroup(sigma, g, sub, radius, node_budget).is_regular_certified


def relative_class_finite_certified(sub: Subgroup) -> bool:
    """Rule-based finiteness of every sub-conjugacy class: the subgroup is
    finite, or it is the designated central subgroup of its family."""
    if sub.inner is not None and sub.inner.finite:
        return True
    center = sub.ambient.center()
    return center is not None and sub.name == center.name


def _relk_wreath(group: Group, sigma: Cocycle, base: Cocycle, sub: Subgroup, node_budget: int) -> Verdict:
    if group.m is None:
        return Verdict("certified", rule="wreath_relk")
    if base.kind == "trivial":
        return Verdict("refuted", rule="wreath_relk", witness=group.element(((), 1)))
    return _finite_exhaustive(group, sigma, node_budget, sub)


def _relk_bs(group: Group, sigma: Cocycle, base: Cocycle, sub: Subgroup, node_budget: int) -> Verdict:
    m0 = _bs_exponent(base, group)
    if m0 is None:
        return Verdict("certified", rule="bs_relk")
    return Verdict("refuted", rule="bs_relk", witness=group.word(" ".join(["a"] * m0)))


def _relk_f2xz(group: Group, sigma: Cocycle, base: Cocycle, sub: Subgroup, node_budget: int) -> Verdict:
    rel = _character_relation(base.mu, base.nu)
    if rel is None:
        return Verdict("certified", rule="f2xz_relk")
    ja, jb = rel
    w = " ".join(["a" if ja > 0 else "A"] * abs(ja) + ["b" if jb > 0 else "B"] * abs(jb))
    return Verdict("refuted", rule="f2xz_relk", witness=group.pair(w, 0))


def _character_relation(mu: Phase, nu: Phase) -> tuple[int, int] | None:
    """Nonzero (j,k) with j*angle(mu) + k*angle(nu) = 0 mod 1, when one exists:
    the first Hermite basis vector of the relation lattice."""
    symbols, _, angles = phase_angles([mu, nu])
    kernel = RowTable([angles], len(symbols), 2).kernel
    return kernel[0] if kernel else None


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
    if _table(group, base, "condition_x_facts") != subgroup_name:
        raise SpecError(
            "condition X metadata (FC-center inclusion, FC-hypercentral quotient) "
            f"is not on file for {group.family!r} with subgroup {subgroup_name!r}",
            path="subgroup",
        )
    if not group.icc:
        raise SpecError("condition X facts are recorded for the ICC matrices only")
    rule = _table(group, base, "condition_x")
    if rule is not None and (found := rule(group, base)):
        return found
    # generic: witness search for each subgroup element within the budget
    sub = resolve_subgroup(group, subgroup_name)
    checked = 0
    for h in sub.ball(radius, node_budget):
        if h.is_identity():
            continue
        if asymmetric_partner(sigma, h, group.ball(radius, node_budget)) is None:
            return Verdict("inconclusive", bound=radius, detail=f"no witness found for {h!r}")
        checked += 1
    return Verdict("inconclusive", bound=radius, detail=f"witnesses found for {checked} elements")


def _skew_base(lift: Cocycle) -> Cocycle | None:
    """The base of a lift to the semidirect family when it is a skew form."""
    return lift.base if lift.base.kind in ("antisym_theta", "half_skew") else None


def _condition_x_skew(group: Group, base: Cocycle) -> Verdict | None:
    if (skew := _skew_base(base)) is None:
        return None
    q = skew.skew_angle().torsion_order()
    if q is None:
        return Verdict("certified", rule="condition_x_skew")
    return Verdict("refuted", rule="condition_x_torsion", witness=group.pair([q] + [0] * (group.n - 1), 0))


# ---------------------------------------------------------------------------
# the property classifier
# ---------------------------------------------------------------------------


class _Chain(NamedTuple):
    """What the classifier's steps share: the Kleppner verdict, the limits
    of their own searches and the trace of the rules that fired."""

    kv: Verdict
    radius: int
    node_budget: int
    trace: list[dict]

    def note(self, rule: str, about: str) -> None:
        self.trace.append({"rule": rule, "about": about, "cite": CITES.get(rule, "")})

    def shared(self, rule: str, status: str | None = None, about: str = "unique_trace,cstar_simple", **kw):
        """Unique trace and simplicity both decided by `rule`, noted once;
        with no status they follow the Kleppner verdict and its witness."""
        self.note(rule, about)
        if status is None:
            status, kw = self.kv.status, {"witness": self.kv.witness, "bound": self.kv.bound}
        return Verdict(status, rule=rule, **kw), Verdict(status, rule=rule, **kw)


def classify(
    group: Group,
    sigma: Cocycle,
    radius: int = 6,
    node_budget: int = DEFAULT_NODE_BUDGET,
    kleppner_candidates: Sequence[Element] = (),
) -> PropertyReport:
    """Chain the encoded theorems into verdicts for Kleppner's condition,
    unique trace, and simplicity.  A family's own step runs only for
    infinite nonabelian groups."""
    kv = decide_kleppner(group, sigma, radius, node_budget, candidates=kleppner_candidates)
    chain = _Chain(kv, radius, node_budget, [])
    if kv.rule:
        chain.note(kv.rule, "kleppner")

    ut = Verdict("inconclusive", bound=radius)
    cs = Verdict("inconclusive", bound=radius)

    base = sigma.structural()
    if group.abelian:
        ut, cs = chain.shared("fc_hypercentral")
    elif group.finite:
        ut, cs = chain.shared("finite_factor")
    elif (step := _table(group, base, "classify")) and (decided := step(group, base, chain)):
        ut, cs = decided

    if kv.status == "refuted":
        if ut.status == "inconclusive":
            ut = Verdict("refuted", rule="kleppner_necessary", witness=kv.witness)
            chain.note("kleppner_necessary", "unique_trace")
        if cs.status == "inconclusive":
            cs = Verdict("refuted", rule="kleppner_necessary", witness=kv.witness)
            chain.note("kleppner_necessary", "cstar_simple")

    if kv.status == "refuted" and (ut.status == "certified" or cs.status == "certified"):
        raise AssertionError("inconsistent report: a certified property alongside refuted Kleppner")
    return PropertyReport(kv, ut, cs, chain.trace)


def _classify_wreath(group: Group, base: Cocycle, chain: _Chain) -> tuple[Verdict, Verdict] | None:
    base_sigma = base.restrict("base")
    kb = decide_kleppner(base_sigma.group, base_sigma, chain.radius, chain.node_budget)
    if kb.status == "certified":
        return chain.shared("wreath_ut", "certified", "unique_trace", detail=f"base rule: {kb.rule}")
    chain.note("wreath_ut", "unique_trace")
    if kb.status != "refuted":
        return None
    ut = Verdict("refuted", rule="wreath_ut", witness=kb.witness)
    if _is_odd_support_bitstream(base_sigma):
        chain.note("lamplighter_odd_periodic", "cstar_simple")
        return ut, Verdict("refuted", rule="lamplighter_odd_periodic")
    return ut, Verdict("inconclusive", bound=chain.radius, detail="minimality of the shift action undetermined")


def _is_odd_support_bitstream(sigma: Cocycle) -> bool:
    """A bitstream of period 2: a periodic symmetrized support set has
    bit 2 clear, so the support is the odd numbers."""
    base = sigma.structural()
    return base.kind == "bitstream" and bitstream_periodic(base.pre, base.period).period == 2


def _classify_anosov(group: Group, base: Cocycle, chain: _Chain) -> tuple[Verdict, Verdict] | None:
    if not group.icc or (skew := _skew_base(base)) is None:
        return None
    return chain.shared("anosov_equiv", "refuted" if skew.skew_angle().is_torsion() else "certified")


def _classify_sanov(group: Group, base: Cocycle, chain: _Chain) -> tuple[Verdict, Verdict]:
    torsion = all(m.is_torsion() for m in (base.mu0, base.mu1, base.mu2))
    return chain.shared("sanov_equiv", "refuted" if torsion else "certified")


# ---------------------------------------------------------------------------
# the decider table
# ---------------------------------------------------------------------------


class _Entry(TypedDict, total=False):
    """What one (group family, structural cocycle kind) pair knows in closed
    form.  A handler's None falls through to the generic search."""

    kleppner: Callable[[Group, Cocycle, Cocycle, int, int], Verdict | None]  # group, sigma, base, radius, budget
    relative: dict[str, Callable[[Group, Cocycle, Cocycle, Subgroup, int], Verdict | None]]  # by subgroup name
    relk_rule: str  # the rule a relative witness refutes by
    classify: Callable[[Group, Cocycle, _Chain], tuple[Verdict, Verdict] | None]  # unique trace, simplicity
    condition_x: Callable[[Group, Cocycle], Verdict | None]
    condition_x_facts: str  # the subgroup whose condition X facts are on file


# Kind None holds what holds for every cocycle on the family; a pair's own
# entry replaces its family's slot by slot.
DECIDERS: dict[tuple[str, str | None], _Entry] = {
    ("sum_z", "theta"): {"kleppner": _kleppner_theta},
    ("sum_z2", "bitstream"): {"kleppner": _kleppner_bitstream},
    ("zn", "antisym_theta"): {"kleppner": _kleppner_skew},
    ("zn", "half_skew"): {"kleppner": _kleppner_skew},
    ("wreath", None): {"relative": {"base": _relk_wreath}, "relk_rule": "wreath_relk"},
    ("wreath", "lift"): {"classify": _classify_wreath},
    ("wreath", "trivial"): {"classify": _classify_wreath},
    ("zn_semidirect", None): {
        "relative": {"base": lambda group, *_: Verdict("certified", rule="aperiodic_relk") if group.icc else None},
        "condition_x_facts": "base",
    },
    ("zn_semidirect", "lift"): {"classify": _classify_anosov, "condition_x": _condition_x_skew},
    ("sanov", None): {"relative": {"base": lambda *_: Verdict("certified", rule="sanov_relk")}},
    ("sanov", "sanov"): {"classify": _classify_sanov},
    ("bs_nn", None): {"relk_rule": "bs_relk"},
    ("bs_nn", "bs"): {
        "kleppner": _kleppner_bs,
        "relative": {"center": _relk_bs},
        "classify": lambda group, base, chain: chain.shared("bs_equiv"),
    },
    ("free_times_z", None): {"relk_rule": "f2xz_relk"},
    ("free_times_z", "f2xz"): {
        "kleppner": _kleppner_f2xz,
        "relative": {"z": _relk_f2xz},
        "classify": lambda group, base, chain: chain.shared("f2xz_equiv"),
    },
    ("free_times_z", "product"): {
        "kleppner": lambda group, *_: Verdict("refuted", rule="z_factor_fails", witness=group.pair(b"", 1)),
        "classify": lambda group, base, chain: chain.shared(
            "product_rule", "refuted", "kleppner,unique_trace,cstar_simple", witness=chain.kv.witness
        ),
    },
    # rank 1 is abelian and stops at fc_hypercentral
    ("free", None): {"classify": lambda group, base, chain: chain.shared("free_group", "certified")},
}
