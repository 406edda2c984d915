"""Command-line front end: JSON reports on stdout, human summaries on stderr.

Exit codes: 0 = completed (whatever the verdicts), 1 = specification error,
2 = every requested verdict came back inconclusive with the budget exhausted.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .cocycles import build_cocycle
from .errors import BudgetExceededError, ConfigurationError, SpecError
from .groups import get_group
from .phase import IrrationalBasis, phase_from_json

if TYPE_CHECKING:
    from .spectral import FiniteFunction  # for annotations only

# The layers (fixtures, growth, regularity, spectral, verdicts) are imported
# in the branch of _dispatch that runs them, so a process loads only its own.


def _emit(report: dict, summary: str, code: int = 0) -> int:
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(summary, file=sys.stderr)
    return code


def _load_json_arg(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}", path=path) from exc


def _basis(args) -> IrrationalBasis | None:
    return _parsed(IrrationalBasis, _load_json_arg(args.basis, "basis"), "basis") if args.basis else None


def _build_pair(args):
    group = get_group(_load_json_arg(args.group, "group"))
    return group, build_cocycle(_load_json_arg(args.cocycle, "cocycle"), group, _basis(args))


def _load_list(text: str, path: str) -> list:
    data = _load_json_arg(text, path)
    if not isinstance(data, list):
        raise SpecError("must be a JSON list", path=path)
    return data


def _parsed(parse, obj, path: str, *args):
    """parse(obj, *args), with malformed input reported as a spec error at `path`."""
    try:
        return parse(obj, *args)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:  # SpecError is a ValueError
        raise SpecError(str(exc), path=path) from None


def _candidates(group, args) -> list:
    rows = _load_list(args.candidates, "candidates")
    return [_parsed(group.element_from_json, c, f"candidates[{i}]") for i, c in enumerate(rows)]


def _node_budget(args) -> int:
    env = os.environ.get("TWISTLAB_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"must be an integer, got {env!r}", path="TWISTLAB_BUDGET") from None
    return args.nodes


def _load_function(group, path: str, field: str) -> FiniteFunction:
    from .spectral import FiniteFunction

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read the coefficient file: {exc}", path=field) from exc
    data = _load_json_arg(text, field)
    if not isinstance(data, list):
        raise SpecError("the coefficient file must hold a list of rows", path=field)
    coeffs = {}
    for i, row in enumerate(data):
        if not isinstance(row, dict) or "g" not in row:
            raise SpecError("each coefficient row must be an object with a 'g' field", path=f"{field}[{i}].g")
        g = _parsed(group.element_from_json, row["g"], f"{field}[{i}].g")
        try:
            coeffs[g] = complex(float(row.get("re", 0.0)), float(row.get("im", 0.0)))
            if not cmath.isfinite(coeffs[g]):
                raise ValueError(f"got {coeffs[g]}")
        except (TypeError, ValueError) as exc:
            raise SpecError(f"coefficient parts must be finite numbers: {exc}", path=f"{field}[{i}]") from exc
    return FiniteFunction(group, coeffs)


def _check_finite(values, what: str, path: str = "f", remedy: str = "scale the coefficients down") -> None:
    if not all(math.isfinite(v) for v in values):
        raise SpecError(f"{what} exceeds the float range; {remedy}", path=path)


def _all_inconclusive(report: dict) -> bool:
    statuses = []

    def walk(node):
        if isinstance(node, dict):
            if "status" in node and isinstance(node["status"], str):
                statuses.append(node["status"])
            for v in node.values():
                walk(v)

    walk(report)
    return bool(statuses) and all(s == "inconclusive" for s in statuses)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are spec errors (exit 1)
        raise SpecError(message, path="argv")


# Every option, declared once; each command below picks the ones it reads.
OPTIONS = {
    "group": {"required": True, "help": "group JSON"},
    "cocycle": {"required": True, "help": "cocycle JSON"},
    "basis": {"default": "", "help": 'numeric values for symbols, e.g. {"r":0.38}'},
    "radius": {"type": int, "default": 6, "help": "search/ball radius"},
    "nodes": {"type": int, "default": 10**6, "help": "node budget cap (TWISTLAB_BUDGET overrides it)"},
    "seed": {"type": int, "default": 0, "help": "seed of the norm solver's random start vector and of the random samples"},
    "tol": {
        "type": float,
        "default": 1e-8,
        "help": "stop the Lanczos norm solver at this relative step between Ritz values, not an error bound",
    },
    "candidates": {"default": "[]", "help": "witness suspects to validate first"},
    "subgroup": {"required": True},
    "g": {"required": True, "help": "element JSON"},
    "k": {"default": "", "help": "conjugating element for the (k,H) variant"},
    "f": {"required": True, "help": "path to the coefficient file"},
    "xi": {"required": True, "help": "path to the dominating coefficient file"},
    "nmax": {"type": int, "default": 8},
    "search-radius": {"type": int, "default": 3},
    "kmax": {"type": int, "default": 8},
    "kappa": {"default": "1+L"},
    "degrees": {"default": "[1,2,3]"},
    "M": {"type": float, "default": 10.0},
    "trials": {"type": int, "default": 50},
    "nu1": {"required": True, "help": "phase literal"},
    "nu2": {"default": ""},
    "start": {"default": "[[0,1],[0,1]]", "help": "pair of phase literals"},
    "points": {"type": int, "default": 1000},
    "map": {"default": "phi1", "choices": ("phi1", "phi2", "both")},
    "corrupt": {"default": "", "help": "fixture id whose expectation is flipped (negative control)"},
}
STABLE_RANK_TOL = {"default": 1e-2, "help": "stop at this relative step between successive norm proxies"}

PAIR = ("group", "cocycle", "basis")
EXACT = (*PAIR, "radius", "nodes")
SPECTRAL = (*PAIR, "f", "nodes")
COMMANDS = {  # "command [subcommand]": options, each a name or (name, overrides)
    "verdict kleppner": (*EXACT, "candidates"),
    "verdict relative-kleppner": (*EXACT, "subgroup", "candidates"),
    "verdict condition-x": (*EXACT, "subgroup"),
    "classify": (*EXACT, "candidates"),
    "regular": (*EXACT, "g", ("subgroup", {"required": False, "default": ""}), "k"),
    "spectral norm": (*SPECTRAL, "radius", "tol", "seed"),
    "spectral r2": (*SPECTRAL, "nmax"),
    "spectral domination": (*SPECTRAL, "xi", "nmax"),
    "spectral stable-rank": (*SPECTRAL, "radius", ("tol", STABLE_RANK_TOL), "seed", "search-radius"),
    "growth class": ("group", "g", "radius", "nodes", "kmax", "kappa", "degrees"),
    "growth decay": (*EXACT, "seed", ("kappa", {"default": "(1+L)^2"}), "M", "trials"),
    "growth orbit": ("basis", "nu1", "nu2", "start", "points", "map"),
    "fixtures": ("radius", "nodes", "corrupt"),
}
HELP = {
    "verdict": "Kleppner-type deciders",
    "classify": "full property report",
    "regular": "regularity of one element",
    "spectral": "truncated-operator numerics",
    "growth": "growth and decay probes",
    "fixtures": "run the bundled verdict matrix",
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _parser() -> _Parser:
    parser = _Parser(prog="twistlab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    families = {}
    for command, options in COMMANDS.items():
        cmd, _, which = command.partition(" ")
        if which and cmd not in families:
            families[cmd] = sub.add_parser(cmd, help=HELP[cmd]).add_subparsers(dest="which", required=True)
        leaf = families[cmd].add_parser(which) if which else sub.add_parser(cmd, help=HELP[cmd])
        for option in options:
            name, overrides = (option, {}) if isinstance(option, str) else option
            leaf.add_argument("--" + name, **{**OPTIONS[name], **overrides})
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _dispatch(args)
    except (SpecError, ConfigurationError) as exc:
        print(json.dumps({"error": str(exc), "path": getattr(exc, "path", "")}, sort_keys=True))
        print(f"specification error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        report = {"status": "inconclusive", "detail": str(exc), "nodes": exc.nodes, "radius": exc.radius}
        return _emit(report, f"inconclusive: {exc}", 2)


def _dispatch(args) -> int:
    nodes = _node_budget(args) if "nodes" in args else None
    if args.cmd == "fixtures":
        from .fixtures import run_fixture_matrix

        res = run_fixture_matrix(args.radius, nodes, corrupt=args.corrupt or None)
        lines = [
            f"{r['fixture']}: {'ok' if r['match'] else 'MISMATCH'}"
            for r in res["rows"]
        ]
        code = 0 if res["all_match"] else 1
        return _emit(res, "\n".join(lines + [f"all_match={res['all_match']}"]), code)

    if args.cmd == "verdict":
        from .verdicts import check_condition_x, decide_kleppner, decide_relative_kleppner

        group, sigma = _build_pair(args)
        if args.which == "kleppner":
            v = decide_kleppner(group, sigma, args.radius, nodes, candidates=_candidates(group, args))
            report = {"kleppner": v.to_json()}
        elif args.which == "relative-kleppner":
            candidates = _candidates(group, args)
            v = decide_relative_kleppner(group, args.subgroup, sigma, args.radius, nodes, candidates=candidates)
            report = {"relative_kleppner": v.to_json()}
        else:
            v = check_condition_x(group, sigma, args.subgroup, args.radius, nodes)
            report = {"condition_x": v.to_json()}
        code = 2 if _all_inconclusive(report) else 0
        return _emit(report, f"{args.which}: {v.status}" + (f" ({v.cite})" if v.rule else ""), code)

    if args.cmd == "classify":
        from .verdicts import classify

        group, sigma = _build_pair(args)
        rep = classify(group, sigma, args.radius, nodes, kleppner_candidates=_candidates(group, args))
        report = rep.to_json()
        summary = (
            f"kleppner={rep.kleppner.status} unique_trace={rep.unique_trace.status} "
            f"cstar_simple={rep.cstar_simple.status}"
        )
        return _emit(report, summary, 2 if _all_inconclusive(report) else 0)

    if args.cmd == "regular":
        from .regularity import is_regular_wrt_kH, is_regular_wrt_subgroup, is_sigma_regular

        group, sigma = _build_pair(args)
        g = _parsed(group.element_from_json, _load_json_arg(args.g, "g"), "g")
        if args.k:
            k = _parsed(group.element_from_json, _load_json_arg(args.k, "k"), "k")
            rep = is_regular_wrt_kH(sigma, k, g, args.subgroup or "full", args.radius, nodes)
        elif args.subgroup:
            rep = is_regular_wrt_subgroup(sigma, g, args.subgroup, args.radius, nodes)
        else:
            rep = is_sigma_regular(sigma, g, args.radius, nodes)
        report = rep.to_json()
        code = 2 if rep.status == "no_witness_up_to" else 0
        return _emit(report, f"regularity: {rep.status}", code)

    if args.cmd == "spectral":
        from .spectral import check_domination, r2_estimate, stable_rank_evidence, truncated_norm_sequence

        group, sigma = _build_pair(args)
        f = _load_function(group, args.f, "f")
        if args.which == "norm":
            if args.radius < 1:
                raise SpecError("the norm sequence needs a radius of at least 1", path="radius")
            reps = truncated_norm_sequence(f, sigma, args.radius, tol=args.tol, seed=args.seed, node_budget=nodes)
            values = [rep.to_json() for rep in reps]
            _check_finite([v["value"] for v in values], "a norm")
            report = {"radius": args.radius, "sequence": values, "value": values[-1]["value"]}
            return _emit(report, f"norm lower bound at radius {args.radius}: {report['value']:.9g}")
        if args.which == "r2":
            rep = r2_estimate(f, sigma, args.nmax, budget=nodes)
            _check_finite(rep.squared_norms, "a squared norm")
            return _emit(rep.to_json(), f"r2 estimate: {rep.estimate:.9g} (exact={rep.exact})")
        if args.which == "domination":
            xi = _load_function(group, args.xi, "xi")
            rows = check_domination(f, xi, sigma, args.nmax, budget=nodes)
            _check_finite([float(v) for r in rows for v in (r.twisted_sq, r.plain_sq)], "a squared norm")
            report = {
                "rows": [{**vars(r), "twisted_sq": float(r.twisted_sq), "plain_sq": float(r.plain_sq)} for r in rows],
                "all_ok": all(r.ok for r in rows),
            }
            return _emit(report, f"domination holds for all n <= {args.nmax}: {report['all_ok']}")
        rep = stable_rank_evidence(
            group, sigma, f.support(), search_radius=args.search_radius, radius=args.radius,
            tol=args.tol, seed=args.seed, node_budget=nodes,
        )
        return _emit(rep, f"semifree translate found: {rep.get('semifree_translate_found')}")

    # the growth probes: orbit, class and decay
    from .growth import LengthFunction, class_growth_counts, kappa_decay_probe, superpolynomial_probe, torus_orbit_probe

    if args.which == "orbit":
        basis = _basis(args)
        nu1 = _parsed(phase_from_json, _load_json_arg(args.nu1, "nu1"), "nu1", basis)
        nu2 = _parsed(phase_from_json, _load_json_arg(args.nu2, "nu2"), "nu2", basis) if args.nu2 else None
        start = _load_list(args.start, "start")
        if len(start) != 2:
            raise SpecError("must be a pair of phase literals", path="start")
        start = tuple(_parsed(phase_from_json, p, f"start[{i}]", basis) for i, p in enumerate(start))
        if args.points < 1:
            raise SpecError("must be at least 1", path="points")
        rep = torus_orbit_probe(nu1, nu2, start, args.points, which=args.map)
        return _emit(rep, f"discrepancy={rep['discrepancy']:.4g} finite={rep['finite_certified']}")
    if args.which == "class":
        group = get_group(_load_json_arg(args.group, "group"))
        kappa = LengthFunction.parse(group, args.kappa)
        g = _parsed(group.element_from_json, _load_json_arg(args.g, "g"), "g")
        degrees = _load_list(args.degrees, "degrees")
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in degrees):
            raise SpecError("must be a list of integers", path="degrees")
        profile = class_growth_counts(g, kappa, args.kmax, args.radius, nodes)
        report = profile.to_json()
        report["superpolynomial"] = {str(d): v for d, v in superpolynomial_probe(profile, degrees).items()}
        return _emit(report, f"shell counts: {report['counts']}")
    if not args.M > 0:
        raise SpecError("the decay bound must be positive", path="M")
    group, sigma = _build_pair(args)
    kappa = LengthFunction.parse(group, args.kappa)
    rep = kappa_decay_probe(group, sigma, kappa, args.M, args.trials, args.radius, seed=args.seed, node_budget=nodes)
    # the numbers of the violations are finite when these two are
    _check_finite([rep.bound, rep.max_ratio], "the bound or a ratio", path="M", remedy="choose a bound M nearer 1")
    summary = f"max ratio {rep.max_ratio:.4g}; violations: {len(rep.violations)}"
    return _emit(rep.to_json(), summary)


if __name__ == "__main__":
    sys.exit(main())
