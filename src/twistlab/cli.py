"""Command-line front end: JSON reports on stdout, human summaries on stderr.

Exit codes: 0 = completed (whatever the verdicts), 1 = specification error,
2 = every requested verdict came back inconclusive with the budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cocycles import build_cocycle
from .errors import BudgetExceededError, ConfigurationError, SpecError
from .fixtures import run_fixture_matrix
from .groups import get_group
from .growth import LengthFunction, class_growth_counts, kappa_decay_probe, superpolynomial_probe, torus_orbit_probe
from .phase import IrrationalBasis, phase_from_json
from .regularity import is_regular_wrt_kH, is_regular_wrt_subgroup, is_sigma_regular
from .spectral import (
    FiniteFunction,
    check_domination,
    r2_estimate,
    stable_rank_evidence,
    truncated_norm_sequence,
)
from .verdicts import check_condition_x, classify, decide_kleppner, decide_relative_kleppner

DEFAULT_RADIUS = 6
DEFAULT_NODES = 10**6
DEFAULT_TOL = 1e-8


def _emit(report: dict, summary: str, code: int = 0) -> int:
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(summary, file=sys.stderr)
    return code


def _load_json_arg(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}", path=path) from exc


def _build_pair(args):
    basis = None
    if args.basis:
        basis = IrrationalBasis(_load_json_arg(args.basis, "basis"))
    group = get_group(_load_json_arg(args.group, "group"))
    sigma = build_cocycle(_load_json_arg(args.cocycle, "cocycle"), group, basis)
    return group, sigma, basis


def _node_budget(args) -> int:
    env = os.environ.get("TWISTLAB_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"must be an integer, got {env!r}", path="TWISTLAB_BUDGET") from None
    return args.nodes


def _load_function(group, path: str, field: str) -> FiniteFunction:
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
        g = group.element_from_json(row["g"])
        try:
            coeffs[g] = complex(float(row.get("re", 0.0)), float(row.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"coefficient parts must be numbers: {exc}", path=f"{field}[{i}]") from exc
    return FiniteFunction(group, coeffs)


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


def main(argv: list[str] | None = None) -> int:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--radius", type=int, default=DEFAULT_RADIUS, help="search/ball radius")
    common.add_argument("--nodes", type=int, default=DEFAULT_NODES, help="node budget cap")
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="solver stops when successive estimates differ by at most this, relative (not an error bound)",
    )
    common.add_argument("--basis", default="", help='numeric values for symbols, e.g. {"r":0.38}')

    parser = _Parser(prog="twistlab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_verdict = sub.add_parser("verdict", help="Kleppner-type deciders")
    v_sub = p_verdict.add_subparsers(dest="which", required=True)
    for name in ("kleppner", "relative-kleppner", "condition-x"):
        pv = v_sub.add_parser(name, parents=[common])
        pv.add_argument("--group", required=True)
        pv.add_argument("--cocycle", required=True)
        pv.add_argument("--candidates", default="[]", help="witness suspects to validate first")
        if name != "kleppner":
            pv.add_argument("--subgroup", required=True)

    p_classify = sub.add_parser("classify", parents=[common], help="full property report")
    p_classify.add_argument("--group", required=True)
    p_classify.add_argument("--cocycle", required=True)
    p_classify.add_argument("--candidates", default="[]")

    p_reg = sub.add_parser("regular", parents=[common], help="regularity of one element")
    p_reg.add_argument("--group", required=True)
    p_reg.add_argument("--cocycle", required=True)
    p_reg.add_argument("--g", required=True, help="element JSON")
    p_reg.add_argument("--subgroup", default="")
    p_reg.add_argument("--k", default="", help="conjugating element for the (k,H) variant")

    p_spec = sub.add_parser("spectral", help="truncated-operator numerics")
    s_sub = p_spec.add_subparsers(dest="which", required=True)
    for name in ("norm", "r2", "domination", "stable-rank"):
        ps = s_sub.add_parser(name, parents=[common])
        ps.add_argument("--group", required=True)
        ps.add_argument("--cocycle", required=True)
        ps.add_argument("--f", required=True, help="path to the coefficient file")
        if name == "domination":
            ps.add_argument("--xi", required=True)
        if name in ("r2", "domination"):
            ps.add_argument("--nmax", type=int, default=8)
        if name == "stable-rank":
            ps.add_argument("--search-radius", type=int, default=3)

    p_growth = sub.add_parser("growth", help="growth and decay probes")
    g_sub = p_growth.add_subparsers(dest="which", required=True)
    pg = g_sub.add_parser("class", parents=[common])
    pg.add_argument("--group", required=True)
    pg.add_argument("--cocycle", default='{"kind":"trivial"}')
    pg.add_argument("--g", required=True)
    pg.add_argument("--kmax", type=int, default=8)
    pg.add_argument("--kappa", default="1+L")
    pg.add_argument("--degrees", default="[1,2,3]")
    pd = g_sub.add_parser("decay", parents=[common])
    pd.add_argument("--group", required=True)
    pd.add_argument("--cocycle", required=True)
    pd.add_argument("--kappa", default="(1+L)^2")
    pd.add_argument("--M", type=float, default=10.0)
    pd.add_argument("--trials", type=int, default=50)
    po = g_sub.add_parser("orbit", parents=[common])
    po.add_argument("--nu1", required=True, help="phase literal")
    po.add_argument("--nu2", default="")
    po.add_argument("--start", default='[[0,1],[0,1]]', help="pair of phase literals")
    po.add_argument("--points", type=int, default=1000)
    po.add_argument("--map", default="phi1", choices=("phi1", "phi2", "both"))

    p_fix = sub.add_parser("fixtures", parents=[common], help="run the bundled verdict matrix")
    p_fix.add_argument("--corrupt", default="", help="fixture id whose expectation is flipped (negative control)")

    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (SpecError, ConfigurationError) as exc:
        print(json.dumps({"error": str(exc), "path": getattr(exc, "path", "")}, sort_keys=True))
        print(f"specification error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        report = {"status": "inconclusive", "detail": str(exc), "nodes": exc.nodes, "radius": exc.radius}
        return _emit(report, f"inconclusive: {exc}", 2)


def _dispatch(args) -> int:
    nodes = _node_budget(args)
    if args.cmd == "fixtures":
        res = run_fixture_matrix(args.radius, nodes, corrupt=args.corrupt or None)
        lines = [
            f"{r['fixture']}: {'ok' if r['match'] else ('budget-divergence' if r['budget_divergence'] else 'MISMATCH')}"
            for r in res["rows"]
        ]
        code = 0 if res["all_match"] else 1
        return _emit(res, "\n".join(lines + [f"all_match={res['all_match']}"]), code)

    if args.cmd == "verdict":
        group, sigma, _ = _build_pair(args)
        candidates = [
            group.element_from_json(c) for c in _load_json_arg(args.candidates, "candidates")
        ]
        if args.which == "kleppner":
            v = decide_kleppner(group, sigma, args.radius, nodes, candidates=candidates)
            report = {"kleppner": v.to_json()}
        elif args.which == "relative-kleppner":
            v = decide_relative_kleppner(group, args.subgroup, sigma, args.radius, nodes, candidates=candidates)
            report = {"relative_kleppner": v.to_json()}
        else:
            v = check_condition_x(group, sigma, args.subgroup, args.radius, nodes)
            report = {"condition_x": v.to_json()}
        code = 2 if _all_inconclusive(report) else 0
        return _emit(report, f"{args.which}: {v.status}" + (f" ({v.cite})" if v.rule else ""), code)

    if args.cmd == "classify":
        group, sigma, _ = _build_pair(args)
        candidates = [
            group.element_from_json(c) for c in _load_json_arg(args.candidates, "candidates")
        ]
        rep = classify(group, sigma, args.radius, nodes, kleppner_candidates=candidates)
        report = rep.to_json()
        summary = (
            f"kleppner={rep.kleppner.status} unique_trace={rep.unique_trace.status} "
            f"cstar_simple={rep.cstar_simple.status}"
        )
        return _emit(report, summary, 2 if _all_inconclusive(report) else 0)

    if args.cmd == "regular":
        group, sigma, _ = _build_pair(args)
        g = group.element_from_json(_load_json_arg(args.g, "g"))
        if args.k:
            k = group.element_from_json(_load_json_arg(args.k, "k"))
            rep = is_regular_wrt_kH(sigma, k, g, args.subgroup or "full", args.radius, nodes)
        elif args.subgroup:
            rep = is_regular_wrt_subgroup(sigma, g, args.subgroup, args.radius, nodes)
        else:
            rep = is_sigma_regular(sigma, g, args.radius, nodes)
        report = rep.to_json()
        code = 2 if rep.status == "no_witness_up_to" else 0
        return _emit(report, f"regularity: {rep.status}", code)

    if args.cmd == "spectral":
        group, sigma, _ = _build_pair(args)
        f = _load_function(group, args.f, "f")
        if args.which == "norm":
            if args.radius < 1:
                raise SpecError("the norm sequence needs a radius of at least 1", path="radius")
            reps = truncated_norm_sequence(f, sigma, args.radius, tol=args.tol, seed=args.seed, node_budget=nodes)
            values = [rep.to_json() for rep in reps]
            report = {"radius": args.radius, "sequence": values, "value": values[-1]["value"]}
            return _emit(report, f"norm lower bound at radius {args.radius}: {report['value']:.9g}")
        if args.which == "r2":
            rep = r2_estimate(f, sigma, args.nmax, budget=nodes)
            return _emit(rep.to_json(), f"r2 estimate: {rep.estimate:.9g} (exact={rep.exact})")
        if args.which == "domination":
            xi = _load_function(group, args.xi, "xi")
            rows = check_domination(f, xi, sigma, args.nmax, budget=nodes)
            report = {
                "rows": [
                    {
                        "n": r.n,
                        "twisted_sq": float(r.twisted_sq),
                        "plain_sq": float(r.plain_sq),
                        "ok": r.ok,
                        "exact": r.exact,
                    }
                    for r in rows
                ],
                "all_ok": all(r.ok for r in rows),
            }
            return _emit(report, f"domination holds for all n <= {args.nmax}: {report['all_ok']}")
        rep = stable_rank_evidence(
            group,
            sigma,
            f.support(),
            search_radius=args.search_radius,
            radius=args.radius,
            tol=max(args.tol, 1e-2),
            seed=args.seed,
            node_budget=nodes,
        )
        return _emit(rep, f"semifree translate found: {rep.get('semifree_translate_found')}")

    if args.cmd == "growth":
        if args.which == "orbit":
            basis = IrrationalBasis(_load_json_arg(args.basis, "basis")) if args.basis else None
            nu1 = phase_from_json(_load_json_arg(args.nu1, "nu1"), basis)
            nu2 = phase_from_json(_load_json_arg(args.nu2, "nu2"), basis) if args.nu2 else None
            start_raw = _load_json_arg(args.start, "start")
            start = (phase_from_json(start_raw[0], basis), phase_from_json(start_raw[1], basis))
            rep = torus_orbit_probe(nu1, nu2, start, args.points, which=args.map)
            return _emit(rep, f"discrepancy={rep['discrepancy']:.4g} finite={rep['finite_certified']}")
        group, sigma, _ = _build_pair(args)
        kappa = LengthFunction.parse(group, args.kappa)
        if args.which == "class":
            g = group.element_from_json(_load_json_arg(args.g, "g"))
            profile = class_growth_counts(g, kappa, args.kmax, args.radius, nodes)
            degrees = _load_json_arg(args.degrees, "degrees")
            report = profile.to_json()
            report["superpolynomial"] = {
                str(d): v for d, v in superpolynomial_probe(profile, degrees).items()
            }
            return _emit(report, f"shell counts: {report['counts']}")
        rep = kappa_decay_probe(
            group, sigma, kappa, args.M, args.trials, args.radius, seed=args.seed, node_budget=nodes
        )
        report = rep.to_json()
        summary = f"max ratio {rep.max_ratio:.4g}; violations: {len(rep.violations)}"
        return _emit(report, summary)

    raise SpecError(f"unknown command {args.cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
