"""Write `norm_refs.json`: reference operator norms for the `spectral norm` jobs.

    python3 perfbench/make_norm_refs.py

For each radius of each job, the truncated operator is built with
`twistlab.spectral.build_truncated` and its norm is taken as the square root
of the largest eigenvalue of M*M from `scipy.sparse.linalg.eigsh` (dense
`numpy.linalg.eigvalsh` for matrices under 64 rows).  The power iteration
the CLI uses must never report more than this value beyond rounding.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def largest_singular_value(matrix) -> float:
    import numpy as np
    from scipy.sparse.linalg import eigsh

    normal = (matrix.getH() @ matrix).tocsr()
    if normal.shape[0] < 64:
        return math.sqrt(max(float(np.linalg.eigvalsh(normal.toarray())[-1]), 0.0))
    top = eigsh(normal, k=1, which="LA", tol=1e-14, return_eigenvectors=False)
    return math.sqrt(float(top[0]))


def main() -> int:
    from twistlab.cocycles import build_cocycle
    from twistlab.groups import get_group
    from twistlab.phase import IrrationalBasis
    from twistlab.spectral import FiniteFunction, build_truncated

    import jobs

    out = {}
    for job in jobs.NUMERIC_COLD:
        if job["check"] != "norm":
            continue
        argv = job["argv"]
        opt = {argv[i]: argv[i + 1] for i in range(2, len(argv), 2)}
        G = get_group(json.loads(opt["--group"]))
        basis = IrrationalBasis(json.loads(opt["--basis"])) if "--basis" in opt else None
        sigma = build_cocycle(json.loads(opt["--cocycle"]), G, basis)
        f = FiniteFunction(G, {G.element_from_json(row["g"]): row["re"] for row in jobs.COEFFS[job["coeffs"]]})
        values = [
            largest_singular_value(build_truncated(f, sigma, r).matrix) for r in range(1, int(opt["--radius"]) + 1)
        ]
        out[job["id"]] = {
            "source": "sqrt of the top eigenvalue of M*M (scipy.sparse.linalg.eigsh), M from build_truncated",
            "values": values,
        }
        print(job["id"], values[-1])
    (HERE / "norm_refs.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
