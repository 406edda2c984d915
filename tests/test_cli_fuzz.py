"""Fuzz `cli.main` with argvs drawn from each command's own options.

Values mix valid group, cocycle, element and phase specs with junk.  Every
run must print exactly one JSON object on stdout, exit 0, 1 or 2 and let no
exception or traceback out.  Sizes stay small so that the whole test is fast.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import cli

R = {"rat": [0, 1], "irr": {"r": [1, 1]}}
PHASES = [[1, 5], 0, 3, R, [2, 7]]
BAD_PHASES = [[1, 0], {"irr": 3}, {"rat": "a"}, [1], "x", {"irr": {"s": [1, 1]}}]
TRIVIAL = {"kind": "trivial"}
# Each family: a group spec, cocycles on it and elements of it, the first two valid.
FAMILIES = [
    ({"family": "free", "rank": 2}, [TRIVIAL], ["a", "a B", "", "b b", "z"]),
    ({"family": "zn", "n": 2}, [TRIVIAL, {"kind": "antisym_theta", "theta": [1, 3]}], [[1, 0], [0, 2], [1]]),
    (
        {"family": "sum_z"},
        [
            {"kind": "theta_diag", "diagonals": [], "period": [R, [0, 1]]},
            {"kind": "theta_rule", "rule": "prime_reciprocal"},
            {"kind": "theta_window", "entries": [[0, 1, [1, 2]]]},
        ],
        [{"0": 1}, {"1": -1, "2": 1}, {"x": 1}, {"0": "x"}],
    ),
    ({"family": "sum_z2"}, [{"kind": "bitstream", "pre": [1], "period": [0, 1]}], [[0], [0, 3], ["x"]]),
    ({"family": "bs_nn", "n": 2}, [{"kind": "bs", "lambda": R}, {"kind": "bs", "lambda": [1, 3]}], ["a", "b b", "a c"]),
    (
        {"family": "sanov"},
        [{"kind": "sanov", "mu0": R, "mu1": [1, 3], "mu2": [1, 5]}],
        [{"v": [1, 0], "w": ""}, {"v": [0, 1], "w": "a"}, {"v": [1], "w": "a"}],
    ),
    (
        {"family": "free_times_z"},
        [{"kind": "f2xz", "mu": R, "nu": [1, 3]}],
        [{"w": "a", "k": 1}, {"w": "b", "k": -1}, {"w": "", "k": "x"}],
    ),
    ({"family": "wreath", "base": "Z"}, [TRIVIAL], [{"x": {"0": 1}, "k": 0}, {"x": {}, "k": 1}, {"x": [1], "k": 0}]),
    (
        {"family": "zn_semidirect", "A": [[2, 1], [1, 1]]},
        [TRIVIAL],
        [{"v": [1, 0], "k": 0}, {"v": [0, 1], "k": 1}, {"v": [1], "k": 1}],
    ),
    ({"family": "free", "rank": 0}, [TRIVIAL], ["a", "b"]),
    ({"family": "zn_semidirect", "A": [[1]]}, [TRIVIAL], [{"v": [1], "k": 0}, {"v": [0], "k": 1}]),
]
COCYCLE_JUNK = [{"kind": "nope"}, {"kind": "theta_window", "entries": [[1, 2]]}, {"kind": "bs", "lambda": {"irr": 3}}]

junk = st.one_of(
    st.integers(-3, 3),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 2), st.lists(st.integers(-2, 2), max_size=2)), max_size=3),
    st.just(None),
    st.just({}),
)


def mostly(valid, other):
    """Draw from `valid` nine times in ten, else from `other`."""
    return st.sampled_from([False] * 9 + [True]).flatmap(lambda odd: other if odd else valid)


junk_text = junk.map(json.dumps) | st.just("{")
phases = mostly(st.sampled_from(PHASES), st.sampled_from(BAD_PHASES))


def json_text(choices):
    """JSON text of a listed spec; now and then junk or text that is not JSON."""
    return mostly(st.sampled_from(choices).map(json.dumps), junk_text)


def number(lo, hi):
    return mostly(st.integers(lo, hi).map(str), st.just("x"))


# Coefficient files: per family `family<i>` over its valid elements, and
# `family<i>_text`, `family<i>_inf` with a bad coefficient; then the files below.
BAD_COEFFICIENT_FILES = {"no_g": [{"re": 1.0}], "not_list": {"g": 1}}

VALUES = {
    "basis": mostly(st.just('{"r":0.38}'), json_text([{"r": "x"}, {"s": 0.5}, {"r": 2}])),
    "radius": number(-1, 2),
    "nodes": number(-5, 2000),
    "seed": number(0, 3),
    "tol": st.sampled_from(["1e-8", "1e-2", "0.5", "0", "-1", "x"]),
    "subgroup": st.sampled_from(["center", "base", "full", "nope"]),
    "nmax": number(-1, 3),
    "search-radius": number(-1, 2),
    "kmax": number(-1, 3),
    "kappa": st.sampled_from(["1", "1+L", "(1+L)^2", "(1+L)^(3/2)", "(1+L)^-1", "(1+L)^1000", "(1+L)^x", "L"]),
    "degrees": mostly(st.lists(st.integers(-1, 3), max_size=3).map(json.dumps), json_text([["x"], 3, [1.5]])),
    "M": st.sampled_from(["10", "0", "-1", "1e300", "nan", "x"]),
    "trials": number(-1, 3),
    "nu1": mostly(phases.map(json.dumps), junk_text),
    "nu2": mostly(phases.map(json.dumps), junk_text),
    "start": mostly(st.lists(phases, min_size=2, max_size=2).map(json.dumps), json_text(PHASES)),
    "points": number(-1, 50),
    "map": st.sampled_from(["phi1", "phi2", "both", "phi3"]),
    "corrupt": st.sampled_from(["", "d_bs_third_kleppner", "nope"]),
}


# Options whose defaults are too large for a fast test are always drawn.
SIZES = {"radius", "nodes", "nmax", "search-radius", "kmax", "trials", "points"}


def _always(option) -> bool:
    name, overrides = (option, {}) if isinstance(option, str) else option
    return name in SIZES or {**cli.OPTIONS[name], **overrides}.get("required", False)


def family_values(index):
    """Values of the options that name a group, a cocycle, elements of the group or a coefficient file."""
    group, cocycles, elements = FAMILIES[index]
    files = st.sampled_from([f"family{index}_text", f"family{index}_inf", *BAD_COEFFICIENT_FILES, "missing"])
    return {
        "group": json_text([group]),
        "cocycle": mostly(json_text(cocycles), st.sampled_from(COCYCLE_JUNK).map(json.dumps)),
        "f": mostly(st.just(f"family{index}"), files),
        "xi": mostly(st.just(f"family{index}"), files),
        "g": json_text(elements),
        "k": json_text(elements),
        "candidates": mostly(st.lists(st.sampled_from(elements), max_size=2).map(json.dumps), json_text(elements)),
    }


@st.composite
def argvs(draw, command):
    argv = command.split()
    values = {**VALUES, **family_values(draw(st.integers(0, len(FAMILIES) - 1)))}
    for option in cli.COMMANDS[command]:
        name = option if isinstance(option, str) else option[0]
        if _always(option) or draw(st.booleans()):
            argv += ["--" + name, draw(values[name])]
    return argv


@pytest.fixture(scope="module")
def coefficient_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("coefficients")
    files = dict(BAD_COEFFICIENT_FILES)
    for i, (_, _, elements) in enumerate(FAMILIES):
        files[f"family{i}"] = [{"g": g, "re": 1.0} for g in elements[:2]]
        files[f"family{i}_text"] = [{"g": elements[0], "re": "x"}]
        files[f"family{i}_inf"] = [{"g": elements[0], "im": float("inf")}]
    for name, rows in files.items():
        (path / name).write_text(json.dumps(rows))
    return path


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_argv_gives_one_json_object(command, data, coefficient_dir):
    argv = data.draw(argvs(command))
    argv = [str(coefficient_dir / a) if prev in ("--f", "--xi") else a for prev, a in zip(["", *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
    assert "Traceback" not in err.getvalue()
