"""Seeded scenario streams for the three benchmark workloads.

A workload fixes the shape of its scenario list: which subcommands run, at
which horizons, window sides and group orders, and in what proportion.  The
seed picks everything that does not change the amount of work: model
coefficients, matrices, group elements, cocycle parameters and the order of
the list.  Two seeds therefore cost about the same, which keeps run-to-run
spread small, while the program still never sees the same inputs twice.

Every scenario carries the outcome that follows analytically from its
generation parameters (exit code, verdicts, ``pass`` flags, CSV row counts);
``oracle.check_report`` compares reports against it.  Every scenario stays
inside the program's caps (dimension cap, grid cap, scan horizon), so no
scenario is expected to fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify-long", "dense-reps", "box-grid")


@dataclass
class Scenario:
    sid: str
    command: str
    doc: dict
    exit_code: int = 0
    # (path, value) pairs that must hold in the JSON result; a path is a tuple
    # of dict keys and list indices below "result".
    expect: list = field(default_factory=list)
    # CSV reports: the number of data rows the series must have.
    rows: int | None = None
    # JSON reports: result fields that must be <= the scenario tolerance.
    residuals: tuple = ()
    # select reports: the number of accepted steps.
    select_count: int | None = None


def _doc(command: str, params: dict, seed: int, n_max: int | None = None,
         fmt: str = "json", series: str | None = None) -> dict:
    doc = {"schema": 1, "command": command, "seed": seed, "params": params}
    if n_max is not None:
        doc["horizons"] = {"n_max": n_max}
    if fmt != "json":
        doc["output"] = {"format": fmt}
        if series is not None:
            doc["output"]["series"] = series
    return doc


def _num(x: float) -> str:
    """Six significant digits: short descriptors that parse back exactly."""
    return format(x, ".6g")


def _vector(rng: random.Random, rank: int, bound: int) -> str:
    while True:
        x = [rng.randint(-bound, bound) for _ in range(rank)]
        if any(x):
            return ",".join(str(c) for c in x)


def _matrix(rows: list[list[float]]) -> str:
    return ";".join(",".join(_num(v) for v in row) for row in rows)


def _unit_matrix(rng: random.Random, rank: int, scale: float) -> str:
    """Random rank x rank matrix whose largest entry has modulus ``scale``."""
    m = [[rng.uniform(-1.0, 1.0) for _ in range(rank)] for _ in range(rank)]
    top = max(abs(v) for row in m for v in row)
    return _matrix([[scale * v / top for v in row] for row in m])


# Base member matrices for select.  The scan length depends sharply on the
# matrix, so the seed only applies maps that leave every box sup distance
# unchanged: a coordinate permutation y, x -> Py, Px, sign flips of x (the
# sup-norm balls are symmetric) and an overall sign.
_SELECT_BASE = {2: [[0.3, 1.0], [-1.0, 0.2]],
                3: [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]]}


def _select_matrix(rng: random.Random, rank: int) -> str:
    base = _SELECT_BASE[rank]
    perm = list(range(rank))
    rng.shuffle(perm)
    flips = [rng.choice((-1.0, 1.0)) for _ in range(rank)]
    sign = rng.choice((-1.0, 1.0))
    return _matrix([[sign * flips[j] * base[perm[i]][perm[j]] for j in range(rank)]
                    for i in range(rank)])


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


# ---------------------------------------------------------------------------
# certify-long: series engine, scalar diagnostics, actions, CLI rendering
# ---------------------------------------------------------------------------

_PROP42_CERTIFIED = [(("clauses", 0, "holds"), "Certified"),
                     (("clauses", 1, "holds"), "Certified"),
                     (("clauses", 2, "holds"), "Certified"),
                     (("tensor_exists",), "Certified")]


def _certify_long(rng: random.Random, tiny: bool) -> list[Scenario]:
    long_n = 1_000 if tiny else 60_000
    mid_n = 300 if tiny else 20_000
    act_n = 200 if tiny else 10_000
    out: list[Scenario] = []

    def sides() -> tuple[str, float]:
        p = rng.uniform(1.5, 2.5)
        return f"power:c={_num(rng.uniform(1.0, 3.0))},p={_num(p)}", p

    def geometric_norms(stratum: int) -> str:
        # r in [0.99, 0.99999], one decade of 1 - r per stratum, so the
        # poly-geometric tail walks to turning indices of every size.
        r = 1.0 - 10.0 ** -(2 + stratum + rng.uniform(0.25, 0.75))
        return f"geometric:c={_num(rng.uniform(0.5, 3.5))},r={_num(r)}"

    # prop42 without x at the long horizon: geometric, summable-power and
    # non-summable-power norm models.
    for stratum in range(3):
        side, _ = sides()
        fmt = "csv" if stratum == 0 else "json"
        out.append(Scenario(
            f"prop42-geometric-{stratum}", "prop42",
            _doc("prop42", {"sides": side, "norms": geometric_norms(stratum)},
                 rng.randrange(1 << 30), long_n, fmt, "weighted"),
            expect=[] if fmt == "csv" else list(_PROP42_CERTIFIED),
            rows=long_n if fmt == "csv" else None))
    side, p = sides()
    e = -(p + rng.uniform(2.2, 3.0))
    out.append(Scenario(
        "prop42-power", "prop42",
        _doc("prop42", {"sides": side,
                        "norms": f"power:c={_num(rng.uniform(0.5, 3.0))},p={_num(e)}"},
             rng.randrange(1 << 30), long_n),
        expect=list(_PROP42_CERTIFIED)))
    side, _ = sides()
    e = rng.uniform(-0.9, -0.5)
    out.append(Scenario(
        "prop42-divergent", "prop42",
        _doc("prop42", {"sides": side,
                        "norms": f"power:c={_num(rng.uniform(0.5, 3.0))},p={_num(e)}"},
             rng.randrange(1 << 30), long_n),
        expect=[(("clauses", 0, "holds"), "Certified"),
                (("clauses", 1, "holds"), "Certified"),
                (("clauses", 2, "holds"), "Refuted"),
                (("clauses", 3, "series", "verdict"), "ProvedDivergent"),
                (("tensor_exists",), "Undetermined")]))

    # prop42 with x: the CLI recomputes box defects and twist majorants.
    for k, (fmt, rank) in enumerate((("json", 2), ("json", 3), ("csv", 2))):
        side, _ = sides()
        x = _vector(rng, rank, 2)
        out.append(Scenario(
            f"prop42-x-{k}", "prop42",
            _doc("prop42", {"sides": side, "norms": geometric_norms(k), "x": x},
                 rng.randrange(1 << 30), mid_n, fmt, "translation"),
            expect=[] if fmt == "csv" else list(_PROP42_CERTIFIED) + [
                (("translation", "verdict"), "ProvedConvergent")],
            rows=mid_n if fmt == "csv" else None))

    # dirichlet windows: p_w > 1 and p_w + q < -1 settle both series.
    for k, fmt in enumerate(("json", "csv")):
        pw = rng.uniform(1.2, 2.0)
        q = -(pw + rng.uniform(2.0, 3.0))
        params = {"windows": f"power:c={_num(rng.uniform(1.0, 2.0))},p={_num(pw)}",
                  "angles": f"power:c={_num(_signed(rng, 0.5, 3.0))},p={_num(q)}"}
        out.append(Scenario(
            f"dirichlet-{k}", "dirichlet",
            _doc("dirichlet", params, rng.randrange(1 << 30), mid_n, fmt, "deviation"),
            expect=[] if fmt == "csv" else [
                (("conclusion",), "ProvedConvergent"),
                (("inverse_window", "verdict"), "ProvedConvergent"),
                (("deviation", "verdict"), "ProvedConvergent")],
            rows=mid_n if fmt == "csv" else None))

    # scalar products and inner products; |theta| is a certified majorant.
    for kind in ("product", "inner"):
        for k, (family, fmt) in enumerate((("power", "json"), ("geometric", "json"),
                                           ("power", "csv"), ("slow", "json"))):
            if kind == "inner" and family == "slow":
                continue
            c = _num(_signed(rng, 0.2, 2.0))
            if family == "geometric":
                angles = f"geometric:c={c},r={_num(rng.uniform(0.5, 0.95))}"
            elif family == "slow":
                angles = f"power:c={c},p={_num(rng.uniform(-0.9, -0.6))}"
            else:
                angles = f"power:c={c},p={_num(rng.uniform(-3.0, -1.5))}"
            verdict = "Inconclusive" if family == "slow" else "ProvedConvergent"
            out.append(Scenario(
                f"converge-{kind}-{k}", "converge",
                _doc("converge", {"kind": kind, "angles": angles},
                     rng.randrange(1 << 30), mid_n, fmt, "terms"),
                expect=[] if fmt == "csv" else [(("series", "verdict"), verdict)],
                rows=mid_n if fmt == "csv" else None))

    # actions: Pauli traces vanish off the identity, and so does the regular
    # trace, so every non-identity element has deficit 1 (outer).
    pauli = ["1,0", "0,1", "1,1"]
    rng.shuffle(pauli)
    out.append(Scenario(
        "action-pauli", "action",
        _doc("action", {"elements": pauli, "source": {"rep_trace": {"name": "pauli"}}},
             rng.randrange(1 << 30), act_n),
        expect=[(("status",), "OuterCertified")]))
    for k, (fmt, rank) in enumerate((("json", 3), ("csv", 2))):
        elements = [_vector(rng, rank, 3) for _ in range(2)]
        out.append(Scenario(
            f"action-regular-{k}", "action",
            _doc("action", {"elements": elements,
                            "source": {"regular_trace": {"group": f"Z^{rank}"}}},
                 rng.randrange(1 << 30), mid_n, fmt),
            expect=[] if fmt == "csv" else [(("status",), "OuterCertified")],
            rows=mid_n if fmt == "csv" else None))
    rank = 2
    out.append(Scenario(
        "action-identity", "action",
        _doc("action", {"elements": [",".join("0" * rank)],
                        "source": {"regular_trace": {"group": f"Z^{rank}"}}},
             rng.randrange(1 << 30), mid_n),
        expect=[(("status",), "InnerCertified")]))
    return out


# ---------------------------------------------------------------------------
# dense-reps: dense representation matrices filled by cocycle values
# ---------------------------------------------------------------------------

def _finite_cocycle(rng: random.Random, group: str, form: str) -> dict:
    """A constructed cocycle on a finite group.

    The form is fixed by the caller, since it sets how many ``value`` calls a
    matrix entry costs; the seed only picks the phases.
    """
    def coboundary() -> dict:
        return {"coboundary": {"epsilon": _num(rng.uniform(0.05, 1.5)), "group": group}}

    if form == "coboundary":
        return coboundary()
    if form == "perturb":
        return {"perturb": {"base": {"trivial": group},
                            "epsilon": _num(rng.uniform(0.05, 1.5))}}
    return {"product": [coboundary(), coboundary()]}


def _bilinear_table(rng: random.Random, k: int, a_rank: int, b_rank: int) -> dict:
    """phases(a, b) = 2 pi (a^T M b mod k) / k: a bilinear map on Z_k^p x Z_k^q."""
    from itertools import product as cartesian
    m = [[rng.randrange(k) for _ in range(b_rank)] for _ in range(a_rank)]
    a_els = list(cartesian(range(k), repeat=a_rank))
    b_els = list(cartesian(range(k), repeat=b_rank))
    phases = [[2.0 * math.pi * (sum(a[i] * m[i][j] * b[j] for i in range(a_rank)
                                     for j in range(b_rank)) % k) / k
               for b in b_els] for a in a_els]
    return {"table": {"a_moduli": [k] * a_rank, "b_moduli": [k] * b_rank,
                      "phases": phases}}


def _dense_reps(rng: random.Random, tiny: bool) -> list[Scenario]:
    out: list[Scenario] = []
    tol_residuals = ("relation_residual", "bilinearity_residual")

    # Sides 6 and 7 with the finite tables form the middle of the latency
    # distribution, so its median falls inside a cluster of similar scenarios.
    for k, side in enumerate((3, 4) if tiny else (6, 7, 10, 13, 14)):
        a_rank = 1 + k % 2
        d = [[rng.uniform(-1.0, 1.0) * math.pi / 2 for _ in range(2)]
             for _ in range(a_rank)]
        out.append(Scenario(
            f"ccr-window-{side}", "ccr",
            _doc("ccr", {"sigma": {"matrix": _matrix(d)}, "window": {"side": side}},
                 rng.randrange(1 << 30)),
            expect=[(("pass",), True), (("truncated",), True),
                    (("dimension",), (side + 1) ** 2)],
            residuals=tol_residuals))
    for k, a_rank, b_rank in ((2, 1, 1), (4, 1, 1)) if tiny else ((4, 2, 2), (3, 1, 2)):
        out.append(Scenario(
            f"ccr-table-{k}", "ccr",
            _doc("ccr", {"sigma": _bilinear_table(rng, k, a_rank, b_rank)},
                 rng.randrange(1 << 30)),
            expect=[(("pass",), True), (("truncated",), False),
                    (("dimension",), k ** b_rank)],
            residuals=tol_residuals + ("projective_residual",)))

    fells = ([("Z2xZ2", 4, "coboundary", "perturb"), ("Z4", 4, "product", "coboundary")]
             if tiny else
             [("Z4xZ4", 16, "coboundary", "perturb"), ("Z2xZ8", 16, "product", "coboundary"),
              ("Z3xZ5", 15, "perturb", "coboundary")])
    for group, order, u_form, v_form in fells:
        params = {"u": _finite_cocycle(rng, group, u_form),
                  "rep": {"regular": {"cocycle": _finite_cocycle(rng, group, v_form),
                                      "group": group}}}
        out.append(Scenario(
            f"fell-{group}", "fell", _doc("fell", params, rng.randrange(1 << 30)),
            expect=[(("pass",), True), (("group_order",), order),
                    (("rep_dimension",), order)],
            residuals=("max_residual", "max_spectral_distance",
                       "intertwiner_unitarity")))
    out.append(Scenario(
        "fell-pauli", "fell",
        _doc("fell", {"u": {"perturb": {"base": {"name": "pauli"},
                                        "epsilon": _num(rng.uniform(0.05, 1.5))}},
                      "rep": {"name": "pauli"}}, rng.randrange(1 << 30)),
        expect=[(("pass",), True), (("rep_dimension",), 2)],
        residuals=("max_residual", "max_spectral_distance")))

    tensors = ([("Z2xZ2", 1), ("Z2xZ2", 2)] if tiny else [("Z8xZ8", 1), ("Z2xZ4", 2)])
    for group, count in tensors:
        order = math.prod(int(p[1:]) for p in group.split("x"))
        factors = [{"regular": {"cocycle": _finite_cocycle(rng, group, "coboundary"),
                                "group": group}}
                   for _ in range(count)]
        out.append(Scenario(
            f"tensor-{group}-{count}", "tensor",
            _doc("tensor", {"factors": factors}, rng.randrange(1 << 30)),
            expect=[(("pass",), True), (("dimension",), order ** count)],
            residuals=("relation_residual",)))
    count = rng.randint(2, 6)
    out.append(Scenario(
        "tensor-pauli", "tensor",
        _doc("tensor", {"factors": [{"name": "pauli"}] * count}, rng.randrange(1 << 30)),
        expect=[(("pass",), True), (("dimension",), 2 ** count)],
        residuals=("relation_residual",)))

    lattice = {"matrix": _unit_matrix(rng, 3, rng.uniform(0.5, 3.0))}
    cocycles = [
        lattice,
        {"perturb": {"base": lattice, "epsilon": _num(rng.uniform(0.05, 1.5))}},
        _finite_cocycle(rng, "Z4xZ4", "product"),
    ]
    for k, cocycle in enumerate(cocycles):
        out.append(Scenario(
            f"check-cocycle-{k}", "check-cocycle",
            _doc("check-cocycle", {"cocycle": cocycle,
                                   "samples": {"count": 100 if tiny else 400,
                                               "bound": 5}},
                 rng.randrange(1 << 30)),
            expect=[(("pass",), True)],
            residuals=("cocycle_residual", "normalization_residual")))

    # obstruction: the commutator of u_A is exp(i (A - A^T)); an antisymmetric
    # A with a nonzero entry in (-pi/2, pi/2) is never a coboundary, a
    # symmetric A always is, and two different antisymmetric parts drift.
    def antisymmetric(lo: float, hi: float) -> str:
        a = _signed(rng, lo, hi)
        return _matrix([[0.0, a], [-a, 0.0]])

    s = rng.uniform(-1.5, 1.5)
    obstructions = [
        ("antisymmetric", {"u": {"matrix": antisymmetric(0.3, 1.4)}}, "Obstructed"),
        ("symmetric", {"u": {"matrix": _matrix([[rng.uniform(-1, 1), s],
                                                 [s, rng.uniform(-1, 1)]])}},
         "NotObstructed"),
        ("pauli-family", {"u": [{"perturb": {"base": {"name": "pauli"},
                                             "epsilon": _num(rng.uniform(0.05, 1.5))}}
                                for _ in range(rng.randint(4, 8))],
                          "v": {"name": "pauli"}}, "Obstructed"),
        ("drift", {"u": [{"matrix": antisymmetric(0.2, 0.6)},
                         {"matrix": antisymmetric(0.8, 1.4)}]}, "Inconclusive"),
    ]
    for name, params, status in obstructions:
        out.append(Scenario(
            f"obstruction-{name}", "obstruction",
            _doc("obstruction", params, rng.randrange(1 << 30)),
            expect=[(("status",), status)]))
    return out


# ---------------------------------------------------------------------------
# box-grid: the two dense box kernels
# ---------------------------------------------------------------------------

def _box_grid(rng: random.Random, tiny: bool) -> list[Scenario]:
    out: list[Scenario] = []

    def boxes(sid: str, rank: int, sides: str, n: int, family: str,
              conclusion: str, max_ratio: float = 0.8) -> None:
        matrix = _unit_matrix(rng, rank, rng.uniform(0.5, 3.0))
        if family == "geometric":
            matrices = {"family": "geometric", "matrix": matrix,
                        "ratio": _num(rng.uniform(0.3, max_ratio))}
        else:
            matrices = {"family": "power", "matrix": matrix,
                        "exponent": _num(rng.uniform(-5.0, -3.5))}
        expect = [(("conclusion",), conclusion),
                  (("twist", "verdict"), "ProvedConvergent"),
                  (("translation", "verdict"), conclusion)]
        out.append(Scenario(
            sid, "converge",
            _doc("converge", {"kind": "boxes", "x": _vector(rng, rank, 2),
                              "matrices": matrices, "sides": sides},
                 rng.randrange(1 << 30), n),
            expect=expect))

    # Horizons sit just under the 4M-point grid cap: sides i^2 on rank 2
    # reach 1937^2 points at i = 44, sides ceil(i^1.5) on rank 3 reach 158^3
    # at i = 29, and sides ceil(1.3^i) on rank 2 reach 1546^2 at i = 28; one
    # index more crosses the cap in each case.
    big = not tiny
    for k, n in enumerate((44, 44, 40, 36) if big else (8, 6)):
        boxes(f"boxes-r2-power-{k}", 2, "power:c=1,p=2", n,
              ("geometric", "power")[k % 2], "ProvedConvergent")
    for k, n in enumerate((28, 27) if big else (8,)):
        boxes(f"boxes-r2-geometric-{k}", 2, "geometric:c=1,r=1.3", n,
              "geometric", "ProvedConvergent", max_ratio=0.7)
    for k, n in enumerate((29, 27) if big else (5,)):
        boxes(f"boxes-r3-power-{k}", 3, "power:c=1,p=1.5", n,
              "geometric", "ProvedConvergent")
    for k, n in enumerate((60, 50) if big else (6,)):
        boxes(f"boxes-r3-divergent-{k}", 3, "power:c=2,p=1", n,
              "geometric", "ProvedDivergent")

    shapes = ([(3, 0.5, 2), (4, 0.7, 2)] if tiny else
              [(4, 0.5, 2), (6, 0.8, 2), (8, 0.9, 2), (10, 0.95, 2), (6, 0.8, 3),
               (5, 0.75, 3)])
    for count, ratio, rank in shapes:
        out.append(Scenario(
            f"select-{count}-r{rank}", "select",
            _doc("select", {"count": count,
                            "members": {"matrix": _select_matrix(rng, rank),
                                        "ratio": _num(ratio)},
                            "sides": "power:c=1,p=1"},
                 rng.randrange(1 << 30)),
            select_count=count))
    return out


_GENERATORS = {"certify-long": _certify_long, "dense-reps": _dense_reps,
               "box-grid": _box_grid}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Scenario]:
    """The workload's scenario list for ``seed``, in the order it is issued."""
    rng = random.Random(f"{workload}:{seed}")
    scenarios = _GENERATORS[workload](rng, tiny)
    rng.shuffle(scenarios)
    return scenarios
