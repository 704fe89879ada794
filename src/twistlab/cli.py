"""Command line front end.

Every subcommand consumes one scenario (a JSON object, either from a file via
--scenario or assembled from inline flags), runs it through the library, and
emits one report.  Reports are deterministic byte for byte: keys are sorted,
floats are printed with repr-faithful 17 significant digits, complex numbers
become {"im": ..., "re": ...} objects, and non-finite floats become the
strings "inf", "-inf", "nan" (JSON has no literals for them).

Report shape (JSON): {"command": ..., "result": ..., "scenario": ..., "schema": 1}
where "scenario" is the resolved input with defaults filled in, so a report
file itself is accepted by --scenario and reproduces the same bytes.

CSV output (output.format = "csv") renders exactly one term series as
index,term,partial_sum,bound rows; the resolved scenario rides along in a
leading "# scenario=..." comment line.

Exit codes: 0 success, 2 for invalid input (bad JSON, schema violations, cap
or domain errors), 1 for honest runtime failures such as an exhausted greedy
selection scan.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from itertools import islice, product
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from .actions import (
    cohomological_obstruction,
    deficit_terms,
    inner_outer_verdict,
    regular_trace_scenario,
    rep_trace_scenario,
    scenario_from_values,
)
from .cocycles import (
    CoboundaryCocycle,
    Cocycle,
    ConstructionError,
    MatrixBilinear,
    MatrixCocycle,
    ProductCocycle,
    TableBilinear,
    UnsupportedVariantError,
    bilinearity_residual,
    check_cocycle_identity,
    geometric_matrix_sequence,
    lift_bilinear,
    pauli_cocycle,
    pauli_sigma,
    perturb,
    quadratic_phase,
    sample_triples,
    sign_cocycle_z2,
    trivial_cocycle,
)
from .convergence import (
    DEFAULT_BOX_HORIZON,
    DEFAULT_GRID_CAP,
    DEFAULT_SCALAR_HORIZON,
    DEFAULT_SCAN_HORIZON,
    SelectionError,
    box_defect,
    ceil_schedule,
    dirichlet_condition,
    dirichlet_value,
    geometric_matrix_family,
    inner_product_series,
    lattice_tensor_criteria,
    power_matrix_family,
    product_diagnose,
    select_product_subsequence,
    twisted_rep_series,
)
# perfbench/tracer.py wraps this name where the handlers would look it up.
from .convergence import translation_series  # noqa: F401
from .groups import (
    FiniteAbelianGroup,
    FolnerBox,
    Group,
    GroupMismatchError,
    IntegerLattice,
    SupNormExhaustion,
    l1_norm,
    sample_elements,
)
from .reps import (
    DimensionCapError,
    ProjectiveRep,
    ccr_pair,
    ccr_to_projective,
    fell_absorption_check,
    pauli_rep,
    projective_relation_check,
    regular_rep,
    tensor_rep,
)
from .series import (
    MAJORANT,
    ExplicitModel,
    GeometricModel,
    InvalidInnerProductError,
    PowerModel,
    TailModel,
    horizon,
    model_bounds,
    running_sums,
)

SCHEMA_VERSION = 1
HEAD_LENGTH = 50

DEFAULT_TOL = 1e-9
DEFAULT_SAMPLE_COUNT = 200
DEFAULT_SAMPLE_BOUND = 5


class CliError(Exception):
    """Carries the exit code together with a message for stderr."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _schema_error(message: str) -> CliError:
    return CliError(2, f"schema violation: {message}")


# ---------------------------------------------------------------------------
# deterministic emitters
# ---------------------------------------------------------------------------


def _float_repr(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(float(v), ".17g")


def render_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed float formatting.

    The point is byte stability: the same resolved scenario always renders to
    the same text, independent of dict construction order.
    """
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
        return
    if isinstance(obj, bool):
        parts.append("true" if obj else "false")
        return
    if isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
        return
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            parts.append('"' + _float_repr(v) + '"')
        else:
            parts.append(_float_repr(v))
        return
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        _emit({"im": z.imag, "re": z.real}, parts)
        return
    if isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
        return
    if isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
        return
    if isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("report object keys must be strings")
            if k:
                parts.append(",")
            parts.append(json.dumps(key, ensure_ascii=True))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
        return
    if isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, val in enumerate(obj):
            if k:
                parts.append(",")
            _emit(val, parts)
        parts.append("]")
        return
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def render_csv(scenario: dict, terms: Sequence[float],
               bounds: Optional[Sequence[Optional[float]]]) -> str:
    lines = ["# scenario=" + render_json(scenario), "index,term,partial_sum,bound"]
    sums = running_sums([float(t) for t in terms])
    for i, (t, s) in enumerate(zip(terms, sums), 1):
        b = bounds[i - 1] if bounds is not None else None
        tail = "" if b is None else _float_repr(float(b))
        lines.append(f"{i},{_float_repr(float(t))},{_float_repr(float(s))},{tail}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# field parsers
# ---------------------------------------------------------------------------


def _check_keys(obj: Any, ctx: str, required: Sequence[str] = (),
                optional: Sequence[str] = ()) -> dict:
    if not isinstance(obj, dict):
        raise _schema_error(f"{ctx} must be an object")
    allowed = set(required) | set(optional)
    unknown = sorted(k for k in obj if k not in allowed)
    if unknown:
        raise _schema_error(f"unknown field(s) {unknown} in {ctx}")
    missing = sorted(k for k in required if k not in obj)
    if missing:
        raise _schema_error(f"missing field(s) {missing} in {ctx}")
    return obj


def _as_int(value: Any, ctx: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _schema_error(f"{ctx} must be an integer")
    try:
        n = int(value)
    except ValueError:
        raise _schema_error(f"{ctx} must be an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise _schema_error(f"{ctx} must be >= {minimum}, got {n}")
    return n


def _nonempty_list(value: Any, ctx: str) -> Sequence:
    if not isinstance(value, (list, tuple)) or not value:
        raise _schema_error(f"{ctx} must be a nonempty list")
    return value


def _one_key(value: Any, ctx: str, forms: str) -> tuple[str, Any]:
    """The single (form, body) pair of a descriptor object."""
    if not isinstance(value, dict) or len(value) != 1:
        raise _schema_error(f"{ctx} must be an object with exactly one of: {forms}")
    return next(iter(value.items()))


_PI_PATTERN = re.compile(
    r"^([+-]?)(?:(\d+(?:\.\d*)?|\.\d+)\*?)?pi(?:/(\d+(?:\.\d*)?|\.\d+))?$",
    re.IGNORECASE)


def parse_scalar(value: Any, ctx: str) -> float:
    """A float, or a string such as "0.5", "pi", "-pi/4", "2pi/3"."""
    if isinstance(value, bool):
        raise _schema_error(f"{ctx} must be a number")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise _schema_error(f"{ctx} must be a number or numeric string")
    text = value.strip().replace(" ", "")
    m = _PI_PATTERN.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise _schema_error(f"{ctx} divides by zero")
        return sign * num * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise _schema_error(f"{ctx}: cannot parse scalar {value!r}") from None


def parse_complex(value: Any, ctx: str) -> complex:
    if isinstance(value, dict):
        _check_keys(value, ctx, optional=("im", "re"))
        if not value:
            raise _schema_error(f"{ctx} must carry re and/or im")
        return complex(parse_scalar(value.get("re", 0.0), f"{ctx}.re"),
                       parse_scalar(value.get("im", 0.0), f"{ctx}.im"))
    return complex(parse_scalar(value, ctx), 0.0)


def parse_int_list(value: Any, ctx: str) -> tuple[int, ...]:
    if isinstance(value, str):
        items: Sequence[Any] = [p.strip() for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        raise _schema_error(f"{ctx} must be a list of integers")
    if not items:
        raise _schema_error(f"{ctx} must not be empty")
    return tuple(_as_int(v, f"{ctx}[{k}]") for k, v in enumerate(items))


_LATTICE_PATTERN = re.compile(r"^Z\^(\d+)$")
_FINITE_PATTERN = re.compile(r"^Z\d+(?:xZ\d+)*$")


def parse_group(value: Any, ctx: str) -> Group:
    if not isinstance(value, str):
        raise _schema_error(f"{ctx} must be a group string such as 'Z^2' or 'Z2xZ2'")
    text = value.strip()
    m = _LATTICE_PATTERN.match(text)
    if m:
        rank = int(m.group(1))
        if rank < 1:
            raise _schema_error(f"{ctx}: lattice rank must be >= 1")
        return IntegerLattice(rank)
    if _FINITE_PATTERN.match(text):
        moduli = tuple(int(part[1:]) for part in text.split("x"))
        if any(k < 1 for k in moduli):
            raise _schema_error(f"{ctx}: moduli must be >= 1")
        return FiniteAbelianGroup(moduli)
    raise _schema_error(f"{ctx}: cannot parse group {value!r} "
                        "(expected 'Z^N' or 'Z2xZ3x...')")


def group_label(group: Group) -> str:
    if isinstance(group, IntegerLattice):
        return f"Z^{group.rank}"
    return "x".join(f"Z{k}" for k in group.moduli)


def parse_matrix(value: Any, ctx: str) -> np.ndarray:
    if isinstance(value, str):
        rows: Sequence[Any] = [[e for e in row.split(",")] for row in value.split(";")]
    elif isinstance(value, (list, tuple)) and value and all(
            isinstance(r, (list, tuple)) for r in value):
        rows = value
    elif isinstance(value, (list, tuple)) and value:
        rows = [value]
    else:
        raise _schema_error(f"{ctx} must be a matrix (nested lists or 'a,b;c,d')")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise _schema_error(f"{ctx}: matrix rows must be nonempty and equal length")
    data = [[parse_scalar(e, f"{ctx}[{i}][{j}]") for j, e in enumerate(row)]
            for i, row in enumerate(rows)]
    return np.array(data, dtype=float)


# --- tail model descriptors -------------------------------------------------

_MODEL_ALIASES = {"c": "coeff", "coeff": "coeff", "p": "exponent", "e": "exponent",
                  "exponent": "exponent", "r": "ratio", "ratio": "ratio",
                  "rel": "relation", "relation": "relation"}


def _model_dict(value: Any, ctx: str) -> dict:
    if isinstance(value, dict):
        return value
    if not isinstance(value, str):
        raise _schema_error(f"{ctx} must be a model object or descriptor string")
    head, _, rest = value.partition(":")
    family = head.strip().lower()
    if family == "explicit":
        vals = [v.strip() for v in rest.split(",") if v.strip()]
        return {"family": "explicit", "values": vals}
    out: dict[str, Any] = {"family": family}
    for item in rest.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        if not eq:
            raise _schema_error(f"{ctx}: model option {item!r} needs key=value")
        canonical = _MODEL_ALIASES.get(key.strip().lower())
        if canonical is None:
            raise _schema_error(f"{ctx}: unknown model option {key.strip()!r}")
        out[canonical] = val.strip()
    return out


def _relation_field(d: dict, ctx: str) -> str:
    rel = d.get("relation", "exact")
    if rel not in ("exact", "majorant", "minorant"):
        raise _schema_error(f"{ctx}.relation must be exact, majorant or minorant")
    return rel


_FAMILY_FIELDS = {"power": ("coeff", "exponent"), "geometric": ("coeff", "ratio")}


def _family_numbers(value: Any, ctx: str, optional: Sequence[str] = ()) -> tuple[
        str, dict, list[float]]:
    """Family, descriptor and parsed numbers of a power / geometric / explicit family."""
    d = _model_dict(value, ctx)
    family = d.get("family")
    if family == "explicit":
        _check_keys(d, ctx, required=("family", "values"))
        vals = _nonempty_list(d["values"], f"{ctx}.values")
        return family, d, [parse_scalar(v, f"{ctx}.values[{k}]") for k, v in enumerate(vals)]
    if family not in _FAMILY_FIELDS:
        raise _schema_error(f"{ctx}.family must be power, geometric or explicit")
    fields = _FAMILY_FIELDS[family]
    _check_keys(d, ctx, required=fields + ("family",), optional=optional)
    return family, d, [parse_scalar(d[k], f"{ctx}.{k}") for k in fields]


def parse_model(value: Any, ctx: str) -> TailModel:
    """Nonnegative-term tail model: power, geometric or explicit."""
    family, d, nums = _family_numbers(value, ctx, optional=("relation",))
    if family == "explicit":
        if any(v < 0 for v in nums):
            raise _schema_error(f"{ctx}.values must be nonnegative")
        return ExplicitModel(tuple(nums))
    if family == "power":
        if nums[0] < 0:
            raise _schema_error(f"{ctx}.coeff must be >= 0 for a term model")
        return PowerModel(*nums, _relation_field(d, ctx))
    if nums[0] < 0 or nums[1] < 0:
        raise _schema_error(f"{ctx}: coeff and ratio must be >= 0")
    return GeometricModel(*nums, _relation_field(d, ctx))


def parse_signed_family(value: Any, ctx: str) -> tuple[Callable[[int], float], TailModel]:
    """Signed value family plus the exact model of its absolute values.

    Used for angle sequences, where theta_j may be negative while every
    certified bound only consumes |theta_j|.
    """
    family, _, nums = _family_numbers(value, ctx)
    if family == "explicit":
        return (lambda j: nums[j - 1]), ExplicitModel(tuple(abs(v) for v in nums))
    c, k = nums
    if family == "power":
        return (lambda j: c * float(j) ** k), PowerModel(abs(c), k)
    if k < 0:
        raise _schema_error(f"{ctx}.ratio must be >= 0")
    return (lambda j: c * k ** j), GeometricModel(abs(c), k)


# --- cocycle / bilinear / representation descriptors ------------------------

_NAMED_COCYCLES: dict[str, Callable[[], Cocycle]] = {
    "pauli": pauli_cocycle,
    "sign_z2": sign_cocycle_z2,
}


def parse_cocycle(value: Any, ctx: str) -> Cocycle:
    """One cocycle descriptor.

    Forms: {"name": "pauli" | "sign_z2"}, {"trivial": GROUP}, {"matrix": M},
    {"bilinear": D}, {"coboundary": {"epsilon": e, "group": GROUP}},
    {"perturb": {"epsilon": e, "base": DESC}}, {"product": [DESC, ...]}.
    """
    key, body = _one_key(value, ctx, "name, trivial, matrix, bilinear, coboundary, "
                                     "perturb, product")
    if key == "name":
        if body not in _NAMED_COCYCLES:
            raise _schema_error(f"{ctx}.name must be one of "
                                f"{sorted(_NAMED_COCYCLES)}, got {body!r}")
        return _NAMED_COCYCLES[body]()
    if key == "trivial":
        return trivial_cocycle(parse_group(body, f"{ctx}.trivial"))
    if key == "matrix":
        return MatrixCocycle(parse_matrix(body, f"{ctx}.matrix"))
    if key == "bilinear":
        return lift_bilinear(parse_matrix(body, f"{ctx}.bilinear"))
    if key == "coboundary":
        _check_keys(body, f"{ctx}.coboundary", required=("epsilon", "group"))
        eps = parse_scalar(body["epsilon"], f"{ctx}.coboundary.epsilon")
        group = parse_group(body["group"], f"{ctx}.coboundary.group")
        return CoboundaryCocycle(group, quadratic_phase(eps, group),
                                 label=f"exp(i*{eps}*x1^2)")
    if key == "perturb":
        _check_keys(body, f"{ctx}.perturb", required=("base", "epsilon"))
        base = parse_cocycle(body["base"], f"{ctx}.perturb.base")
        eps = parse_scalar(body["epsilon"], f"{ctx}.perturb.epsilon")
        return perturb(base, quadratic_phase(eps, base.group), label=f"exp(i*{eps}*x1^2)")
    if key == "product":
        return ProductCocycle([parse_cocycle(v, f"{ctx}.product[{k}]")
                               for k, v in enumerate(_nonempty_list(body, f"{ctx}.product"))])
    raise _schema_error(f"{ctx}: unknown cocycle form {key!r}")


def parse_bilinear(value: Any, ctx: str) -> Union[MatrixBilinear, TableBilinear]:
    key, body = _one_key(value, ctx, "name, matrix, table")
    if key == "name":
        if body != "pauli":
            raise _schema_error(f"{ctx}.name must be 'pauli', got {body!r}")
        return pauli_sigma()
    if key == "matrix":
        return MatrixBilinear(parse_matrix(body, f"{ctx}.matrix"))
    if key == "table":
        _check_keys(body, f"{ctx}.table",
                    required=("a_moduli", "b_moduli", "phases"))
        a = FiniteAbelianGroup(parse_int_list(body["a_moduli"], f"{ctx}.table.a_moduli"))
        b = FiniteAbelianGroup(parse_int_list(body["b_moduli"], f"{ctx}.table.b_moduli"))
        phases = parse_matrix(body["phases"], f"{ctx}.table.phases")
        return TableBilinear(a, b, phases)
    raise _schema_error(f"{ctx}: unknown bilinear form {key!r}")


def parse_rep(value: Any, ctx: str) -> ProjectiveRep:
    key, body = _one_key(value, ctx, "name, regular")
    if key == "name":
        if body != "pauli":
            raise _schema_error(f"{ctx}.name must be 'pauli', got {body!r}")
        return pauli_rep()
    if key == "regular":
        _check_keys(body, f"{ctx}.regular", required=("cocycle", "group"))
        group = parse_group(body["group"], f"{ctx}.regular.group")
        if not isinstance(group, FiniteAbelianGroup):
            raise _schema_error(f"{ctx}.regular.group must be finite")
        u = parse_cocycle(body["cocycle"], f"{ctx}.regular.cocycle")
        return regular_rep(u, group)
    raise _schema_error(f"{ctx}: unknown representation form {key!r}")


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunContext:
    seed: int
    tol: float
    horizons: dict = field(default_factory=dict)

    def _horizon(self, key: str, default: int) -> int:
        self.horizons.setdefault(key, default)
        return _as_int(self.horizons[key], f"horizons.{key}", minimum=1)

    def n_max(self, default: int) -> int:
        return self._horizon("n_max", default)

    def scan(self) -> int:
        return self._horizon("scan", DEFAULT_SCAN_HORIZON)

    def grid_cap(self) -> int:
        return self._horizon("grid_cap", DEFAULT_GRID_CAP)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class HandlerOutput:
    result: dict
    tables: dict[str, tuple[list[float], Optional[list[Optional[float]]]]] = field(
        default_factory=dict)
    default_series: Optional[str] = None


def _head(seq: Sequence, n: int = HEAD_LENGTH) -> list:
    return list(seq[:n])


def _verdict_dict(v) -> dict:
    return {
        "partial_sum": v.partial_sum,
        "tail_bound": v.tail_bound,
        "tail_derivation": v.tail_derivation,
        "terms_evaluated": v.terms_evaluated,
        "verdict": v.verdict,
        "witness": v.witness,
    }


def _samples_block(params: dict, ctx_name: str) -> tuple[int, int]:
    block = params.get("samples", {})
    _check_keys(block, ctx_name, optional=("bound", "count"))
    count = _as_int(block.get("count", DEFAULT_SAMPLE_COUNT), f"{ctx_name}.count", 1)
    bound = _as_int(block.get("bound", DEFAULT_SAMPLE_BOUND), f"{ctx_name}.bound", 1)
    params["samples"] = {"bound": bound, "count": count}
    return count, bound


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _run_check_cocycle(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("cocycle",), optional=("samples",))
    u = parse_cocycle(params["cocycle"], "params.cocycle")
    count, bound = _samples_block(params, "params.samples")
    rng = ctx.rng()
    triples = sample_triples(u.group, count, bound, rng)
    residual = check_cocycle_identity(u, triples)
    e = u.group.identity
    normalization = max(abs(u.value(e, x) - 1.0) for x, _, _ in triples)
    normalization = max(normalization,
                        max(abs(u.value(x, e) - 1.0) for x, _, _ in triples))
    return HandlerOutput(result={
        "bound": bound,
        "cocycle_residual": residual,
        "group": group_label(u.group),
        "normalization_residual": float(normalization),
        "pass": bool(residual <= ctx.tol and normalization <= ctx.tol),
        "tol": ctx.tol,
        "triples": len(triples),
    })


def _run_folner(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("rank", "side", "x"),
                optional=("offset",))
    rank = _as_int(params["rank"], "params.rank", minimum=1)
    side = _as_int(params["side"], "params.side", minimum=0)
    x = parse_int_list(params["x"], "params.x")
    if len(x) != rank:
        raise _schema_error("params.x must have params.rank entries")
    offset = None
    if "offset" in params:
        offset = parse_int_list(params["offset"], "params.offset")
        if len(offset) != rank:
            raise _schema_error("params.offset must have params.rank entries")
    box = FolnerBox(rank, side, offset)
    overlap = box.overlap(x)
    cardinality = box.cardinality()
    defect = box_defect(FolnerBox(rank, side), x)
    bound = min(1.0, l1_norm(x) / (side + 1))
    zero_offset = offset is None or all(c == 0 for c in offset)
    return HandlerOutput(result={
        "bound_holds": bool(defect <= bound + 1e-12),
        "cardinality": cardinality,
        "defect": defect,
        "defect_bound": bound,
        "l1_mass": box.l1_mass() if zero_offset else None,
        "overlap": overlap,
        "rank": rank,
        "side": side,
        "x": list(x),
    })


_MATRIX_FAMILIES = {"geometric": ("ratio", geometric_matrix_family),
                    "power": ("exponent", power_matrix_family)}


def _matrix_family_from(params: dict, key: str, ctx_name: str):
    d = _model_dict(params[key], ctx_name)
    if d.get("family") not in _MATRIX_FAMILIES:
        raise _schema_error(f"{ctx_name}.family must be geometric or power")
    field_name, make = _MATRIX_FAMILIES[d["family"]]
    _check_keys(d, ctx_name, required=("family", "matrix", field_name))
    matrix = parse_matrix(d["matrix"], f"{ctx_name}.matrix")
    return make(matrix, parse_scalar(d[field_name], f"{ctx_name}.{field_name}"))


def _scalar_values(params: dict, ctx: RunContext) -> tuple[
        list[complex], Optional[TailModel]]:
    """Realized values plus optional term model for the product / inner kinds."""
    has_values = "values" in params
    has_angles = "angles" in params
    if has_values == has_angles:
        raise _schema_error("params needs exactly one of 'values' or 'angles'")
    model = parse_model(params["model"], "params.model") if "model" in params else None
    if has_values:
        raw = _nonempty_list(params["values"], "params.values")
        vals = [parse_complex(v, f"params.values[{k}]") for k, v in enumerate(raw)]
        return vals[:ctx.n_max(DEFAULT_SCALAR_HORIZON)], model
    theta, abs_model = parse_signed_family(params["angles"], "params.angles")
    if model is None:
        # |1 - e^{i theta}| = 2|sin(theta/2)| <= |theta|, so the absolute
        # angle family is a certified majorant for the term series.
        if abs_model.envelope is not None:
            model = replace(abs_model, relation=MAJORANT)
    n = horizon(ctx.n_max(DEFAULT_SCALAR_HORIZON), abs_model)
    return [cmath.exp(1j * theta(i)) for i in range(1, n + 1)], model


def _run_converge(params: dict, ctx: RunContext) -> HandlerOutput:
    kind = params.get("kind", "boxes")
    if kind == "boxes":
        _check_keys(params, "params", required=("matrices", "sides", "x"),
                    optional=("kind",))
        params["kind"] = "boxes"
        x = parse_int_list(params["x"], "params.x")
        mat_fn, mat_model = _matrix_family_from(params, "matrices", "params.matrices")
        side_model = parse_model(params["sides"], "params.sides")
        rep = twisted_rep_series(mat_fn, mat_model, ceil_schedule(side_model, "side"),
                                 side_model, x, n_max=ctx.n_max(DEFAULT_BOX_HORIZON),
                                 grid_cap=ctx.grid_cap())
        result = {
            "conclusion": rep.conclusion,
            "kind": "boxes",
            "sides_head": _head(rep.sides),
            "tail_bound": rep.tail_bound,
            "translation": _verdict_dict(rep.translation),
            "translation_head": _head(rep.translation_terms),
            "twist": _verdict_dict(rep.twist),
            "twist_head": _head(rep.twist_terms),
            "x": list(x),
        }
        tables = {
            "translation": (list(rep.translation_terms), list(rep.translation_bounds)),
            "twist": (list(rep.twist_terms), list(rep.twist_bounds)),
        }
        return HandlerOutput(result, tables, default_series="twist")
    if kind in ("inner", "product"):
        _check_keys(params, "params", required=("kind",),
                    optional=("angles", "model", "values"))
        realized, model = _scalar_values(params, ctx)
        n = len(realized)
        terms = [abs(1.0 - z) for z in realized]
        result = {"kind": kind, "terms_head": _head(terms)}
        if kind == "product":
            diag = product_diagnose(realized, model, n_max=n, tol=ctx.tol)
            result["partial_product"] = diag.partial_product
            result["product_tail"] = diag.product_tail
            verdict = diag.series
        else:
            verdict = inner_product_series(realized, model, n_max=n, tol=ctx.tol)
        result["series"] = _verdict_dict(verdict)
        bounds = model_bounds(model, n) if model else None
        return HandlerOutput(result, {"terms": (terms, bounds)}, default_series="terms")
    raise _schema_error(f"params.kind must be boxes, product or inner, got {kind!r}")


def _run_select(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("count", "members", "sides"),
                optional=("thresholds",))
    count = _as_int(params["count"], "params.count", minimum=1)
    members = _check_keys(params["members"], "params.members",
                          required=("matrix", "ratio"))
    matrix = parse_matrix(members["matrix"], "params.members.matrix")
    ratio = parse_scalar(members["ratio"], "params.members.ratio")
    seq = geometric_matrix_sequence(matrix, ratio)
    side_model = parse_model(params["sides"], "params.sides")
    side_fn = ceil_schedule(side_model, "side")
    rank = matrix.shape[0]
    thresholds = None
    if "thresholds" in params:
        block = _check_keys(params["thresholds"], "params.thresholds",
                            required=("coeff", "exponent"))
        c = parse_scalar(block["coeff"], "params.thresholds.coeff")
        p = parse_scalar(block["exponent"], "params.thresholds.exponent")
        if c <= 0:
            raise _schema_error("params.thresholds.coeff must be > 0")
        thresholds = lambda k: c * float(k) ** p
    try:
        report = select_product_subsequence(
            seq, lambda k: FolnerBox(rank, side_fn(k)),
            SupNormExhaustion(IntegerLattice(rank)), horizon(count, side_model),
            thresholds=thresholds, scan_horizon=ctx.scan(),
            grid_cap=ctx.grid_cap())
    except SelectionError as exc:
        raise CliError(1, f"selection failed: {exc}") from None
    sups = [s.sup for s in report.steps]
    thr = [s.threshold for s in report.steps]
    result = {
        "indices": list(report.indices),
        "steps": [{"index": s.index, "step": s.step, "sup": s.sup,
                   "threshold": s.threshold} for s in report.steps],
        "threshold_sum": report.threshold_sum,
    }
    return HandlerOutput(result, {"sups": (sups, list(thr))}, default_series="sups")


def _run_prop42(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("norms", "sides"), optional=("x",))
    side_model = parse_model(params["sides"], "params.sides")
    matrix_model = parse_model(params["norms"], "params.norms")
    crit = lattice_tensor_criteria(side_model, matrix_model,
                                   n_max=ctx.n_max(DEFAULT_SCALAR_HORIZON))
    result = {
        "clauses": [{"holds": c.holds, "name": c.name, "reason": c.reason,
                     "series": _verdict_dict(c.series) if c.series else None}
                    for c in crit.clauses],
        "series_heads": {"norms": _head(crit.norms), "sigma": _head(crit.sigma_terms),
                         "weighted": _head(crit.weighted_terms)},
        "tensor_exists": crit.tensor_exists,
    }
    tables = {
        "sigma": (list(crit.sigma_terms), None),
        "norms": (list(crit.norms), None),
        "weighted": (list(crit.weighted_terms), None),
    }
    if "x" in params:
        at = crit.at(parse_int_list(params["x"], "params.x"))
        result["translation"] = _verdict_dict(at.translation) if at.translation else None
        result["translation_head"] = _head(at.translation_terms)
        result["twist_factor"] = at.twist_factor
        result["twist_majorant_head"] = _head(at.twist_majorant)
        result["x"] = list(at.x)
        tables["translation"] = (list(at.translation_terms), list(at.translation_bounds))
        tables["twist_majorant"] = (list(at.twist_majorant), None)
    return HandlerOutput(result, tables, default_series="weighted")


def _run_dirichlet(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("angles", "windows"))
    window_model = parse_model(params["windows"], "params.windows")
    angle_fn, angle_model = parse_signed_family(params["angles"], "params.angles")
    report = dirichlet_condition(ceil_schedule(window_model, "window"), window_model,
                                 angle_fn, angle_model,
                                 n_max=ctx.n_max(DEFAULT_SCALAR_HORIZON))
    result = {
        "angles_head": _head(report.angles),
        "conclusion": report.conclusion,
        "deviation": _verdict_dict(report.deviation),
        "deviation_head": _head(report.deviation_terms),
        "inverse_window": _verdict_dict(report.inverse_window),
        "windows_head": _head(report.windows),
    }
    tables = {
        "deviation": (list(report.deviation_terms), list(report.deviation_bounds)),
        "inverse": (list(report.inverse_terms), None),
    }
    return HandlerOutput(result, tables, default_series="deviation")


def _relation_residual(rep: ProjectiveRep, rng: np.random.Generator) -> tuple[float, int]:
    """Relation residual over every pair, or over 64 random pairs past order 64."""
    if rep.group.order <= 64:
        return projective_relation_check(rep), rep.group.order ** 2
    els = rep.group.elements()
    pairs = [(els[i], els[j]) for i, j in rng.integers(0, len(els), size=(64, 2))]
    return projective_relation_check(rep, pairs), len(pairs)


def _run_ccr(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("sigma",),
                optional=("samples", "window"))
    sigma = parse_bilinear(params["sigma"], "params.sigma")
    count, bound = _samples_block(params, "params.samples")
    rng = ctx.rng()

    if isinstance(sigma, TableBilinear):
        if "window" in params:
            raise _schema_error("params.window only applies to matrix sigma")
        pair = ccr_pair(sigma, sigma.b_group)
        # Refuses a table that is not normalized before any residual is spent.
        projective_rep = ccr_to_projective(pair)
        a_els = sigma.a_group.elements()
        b_els = sigma.b_group.elements()
        if len(a_els) * len(b_els) <= 4096:
            pairs = [(a, b) for a in a_els for b in b_els]
        else:
            pairs = list(zip(sample_elements(sigma.a_group, count, bound, rng),
                             sample_elements(sigma.b_group, count, bound, rng)))
        sample_bs: Sequence = b_els
        bilin_pairs = list(islice(product(a_els, a_els, b_els, b_els), 4096))
    else:
        window = _check_keys(params.get("window"), "params.window",
                             required=("side",))
        side = _as_int(window["side"], "params.window.side", minimum=0)
        pair = ccr_pair(sigma, FolnerBox(sigma.b_rank, side))
        projective_rep = None
        a_samples = sample_elements(sigma.a_group, count, bound, rng)
        b_samples = sample_elements(IntegerLattice(sigma.b_rank), count, bound, rng)
        pairs = list(zip(a_samples, b_samples))
        sample_bs = sorted(set(b_samples))
        a2 = sample_elements(sigma.a_group, count, bound, rng)
        b2 = sample_elements(IntegerLattice(sigma.b_rank), count, bound, rng)
        bilin_pairs = list(zip(a_samples, a2, b_samples, b2))

    relation = pair.relation_residual(pairs)
    bilin = bilinearity_residual(sigma, bilin_pairs)
    max_unitarity = max((pair.unitarity_defect(b) for b in sample_bs), default=0.0)
    max_boundary = max((pair.boundary_deficit(b) for b in sample_bs), default=0)

    projective = None
    if projective_rep is not None:
        projective, _ = _relation_residual(projective_rep, rng)

    return HandlerOutput(result={
        "bilinearity_residual": bilin,
        "boundary_fraction": max_boundary / pair.dimension,
        "dimension": pair.dimension,
        "max_boundary_deficit": int(max_boundary),
        "max_unitarity_defect": float(max_unitarity),
        "pass": bool(relation <= ctx.tol and bilin <= ctx.tol),
        "projective_residual": projective,
        "relation_pairs": len(pairs),
        "relation_residual": relation,
        "tol": ctx.tol,
        "truncated": pair.truncated,
    })


def _run_fell(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("rep", "u"))
    u = parse_cocycle(params["u"], "params.u")
    vrep = parse_rep(params["rep"], "params.rep")
    report = fell_absorption_check(u, vrep)
    ok = (report.max_residual <= ctx.tol
          and report.max_spectral_distance <= ctx.tol
          and report.intertwiner_unitarity <= ctx.tol)
    return HandlerOutput(result={
        "group_order": report.group_order,
        "intertwiner_unitarity": report.intertwiner_unitarity,
        "max_residual": report.max_residual,
        "max_spectral_distance": report.max_spectral_distance,
        "pass": bool(ok),
        "per_element": [{"residual": r, "spectral_distance": s, "x": list(x)}
                        for x, r, s in report.per_element],
        "rep_dimension": report.rep_dimension,
        "tol": ctx.tol,
    })


def _run_tensor(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("factors",))
    raw = _nonempty_list(params["factors"], "params.factors")
    factors = [parse_rep(v, f"params.factors[{k}]") for k, v in enumerate(raw)]
    rep = tensor_rep(factors)
    residual, pairs = _relation_residual(rep, ctx.rng())
    return HandlerOutput(result={
        "dimension": rep.dimension,
        "factor_count": len(factors),
        "group": group_label(rep.group),
        "pass": bool(residual <= ctx.tol),
        "relation_pairs": pairs,
        "relation_residual": residual,
        "tol": ctx.tol,
    })


def _element_key(x) -> str:
    return ",".join(str(c) for c in x)


def _run_action(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("elements", "source"),
                optional=("model",))
    key, body = _one_key(params["source"], "params.source",
                         "regular_trace, rep_trace, values")
    if key == "regular_trace":
        block = _check_keys(body, "params.source.regular_trace",
                            required=("group",))
        scenario = regular_trace_scenario(
            parse_group(block["group"], "params.source.regular_trace.group"))
    elif key == "rep_trace":
        scenario = rep_trace_scenario(parse_rep(body, "params.source.rep_trace"))
    elif key == "values":
        block = _check_keys(body, "params.source.values",
                            required=("group", "kind", "table"))
        group = parse_group(block["group"], "params.source.values.group")
        kind = block["kind"]
        rows = _nonempty_list(block["table"], "params.source.values.table")
        table = {}
        for k, row in enumerate(rows):
            row = _check_keys(row, f"params.source.values.table[{k}]",
                              required=("amplitudes", "g"))
            g = parse_int_list(row["g"], f"params.source.values.table[{k}].g")
            amps = _nonempty_list(row["amplitudes"],
                                  f"params.source.values.table[{k}].amplitudes")
            table[g] = [parse_complex(
                v, f"params.source.values.table[{k}].amplitudes[{j}]")
                for j, v in enumerate(amps)]
        scenario = scenario_from_values(group, table, kind=kind)
    else:
        raise _schema_error(f"params.source: unknown form {key!r}")

    raw_elements = _nonempty_list(params["elements"], "params.elements")
    elements = [parse_int_list(v, f"params.elements[{k}]")
                for k, v in enumerate(raw_elements)]
    keys = [scenario.group.element(g) for g in elements]

    models = None
    if "model" in params:
        shared = parse_model(params["model"], "params.model")
        models = {g: shared for g in keys}

    n = ctx.n_max(DEFAULT_SCALAR_HORIZON)
    verdict = inner_outer_verdict(scenario, keys, models=models, n_max=n)

    tables = {}
    reports = []
    for (g, v), terms in zip(verdict.reports, verdict.deficits):
        if terms is None:  # the identity verdict evaluates no amplitudes
            terms = deficit_terms(scenario, g, n)
        terms = list(terms)
        tables[f"deficit:{_element_key(g)}"] = (terms, None)
        reports.append({"g": list(g), "terms_head": _head(terms),
                        "verdict": _verdict_dict(v)})
    default = f"deficit:{_element_key(verdict.reports[0][0])}"
    result = {
        "kind": scenario.kind,
        "note": verdict.note,
        "reports": reports,
        "status": verdict.status,
    }
    return HandlerOutput(result, tables, default_series=default)


def _run_obstruction(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("u",), optional=("v",))
    raw = params["u"]
    if isinstance(raw, list):
        if not raw:
            raise _schema_error("params.u must not be an empty list")
        classes: object = [parse_cocycle(item, f"params.u[{k}]")
                           for k, item in enumerate(raw)]
    else:
        classes = parse_cocycle(raw, "params.u")
    v = parse_cocycle(params["v"], "params.v") if "v" in params else None
    report = cohomological_obstruction(classes, v, tol=ctx.tol)
    witness = None
    if report.witness is not None:
        witness = [list(report.witness[0]), list(report.witness[1])]
    return HandlerOutput(result={
        "detail": report.detail,
        "status": report.status,
        "witness": witness,
    })


_HANDLERS: dict[str, Callable[[dict, RunContext], HandlerOutput]] = {
    "check-cocycle": _run_check_cocycle,
    "folner": _run_folner,
    "converge": _run_converge,
    "select": _run_select,
    "prop42": _run_prop42,
    "dirichlet": _run_dirichlet,
    "ccr": _run_ccr,
    "fell": _run_fell,
    "tensor": _run_tensor,
    "action": _run_action,
    "obstruction": _run_obstruction,
}


# ---------------------------------------------------------------------------
# scenario loading and the run loop
# ---------------------------------------------------------------------------


def _load_scenario_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(2, f"cannot read scenario file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"invalid JSON: {exc}") from None
    if isinstance(doc, dict) and "result" in doc and "scenario" in doc:
        doc = doc["scenario"]
    if not isinstance(doc, dict):
        raise _schema_error("scenario must be a JSON object")
    return doc


def _validate_scenario(doc: dict, command: str) -> tuple[dict, RunContext, dict]:
    _check_keys(doc, "scenario", required=("command", "params", "schema"),
                optional=("horizons", "output", "seed", "tolerances"))
    if doc["schema"] != SCHEMA_VERSION:
        raise _schema_error(f"unsupported schema {doc['schema']!r} "
                            f"(expected {SCHEMA_VERSION})")
    if doc["command"] != command:
        raise _schema_error(f"scenario command {doc['command']!r} does not "
                            f"match subcommand {command!r}")
    horizons = dict(_check_keys(doc.get("horizons", {}), "horizons",
                                optional=("grid_cap", "n_max", "scan")))
    for key in horizons:
        horizons[key] = _as_int(horizons[key], f"horizons.{key}", minimum=1)
    tolerances = _check_keys(doc.get("tolerances", {}), "tolerances",
                             optional=("tol",))
    tol = parse_scalar(tolerances.get("tol", DEFAULT_TOL), "tolerances.tol")
    if tol <= 0:
        raise _schema_error("tolerances.tol must be > 0")
    output = dict(_check_keys(doc.get("output", {}), "output",
                              optional=("format", "series")))
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        raise _schema_error(f"output.format must be json or csv, got {fmt!r}")
    series = output.get("series")
    if series is not None and not isinstance(series, str):
        raise _schema_error("output.series must be a string")
    seed = _as_int(doc.get("seed", 0), "seed", minimum=0)
    params = doc["params"]
    if not isinstance(params, dict):
        raise _schema_error("params must be an object")
    ctx = RunContext(seed=seed, tol=tol, horizons=horizons)
    out_block = {"format": fmt}
    if series is not None:
        out_block["series"] = series
    return params, ctx, out_block


_OVERRIDE_BLOCKS = (("horizons", ("n_max", "scan", "grid_cap")),
                    ("output", ("format", "series")))


def _apply_flag_overrides(doc: dict, args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        doc["tolerances"] = {"tol": args.tol}
    for block, keys in _OVERRIDE_BLOCKS:
        current = doc.get(block, {})
        if isinstance(current, dict):
            merged = dict(current, **{k: getattr(args, k) for k in keys
                                      if getattr(args, k, None) is not None})
            if merged:
                doc[block] = merged


def run_scenario(doc: dict, command: str) -> str:
    """Validate, execute and render one scenario; returns the report text."""
    params, ctx, out_block = _validate_scenario(doc, command)
    handler = _HANDLERS[command]
    try:
        out = handler(params, ctx)
    except DimensionCapError as exc:
        raise CliError(2, f"cap exceeded: {exc}") from None
    except (ConstructionError, GroupMismatchError, InvalidInnerProductError,
            UnsupportedVariantError, ValueError, KeyError, OverflowError) as exc:
        if isinstance(exc, CliError):
            raise
        raise CliError(2, f"invalid scenario: {exc}") from None

    resolved = {
        "command": command,
        "horizons": ctx.horizons,
        "output": out_block,
        "params": params,
        "schema": SCHEMA_VERSION,
        "seed": ctx.seed,
        "tolerances": {"tol": ctx.tol},
    }
    if out_block["format"] == "csv":
        if not out.tables:
            raise _schema_error(f"{command} has no series output; use JSON")
        name = out_block.get("series", out.default_series)
        out_block["series"] = name
        if name not in out.tables:
            raise _schema_error(
                f"unknown series {name!r} for {command} "
                f"(available: {sorted(out.tables)})")
        terms, bounds = out.tables[name]
        return render_csv(resolved, terms, bounds)
    report = {"command": command, "result": out.result, "scenario": resolved,
              "schema": SCHEMA_VERSION}
    return render_json(report) + "\n"


# ---------------------------------------------------------------------------
# inline flag -> params builders
# ---------------------------------------------------------------------------


def _one_of(ctx: str, **choices: Any) -> tuple[str, Any]:
    given = [(k, v) for k, v in choices.items() if v is not None]
    if len(given) != 1:
        names = ", ".join(f"--{k.replace('_', '-')}" for k in choices)
        raise _schema_error(f"{ctx}: provide exactly one of {names}")
    return given[0]


def _cocycle_flags(args: argparse.Namespace, prefix: str = "") -> dict:
    name = getattr(args, prefix + "name", None)
    matrix = getattr(args, prefix + "matrix", None)
    bilinear = getattr(args, prefix + "bilinear", None)
    kind, value = _one_of(f"cocycle ({prefix or 'u'})", name=name,
                          matrix=matrix, bilinear=bilinear)
    return {kind: value}


def _samples_flags(args: argparse.Namespace) -> dict:
    """The samples block from --count / --bound, if either is given."""
    samples = {k: getattr(args, k) for k in ("count", "bound")
               if getattr(args, k) is not None}
    return {"samples": samples} if samples else {}


def _build_check_cocycle(args: argparse.Namespace) -> dict:
    return {"cocycle": _cocycle_flags(args), **_samples_flags(args)}


def _flag_params(args: argparse.Namespace, what: str, required: tuple[str, ...],
                 optional: tuple[str, ...] = ()) -> dict:
    """Params copied from the flags named like them; every required flag must be set."""
    if any(getattr(args, k) is None for k in required):
        flags = [f"--{k}" for k in required]
        raise _schema_error(f"{what} needs {', '.join(flags[:-1])} and {flags[-1]}")
    return {k: getattr(args, k) for k in required + optional
            if getattr(args, k) is not None}


def _build_folner(args: argparse.Namespace) -> dict:
    return _flag_params(args, "folner", ("rank", "side", "x"), ("offset",))


def _build_converge(args: argparse.Namespace) -> dict:
    kind = args.kind or "boxes"
    if kind == "boxes":
        if args.x is None or args.matrix is None or args.sides is None:
            raise _schema_error("converge boxes needs --x, --matrix and --sides")
        family = args.family or "geometric"
        matrices: dict[str, Any] = {"family": family, "matrix": args.matrix}
        if family == "geometric":
            matrices["ratio"] = args.ratio if args.ratio is not None else 0.5
        else:
            matrices["exponent"] = (args.exponent
                                    if args.exponent is not None else -2)
        return {"kind": "boxes", "matrices": matrices, "sides": args.sides,
                "x": args.x}
    params: dict[str, Any] = {"kind": kind}
    if args.angles is None:
        raise _schema_error(f"converge {kind} needs --angles "
                            "(explicit values need a scenario file)")
    params["angles"] = args.angles
    if args.model is not None:
        params["model"] = args.model
    return params


def _build_select(args: argparse.Namespace) -> dict:
    if args.count is None or args.matrix is None or args.sides is None:
        raise _schema_error("select needs --count, --matrix and --sides")
    ratio = args.ratio if args.ratio is not None else 0.5
    return {"count": args.count,
            "members": {"matrix": args.matrix, "ratio": ratio},
            "sides": args.sides}


def _build_prop42(args: argparse.Namespace) -> dict:
    return _flag_params(args, "prop42", ("sides", "norms"), ("x",))


def _build_dirichlet(args: argparse.Namespace) -> dict:
    return _flag_params(args, "dirichlet", ("windows", "angles"))


def _build_ccr(args: argparse.Namespace) -> dict:
    if args.sigma is not None and args.d_matrix is not None:
        raise _schema_error("ccr: provide --sigma or --d-matrix, not both")
    params: dict[str, Any] = {}
    if args.sigma is not None:
        params["sigma"] = {"name": args.sigma}
    elif args.d_matrix is not None:
        params["sigma"] = {"matrix": args.d_matrix}
        if args.side is None:
            raise _schema_error("ccr with --d-matrix needs --side")
        params["window"] = {"side": args.side}
    else:
        raise _schema_error("ccr needs --sigma or --d-matrix")
    params.update(_samples_flags(args))
    return params


def _build_fell(args: argparse.Namespace) -> dict:
    if args.u_name is None:
        raise _schema_error("fell needs --u-name (general cocycles need a "
                            "scenario file)")
    u_desc = {"name": args.u_name}
    rep_kind = args.rep_name or "regular"
    if rep_kind == "pauli":
        rep_desc: dict[str, Any] = {"name": "pauli"}
    elif rep_kind == "regular":
        group = "Z2xZ2" if args.u_name == "pauli" else "Z2"
        rep_desc = {"regular": {"cocycle": u_desc, "group": group}}
    else:
        raise _schema_error(f"fell --rep-name must be pauli or regular, "
                            f"got {rep_kind!r}")
    return {"rep": rep_desc, "u": u_desc}


def _build_tensor(args: argparse.Namespace) -> dict:
    if args.factors is None:
        raise _schema_error("tensor needs --factors (e.g. 'pauli,pauli')")
    names = [n.strip() for n in args.factors.split(",") if n.strip()]
    if not names:
        raise _schema_error("tensor --factors must name at least one factor")
    return {"factors": [{"name": n} for n in names]}


def _build_action(args: argparse.Namespace) -> dict:
    if args.elements is None:
        raise _schema_error("action needs --elements (e.g. '0,1;1,1')")
    elements = [part.strip() for part in args.elements.split(";") if part.strip()]
    if args.trace_group is not None and args.trace_rep is not None:
        raise _schema_error("action: provide --trace-group or --trace-rep, "
                            "not both")
    if args.trace_group is not None:
        source: dict[str, Any] = {"regular_trace": {"group": args.trace_group}}
    elif args.trace_rep is not None:
        source = {"rep_trace": {"name": args.trace_rep}}
    else:
        raise _schema_error("action needs --trace-group or --trace-rep "
                            "(explicit amplitude tables need a scenario file)")
    return {"elements": elements, "source": source}


_NAMED_COCYCLE_GROUP = {"pauli": "Z2xZ2", "sign_z2": "Z2"}


def _build_obstruction(args: argparse.Namespace) -> dict:
    if getattr(args, "group", None) is not None:
        expected = _NAMED_COCYCLE_GROUP.get(args.u_name or "")
        if expected is None or args.group.strip() != expected:
            raise _schema_error(
                f"--group {args.group!r} does not match the named cocycle "
                f"(expected {expected!r})")
    params = {"u": _cocycle_flags(args, "u_")}
    if (getattr(args, "v_name", None) is not None
            or getattr(args, "v_matrix", None) is not None
            or getattr(args, "v_bilinear", None) is not None):
        params["v"] = _cocycle_flags(args, "v_")
    return params


_BUILDERS: dict[str, Callable[[argparse.Namespace], dict]] = {
    "check-cocycle": _build_check_cocycle,
    "folner": _build_folner,
    "converge": _build_converge,
    "select": _build_select,
    "prop42": _build_prop42,
    "dirichlet": _build_dirichlet,
    "ccr": _build_ccr,
    "fell": _build_fell,
    "tensor": _build_tensor,
    "action": _build_action,
    "obstruction": _build_obstruction,
}


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Cocycles, projective representations and convergence "
                    "certificates for discrete abelian groups.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="PATH",
                        help="JSON scenario file (a report file also works)")
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--series", help="term series to render in CSV mode")
    common.add_argument("--seed", type=int)
    common.add_argument("--n-max", type=int, dest="n_max")
    common.add_argument("--scan", type=int)
    common.add_argument("--grid-cap", type=int, dest="grid_cap")
    common.add_argument("--tol", type=float)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-cocycle", parents=[common],
                       help="sampled 2-cocycle identity residual")
    p.add_argument("--name", choices=("pauli", "sign_z2"))
    p.add_argument("--matrix")
    p.add_argument("--bilinear")
    p.add_argument("--count", type=int)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("folner", parents=[common],
                       help="box overlap, defect and the defect bound")
    p.add_argument("--rank", type=int)
    p.add_argument("--side", type=int)
    p.add_argument("--x")
    p.add_argument("--offset")

    p = sub.add_parser("converge", parents=[common],
                       help="box criterion / scalar product diagnostics")
    p.add_argument("--kind", choices=("boxes", "product", "inner"))
    p.add_argument("--x")
    p.add_argument("--matrix")
    p.add_argument("--family", choices=("geometric", "power"))
    p.add_argument("--ratio", type=float)
    p.add_argument("--exponent", type=float)
    p.add_argument("--sides")
    p.add_argument("--angles")
    p.add_argument("--model")

    p = sub.add_parser("select", parents=[common],
                       help="greedy subsequence selection at 1/k^2 thresholds")
    p.add_argument("--count", type=int)
    p.add_argument("--matrix")
    p.add_argument("--ratio", type=float)
    p.add_argument("--sides")

    p = sub.add_parser("prop42", parents=[common],
                       help="four-clause box-sequence decision")
    p.add_argument("--sides", "--m", dest="sides")
    p.add_argument("--norms", "--a", dest="norms")
    p.add_argument("--x")

    p = sub.add_parser("dirichlet", parents=[common],
                       help="window means of rank-one angle sequences")
    p.add_argument("--windows")
    p.add_argument("--angles")
    p.add_argument("--n", type=int, help="single window half-width")
    p.add_argument("--theta", help="single angle (accepts pi expressions)")
    p.add_argument("--value-only", action="store_true", dest="value_only",
                   help="print dirichlet_value(n, theta) and exit")

    p = sub.add_parser("ccr", parents=[common],
                       help="clock-and-shift pairs and their truncations")
    p.add_argument("--sigma", choices=("pauli",))
    p.add_argument("--d-matrix", dest="d_matrix")
    p.add_argument("--side", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("fell", parents=[common],
                       help="finite twisted absorption check")
    p.add_argument("--u-name", dest="u_name", choices=("pauli", "sign_z2"))
    p.add_argument("--rep-name", dest="rep_name", choices=("pauli", "regular"))

    p = sub.add_parser("tensor", parents=[common],
                       help="tensor products of projective representations")
    p.add_argument("--factors")

    p = sub.add_parser("action", parents=[common],
                       help="inner/outer certificates for product actions")
    p.add_argument("--trace-group", dest="trace_group")
    p.add_argument("--trace-rep", dest="trace_rep", choices=("pauli",))
    p.add_argument("--elements")

    p = sub.add_parser("obstruction", parents=[common],
                       help="cohomological comparison of two twists")
    p.add_argument("--u-name", "--cocycle", dest="u_name",
                   choices=("pauli", "sign_z2"))
    p.add_argument("--group", help="expected group of the named cocycle")
    p.add_argument("--u-matrix", dest="u_matrix")
    p.add_argument("--u-bilinear", dest="u_bilinear")
    p.add_argument("--v-name", dest="v_name", choices=("pauli", "sign_z2"))
    p.add_argument("--v-matrix", dest="v_matrix")
    p.add_argument("--v-bilinear", dest="v_bilinear")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "dirichlet" and getattr(args, "value_only", False):
            if args.n is None or args.theta is None:
                raise _schema_error("--value-only needs --n and --theta")
            if args.n < 0:
                raise _schema_error("--n must be >= 0")
            if 2 * args.n + 1 > sys.float_info.max:
                raise _schema_error("--n is too large: 2 n + 1 exceeds the float range")
            value = dirichlet_value(args.n, parse_scalar(args.theta, "--theta"))
            text = _float_repr(value) + "\n"
        else:
            if args.scenario is not None:
                doc = _load_scenario_file(args.scenario)
            else:
                doc = {"command": command, "params": _BUILDERS[command](args),
                       "schema": SCHEMA_VERSION}
            _apply_flag_overrides(doc, args)
            text = run_scenario(doc, command)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
