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
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import islice, product
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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
    MatrixBilinear,
    MatrixCocycle,
    ProductCocycle,
    TableBilinear,
    UnsupportedVariantError,
    _unit_phases,
    bilinearity_residual,
    check_cocycle_identity,
    geometric_matrix_sequence,
    lift_bilinear,
    normalization_residual,
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
    Prefix,
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
from .csvrows import float_repr as _float_repr, rows_text, scratch as csv_scratch
from .groups import (
    FiniteAbelianGroup,
    FolnerBox,
    Group,
    IntegerLattice,
    SupNormExhaustion,
    l1_norm,
    sample_elements,
)
from .reps import (
    DimensionCapError,
    ProjectiveRep,
    _check_dimension,
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
    PowerModel,
    TailModel,
    horizon,
    locate,
    model_powers,
    model_values,
    pow_overflow,
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


@contextmanager
def _naming(field: str, **fields: str) -> Iterator[None]:
    """Library errors raised inside name the scenario field they come from.

    The message keeps the library's text and ends with the field.  An error
    located at a term (``series.locate``) also names the term and its index,
    and takes its field from ``fields`` by the term's name where given; an
    overflow says so in place of Python's text, the platform's strerror.
    """
    try:
        yield
    except (ValueError, OverflowError) as exc:
        what, index = getattr(exc, "located", (None, None))
        if what is None:
            text = str(exc)
        elif isinstance(exc, OverflowError):
            text = f"{what} {index} overflows a float"
        else:
            text = f"{exc} at {what} {index}"
        raise CliError(2, f"invalid scenario: {text} ({fields.get(what, field)})") from None


def _naming_calls(fn: Callable[[int], Any], field: str) -> Callable[[int], Any]:
    """``fn`` whose errors name ``field``, as inside ``_naming``."""
    def call(i: int) -> Any:
        with _naming(field):
            return fn(i)
    return call


# ---------------------------------------------------------------------------
# deterministic emitters
# ---------------------------------------------------------------------------


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


# Rows per block of render_csv.
_CSV_BLOCK = 4096


def render_csv(scenario: dict, terms: Sequence[float],
               bounds: Optional[Sequence[Optional[float]]]) -> str:
    """One series as index,term,partial_sum,bound rows under the scenario line.

    A bound that is None, or past the end of ``bounds`` (an explicit prefix
    declares only so many values), is an empty cell.  Every other cell is
    ``_float_repr`` of its float: ``format(v, ".17g")``, or ``inf``, ``-inf``,
    ``nan``.  Rows are built in blocks of ``_CSV_BLOCK`` by
    ``csvrows.rows_text``, all in one word buffer from ``csvrows.scratch``.
    It takes the 17 digits of a finite cell as the integer nearest to
    v = |x| * 10^(16 - k), from a double-double v whose error is at most
    2^-46 of a unit in the 17th digit.  Where v's fraction lies within 2^-30
    of one half, which includes every exact tie (Python rounds those half to
    even), and for inf and NaN, the cell's text comes from ``_float_repr``
    itself.  A block whose bound column is empty on every row (a series
    without bounds, or past the end of the prefix) prints it as bare commas
    and computes no digits for it.
    """
    terms = np.asarray(terms, dtype=float)
    n = terms.size
    sums = running_sums(terms)
    given = np.asarray(() if bounds is None else bounds[:n])
    gaps = np.zeros(n, dtype=bool)
    gaps[given.size:] = True
    if given.dtype == object:  # a sequence with None bounds
        gaps[:given.size] = np.equal(given, None)
        given = np.where(gaps[:given.size], 0.0, given)
    limits = np.zeros(n)
    limits[:given.size] = given
    parts = ["# scenario=", render_json(scenario), "\nindex,term,partial_sum,bound"]
    missing = np.zeros((min(n, _CSV_BLOCK), 3), dtype=bool)
    words = csv_scratch(min(n, _CSV_BLOCK), n, 3)
    for start in range(0, n, _CSV_BLOCK):
        block = slice(start, min(start + _CSV_BLOCK, n))
        size = block.stop - start
        missing[:size, 2] = gaps[block]
        cells = np.stack((terms[block], sums[block], limits[block]), axis=1)
        parts.append(rows_text(start + 1, cells, missing[:size], words))
    parts.append("\n")
    return "".join(parts)


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


def parse_finite(value: Any, ctx: str) -> float:
    """``parse_scalar`` for cocycle and bilinear scalars, which must be finite.

    A NaN phase makes every residual built on it NaN, and an infinite one
    has no phase at all.
    """
    v = parse_scalar(value, ctx)
    if not math.isfinite(v):
        raise _schema_error(f"{ctx} must be finite, got {value!r}")
    return v


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
    """A phase or bilinear matrix, as nested lists or 'a,b;c,d'; entries are finite."""
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
    data = [[parse_finite(e, f"{ctx}[{i}][{j}]") for j, e in enumerate(row)]
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


def parse_signed_family(value: Any, ctx: str) -> tuple[Callable[[int], Prefix], TailModel]:
    """Signed value family plus the exact model of its absolute values.

    Used for angle sequences, where theta_j may be negative while every
    certified bound only consumes |theta_j|.  The reader gives the first n
    values as a ``Prefix``: ``c * float(j) ** k`` and ``c * k ** j`` with
    Python's bits, from ``model_powers``, cut before the first power that
    Python's ``**`` refuses, whose OverflowError the prefix carries.
    """
    family, _, nums = _family_numbers(value, ctx)
    if family == "explicit":
        signed = np.array(nums, dtype=float)
        return (lambda n: Prefix(signed[:n])), ExplicitModel(tuple(abs(v) for v in nums))
    c, k = nums
    if family == "power":
        model: TailModel = PowerModel(abs(c), k)
    elif k < 0:
        raise _schema_error(f"{ctx}.ratio must be >= 0")
    else:
        model = GeometricModel(abs(c), k)

    def read(n: int) -> Prefix:
        powers, overflow = model_powers(model, n)
        stop = np.flatnonzero(overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            if stop.size:
                return Prefix(c * powers[:stop[0]],
                              locate(pow_overflow(), "angle", int(stop[0]) + 1))
            return Prefix(c * powers)

    return read, model


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
        group = parse_group(body, f"{ctx}.trivial")
        if isinstance(group, FiniteAbelianGroup):  # its table check reads order x order entries
            _check_dimension("group order", group.order)
        return trivial_cocycle(group)
    if key == "matrix":
        return MatrixCocycle(parse_matrix(body, f"{ctx}.matrix"))
    if key == "bilinear":
        return lift_bilinear(parse_matrix(body, f"{ctx}.bilinear"))
    if key == "coboundary":
        _check_keys(body, f"{ctx}.coboundary", required=("epsilon", "group"))
        eps = parse_finite(body["epsilon"], f"{ctx}.coboundary.epsilon")
        group = parse_group(body["group"], f"{ctx}.coboundary.group")
        return CoboundaryCocycle(group, quadratic_phase(eps, group),
                                 label=f"exp(i*{eps}*x1^2)")
    if key == "perturb":
        _check_keys(body, f"{ctx}.perturb", required=("base", "epsilon"))
        base = parse_cocycle(body["base"], f"{ctx}.perturb.base")
        eps = parse_finite(body["epsilon"], f"{ctx}.perturb.epsilon")
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
        return self.horizons.setdefault(key, default)

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
    """The JSON result and the series a CSV report can render: per name the
    terms and their bounds (None, or possibly shorter than the terms)."""

    result: dict
    tables: dict[str, tuple[Sequence[float], Optional[Sequence[float]]]] = field(
        default_factory=dict)
    default_series: Optional[str] = None


def _head(seq: Sequence, n: int = HEAD_LENGTH) -> list:
    return list(seq[:n])


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
    normalization = normalization_residual(u, [x for x, _, _ in triples])
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
    defect = box_defect(box, x)
    bound = min(1.0, l1_norm(x) / (side + 1))
    zero_offset = offset is None or all(c == 0 for c in offset)
    return HandlerOutput(result={
        "bound_holds": defect <= bound,
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
    with _naming(f"{ctx_name}.{field_name}"):
        return make(matrix, parse_scalar(d[field_name], f"{ctx_name}.{field_name}"))


def _scalar_values(params: dict, ctx: RunContext) -> tuple[
        Sequence[complex], Optional[TailModel]]:
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
    read, abs_model = parse_signed_family(params["angles"], "params.angles")
    if model is None:
        # |1 - e^{i theta}| = 2|sin(theta/2)| <= |theta|, so the absolute
        # angle family is a certified majorant for the term series.
        if abs_model.envelope is not None:
            model = replace(abs_model, relation=MAJORANT)
    theta, error = read(horizon(ctx.n_max(DEFAULT_SCALAR_HORIZON), abs_model))
    if error is not None:
        raise error
    return _unit_phases(theta), model


def _run_converge(params: dict, ctx: RunContext) -> HandlerOutput:
    kind = params.get("kind", "boxes")
    if kind == "boxes":
        _check_keys(params, "params", required=("matrices", "sides", "x"),
                    optional=("kind",))
        params["kind"] = "boxes"
        x = parse_int_list(params["x"], "params.x")
        mat_fn, mat_model = _matrix_family_from(params, "matrices", "params.matrices")
        side_model = parse_model(params["sides"], "params.sides")
        sides = _naming_calls(ceil_schedule(side_model, "side"), "params.sides")
        rep = twisted_rep_series(mat_fn, mat_model, sides, side_model, x,
                                 n_max=ctx.n_max(DEFAULT_BOX_HORIZON),
                                 grid_cap=ctx.grid_cap())
        result = {
            "conclusion": rep.conclusion,
            "kind": "boxes",
            "sides_head": _head(rep.sides),
            "tail_bound": rep.tail_bound,
            "translation": asdict(rep.translation),
            "translation_head": _head(rep.translation_terms),
            "twist": asdict(rep.twist),
            "twist_head": _head(rep.twist_terms),
            "x": list(x),
        }
        tables = {
            "translation": (rep.translation_terms, rep.translation_bounds),
            "twist": (rep.twist_terms, rep.twist_bounds),
        }
        return HandlerOutput(result, tables, default_series="twist")
    if kind in ("inner", "product"):
        _check_keys(params, "params", required=("kind",),
                    optional=("angles", "model", "values"))
        with _naming("params.values" if "values" in params else "params.angles"):
            realized, model = _scalar_values(params, ctx)
            n = len(realized)
            declared = model_values(model, n) if model else None
            result = {"kind": kind}
            if kind == "product":
                diag = product_diagnose(realized, model, n_max=n, tol=ctx.tol,
                                        declared=declared)
                result["partial_product"] = diag.partial_product
                result["product_tail"] = diag.product_tail
                terms, verdict = diag.terms, diag.series
            else:
                terms, verdict = inner_product_series(realized, model, n_max=n,
                                                      tol=ctx.tol, declared=declared)
        result["series"] = asdict(verdict)
        result["terms_head"] = _head(terms)
        return HandlerOutput(result, {"terms": (terms, declared)}, default_series="terms")
    raise _schema_error(f"params.kind must be boxes, product or inner, got {kind!r}")


def _run_select(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("count", "members", "sides"),
                optional=("thresholds",))
    count = _as_int(params["count"], "params.count", minimum=1)
    members = _check_keys(params["members"], "params.members",
                          required=("matrix", "ratio"))
    matrix = parse_matrix(members["matrix"], "params.members.matrix")
    ratio = parse_scalar(members["ratio"], "params.members.ratio")
    with _naming("params.members.ratio"):
        seq = geometric_matrix_sequence(matrix, ratio)
    side_model = parse_model(params["sides"], "params.sides")
    side_fn = _naming_calls(ceil_schedule(side_model, "side"), "params.sides")
    rank = matrix.shape[0]
    thresholds = None
    if "thresholds" in params:
        block = _check_keys(params["thresholds"], "params.thresholds",
                            required=("coeff", "exponent"))
        c = parse_scalar(block["coeff"], "params.thresholds.coeff")
        p = parse_scalar(block["exponent"], "params.thresholds.exponent")
        if not c > 0:
            raise _schema_error("params.thresholds.coeff must be > 0")

        def thresholds(k: int) -> float:
            threshold = c * float(k) ** p
            if not threshold > 0:  # the selection's own check, with the field named
                raise locate(ValueError("thresholds must be positive"), "threshold", k)
            return threshold

        thresholds = _naming_calls(thresholds, "params.thresholds")
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
        "steps": [asdict(s) for s in report.steps],
        "threshold_sum": report.threshold_sum,
    }
    return HandlerOutput(result, {"sups": (sups, list(thr))}, default_series="sups")


def _run_prop42(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("norms", "sides"), optional=("x",))
    side_model = parse_model(params["sides"], "params.sides")
    matrix_model = parse_model(params["norms"], "params.norms")
    with _naming("params.sides"):  # NaN sides, and the weighted tail's powers of them
        crit = lattice_tensor_criteria(side_model, matrix_model,
                                       n_max=ctx.n_max(DEFAULT_SCALAR_HORIZON))
    result = {
        "clauses": [asdict(c) for c in crit.clauses],
        "series_heads": {"norms": _head(crit.norms), "sigma": _head(crit.sigma_terms),
                         "weighted": _head(crit.weighted_terms)},
        "tensor_exists": crit.tensor_exists,
    }
    tables = {
        "sigma": (crit.sigma_terms, None),
        "norms": (crit.norms, None),
        "weighted": (crit.weighted_terms, None),
    }
    if "x" in params:
        at = crit.at(parse_int_list(params["x"], "params.x"))
        result["translation"] = asdict(at.translation) if at.translation else None
        result["translation_head"] = _head(at.translation_terms)
        result["twist_factor"] = at.twist_factor
        result["twist_majorant_head"] = _head(at.twist_majorant)
        result["x"] = list(at.x)
        tables["translation"] = (at.translation_terms, at.translation_bounds)
        tables["twist_majorant"] = (at.twist_majorant, None)
    return HandlerOutput(result, tables, default_series="weighted")


def _run_dirichlet(params: dict, ctx: RunContext) -> HandlerOutput:
    _check_keys(params, "params", required=("angles", "windows"))
    window_model = parse_model(params["windows"], "params.windows")
    read, angle_model = parse_signed_family(params["angles"], "params.angles")
    n_max = ctx.n_max(DEFAULT_SCALAR_HORIZON)
    with _naming("params.windows", angle="params.angles",
                 mean="params.windows, params.angles"):
        report = dirichlet_condition(None, window_model,
                                     read(horizon(n_max, window_model)),
                                     angle_model, n_max=n_max)
    result = {
        "angles_head": _head(report.angles),
        "conclusion": report.conclusion,
        "deviation": asdict(report.deviation),
        "deviation_head": _head(report.deviation_terms),
        "inverse_window": asdict(report.inverse_window),
        # a window model gives the windows as floats; they print as integers
        "windows_head": [int(w) for w in _head(report.windows)],
    }
    tables = {
        "deviation": (report.deviation_terms, report.deviation_bounds),
        "inverse": (report.inverse_terms, None),
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
        **asdict(report),
        "pass": bool(ok),
        "per_element": [{"residual": r, "spectral_distance": s, "x": list(x)}
                        for x, r, s in report.per_element],
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
        tables[f"deficit:{_element_key(g)}"] = (terms, None)
        reports.append({"g": list(g), "terms_head": _head(terms),
                        "verdict": asdict(v)})
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
    return HandlerOutput(result=asdict(cohomological_obstruction(classes, v, tol=ctx.tol)))


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


def run_scenario(doc: dict, command: str) -> str:
    """Validate, execute and render one scenario; returns the report text."""
    params, ctx, out_block = _validate_scenario(doc, command)
    handler = _HANDLERS[command]
    try:
        out = handler(params, ctx)
    except DimensionCapError as exc:
        raise CliError(2, f"cap exceeded: {exc}") from None
    except (ValueError, KeyError, OverflowError, UnsupportedVariantError) as exc:
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
# the flag table: the argument parser and the inline scenario come from it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """One flag: its spellings, the dotted key it fills and when a run reads it.

    ``path`` is relative to params (to the scenario for a common flag); None
    marks a flag that only selects a mode or checks another.  A run reads the
    flag while each (dest, accepted values) pair of ``when`` holds, None
    meaning "not given".  ``convert(value, values)`` shapes the value; a bool
    ``type`` makes a switch.  Flags sharing a ``one_of`` tag are alternatives,
    one of which is needed if they are ``required``.
    """

    spelling: str
    path: Optional[str] = None
    type: Optional[Callable[[str], Any]] = None
    choices: Optional[tuple[str, ...]] = None
    default: Any = None
    required: bool = False
    one_of: str = ""
    when: tuple[tuple[str, Any], ...] = ()
    convert: Optional[Callable[[Any, dict], Any]] = None
    help: Optional[str] = None
    metavar: Optional[str] = None

    @property
    def names(self) -> list[str]:
        return self.spelling.split()

    @property
    def dest(self) -> str:
        return self.names[0][2:].replace("-", "_")


def _half_width(n: int, values: dict) -> int:
    if n < 0:
        raise _schema_error("--n must be >= 0")
    if 2 * n + 1 > sys.float_info.max:
        raise _schema_error("--n is too large: 2 n + 1 exceeds the float range")
    return n


def _fell_rep(name: str, values: dict) -> dict:
    if name == "pauli":
        return {"name": "pauli"}
    u_name = values["u_name"]
    group = group_label(_NAMED_COCYCLES[u_name]().group)
    return {"regular": {"cocycle": {"name": u_name}, "group": group}}


def _check_group(group: str, values: dict) -> None:
    expected = group_label(_NAMED_COCYCLES[values["u_name"]]().group)
    if group.strip() != expected:
        raise _schema_error(f"--group {group!r} does not match the named cocycle "
                            f"(expected {expected!r})")


# A subcommand's own flags are read only without --scenario, and a
# --value-only run prints one number: of the common flags it reads --output.
_INLINE = (("scenario", (None,)),)
_REPORT = (("value_only", (None,)),)
_VALUE_ONLY = (("value_only", (True,)),)
_BOXES = (("kind", ("boxes",)),)
_SCALAR = (("kind", ("product", "inner")),)
_NAMED = tuple(_NAMED_COCYCLES)

_COMMON = (
    Flag("--scenario", when=_REPORT, metavar="PATH",
         help="JSON scenario file (a report file also works)"),
    Flag("--output", metavar="PATH", help="write the report here instead of stdout"),
    Flag("--format", "output.format", choices=("json", "csv"), when=_REPORT),
    Flag("--series", "output.series", when=_REPORT, help="term series to render in CSV mode"),
    Flag("--seed", "seed", type=int, when=_REPORT),
    Flag("--n-max", "horizons.n_max", type=int, when=_REPORT),
    Flag("--scan", "horizons.scan", type=int, when=_REPORT),
    Flag("--grid-cap", "horizons.grid_cap", type=int, when=_REPORT),
    Flag("--tol", "tolerances.tol", type=float, when=_REPORT),
)

_COMMANDS: dict[str, tuple[str, tuple[Flag, ...]]] = {
    "check-cocycle": ("sampled 2-cocycle identity residual", (
        Flag("--name", "cocycle.name", choices=_NAMED, required=True, one_of="u"),
        Flag("--matrix", "cocycle.matrix", required=True, one_of="u"),
        Flag("--bilinear", "cocycle.bilinear", required=True, one_of="u"),
        Flag("--count", "samples.count", type=int),
        Flag("--bound", "samples.bound", type=int),
    )),
    "folner": ("box overlap, defect and the defect bound", (
        Flag("--rank", "rank", type=int, required=True),
        Flag("--side", "side", type=int, required=True),
        Flag("--x", "x", required=True),
        Flag("--offset", "offset"),
    )),
    "converge": ("box criterion / scalar product diagnostics", (
        Flag("--kind", "kind", choices=("boxes", "product", "inner"), default="boxes"),
        Flag("--x", "x", required=True, when=_BOXES),
        Flag("--matrix", "matrices.matrix", required=True, when=_BOXES),
        Flag("--family", "matrices.family", choices=("geometric", "power"),
             default="geometric", when=_BOXES),
        Flag("--ratio", "matrices.ratio", type=float, default=0.5,
             when=_BOXES + (("family", ("geometric",)),)),
        Flag("--exponent", "matrices.exponent", type=float, default=-2,
             when=_BOXES + (("family", ("power",)),)),
        Flag("--sides", "sides", required=True, when=_BOXES),
        Flag("--angles", "angles", required=True, when=_SCALAR),
        Flag("--model", "model", when=_SCALAR),
    )),
    "select": ("greedy subsequence selection at 1/k^2 thresholds", (
        Flag("--count", "count", type=int, required=True),
        Flag("--matrix", "members.matrix", required=True),
        Flag("--ratio", "members.ratio", type=float, default=0.5),
        Flag("--sides", "sides", required=True),
    )),
    "prop42": ("four-clause box-sequence decision", (
        Flag("--sides --m", "sides", required=True),
        Flag("--norms --a", "norms", required=True),
        Flag("--x", "x"),
    )),
    "dirichlet": ("window means of rank-one angle sequences", (
        Flag("--windows", "windows", required=True, when=_REPORT),
        Flag("--angles", "angles", required=True, when=_REPORT),
        Flag("--n", "window", type=int, required=True, when=_VALUE_ONLY, convert=_half_width,
             help="single window half-width"),
        Flag("--theta", "theta", required=True, when=_VALUE_ONLY,
             convert=lambda theta, values: parse_scalar(theta, "--theta"),
             help="single angle (accepts pi expressions)"),
        Flag("--value-only", type=bool, help="print dirichlet_value(n, theta) and exit"),
    )),
    "ccr": ("clock-and-shift pairs and their truncations", (
        Flag("--sigma", "sigma.name", choices=("pauli",), required=True, one_of="sigma"),
        Flag("--d-matrix", "sigma.matrix", required=True, one_of="sigma"),
        Flag("--side", "window.side", type=int, required=True, when=(("sigma", (None,)),)),
        Flag("--count", "samples.count", type=int),
        Flag("--bound", "samples.bound", type=int),
    )),
    "fell": ("finite twisted absorption check", (
        Flag("--u-name", "u.name", choices=_NAMED, required=True),
        Flag("--rep-name", "rep", choices=("pauli", "regular"), default="regular",
             convert=_fell_rep),
    )),
    "tensor": ("tensor products of projective representations", (
        Flag("--factors", "factors", required=True,
             convert=lambda text, values: [{"name": n.strip()} for n in text.split(",")
                                           if n.strip()]),
    )),
    "action": ("inner/outer certificates for product actions", (
        Flag("--trace-group", "source.regular_trace.group", required=True, one_of="source"),
        Flag("--trace-rep", "source.rep_trace.name", choices=("pauli",), required=True,
             one_of="source"),
        Flag("--elements", "elements", required=True,
             convert=lambda text, values: [p.strip() for p in text.split(";") if p.strip()]),
    )),
    "obstruction": ("cohomological comparison of two twists", (
        Flag("--u-name --cocycle", "u.name", choices=_NAMED, required=True, one_of="u"),
        Flag("--group", when=(("u_name", _NAMED),), convert=_check_group,
             help="expected group of the named cocycle"),
        Flag("--u-matrix", "u.matrix", required=True, one_of="u"),
        Flag("--u-bilinear", "u.bilinear", required=True, one_of="u"),
        Flag("--v-name", "v.name", choices=_NAMED, one_of="v"),
        Flag("--v-matrix", "v.matrix", one_of="v"),
        Flag("--v-bilinear", "v.bilinear", one_of="v"),
    )),
}


def _put(target: dict, path: str, value: Any) -> None:
    """Set a dotted key; a block that is not an object is left to the validator."""
    *blocks, leaf = path.split(".")
    for key in blocks:
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            return
    target[leaf] = value


def _scenario_from_flags(command: str, args: argparse.Namespace) -> dict:
    """The scenario of one run: --scenario's file or the subcommand's flags,
    under the common flags.  Refuses, naming them, the given flags the chosen
    kind, family or mode does not read, a subcommand's flags next to
    --scenario, and common flags but --output next to --value-only."""
    rows = _COMMANDS[command][1]
    table = {r.dest: (r, r.when) for r in _COMMON}
    table.update((r.dest, (r, _INLINE + r.when)) for r in rows)
    given = [dest for dest in table if getattr(args, dest) is not None]
    values = {dest: getattr(args, dest) if dest in given else row.default
              for dest, (row, _) in table.items()}
    unmet = {dest: next((c for c in when if values.get(c[0]) not in c[1]), None)
             for dest, (_, when) in table.items()}
    refused: dict[str, list[str]] = {}
    for dest in given:
        if unmet[dest] is not None:
            mode_row, mode = table[unmet[dest][0]][0], values[unmet[dest][0]]
            label = (f"without {mode_row.names[0]}" if mode is None
                     else mode if mode_row.choices else mode_row.names[0])
            refused.setdefault(label, []).append(table[dest][0].names[0])
    if refused:
        raise _schema_error("; ".join(f"{command} {label} does not read {', '.join(flags)}"
                                      for label, flags in refused.items()))

    read = [row for dest, (row, _) in table.items() if unmet[dest] is None]
    for tag in dict.fromkeys(r.one_of for r in read if r.one_of):
        group = [r for r in read if r.one_of == tag]
        chosen = sum(r.dest in given for r in group)
        if chosen > 1 or not chosen and group[0].required:
            names = ", ".join(r.names[0] for r in group)
            raise _schema_error(f"{command} takes one of {names}")
    needed = [r for r in read if r.required and not r.one_of]
    if any(r.dest not in given for r in needed):
        raise _schema_error(f"{command} needs {' and '.join(r.names[0] for r in needed)}")

    params: dict[str, Any] = {}
    doc = (_load_scenario_file(args.scenario) if args.scenario is not None
           else {"command": command, "params": params, "schema": SCHEMA_VERSION})
    for row in read:
        value = values[row.dest]
        if value is not None and row.convert is not None:
            value = row.convert(value, values)
        if value is not None and row.path is not None:
            _put(params if row in rows else doc, row.path, value)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Cocycles, projective representations and convergence "
                    "certificates for discrete abelian groups.")
    common = argparse.ArgumentParser(add_help=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # The common flags go first: a subparser copies its parent's flags when it is made.
    for command, (help_line, rows) in [("", ("", _COMMON)), *_COMMANDS.items()]:
        p = sub.add_parser(command, parents=[common], help=help_line) if command else common
        for row in rows:
            kind = ({"action": "store_true"} if row.type is bool else
                    {"type": row.type, "choices": row.choices, "metavar": row.metavar})
            p.add_argument(*row.names, dest=row.dest, default=None, help=row.help, **kind)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _scenario_from_flags(args.command, args)
        if getattr(args, "value_only", None):
            text = _float_repr(dirichlet_value(**doc["params"])) + "\n"
        else:
            text = run_scenario(doc, args.command)
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
