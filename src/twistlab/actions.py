"""Product-type actions: extension certificates and cohomological obstructions.

A product-type action is described here by its amplitude data
a_i(g) = <U_i(g) xi_i, xi_i>, one unit vector (or normalized trace) per
tensor factor.  The extension question reduces to the deficit series
sum_i (1 - |a_i(g)|): summable for every supplied g means the product
vectors absorb the action, while divergence along trace amplitudes at some
g != e certifies an outer automorphism.  Independently of any choice of
state, per-index twists that all share one nontrivial class obstruct the
product outright; no gauge can remove a commutation phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cocycles import (
    COBOUNDARY,
    Cocycle,
    CocycleSequence,
    NOT_COBOUNDARY,
    coboundary_test,
    commutator_bicharacter,
)
from .convergence import DEFAULT_SCALAR_HORIZON, modulus_deficit_series
from .groups import Element, Group, GroupMismatchError
from .reps import ProjectiveRep, TruncatedVector, twisted_inner_product
from .series import (
    INCONCLUSIVE,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    PowerModel,
    SeriesVerdict,
    TailModel,
)

INNER_CERTIFIED = "InnerCertified"
OUTER_CERTIFIED = "OuterCertified"

OBSTRUCTED = "Obstructed"
NOT_OBSTRUCTED = "NotObstructed"

SCOPE_NOTE = ("certificates quantify over the supplied group elements and "
              "the chosen amplitude data only")

_KINDS = ("vector", "trace")


@dataclass(frozen=True)
class ActionScenario:
    """Amplitudes a_i(g) for one product-type action.

    ``kind`` records where the amplitudes come from: ``"vector"`` for vector
    states and ``"trace"`` for normalized traces.  ``term_model`` optionally
    supplies, per group element, a tail model for the deficit terms
    1 - |a_i(g)|; constructors attach one when the construction itself pins
    the terms down.
    """

    group: Group
    kind: str
    amplitudes: Callable[[int, Element], complex]
    length: Optional[int] = None
    term_model: Optional[Callable[[Element], Optional[TailModel]]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")


def scenario_from_values(group: Group, table: dict, kind: str = "vector") -> ActionScenario:
    """Explicit per-element amplitude lists; all lists must share one length."""
    data = {}
    length = None
    for g, vs in table.items():
        key = group.element(g)
        vals = tuple(complex(v) for v in vs)
        if length is None:
            length = len(vals)
        elif len(vals) != length:
            raise ValueError("amplitude lists must all have the same length")
        data[key] = vals
    if not data:
        raise ValueError("need amplitude data for at least one element")

    def amplitudes(i: int, g: Element) -> complex:
        key = group.element(g)
        if key not in data:
            raise KeyError(f"no amplitude data for {key}")
        return data[key][i - 1]

    return ActionScenario(group, kind, amplitudes, length=length)


def _cocycle_at(cocycles: Union[CocycleSequence, Callable[[int], Cocycle]], i: int) -> Cocycle:
    if isinstance(cocycles, CocycleSequence):
        return cocycles.member(i)
    return cocycles(i)


def scenario_from_regular_vectors(group: Group,
                                  cocycles: Union[CocycleSequence, Callable[[int], Cocycle]],
                                  vectors: Callable[[int], TruncatedVector],
                                  length: Optional[int] = None) -> ActionScenario:
    """a_i(g) = <lambda_{u_i}(g) phi_i, phi_i> inside twisted regular representations."""
    if isinstance(cocycles, CocycleSequence) and length is None:
        length = cocycles.length

    def amplitudes(i: int, g: Element) -> complex:
        return twisted_inner_product(_cocycle_at(cocycles, i), vectors(i), g)

    return ActionScenario(group, "vector", amplitudes, length=length)


def scenario_from_rep_vectors(reps: Callable[[int], ProjectiveRep],
                              vectors: Callable[[int], np.ndarray],
                              length: Optional[int] = None) -> ActionScenario:
    """a_i(g) = <U_i(g) v_i, v_i> for dense matrix representations."""
    group = reps(1).group

    def amplitudes(i: int, g: Element) -> complex:
        rep = reps(i)
        v = np.asarray(vectors(i), dtype=complex)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"vector {i} has norm {nrm}, expected a unit vector")
        return complex(np.vdot(v, rep.matrix(g) @ v))

    return ActionScenario(group, "vector", amplitudes, length=length)


def rep_trace_scenario(rep: ProjectiveRep, length: Optional[int] = None) -> ActionScenario:
    """Normalized traces tr(U(g))/dim repeated along every factor.

    The terms are constant in i, so the attached model is exact and the
    verdict machinery settles each element from a single evaluation.
    """
    group = rep.group

    def amplitudes(i: int, g: Element) -> complex:
        m = rep.matrix(group.require(g))
        return complex(np.trace(m)) / rep.dimension

    def term_model(g: Element) -> PowerModel:
        deficit = max(0.0, 1.0 - abs(amplitudes(1, group.element(g))))
        return PowerModel(deficit, 0.0)

    return ActionScenario(group, "trace", amplitudes, length=length,
                          term_model=term_model)


def regular_trace_scenario(group: Group, length: Optional[int] = None) -> ActionScenario:
    """The canonical trace of every twisted regular representation.

    tau(lambda_u(g)) picks out the diagonal coefficient u(-g, g) delta_{g,e},
    which is 1 at the identity and 0 elsewhere regardless of the twist, so
    the amplitude data needs no cocycle at all.
    """

    def amplitudes(i: int, g: Element) -> complex:
        return 1.0 + 0.0j if group.element(g) == group.identity else 0.0 + 0.0j

    def term_model(g: Element) -> PowerModel:
        trivial = group.element(g) == group.identity
        return PowerModel(0.0 if trivial else 1.0, 0.0)

    return ActionScenario(group, "trace", amplitudes, length=length,
                          term_model=term_model)


def _amplitudes(scenario: ActionScenario, g: Element, n_max: int) -> list[complex]:
    n = n_max if scenario.length is None else min(n_max, scenario.length)
    return [scenario.amplitudes(i, g) for i in range(1, n + 1)]


def deficit_terms(scenario: ActionScenario, g,
                  n_max: int = DEFAULT_SCALAR_HORIZON) -> tuple[float, ...]:
    """The deficits 1 - |a_i(g)| over the horizon, capped at the scenario length."""
    return tuple(max(0.0, 1.0 - abs(complex(a)))
                 for a in _amplitudes(scenario, scenario.group.element(g), n_max))


def _extension(scenario: ActionScenario, g, model: Optional[TailModel],
               n_max: int) -> tuple[Optional[tuple[float, ...]], SeriesVerdict]:
    """Deficit terms (None at the identity, which needs none) and their verdict."""
    group = scenario.group
    g = group.element(g)
    if g == group.identity:
        return None, SeriesVerdict(PROVED_CONVERGENT, 0.0, 0, tail_bound=0.0,
                                   tail_derivation="the identity fixes every unit vector")
    values = _amplitudes(scenario, g, n_max)
    if model is None and scenario.term_model is not None:
        model = scenario.term_model(g)
    verdict = modulus_deficit_series(values, model, n_max=len(values))
    return tuple(max(0.0, 1.0 - abs(complex(a))) for a in values), verdict


def extension_condition(scenario: ActionScenario, g,
                        model: Optional[TailModel] = None,
                        n_max: int = DEFAULT_SCALAR_HORIZON) -> SeriesVerdict:
    """Deficit series sum_i (1 - |a_i(g)|) at one group element.

    An explicit ``model`` wins over the scenario's attached one.  The
    identity is settled without touching the amplitudes: every unit vector
    reports a_i(e) = 1 exactly.
    """
    return _extension(scenario, g, model, n_max)[1]


def trace_condition(scenario: ActionScenario, g,
                    model: Optional[TailModel] = None,
                    n_max: int = DEFAULT_SCALAR_HORIZON) -> SeriesVerdict:
    if scenario.kind != "trace":
        raise ValueError("scenario does not carry trace amplitudes")
    return extension_condition(scenario, g, model=model, n_max=n_max)


@dataclass(frozen=True)
class ActionVerdict:
    """Aggregated extension verdict over the supplied elements.

    ``deficits`` runs parallel to ``reports``: the evaluated deficit terms,
    or None at the identity, whose verdict needs no amplitudes.
    """

    status: str  # InnerCertified | OuterCertified | Inconclusive
    reports: tuple[tuple[Element, SeriesVerdict], ...]
    note: str
    deficits: tuple[Optional[tuple[float, ...]], ...] = ()


def inner_outer_verdict(scenario: ActionScenario, elements: Sequence,
                        models: Optional[dict] = None,
                        n_max: int = DEFAULT_SCALAR_HORIZON) -> ActionVerdict:
    """Aggregate the extension condition over the supplied elements.

    All convergent: the product vectors absorb every supplied element, so
    the action restricted to them is certified inner (implemented on the
    product space).  A divergent trace amplitude at g != e certifies an
    outer automorphism; a divergent vector amplitude only rules out the
    chosen state, which is reported but stays Inconclusive, since some other
    product state could still absorb the element.
    """
    group = scenario.group
    keys = [group.element(g) for g in elements]
    if not keys:
        raise ValueError("need at least one group element")
    reports = []
    deficits = []
    all_convergent = True
    divergent_witness: Optional[Element] = None
    for g in keys:
        model = models.get(g) if models else None
        terms, verdict = _extension(scenario, g, model, n_max)
        reports.append((g, verdict))
        deficits.append(terms)
        if verdict.verdict != PROVED_CONVERGENT:
            all_convergent = False
        if (verdict.verdict == PROVED_DIVERGENT and g != group.identity
                and divergent_witness is None):
            divergent_witness = g

    if divergent_witness is not None and scenario.kind == "trace":
        status, note = OUTER_CERTIFIED, (
            f"trace deficits diverge at g = {divergent_witness}, so no "
            f"inner implementation exists; {SCOPE_NOTE}")
    elif divergent_witness is not None:
        status, note = INCONCLUSIVE, (
            f"the chosen product state drifts orthogonally at "
            f"g = {divergent_witness} and cannot implement the action; "
            f"outerness itself needs trace amplitudes; {SCOPE_NOTE}")
    elif all_convergent:
        status, note = INNER_CERTIFIED, (
            f"every supplied element has a summable deficit series, so "
            f"the product vectors absorb the action; {SCOPE_NOTE}")
    else:
        status, note = INCONCLUSIVE, (
            f"at least one element resists certification; {SCOPE_NOTE}")
    return ActionVerdict(status, tuple(reports), note, tuple(deficits))


# ---------------------------------------------------------------------------
# the class obstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    status: str  # Obstructed | NotObstructed | Inconclusive
    witness: Optional[tuple[Element, Element]] = None
    detail: str = ""


ClassSource = Union[Cocycle, Sequence[Cocycle], CocycleSequence]


def _class_members(classes: ClassSource, count: Optional[int]) -> tuple[Cocycle, ...]:
    if isinstance(classes, CocycleSequence):
        n = count if count is not None else classes.length
        if n is None:
            raise ValueError("an unbounded class sequence needs an explicit count")
        return tuple(classes.member(i) for i in range(1, n + 1))
    if isinstance(classes, Cocycle):
        return (classes,)
    members = tuple(classes)
    if count is not None:
        members = members[:count]
    if not members:
        raise ValueError("need at least one per-index class")
    return members


def cohomological_obstruction(classes: ClassSource,
                              reference: Optional[Cocycle] = None,
                              count: Optional[int] = None,
                              tol: float = 1e-9) -> ObstructionReport:
    """Obstruction to a compatible product along the per-index twist classes.

    Two hypotheses are checked.  Every per-index twist must carry the same
    commutation phases as the reference on generator pairs; coboundary
    perturbations never move those phases, so this compares cohomology
    classes for the supported variants.  The reference class must then be
    nontrivial, settled by the coboundary test.  Both holding yields
    Obstructed together with the witnessing generator pair: no product of
    the factors admits a compatible representation.  A trivial reference
    class yields NotObstructed (this route produces no obstruction), and
    drifting commutation phases leave the question Inconclusive because the
    class-equality hypothesis itself fails.

    ``reference`` defaults to the first class member.  A non-bicharacter
    reference raises the unsupported-variant error through the coboundary
    test.
    """
    members = _class_members(classes, count)
    if reference is None:
        reference = members[0]
    group = reference.group
    kref = commutator_bicharacter(reference)
    gens = group.generators()
    pairs = [(x, y) for i, x in enumerate(gens) for y in gens[i + 1:]]
    for idx, u in enumerate(members, start=1):
        if u.group != group:
            raise GroupMismatchError(
                f"class {idx} lives on a different group than the reference")
        ku = commutator_bicharacter(u)
        for x, y in pairs:
            a = complex(ku.value(x, y))
            b = complex(kref.value(x, y))
            if abs(a - b) > tol:
                return ObstructionReport(
                    INCONCLUSIVE, witness=(x, y),
                    detail=(f"commutation phase of class {idx} is {a} against "
                            f"{b} at a generator pair; the classes drift, so "
                            "the class-equality hypothesis fails"))
    verdict = coboundary_test(reference, tol=tol)
    if verdict.status == NOT_COBOUNDARY:
        return ObstructionReport(
            OBSTRUCTED, witness=verdict.witness,
            detail=("every class matches the reference and the reference "
                    "twist is not a coboundary; no product of the factors "
                    "carries a compatible representation"))
    if verdict.status == COBOUNDARY:
        return ObstructionReport(
            NOT_OBSTRUCTED,
            detail=("the reference twist is a coboundary, so this "
                    "obstruction does not arise"))
    return ObstructionReport(INCONCLUSIVE,
                             detail=verdict.note or "coboundary test was inconclusive")
