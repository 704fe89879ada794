"""Amplitude vectors against the per-index closures they replaced.

Each oracle below is the closure ``amplitudes(i, g) -> complex`` that a
scenario constructor returned when amplitudes were read one index at a
time, together with the loop that read them up to the horizon, capped at
the scenario's length.  The vectors ``amplitudes(g, n)`` must hold the same
values bit for bit: real and imaginary parts are compared by ``float.hex``,
so the sign of a zero counts.
"""

import cmath
import math

import numpy as np

from twistlab import cli
from twistlab.actions import (
    regular_trace_scenario,
    rep_trace_scenario,
    scenario_from_regular_vectors,
    scenario_from_rep_vectors,
    scenario_from_values,
)
from twistlab.cocycles import (
    CocycleSequence,
    MatrixCocycle,
    from_list,
    geometric_matrix_sequence,
    trivial_cocycle,
)
from twistlab.groups import FiniteAbelianGroup, FolnerBox, IntegerLattice
from twistlab.reps import ProjectiveRep, box_vector, pauli_rep, twisted_inner_product

INF, NAN = math.inf, math.nan
Z3 = FiniteAbelianGroup((3,))
Z2Z2 = FiniteAbelianGroup((2, 2))
LATTICE2 = IntegerLattice(2)
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
HORIZONS = (0, 1, 2, 3, 4, 7)


# --- oracles: the per-index protocol ---


def oracle_read(closure, length, g, n_max):
    """The loop that read a closure up to the horizon, capped at ``length``."""
    n = n_max if length is None else min(n_max, length)
    return [closure(i, g) for i in range(1, n + 1)]


def oracle_values(group, table):
    data = {group.element(g): tuple(complex(v) for v in vs) for g, vs in table.items()}

    def amplitudes(i, g):
        key = group.element(g)
        if key not in data:
            raise KeyError(f"no amplitude data for {key}")
        return data[key][i - 1]

    return amplitudes, len(next(iter(data.values())))


def oracle_regular_vectors(cocycles, vectors):
    def amplitudes(i, g):
        u = cocycles.member(i) if isinstance(cocycles, CocycleSequence) else cocycles(i)
        return twisted_inner_product(u, vectors(i), g)

    return amplitudes, cocycles.length if isinstance(cocycles, CocycleSequence) else None


def oracle_rep_vectors(reps, vectors):
    def amplitudes(i, g):
        rep = reps(i)
        v = np.asarray(vectors(i), dtype=complex)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"vector {i} has norm {nrm}, expected a unit vector")
        return complex(np.vdot(v, rep.matrix(g) @ v))

    return amplitudes, None


def oracle_rep_trace(rep):
    group = rep.group
    traces = {}

    def amplitudes(i, g):
        g = group.require(g)
        if g not in traces:
            traces[g] = complex(np.trace(rep.matrix(g))) / rep.dimension
        return traces[g]

    return amplitudes, None


def oracle_regular_trace(group):
    def amplitudes(i, g):
        return 1.0 + 0.0j if group.element(g) == group.identity else 0.0 + 0.0j

    return amplitudes, None


def bits(values):
    return [(float.hex(z.real), float.hex(z.imag)) for z in map(complex, values)]


def assert_same_vectors(scenario, oracle, elements):
    closure, length = oracle
    for g in elements:
        g = scenario.group.element(g)
        for n in HORIZONS:
            vector = scenario.amplitudes(g, n)
            assert vector.dtype == complex
            assert bits(vector) == bits(oracle_read(closure, length, g, n)), (g, n)


# --- every constructor, bit for bit ---


EDGE_TABLE = {
    (0,): [1.0, complex(-0.0, -0.0), 0.5],
    (1,): [complex(0.0, -0.0), NAN, complex(0.25, NAN)],
    (2,): [-0.0, complex(INF, -0.0), complex(-INF, INF)],
}


def test_values_table_vectors_match_the_closure():
    assert_same_vectors(scenario_from_values(Z3, EDGE_TABLE),
                        oracle_values(Z3, EDGE_TABLE), [(0,), (1,), (2,), (4,), (-1,)])


def test_regular_vector_vectors_match_the_closure():
    vectors = {i: box_vector(FolnerBox(2, i)) for i in range(1, 8)}
    for cocycles in (geometric_matrix_sequence(ROTATION, 0.5),
                     lambda i: MatrixCocycle(ROTATION * 0.25 ** i)):
        assert_same_vectors(scenario_from_regular_vectors(LATTICE2, cocycles, vectors.get),
                            oracle_regular_vectors(cocycles, vectors.get),
                            [(0, 0), (1, 0), (2, -1)])


def test_regular_vector_vectors_stop_at_the_sequence_length():
    vectors = {i: box_vector(FolnerBox(2, i)) for i in range(1, 8)}
    capped = from_list([MatrixCocycle(ROTATION * 0.5 ** i) for i in (1, 2, 3)])
    scn = scenario_from_regular_vectors(LATTICE2, capped, vectors.get)
    assert [len(scn.amplitudes((1, 0), n)) for n in HORIZONS] == [0, 1, 2, 3, 3, 3]
    assert_same_vectors(scn, oracle_regular_vectors(capped, vectors.get),
                        [(0, 0), (1, 0), (1, -1)])


def test_rep_vector_vectors_match_the_closure():
    def reps(i):
        return pauli_rep()

    def vectors(i):
        return np.array([math.cos(1.0 / i), 1j * math.sin(1.0 / i)])

    assert_same_vectors(scenario_from_rep_vectors(reps, vectors),
                        oracle_rep_vectors(reps, vectors), Z2Z2.elements())


def test_rep_trace_vectors_match_the_closure():
    # diag(w^x, 1) with w a cube root of unity: traces off the real axis
    w = cmath.exp(2j * math.pi / 3)
    rep = ProjectiveRep(Z3, trivial_cocycle(Z3),
                        lambda x: np.diag([w ** Z3.require(x)[0], 1.0]), 2)
    assert_same_vectors(rep_trace_scenario(rep), oracle_rep_trace(rep), Z3.elements())
    pauli = pauli_rep()
    assert_same_vectors(rep_trace_scenario(pauli), oracle_rep_trace(pauli), Z2Z2.elements())


def test_regular_trace_vectors_match_the_closure():
    for group, elements in ((Z2Z2, Z2Z2.elements()),
                            (IntegerLattice(1), [(0,), (5,), (-3,)])):
        assert_same_vectors(regular_trace_scenario(group), oracle_regular_trace(group),
                            elements)


# --- group validation runs once per element, not once per index ---


def test_pauli_trace_action_checks_each_element_a_few_times(monkeypatch):
    calls = []
    contains = FiniteAbelianGroup.contains

    def counted(self, x):
        calls.append(x)
        return contains(self, x)

    monkeypatch.setattr(FiniteAbelianGroup, "contains", counted)
    elements = ["0,0", "1,1", "0,1"]
    doc = {"command": "action", "schema": 1, "horizons": {"n_max": 10_000},
           "params": {"elements": elements, "source": {"rep_trace": {"name": "pauli"}}}}
    cli.run_scenario(doc, "action")
    assert 0 < len(calls) <= 3 * len(elements)
