"""The one thread helper, and the Fell check that shares its eigvals with it.

A Fell report must not depend on the number of threads.  Reports are
compared byte for byte with the helper at one thread and at its default,
and against ``fell_loop`` below: the check as one
loop over the elements, as it was before its eigenvalues were stacked.
BLAS is pinned to one thread, because the eigenvalues at dimension 240-256
change in the last bit with BLAS's own thread count.
"""

import ast
import copy
import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_report_golden as golden
from perfbench_support import DENSE_REPS_SEEDS, blas_threads, load_scenarios, one_blas_thread
from test_reps import on_the_recording_kernel
from twistlab import cli, parallel, reps
from twistlab.cocycles import ProductCocycle, TableCocycle, pauli_cocycle
from twistlab.groups import FiniteAbelianGroup
from twistlab.reps import (
    FellReport,
    ProjectiveRep,
    fell_absorption_check,
    pauli_rep,
    regular_rep,
    tensor_rep,
    unitarity_residual,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "twistlab"
THREAD_COUNTS = (1, 2, 3, 7)


def fell_loop(u, vrep):
    """The Fell check as one loop over the group's elements."""
    g = vrep.group
    n = g.order
    d = vrep.dimension
    lam_u = regular_rep(u, g)
    lam_uv = regular_rep(ProductCocycle([u, vrep.cocycle]), g)
    w = np.zeros((n * d, n * d), dtype=complex)
    for i, el in enumerate(g.elements()):
        w[i * d:(i + 1) * d, i * d:(i + 1) * d] = vrep.matrix(g.neg(el))
    w_adj = w.conj().T
    eye = np.eye(d)
    rows = []
    worst_res = 0.0
    worst_spec = 0.0
    for x in g.elements():
        left = np.kron(lam_u.matrix(x), vrep.matrix(x))
        right = np.kron(lam_uv.matrix(x), eye)
        res = float(np.max(np.abs(w @ left @ w_adj - right)))
        spec = reps.spectral_multiset_distance(np.linalg.eigvals(left),
                                               np.linalg.eigvals(right))
        rows.append((x, res, spec))
        worst_res = max(worst_res, res)
        worst_spec = max(worst_spec, spec)
    return FellReport(n, d, worst_res, worst_spec, unitarity_residual(w), tuple(rows))


@pytest.fixture(autouse=True)
def _blas_on_one_thread():
    with one_blas_thread():
        yield


def fell_reports(run):
    """run(check) with the loop, then with the helper at one thread and at its
    default, or two threads on a single CPU."""
    expected = run(fell_loop)
    got = {}
    for threads in (1, max(2, parallel._THREADS)):
        with patch.object(parallel, "_THREADS", threads):
            got[threads] = run(fell_absorption_check)
    return expected, got


def through_cli(command, doc):
    """The report of doc, with check in the CLI's place of the Fell check."""
    def run(check):
        with patch.object(cli, "fell_absorption_check", check):
            return cli.run_scenario(copy.deepcopy(doc), command)
    return run


DENSE_REPS_FELLS = [(seed, k, s) for seed in DENSE_REPS_SEEDS
                    for k, s in enumerate(load_scenarios().generate("dense-reps", seed))
                    if s.command == "fell"]


@pytest.mark.parametrize("seed,index,scenario", DENSE_REPS_FELLS,
                         ids=[f"{seed}-{s.sid}" for seed, _, s in DENSE_REPS_FELLS])
def test_dense_reps_fell_reports_do_not_depend_on_threads(dense_reps_defaults, seed, index,
                                                          scenario):
    """The report at the default thread count is the shared replay's; the loop
    and the other thread counts of ``fell_reports`` are run here."""
    run = through_cli("fell", scenario.doc)
    expected = run(fell_loop)
    assert dense_reps_defaults[seed][index] == expected
    for threads in {1, max(2, parallel._THREADS)} - {parallel._THREADS}:
        with patch.object(parallel, "_THREADS", threads):
            assert run(fell_absorption_check) == expected


GOLDEN_FELLS = [case for case in golden.CASES if case[1] == "fell"]


@pytest.mark.parametrize("name,command,params,n_max,series", GOLDEN_FELLS,
                         ids=[case[0] for case in GOLDEN_FELLS])
def test_golden_fell_reports_do_not_depend_on_threads(name, command, params, n_max, series):
    doc = {"command": command, "params": params, "schema": 1, "horizons": {"n_max": n_max}}
    expected, got = fell_reports(through_cli(command, doc))
    assert golden._digest(expected) == golden.DIGESTS[name]
    assert all(text == expected for text in got.values())


def random_table(group, rng):
    """Unit-modulus phases, normalized at the identity: enough for the check,
    which multiplies whatever values it is given."""
    phases = rng.uniform(-np.pi, np.pi, (group.order, group.order))
    phases[0, :] = phases[:, 0] = 0.0
    return TableCocycle(group, np.exp(1j * phases))


def random_rep(group, d, rng, bad=None):
    """A map from the group to random d x d unitaries; entry (0, 0) of the
    element ``bad`` is NaN."""
    mats = {}
    for x in group.elements():
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        if x == bad:
            q[0, 0] = np.nan
        mats[x] = q
    return ProjectiveRep(group, random_table(group, rng), mats.__getitem__, d)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2,), (3,), (2, 2), (5,), (2, 3)]), st.data())
def test_fell_check_equals_the_loop_on_both_sides_of_the_stack_threshold(moduli, data):
    """Dimensions n * d from 2 to 330: stacks of one element, of several, of
    the whole group; the last stack with a remainder or without."""
    g = FiniteAbelianGroup(moduli)
    n = g.order
    d = data.draw(st.one_of(st.integers(1, 40 // n), st.integers(200 // n, 330 // n)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    u = random_table(g, np.random.default_rng(seed))
    vrep = random_rep(g, d, np.random.default_rng(seed + 1))
    expected, got = fell_reports(lambda check: repr(check(u, vrep)))
    assert all(text == expected for text in got.values())


def eigvals_calls():
    """np.linalg.eigvals wrapped to record the shape of every call."""
    shapes = []
    real = np.linalg.eigvals

    def recorded(a):
        shapes.append(np.shape(a))
        return real(a)

    return shapes, patch.object(np.linalg, "eigvals", recorded)


@pytest.mark.parametrize("moduli,d", [((2,), 126), ((3, 5), 15), ((4,), 16), ((5,), 5),
                                      ((7,), 37), ((2, 2), 30), ((6,), 1)])
def test_every_eigvals_call_frees_the_gil_or_covers_the_group(moduli, d):
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(7)
    shapes, recording = eigvals_calls()
    with recording:
        fell_absorption_check(random_table(g, rng), random_rep(g, d, rng))
    n = g.order
    assert sum(k for k, *_ in shapes) == 2 * n
    for k, dim, _ in shapes:
        assert dim == n * d
        assert k * dim > reps._GIL_FREE_EIGENVALUES or k == 2 * n


def test_every_planned_stack_frees_the_gil_or_covers_the_group():
    """Orders up to the cap with small and largest dimensions: rounds of
    whole elements, in order."""
    cap = reps.DIMENSION_CAP
    for n in [*range(1, 300), *range(300, cap, 37), cap - 1, cap]:
        for d in sorted({1, 2, 3, 5, cap // n}):
            if not 1 <= n * d <= cap:
                continue
            plan = reps._fell_plan(n, d)
            assert [i for elements, _ in plan for i in elements] == list(range(n))
            for elements, stacks in plan:
                assert [m for stack in stacks for m in stack] == list(range(2 * len(elements)))
                whole_group = len(plan) == 1 == len(stacks)
                for stack in stacks:
                    assert len(stack) * n * d > reps._GIL_FREE_EIGENVALUES or whole_group


def test_fell_check_under_fast_thread_switching():
    """More threads than CPUs, switched every microsecond, over four stacks
    and the residuals: a stack taken twice or never would change the bits
    or leave a spectrum missing."""
    g = FiniteAbelianGroup((8,))
    rng = np.random.default_rng(13)
    u = random_table(g, rng)
    vrep = random_rep(g, 16, rng)
    assert [len(stacks) for _, stacks in reps._fell_plan(8, 16)] == [4]
    expected = repr(fell_loop(u, vrep))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with patch.object(parallel, "_THREADS", 7):
            for _ in range(10):
                assert repr(fell_absorption_check(u, vrep)) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_a_nan_matrix_raises_the_loops_error(threads):
    g = FiniteAbelianGroup((2, 3))
    rng = np.random.default_rng(3)
    u = random_table(g, rng)
    vrep = random_rep(g, 43, rng, bad=(1, 1))
    with pytest.raises(np.linalg.LinAlgError) as loop_error:
        fell_loop(u, vrep)
    running = threading.active_count()
    with patch.object(parallel, "_THREADS", threads), \
            pytest.raises(np.linalg.LinAlgError) as error:
        fell_absorption_check(u, vrep)
    assert str(error.value) == str(loop_error.value)
    assert threading.active_count() == running


class StackError(Exception):
    pass


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("failing", [0, 3, 5])
def test_the_first_failing_stack_reaches_the_caller(threads, failing):
    """Dimension 258: each stack holds one element's two products, so stack k
    starts with np.kron of element k's matrices.  Every stack from ``failing``
    on raises, and stack ``failing`` only after a pause, when the threads have
    failed later ones; its error must still be the one raised."""
    g = FiniteAbelianGroup((6,))
    rng = np.random.default_rng(5)
    u = random_table(g, rng)
    vrep = random_rep(g, 43, rng)
    lam_u = regular_rep(u, g)
    firsts = [np.kron(lam_u.matrix(x), vrep.matrix(x)) for x in g.elements()]
    real = np.linalg.eigvals

    def failing_eigvals(a):
        k = next(k for k, first in enumerate(firsts) if np.array_equal(a[0], first))
        if k == failing:
            time.sleep(0.05)
        if k >= failing:
            raise StackError(k)
        return real(a)

    running = threading.active_count()
    with patch.object(parallel, "_THREADS", threads), \
            patch.object(np.linalg, "eigvals", failing_eigvals), \
            pytest.raises(StackError) as info:
        fell_absorption_check(u, vrep)
    assert info.value.args == (failing,)
    assert threading.active_count() == running


def test_matrices_and_matching_stay_on_the_calling_thread():
    """With no matrix kept, every read builds its matrix again, so the
    calls to regular_rep_matrix list the reads: the same ones as the loop's,
    in the same order, all on the calling thread, as every spectral match."""
    g = FiniteAbelianGroup((2, 4))
    rng = np.random.default_rng(11)
    u = random_table(g, rng)
    vrep = regular_rep(random_table(g, rng), g)
    caller = threading.get_ident()

    def recorded(run):
        reads, matches = [], []
        build, match = reps.regular_rep_matrix, reps.spectral_multiset_distance

        def read(cocycle, group, x):
            kind = {id(u): "u", id(vrep.cocycle): "v"}.get(id(cocycle), "uv")
            reads.append((kind, x, threading.get_ident()))
            return build(cocycle, group, x)

        def matched(a, b):
            matches.append(threading.get_ident())
            return match(a, b)

        with patch.object(reps, "MATRIX_CACHE_BYTES", 0), \
                patch.object(reps, "regular_rep_matrix", read), \
                patch.object(reps, "spectral_multiset_distance", matched):
            report = run()
        threads = {t for *_, t in reads} | set(matches)
        return report, [read[:2] for read in reads], threads, len(matches)

    expected = recorded(lambda: fell_loop(u, vrep))
    with patch.object(parallel, "_THREADS", 3):
        got = recorded(lambda: fell_absorption_check(u, vrep))
    assert repr(got[0]) == repr(expected[0])
    assert got[1] == expected[1] and len(got[1]) == 4 * g.order
    assert got[2] == expected[2] == {caller}
    assert got[3] == expected[3] == g.order


# --- the monomial Fell residuals against the loop ---


def barred(*args):
    raise AssertionError("the Fell check formed a dense W or a dim x dim product")


def monomial_fell(u, vrep):
    """fell_absorption_check with its dense residuals and dense W barred, so
    the monomial path answers."""
    with patch.multiple(reps, _dense_fell_residuals=barred, _intertwiner=barred,
                        unitarity_residual=barred):
        return fell_absorption_check(u, vrep)


def assert_monomial_fell_equals_the_loop(u, vrep):
    got, expected = monomial_fell(u, vrep), fell_loop(u, vrep)
    assert [r for _, r, _ in got.per_element] == [r for _, r, _ in expected.per_element]
    assert got.intertwiner_unitarity == expected.intertwiner_unitarity
    assert repr(got) == repr(expected)


@on_the_recording_kernel
def test_the_cli_fell_scenarios_keep_their_reports_with_the_dense_forms_barred(
        dense_reps_defaults):
    """The CLI builds Pauli and regular reps: every golden and dense-reps Fell
    scenario answers from the monomial path, with the same report."""
    for name, command, params, n_max, _ in GOLDEN_FELLS:
        doc = {"command": command, "params": params, "schema": 1, "horizons": {"n_max": n_max}}
        assert golden._digest(through_cli(command, doc)(monomial_fell)) == golden.DIGESTS[name]
    for seed, index, scenario in DENSE_REPS_FELLS:
        assert through_cli("fell", scenario.doc)(monomial_fell) == dense_reps_defaults[seed][index]


def random_monomial_rep(group, d, rng):
    """A map from the group to random d x d monomial unitaries."""
    mats = {}
    for x in group.elements():
        mat = np.zeros((d, d), dtype=complex)
        mat[rng.permutation(d), np.arange(d)] = np.exp(1j * rng.uniform(-np.pi, np.pi, d))
        mats[x] = mat
    return ProjectiveRep(group, random_table(group, rng), mats.__getitem__, d)


# Dimensions n^2 = 4, 9, 25, 36, 49, 225 and 256.
@on_the_recording_kernel
@pytest.mark.parametrize("moduli", [(2,), (3,), (5,), (2, 3), (7,), (3, 5), (4, 4)])
def test_regular_fell_residuals_equal_the_loop(moduli):
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(list(moduli))
    assert_monomial_fell_equals_the_loop(random_table(g, rng),
                                         regular_rep(random_table(g, rng), g))


@on_the_recording_kernel
def test_tensor_and_pauli_fell_residuals_equal_the_loop():
    """d != n: dimensions 8 and 32 over Z2xZ2, 27 over Z3 and 125 over Z5."""
    rng = np.random.default_rng(29)
    z2z2, z3, z5 = (FiniteAbelianGroup(m) for m in ((2, 2), (3,), (5,)))
    for u, vrep in [
        (pauli_cocycle(), pauli_rep()),
        (random_table(z2z2, rng), pauli_rep()),
        (random_table(z2z2, rng),
         tensor_rep([pauli_rep(), regular_rep(random_table(z2z2, rng), z2z2)])),
        (random_table(z3, rng), tensor_rep([regular_rep(random_table(z3, rng), z3)] * 2)),
        (random_table(z5, rng), tensor_rep([regular_rep(random_table(z5, rng), z5)] * 2)),
    ]:
        assert_monomial_fell_equals_the_loop(u, vrep)


# Dimensions 6, 6, 14, 15 and 258 (dim mod 4 = 2 and 3), d = 1 among them;
# with no matrix kept, each round holds one element.
@on_the_recording_kernel
@pytest.mark.parametrize("budget", [reps.MATRIX_CACHE_BYTES, 0])
@pytest.mark.parametrize("moduli,d", [((3,), 2), ((2, 3), 1), ((7,), 2), ((5,), 3), ((6,), 43)])
def test_monomial_fell_residuals_equal_the_loop(moduli, d, budget):
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng([g.order, d])
    u, vrep = random_table(g, rng), random_monomial_rep(g, d, rng)
    with patch.object(reps, "MATRIX_CACHE_BYTES", budget):
        assert_monomial_fell_equals_the_loop(u, vrep)


@on_the_recording_kernel
def test_fell_residuals_of_entries_off_the_unit_circle_equal_the_loop():
    """lambda_uv entries of modulus 2 where the rows of W left W* and of
    right disagree: the residual reads |right| there, not |W left W*|."""
    g = FiniteAbelianGroup((5,))
    rng = np.random.default_rng(37)
    u, vrep = random_table(g, rng), random_monomial_rep(g, 3, rng)
    vrep.cocycle.table = vrep.cocycle.table * 2.0  # past TableCocycle's modulus check
    assert max(r for _, r, _ in fell_loop(u, vrep).per_element) > 2.0
    assert_monomial_fell_equals_the_loop(u, vrep)


def fell_inputs(case, rng):
    """(u, vrep) over Z2xZ3 that the monomial path must refuse."""
    g = FiniteAbelianGroup((2, 3))
    u = random_table(g, rng)
    if case == "qr":
        return u, random_rep(g, 5, rng)
    vrep = random_monomial_rep(g, 5, rng)
    m = vrep.matrix((1, 2))
    if case in ("nan", "inf", "huge"):
        m[m != 0] *= {"nan": np.nan, "inf": np.inf, "huge": 1e200}[case]
    elif case == "not onto":
        m[0] = m.sum(axis=0)
        m[1:] = 0
    elif case == "overflow":
        # finite matrices whose residual overflows
        table = np.array(u.table)
        table[3, 4] = complex(1.7e308, 1.7e308)
        u.table = table  # past TableCocycle's modulus check
    elif case == "nan cocycle":
        # finite matrices; lambda_uv takes the NaN, W does not
        table = np.array(vrep.cocycle.table)
        table[3, 4] = np.nan
        vrep = ProjectiveRep(g, TableCocycle(g, table), vrep.matrix, 5)
    return u, vrep


@pytest.mark.parametrize("case", ["qr", "nan", "inf", "huge", "not onto", "overflow",
                                  "nan cocycle"])
def test_other_input_takes_the_dense_residuals_and_answers_as_the_loop(case):
    """Non-monomial matrices, a NaN or infinite entry, entries whose products
    overflow, a W with an empty row, a residual past the float range, and a
    NaN cocycle value: each takes
    _dense_fell_residuals, and gives the loop's per-element residuals and
    unitarity, or raises its error."""
    def run(check):
        try:
            report = check(*fell_inputs(case, np.random.default_rng(31)))
        except np.linalg.LinAlgError as exc:
            return str(exc)
        return repr([r for _, r, _ in report.per_element]), repr(report.intertwiner_unitarity)

    calls = []
    dense = reps._dense_fell_residuals

    def recorded(*args):
        calls.append(args[1])
        return dense(*args)

    expected = run(fell_loop)
    with patch.object(reps, "_dense_fell_residuals", recorded):
        assert run(fell_absorption_check) == expected
    assert sum(calls) >= 1


def fell_residuals(seed):
    """[per-element residuals, intertwiner_unitarity] of each of the seed's
    dense-reps Fell reports."""
    reports = [json.loads(cli.run_scenario(copy.deepcopy(s.doc), s.command))["result"]
               for s in load_scenarios().generate("dense-reps", seed) if s.command == "fell"]
    return [[[e["residual"] for e in r["per_element"]], r["intertwiner_unitarity"]]
            for r in reports]


def test_fell_residuals_do_not_depend_on_the_blas_kernel():
    """On a kernel without FMA the residuals keep the recording kernel's
    bits; the spectral distances still follow LAPACK's."""
    found = golden.replay_without_fma("from test_parallel import fell_residuals\n"
                                      "print(json.dumps({'unfused': unfused, "
                                      "'fells': fell_residuals(0)}))")
    # the child's zgemm really rounds differently from the FMA kernels
    assert found["unfused"] > 0
    assert found["fells"] == fell_residuals(0)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_map_ordered_returns_in_call_order_and_joins(threads):
    made = []

    def scratch():
        made.append(threading.get_ident())
        return []

    def work(buf, j):
        buf.append(j)
        return j * j

    running = threading.active_count()
    with patch.object(parallel, "_THREADS", threads):
        assert parallel.map_ordered(work, 20, scratch) == [j * j for j in range(20)]
        assert parallel.map_ordered(work, 0, scratch) == []
    assert made == [threading.get_ident()] * min(threads, 20)
    assert threading.active_count() == running


class WaitingThread(threading.Thread):
    """A thread whose start returns only once some thread other than the
    caller has run a call, or after a second."""

    began = threading.Event()

    def start(self):
        super().start()
        self.began.wait(1.0)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_map_ordered_runs_call_0_on_the_calling_thread(threads):
    """The caller takes call 0 before it starts the other threads, so it runs
    a call however long they take to start and however fast they run."""
    caller = threading.get_ident()
    ran = {}

    def work(buf, j):
        ran[j] = threading.get_ident()
        if ran[j] != caller:
            WaitingThread.began.set()
        return j

    with patch.object(parallel, "_THREADS", threads), \
            patch.object(parallel, "threading",
                         SimpleNamespace(Thread=WaitingThread, Lock=threading.Lock)):
        for count in (1, 2, 20):
            ran.clear()
            WaitingThread.began.clear()
            assert parallel.map_ordered(work, count, list) == list(range(count))
            assert ran[0] == caller
            assert len(ran) == count


def test_fell_threads_leave_blas_its_share_of_the_cpus():
    """Concurrent LAPACK calls on a BLAS with threads of its own run slower
    than one after another, so the Fell check divides the CPUs by BLAS's
    thread count, and takes one when BLAS cannot be asked; box twist means
    do not call BLAS."""
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    g = FiniteAbelianGroup((6,))
    rng = np.random.default_rng(17)
    u = random_table(g, rng)
    vrep = random_rep(g, 8, rng)
    with patch.object(parallel, "_THREADS", 4):
        assert (parallel._threads(True), parallel._threads(False)) == (4, 4)
        with blas_threads(2):
            assert (parallel._threads(True), parallel._threads(False)) == (2, 4)
        with patch.object(parallel, "_blas_threads_getter", lambda: None):
            assert (parallel._threads(True), parallel._threads(False)) == (1, 4)
    with patch.object(parallel, "_THREADS", 2), blas_threads(2), \
            patch.object(parallel, "threading",
                         SimpleNamespace(Thread=no_thread, Lock=threading.Lock)):
        assert repr(fell_absorption_check(u, vrep)) == repr(fell_loop(u, vrep))


def test_threads_are_started_in_one_module():
    """Only parallel.py imports a thread or process library, and it builds
    threading.Thread at one place."""
    libraries = {"threading", "concurrent", "multiprocessing", "_thread"}
    importers, built = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.partition(".")[0] in libraries for name in names):
                importers.add(path.name)
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process",
                            "Pool", "start_new_thread"):
                    built.append(f"{path.name}:{node.lineno}")
    assert importers == {"parallel.py"}
    assert len(built) == 1 and built[0].startswith("parallel.py:"), built

