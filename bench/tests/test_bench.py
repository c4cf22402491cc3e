"""Tests of the benchmark itself: span arithmetic, the identity rebind, the
seed-to-argv mapping and the output check.

    python3 -m pytest -q bench/tests
"""

import threading

import numpy as np
import pytest

import tracer
import workloads
from tracer import Span


def test_self_time_nested_same_thread():
    spans = [Span(0, "a", 0.0, 10.0, None, 1),
             Span(1, "b", 2.0, 4.0, 0, 1),
             Span(2, "c", 2.5, 3.0, 1, 1),
             Span(3, "b", 6.0, 9.0, 0, 1)]
    selfs = tracer.self_times(spans)
    assert selfs == {0: pytest.approx(5.0), 1: pytest.approx(1.5),
                     2: pytest.approx(0.5), 3: pytest.approx(3.0)}


def test_self_time_children_on_two_threads_overlap():
    # two workers under one parent: their union [1, 8] is covered once
    spans = [Span(0, "sweep", 0.0, 10.0, None, 1),
             Span(1, "point", 1.0, 5.0, 0, 2),
             Span(2, "point", 3.0, 8.0, 0, 3),
             Span(3, "eig", 2.0, 3.0, 1, 2),
             Span(4, "late", 9.5, 12.0, 0, 3),
             Span(5, "sweep", 20.0, 30.0, None, 1),
             Span(6, "after", 31.0, 33.0, 5, 2)]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 7.0 - 0.5)
    assert selfs[5] == pytest.approx(10.0)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(2.5)


def test_worker_thread_spans_take_the_submitting_parent():
    tr = tracer.Tracer()
    outer = tr.open("outer")

    def work():
        tr.close(tr.open("inner"))

    parent = tr.current()
    t = threading.Thread(target=tr.run_as_child_of, args=(parent, work))
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tr.close(outer)
    inner = [s for s in tr.spans if s.name == "inner"]
    assert len(inner) == 1 and inner[0].parent == outer.id
    assert inner[0].thread != outer.thread


@pytest.fixture
def traced():
    import gaugeqed.cli  # noqa: F401  (imports every module the CLI uses)

    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _parents_of(tr, name):
    by_id = {s.id: s for s in tr.spans}
    return [by_id[s.parent].name for s in tr.spans
            if s.name == name and s.parent is not None]


def test_identity_rebind_catches_every_import_of_hermitian_eig(traced):
    from gaugeqed import experiments, linalg, rabi

    p = rabi.RabiParams(eta=0.3, cutoff=6)
    rabi.build_H_C_taylor(p, 3)
    experiments.lowest_transitions(rabi.build_H_D(p), 2)
    X = linalg.OperatorMatrix(np.eye(3), hermitian_hint=True)
    linalg.matrix_function(X, np.cos)
    parents = _parents_of(traced, "linalg.hermitian_eig")
    assert "rabi.build_H_C_taylor" in parents
    assert "experiments.lowest_transitions" in parents
    assert "linalg.matrix_function" in parents
    assert set(_parents_of(traced, "lapack.eigh")) \
        | set(_parents_of(traced, "lapack.eigvalsh")) == {"linalg.hermitian_eig"}
    summary = tracer.summarize(traced.spans, threads=1)
    assert summary["lapack.eigh.calls_for_X"][0] == 2
    assert summary["linalg.OperatorMatrix.inits"][0] > 0


def test_uninstall_restores_the_original_objects():
    import gaugeqed.cli  # noqa: F401
    from gaugeqed import experiments, linalg, rabi

    before = (rabi.hermitian_eig, experiments.hermitian_eig,
              np.linalg.eigh, linalg.OperatorMatrix.__post_init__)
    tr = tracer.Tracer()
    tr.install()
    assert rabi.hermitian_eig is not before[0]
    assert experiments.hermitian_eig is rabi.hermitian_eig
    tr.uninstall()
    assert (rabi.hermitian_eig, experiments.hermitian_eig, np.linalg.eigh,
            linalg.OperatorMatrix.__post_init__) == before
    assert "open" not in vars(experiments)


SEED0_ARGV = {
    "rabi-deep": ["rabi-sweep", "--eta-max", "3.0", "--eta-step", "0.05"],
    "taylor": ["taylor-study"],
    "full-model": ["full-model"],
    "dicke-threads": ["dicke-sweep", "--n-dipoles", "4", "--eta-max", "0.6",
                      "--threads", "2"],
}


def test_seed_zero_is_the_documented_argv():
    assert {name: workloads.argv_for(w, 0)
            for name, w in workloads.WORKLOADS.items()} == SEED0_ARGV


@pytest.mark.parametrize("name", ["rabi-deep", "taylor", "dicke-threads"])
def test_other_seeds_move_the_grid_top_within_one_step(name):
    w = workloads.WORKLOADS[name]
    eta_max, step, _ = w.eta_grid
    base = workloads.eta_grid(SEED0_ARGV[name], w)
    for seed in range(1, 20):
        argv = workloads.argv_for(w, seed)
        assert argv == workloads.argv_for(w, seed)
        top = float(argv[argv.index("--eta-max") + 1])
        assert eta_max <= top < eta_max + step
        assert len(workloads.eta_grid(argv, w)) == len(base)


def test_other_seeds_scale_a0_by_at_most_ten_percent():
    w = workloads.WORKLOADS["full-model"]
    for seed in range(1, 20):
        argv = workloads.argv_for(w, seed)
        assert 0.27 <= float(argv[argv.index("--a0") + 1]) <= 0.33


def _perturb(text, row_filter):
    """Scale the last value of the first data row that passes row_filter."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    i = next(j for j in range(first + 1, len(lines))
             if row_filter(lines[j]))
    head, last = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(last) * 1.001:.12e}"
    return "\n".join(lines) + "\n"


# a row whose value no other row is compared against (Ccorr is held to D)
ROW_FILTERS = {"rabi-deep": lambda line: line.startswith("Cstd,")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_check_flags_one_perturbed_value(name):
    w = workloads.WORKLOADS[name]
    argv = workloads.argv_for(w, 0)
    text = workloads.reference_text(w)
    clean = workloads.check_run(w, 0, argv, 0, text)
    assert clean.failed == 0 and clean.attempted == len(
        workloads.parse_csv(text).rows)
    bad = workloads.check_run(
        w, 0, argv, 0, _perturb(text, ROW_FILTERS.get(name, lambda _: True)))
    assert (bad.attempted, bad.failed) == (clean.attempted, 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_run_that_exits_2_fails_every_item(name):
    w = workloads.WORKLOADS[name]
    argv = workloads.argv_for(w, 0)
    chk = workloads.check_run(w, 0, argv, 2, workloads.reference_text(w))
    assert chk.attempted == chk.failed == workloads.expected_items(w, argv) > 0
    missing = workloads.check_run(w, 0, argv, 0, None)
    assert missing.failed == missing.attempted == chk.attempted


def test_invariants_flag_gauge_disagreement_and_unconverged_points():
    w = workloads.WORKLOADS["rabi-deep"]
    argv = workloads.argv_for(w, 0)
    text = workloads.reference_text(w)
    assert workloads.check_run(w, 1, argv, 0, text).failed == 0
    moved = _perturb(text, lambda line: line.startswith("Ccorr,"))
    assert workloads.check_run(w, 1, argv, 0, moved).failed == 1
    unconverged = text.replace("Cstd,0.5,80,1,", "Cstd,0.5,80,0,")
    assert workloads.check_run(w, 1, argv, 0, unconverged).failed == 1


def test_taylor_invariants_hold_eta_star_to_the_rows():
    w = workloads.WORKLOADS["taylor"]
    argv = workloads.argv_for(w, 0)
    text = workloads.reference_text(w)
    assert workloads.check_run(w, 1, argv, 0, text).failed == 0
    wrong_star = text.replace("n=200:1.4", "n=200:1.375")
    chk = workloads.check_run(w, 1, argv, 0, wrong_star)
    assert chk.failed == sum(1 for line in text.splitlines()
                             if line.startswith("200,"))


def test_full_model_invariant_needs_a_shrinking_gap():
    w = workloads.WORKLOADS["full-model"]
    argv = workloads.argv_for(w, 1)
    text = workloads.reference_text(w)
    assert workloads.check_run(w, 1, argv, 0, text).failed == 0
    grown = text.replace("32,2.591260539475e-13", "32,2.0e-01")
    assert workloads.check_run(w, 1, argv, 0, grown).failed == 1


def test_median_and_tail_needs_ten_samples_beyond_the_percentile():
    import run

    assert "no tail percentile" in run.median_and_tail([1.0] * 10)
    text = run.median_and_tail([float(i) for i in range(1, 21)])
    assert "median 10.5" in text and "p50 10" in text and "n=20" in text
