"""The benchmark's own tests: seeded inputs, failure counting, the tracer
and the comparison rule.

    python3 -m pytest perfbench/tests -q
"""

import collections
import itertools
import random

import pytest

from perfbench import compare, run, worker, workloads
from perfbench.tracer import METHODS, Tracer


def first_pass(workload, seed):
    stream_fn, _ = workloads.STREAMS[workload]
    return list(itertools.islice(stream_fn(seed), workloads.pass_size(workload)))


def cell_of(item):
    h = item.expected[0]
    return (h.t, h.d)


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_same_seed_same_items(workload):
    a = [(i.family, i.key) for i in first_pass(workload, 7)]
    b = [(i.family, i.key) for i in first_pass(workload, 7)]
    assert a == b


@pytest.mark.parametrize("workload", sorted(workloads.STREAMS))
def test_other_seed_keeps_family_mix(workload):
    a = first_pass(workload, 7)
    b = first_pass(workload, 8)
    assert [(i.family, i.key) for i in a] != [(i.family, i.key) for i in b]
    assert collections.Counter(i.family for i in a) == collections.Counter(i.family for i in b)
    if workload == "stratum_roundtrip":
        assert [cell_of(i) for i in a] == [cell_of(i) for i in b]


def test_stratum_moves_are_invertible_and_generic():
    rng = random.Random(3)
    for _ in range(200):
        m = workloads._random_invertible(rng)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
        assert all(x in workloads.MOVE_ENTRIES for row in m for x in row)


def test_wrong_expected_answer_counts_as_failure():
    item = next(workloads.rank_loci_stream(1))
    item.expected = "0" * 64
    failures = []
    assert worker._execute(workloads.run_cli_item, item, failures, workloads.Mismatch) is False
    assert failures and "differs from the reference" in failures[0]


def test_raising_item_counts_as_failure():
    item = workloads.Item("burch", "broken", build=lambda: "not a subspace", expected=1)
    failures = []
    assert worker._execute(workloads.run_tangent, item, failures, workloads.Mismatch) is False
    assert "AttributeError" in failures[0]


def test_cli_usage_error_is_a_failure_not_an_exit():
    item = workloads.Item("golden", "bad", build=lambda: ["porteous", "-t", "2"], expected="")
    failures = []
    assert worker._execute(workloads.run_cli_item, item, failures, workloads.Mismatch) is False
    assert "exit code" in failures[0]


def test_correct_items_pass():
    for workload in ("stratum_roundtrip", "tangent_burch"):
        stream_fn, run_fn = workloads.STREAMS[workload]
        item = next(stream_fn(5))
        item.prepare()
        run_fn(item)


def _library_namespaces():
    import importlib

    import levelalg

    from perfbench.tracer import LAYERS

    return [levelalg] + [importlib.import_module(f"levelalg.{m}") for m in LAYERS]


def test_tracer_wraps_every_import_site_and_restores_it():
    from levelalg import forms, schubert

    before = {(ns.__name__, k): v for ns in _library_namespaces() for k, v in vars(ns).items()}
    methods_before = {key: getattr(__import__(f"levelalg.{key[0]}", fromlist=["x"]),
                                   key[1]).__dict__[key[2]] for key in METHODS}
    lam = forms.parse_subspace_lines(["y1^4", "y2^4"])
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_refs() == []
        import levelalg.apolarity as apolarity
        import levelalg.linalg as linalg

        assert apolarity.rank is linalg.rank
        assert getattr(apolarity.rank, "__traced__", False)
        schubert.lr_coefficient.cache_info()  # still readable through the wrapper
        tracer.item_id = 0
        tracer.span("bench.item", apolarity.hilbert_function, lam)
    finally:
        tracer.uninstall()
    assert tracer.wrapped_refs() == []
    after = {(ns.__name__, k): v for ns in _library_namespaces() for k, v in vars(ns).items()}
    assert all(after[key] is value for key, value in before.items())
    for key, raw in methods_before.items():
        cls = getattr(__import__(f"levelalg.{key[0]}", fromlist=["x"]), key[1])
        assert cls.__dict__[key[2]] is raw
    names = {span[3] for span in tracer.spans}
    assert {"bench.item", "apolarity.hilbert_function", "apolarity.catalecticant_matrix",
            "linalg.rank", "linalg.rref"} <= names
    assert tracer.stats["forms.monomials"].calls > 0  # aggregated, not stored
    assert "forms.monomials" not in names
    st = tracer.stats
    total_self = sum(s.self_time for s in st.values())
    assert total_self == pytest.approx(st["bench.item"].outer_total, rel=1e-6)


def test_tail_latency_keeps_ten_items_beyond():
    value, pct = run.tail_latency([float(k) for k in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_host_speed_scales_follow_the_probes_around_each_item():
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_S
    # probes every 0.5 s from t = 0; the host runs at half speed from t = 10 on
    probes = [(t / 2, ref if t < 20 else 2 * ref) for t in range(40)]
    items = [(0.2, 0.1), (4.0, 0.5), (15.0, 2.0), (100.0, 1.0)]
    assert hostspeed.local_scales(items, probes) == [1.0, 1.0, 0.5, 0.5]
    # an item is scaled by the probes around it, here four fast and one slow
    assert hostspeed.local_scales([(9.0, 0.1)], probes) == [1.0]
    assert hostspeed.local_scales([(3.0, 0.1)], probes[:2]) == [1.0]
    assert hostspeed.probe() > 0


def test_compare_rule():
    parent = [100.0 + k for k in range(10)]
    assert compare.verdict(parent, [120.0 + k for k in range(10)], 0.1, "higher")["verdict"] \
        == "improved"
    assert compare.verdict(parent, [101.0 + k for k in range(10)], 0.1, "higher")["verdict"] \
        == "no worse"
    assert compare.verdict(parent, [80.0 + k for k in range(10)], 0.1, "higher")["verdict"] \
        == "regressed"
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, wide, 0.1, "lower")["verdict"] == "unresolved"
    # nine wins of ten are enough, eight are not
    change = [p - 20.0 for p in parent]
    change[0] = parent[0] + 1.0
    assert compare.verdict(parent, change, 0.1, "lower")["verdict"] == "improved"
    change[1] = parent[1] + 1.0
    assert compare.verdict(parent, change, 0.1, "lower")["verdict"] != "improved"
