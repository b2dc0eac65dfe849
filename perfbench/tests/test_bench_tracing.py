"""Self-time arithmetic and the span wrappers."""

import sys

import pytest

import run
import tracing


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert tracing.covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert tracing.covered_length([(11, 12)], 0, 10) == 0


def test_self_time_is_span_minus_children_it_covers():
    spans = [
        ("parent", 0.0, 10.0, -1, "j"),
        ("child", 1.0, 3.0, 0, "j"),
        ("child", 4.0, 8.0, 0, "j"),
        ("grandchild", 5.0, 7.0, 2, "j"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"parent": 4.0, "child": 2.0 + 2.0, "grandchild": 2.0}
    assert sum(selfs.values()) == 10.0


def test_wrapper_cost_is_taken_from_the_parent():
    spans = [
        ("parent", 0.0, 10.0, -1, "j"),
        ("child", 1.0, 3.0, 0, "j"),
        ("child", 4.0, 8.0, 0, "j"),
        ("grandchild", 5.0, 7.0, 2, "j"),
    ]
    selfs = tracing.self_times(spans, lambda name: 0.5)
    assert selfs == {"parent": 3.0, "child": 3.5, "grandchild": 2.0}
    # The three wrapped calls cost 1.5 in all.
    assert sum(selfs.values()) + 1.5 == 10.0


def test_wrapper_costs_are_small_and_positive():
    call, step = tracing.wrapper_costs(rounds=3, repeats=2000)
    assert 0.0 < call < 1e-4
    assert 0.0 < step < 1e-4


def test_wrapped_generator_counts_only_time_inside_next():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    name = "symplectic.lagrangian_subspaces"

    def gen():
        for item in range(3):
            clock.t += 1.0
            yield item

    wrapped = tracing.wrap(tracer, gen, name)
    items = []
    for item in wrapped():
        clock.t += 10.0  # consumer work between items
        items.append(item)
    assert items == [0, 1, 2]
    assert tracing.self_times(tracer.spans) == {name: 3.0}
    assert tracer.counts[tracing.GENERATOR_COUNTS[name]] == 3
    assert tracer.generator_names == {name}
    assert tracer.stack == []


def test_wrapper_closes_its_span_on_error():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracing.wrap(tracer, boom, "boom")()
    assert tracer.stack == [] and tracer.names == ["boom"]


@pytest.fixture
def fresh_package():
    lg, modules = run.fresh_import()
    yield lg, modules
    for name in list(modules):
        sys.modules.pop(name, None)


def test_install_catches_calls_between_modules(fresh_package):
    lg, modules = fresh_package
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    tracer.job = "j"
    root = tracer.open(tracing.ROOT_SPAN)
    report = lg.rank_report(4, 2)
    text = lg.formats.WRITERS["coord"](lg.build_plucker_matrix(3))
    tracer.close(root)
    assert report.rank == 27
    names = set(tracer.names)
    assert {"linalg.rank_report", "linalg.rank.gfp", "frlc.build_plucker_matrix", "formats.write"} <= names
    assert tracer.counts["formats.write.bytes"] == len(text)
    assert tracer.counts["linalg.rank.gfp.calls"] == 1
    parents = {tracer.names[i]: tracer.names[p] for i, p in enumerate(tracer.parents) if p >= 0}
    assert parents["linalg.rank.gfp"] == "linalg.rank_report"
    selfs = tracing.self_times(tracer.spans)
    assert sum(selfs.values()) == pytest.approx(tracer.ends[root] - tracer.starts[root], rel=1e-9)


def test_traced_pass_accounts_for_its_wall_time(fresh_package, tmp_path):
    import jobs
    import oracles

    lg, modules = fresh_package
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    job_list = [jobs.verify_job(2, 3, 7), jobs.rank_cli_job(4, 2), jobs.sample_job(3, 5)]
    done = run.run_pass(lg, job_list, tracer, "p0")
    assert run.check_pass(done) == []
    wall = sum(row[1] for row in done)
    summary = run.layer_metrics(tracer, wall, tracing.wrapper_costs(rounds=3, repeats=2000))
    assert summary["cli.main.calls"] == 2
    assert summary["symplectic.satisfies_plucker_relations.calls"] == oracles.lagrangian_count(2, 3)
    selfs = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert 0 < summary["trace.overhead_s"] < 0.5 * wall
    assert selfs + summary["trace.overhead_s"] == pytest.approx(wall, rel=1e-9)
