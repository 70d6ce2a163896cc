"""The nesting, thread-safe cyclic-collector pause."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.graph import gcpause
from repro.graph.gcpause import gc_paused


@pytest.fixture(autouse=True)
def collector_enabled():
    """Start every test with the collector on and leave it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_reenables_after_normal_exit():
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_reenables_after_an_exception():
    with pytest.raises(RuntimeError):
        with gc_paused():
            assert not gc.isenabled()
            raise RuntimeError("builder failed")
    assert gc.isenabled()


def test_decorated_function_runs_paused():
    @gc_paused()
    def build(fail: bool) -> bool:
        if fail:
            raise RuntimeError("builder failed")
        return gc.isenabled()

    assert build(False) is False
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        build(True)
    assert gc.isenabled()
    with gc_paused():
        build(False)
        assert not gc.isenabled()
    assert gc.isenabled()


def test_the_batch_builders_run_paused(tmp_path, monkeypatch):
    """The registry load, fusion and the batch detector portfolio."""
    from repro.datagen.config import ProvinceConfig
    from repro.datagen.province import generate_province
    from repro.detectors import runner
    from repro.fusion import pipeline
    from repro.io import registry_io

    dataset = generate_province(ProvinceConfig.small(companies=40, seed=2))
    registry_io.write_registry_csvs(dataset, tmp_path, trading_probability=0.05)
    collector_on: dict[str, bool] = {}

    def spy(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            collector_on[name] = gc.isenabled()
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    spy(registry_io, "_read_rows")
    spy(pipeline, "contract_interdependence")
    spy(runner, "run_in_context")
    tpiin = registry_io.load_registry_csvs(tmp_path).fuse().tpiin
    runner.run_detectors(tpiin, "circular-trading")
    assert collector_on == {
        "_read_rows": False,
        "contract_interdependence": False,
        "run_in_context": False,
    }
    assert gc.isenabled()


def test_nested_pause_holds_until_the_outermost_exit():
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_overlapping_threads_keep_it_off_until_the_last_exits():
    first_in, second_in = threading.Event(), threading.Event()
    first_out, second_may_exit = threading.Event(), threading.Event()
    seen: dict[str, bool] = {}

    def first() -> None:
        with gc_paused():
            first_in.set()
            second_in.wait(5.0)
        first_out.set()

    def second() -> None:
        first_in.wait(5.0)
        with gc_paused():
            second_in.set()
            second_may_exit.wait(5.0)
        seen["after_second"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert first_out.wait(5.0)
    # The first pause ended while the second is still open.
    seen["after_first"] = gc.isenabled()
    second_may_exit.set()
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()
    assert seen == {"after_first": False, "after_second": True}
    assert gc.isenabled()


def test_many_threads_never_lose_a_depth_update():
    # More threads than cores, switching as often as the interpreter
    # allows: a lost increment or decrement would leave the depth
    # nonzero or the collector off, and an early re-enable would show
    # inside some thread's pause.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    enabled_inside: list[bool] = []
    try:

        def churn() -> None:
            for _ in range(500):
                with gc_paused():
                    with gc_paused():
                        pass
                    if gc.isenabled():
                        enabled_inside.append(True)

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert not enabled_inside
    assert gcpause._PAUSE._depth == 0
    assert gc.isenabled()


def _in_generation(obj: object, generation: int) -> bool:
    return any(o is obj for o in gc.get_objects(generation))


def test_outermost_exit_promotes_the_builders_output_to_the_oldest_generation():
    with gc_paused():
        with gc_paused():
            built = [[i] for i in range(100)]
        # An inner exit neither re-enables nor promotes.
        assert not gc.isenabled()
        assert _in_generation(built, 0)
    assert gc.isenabled()
    assert _in_generation(built, 2)
    assert not _in_generation(built, 0)


def test_caller_freeze_survives_a_pause():
    # With the collector off, only the pause could move ``built`` out of
    # the youngest generation.
    gc.disable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen
        with gc_paused():
            with gc_paused():
                built = [[i] for i in range(100)]
        assert gc.get_freeze_count() == frozen
        assert _in_generation(built, 0)
    finally:
        gc.unfreeze()
