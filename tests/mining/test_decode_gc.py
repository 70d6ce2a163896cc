"""Group decoding runs without cyclic collections.

Decoding a dense TPIIN's groups allocates thousands of acyclic group
objects and trail tuples; with the collector running, each collection
during that growth rescans the whole heap.  These tests pin that the
first full pass over a parallel result's groups starts no collection,
and that the pause changes no output.
"""

from __future__ import annotations

import gc

import pytest

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.mining import compact
from repro.mining.detector import detect


@pytest.fixture(scope="module")
def dense_tpiin():
    """A conglomerate-heavy province with dense trading (~3.5k groups)."""
    config = ProvinceConfig(
        companies=400,
        legal_persons=220,
        directors=126,
        investment_extra_arc_share=0.20,
        dual_holding_attach_both=0.9,
        seed=31,
    )
    dataset = generate_province(config)
    return dataset.overlay_trading(dataset.antecedent_tpiin(), 0.02)


@pytest.fixture()
def collections():
    """Counts collector runs that start while ``inside`` is set."""

    class Counter:
        inside = False
        started = 0

        def __call__(self, phase: str, info: dict[str, int]) -> None:
            if phase == "start" and self.inside:
                self.started += 1

    counter = Counter()
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(counter)
    yield counter
    gc.callbacks.remove(counter)
    if not was_enabled:
        gc.disable()


def count_inside_groups_for(monkeypatch, counter) -> None:
    original = compact._GroupStore.groups_for

    def groups_for(self, comp):
        counter.inside = True
        try:
            return original(self, comp)
        finally:
            counter.inside = False

    monkeypatch.setattr(compact._GroupStore, "groups_for", groups_for)


def test_first_group_pass_starts_no_collection(dense_tpiin, collections, monkeypatch):
    count_inside_groups_for(monkeypatch, collections)
    result = detect(dense_tpiin, engine="parallel")
    keys = [group.key() for group in result.groups]
    assert len(keys) > 3000
    assert collections.started == 0
    assert gc.isenabled()
    faithful = detect(dense_tpiin, engine="faithful")
    assert set(keys) == {group.key() for group in faithful.groups}
    assert len(keys) == len(faithful.groups)

