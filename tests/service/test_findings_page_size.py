"""Every detector's default first findings page has a bounded body.

A findings page is budgeted by evidence items (members plus arcs), not
bytes, so each finding's header (summary, details, id, counts) rides
free: a detector with many small findings sends more bytes per page
than one with a large ring.  On a serve-size province (the paper-size
province at the paper's sparsest trading probability, loaded from CSV
as ``serve`` loads it) each detector's default first page, as the
daemon sends it, must stay within its measured size plus headroom.
docs/SERVICE.md (*Findings pages*) lists the measured sizes.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.detectors.registry import DETECTORS
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.service.config import ServiceConfig
from repro.service.findings import findings_page
from repro.service.server import _PAGE_LIMIT_DEFAULT
from repro.service.sharding import ShardedDetectionService

#: Detector -> (first-page bytes measured on the province, bound).
FIRST_PAGE_BYTES = {
    "circular-trading": (5_091, 8_192),
    "iat-groups": (48_974, 64_000),
    "missing-trader": (11_710, 16_384),
    "shared-household": (151, 1_024),
}


@pytest.fixture(scope="module")
def first_pages():
    dataset = generate_province(ProvinceConfig(seed=31))
    fused = dataset.fuse_with(dataset.trading_graph(0.002)).tpiin
    with tempfile.TemporaryDirectory() as tmp:
        arcs, nodes = Path(tmp) / "net.arcs.csv", Path(tmp) / "net.nodes.csv"
        write_tpiin_csv(fused, arcs, nodes)
        config = ServiceConfig(state_dir=Path(tmp) / "state", port=0, fsync=False)
        with ShardedDetectionService.open(read_tpiin_csv(arcs, nodes), config) as service:
            yield {
                name: json.dumps(
                    findings_page(service.findings_run(name), None, _PAGE_LIMIT_DEFAULT),
                    separators=(",", ":"),
                ).encode("utf-8")
                for name in DETECTORS
            }


def test_every_detector_has_a_bound():
    assert sorted(FIRST_PAGE_BYTES) == sorted(DETECTORS)


@pytest.mark.parametrize("name", sorted(FIRST_PAGE_BYTES))
def test_the_default_first_page_stays_within_its_bound(first_pages, name):
    measured, bound = FIRST_PAGE_BYTES[name]
    body = first_pages[name]
    assert len(body) <= bound, f"{name}'s first page is {len(body):,} B"
    # The bound stays close to what the page holds, so a page that
    # grows past the headroom is noticed.
    assert bound <= 2 * max(measured, 512)
    assert json.loads(body)["detector"] == name
