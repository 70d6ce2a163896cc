"""Fuzzing the on-disk readers: malformed input must fail *cleanly*.

Whatever bytes land in the CSV/JSON files, the loaders must either
succeed or raise :class:`~repro.errors.SerializationError` (or its
parent :class:`~repro.errors.ReproError`) — never ``KeyError``,
``IndexError``, ``ValueError`` or friends leaking from the internals.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.io.edge_list_io import read_edge_list_csv, read_tpiin_csv
from repro.io.registry_io import load_registry_csvs
from repro.io.results_io import group_from_dict, read_detection_json

# Text with newlines and commas so the CSV machinery gets exercised.
_csv_text = st.text(
    alphabet=st.sampled_from(list("abcC0123,\n\"'|;->- .")), max_size=300
)


@settings(max_examples=150, deadline=None)
@given(payload=_csv_text)
def test_edge_list_reader_fails_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "arcs.csv"
    path.write_text("start,end,color\n" + payload)
    try:
        read_edge_list_csv(path)
    except ReproError:
        pass


@settings(max_examples=100, deadline=None)
@given(arc_payload=_csv_text, node_payload=_csv_text)
def test_tpiin_reader_fails_cleanly(tmp_path_factory, arc_payload, node_payload):
    directory = tmp_path_factory.mktemp("fuzz")
    arc_path = directory / "arcs.csv"
    node_path = directory / "nodes.csv"
    arc_path.write_text("start,end,color\n" + arc_payload)
    node_path.write_text("node,color\n" + node_payload)
    try:
        read_tpiin_csv(arc_path, node_path)
    except ReproError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    persons=_csv_text,
    companies=_csv_text,
    relations=_csv_text,
)
def test_registry_reader_fails_cleanly(
    tmp_path_factory, persons, companies, relations
):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "persons.csv").write_text("person_id,name,positions\n" + persons)
    (directory / "companies.csv").write_text(
        "company_id,name,industry,region,scale\n" + companies
    )
    (directory / "relations.csv").write_text("kind,source,target,value\n" + relations)
    try:
        load_registry_csvs(directory)
    except ReproError:
        pass


@settings(max_examples=150, deadline=None)
@given(payload=st.text(max_size=200))
def test_detection_json_reader_fails_cleanly(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("fuzz") / "detection.json"
    path.write_text(payload)
    try:
        read_detection_json(path)
    except ReproError:
        pass


@settings(max_examples=150, deadline=None)
@given(
    payload=st.dictionaries(
        st.sampled_from(["trading_trail", "support_trail", "kind", "junk"]),
        st.one_of(
            st.lists(st.text(max_size=3), max_size=4),
            st.text(max_size=8),
            st.integers(),
            st.none(),
        ),
        max_size=4,
    )
)
def test_group_from_dict_fails_cleanly(payload):
    try:
        group_from_dict(payload)
    except ReproError:
        pass


from .strategies import tpiins  # noqa: E402 - strategy import for the test below


@settings(max_examples=60, deadline=None)
@given(tpiin=tpiins())
def test_svg_well_formed_for_random_tpiins(tpiin):
    """The SVG renderer emits valid XML for arbitrary TPIINs."""
    import xml.etree.ElementTree as ET

    from repro.io.svg import tpiin_to_svg

    ET.fromstring(tpiin_to_svg(tpiin, title="fuzz <&> run"))

