"""On-disk formats: edge-list and registry CSV, result files, GraphML and SVG."""

from repro.io.edge_list_io import (
    read_edge_list_csv,
    read_tpiin_csv,
    write_edge_list_csv,
    write_tpiin_csv,
)
from repro.io.graphml import write_graphml, write_ungraph_graphml
from repro.io.registry_io import (
    RegistryBundle,
    load_registry_csvs,
    write_registry_csvs,
)
from repro.io.svg import tpiin_to_svg, write_tpiin_svg
from repro.io.results_io import (
    detection_to_dict,
    group_from_dict,
    group_to_dict,
    read_detection_json,
    write_detection_json,
    write_sus_files,
)

__all__ = [
    "RegistryBundle",
    "detection_to_dict",
    "group_from_dict",
    "group_to_dict",
    "load_registry_csvs",
    "read_detection_json",
    "read_edge_list_csv",
    "read_tpiin_csv",
    "tpiin_to_svg",
    "write_detection_json",
    "write_edge_list_csv",
    "write_graphml",
    "write_registry_csvs",
    "write_sus_files",
    "write_tpiin_csv",
    "write_tpiin_svg",
    "write_ungraph_graphml",
]
