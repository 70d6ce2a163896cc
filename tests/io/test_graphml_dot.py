"""Unit tests for the GraphML exports."""

import xml.etree.ElementTree as ET

from repro.io.graphml import write_graphml, write_ungraph_graphml
from repro.model.homogeneous import InterdependenceGraph

NS = "{http://graphml.graphdrawing.org/xmlns}"


class TestGraphML:
    def test_directed_export_is_valid_xml(self, fig8, tmp_path):
        path = write_graphml(fig8.graph, tmp_path / "tpiin.graphml")
        root = ET.parse(path).getroot()
        graph = root.find(f"{NS}graph")
        assert graph.get("edgedefault") == "directed"
        nodes = graph.findall(f"{NS}node")
        edges = graph.findall(f"{NS}edge")
        assert len(nodes) == fig8.graph.number_of_nodes()
        assert len(edges) == fig8.graph.number_of_arcs()

    def test_colors_attached(self, fig8, tmp_path):
        path = write_graphml(fig8.graph, tmp_path / "tpiin.graphml")
        text = path.read_text()
        assert "Person" in text and "Company" in text
        assert ">IN<" in text and ">TR<" in text

    def test_undirected_export(self, tmp_path):
        g1 = InterdependenceGraph()
        g1.add_link("a", "b", "kinship")
        path = write_ungraph_graphml(g1.graph, tmp_path / "g1.graphml")
        root = ET.parse(path).getroot()
        graph = root.find(f"{NS}graph")
        assert graph.get("edgedefault") == "undirected"
        assert len(graph.findall(f"{NS}edge")) == 1

    def test_escaping(self, tmp_path):
        from repro.graph.digraph import DiGraph

        g = DiGraph()
        g.add_arc("a<b", 'c"d', "IN&")
        path = write_graphml(g, tmp_path / "escaped.graphml")
        ET.parse(path)  # must not raise

