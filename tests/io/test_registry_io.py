"""Unit tests for registry-CSV ingestion."""

import pytest

from repro.datagen.config import ProvinceConfig
from repro.datagen.province import generate_province
from repro.errors import SerializationError
from repro.io.registry_io import load_registry_csvs, write_registry_csvs
from repro.mining.detector import detect


def write_sample(directory):
    (directory / "persons.csv").write_text(
        "person_id,name,positions\n"
        "L1,Wang Wei,CEO\n"
        "L2,Li Min,CEO|S\n"
        "D1,Zhao Lei,D\n"
    )
    (directory / "companies.csv").write_text(
        "company_id,name,industry,region,scale\n"
        "C1,Alpha Co,chemicals,domestic,large\n"
        "C2,Beta Co,chemicals,hongkong,small\n"
        "C3,Gamma Co,retail,domestic,small\n"
    )
    (directory / "relations.csv").write_text(
        "kind,source,target,value\n"
        "kinship,L1,L2,\n"
        "legal_person,L1,C1,\n"
        "legal_person,L2,C2,\n"
        "legal_person,L1,C3,\n"
        "director,D1,C3,\n"
        "investment,C1,C3,0.8\n"
        "investment,L1,C1,0.6\n"
        "trading,C3,C2,\n"
    )


class TestLoading:
    def test_loads_and_fuses(self, tmp_path):
        write_sample(tmp_path)
        bundle = load_registry_csvs(tmp_path)
        assert len(bundle.registry.persons) == 3
        assert len(bundle.registry.companies) == 3
        assert bundle.shareholdings.stake("C1", "C3") == pytest.approx(0.8)
        assert bundle.shareholdings.stake("L1", "C1") == pytest.approx(0.6)
        result = detect(bundle.fuse().tpiin)
        # Brothers L1/L2 merge; the C3 -> C2 trade is suspicious.
        assert ("C3", "C2") in result.suspicious_trading_arcs

    def test_legal_person_recorded_on_entity(self, tmp_path):
        write_sample(tmp_path)
        bundle = load_registry_csvs(tmp_path)
        assert bundle.registry.persons["L1"].legal_person_of == ("C1", "C3")
        assert bundle.registry.persons["D1"].legal_person_of == ()

    def test_investment_threshold(self, tmp_path):
        write_sample(tmp_path)
        bundle = load_registry_csvs(tmp_path, investment_threshold=0.9)
        assert bundle.investment.number_of_arcs == 0  # 0.8 below threshold
        assert len(bundle.shareholdings) == 2  # stakes still recorded

    @pytest.mark.parametrize(
        "mutation,match",
        [
            (("relations.csv", "trading,C3,CX,"), "not declared"),
            (("relations.csv", "ownership,C1,C2,"), "unknown relation"),
            (("relations.csv", "investment,C1,C2,high"), "fraction"),
            (("relations.csv", "kinship,L1,C1,"), "not declared"),
            (("persons.csv", "P9,No Positions,"), "position"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, mutation, match):
        write_sample(tmp_path)
        filename, bad_row = mutation
        path = tmp_path / filename
        path.write_text(path.read_text() + bad_row + "\n")
        with pytest.raises(SerializationError, match=match):
            load_registry_csvs(tmp_path)

    @pytest.mark.parametrize(
        "filename,tail,message",
        [
            # Each sample file is a header and 3 or 8 rows; the tail
            # starts on the next line.
            (
                "relations.csv",
                "\n\ntrading,C1,CX,\n",
                "relations.csv:12: company 'CX' is not declared",
            ),
            (
                "relations.csv",
                'guarantee,C1,C2,"two\nlines"\ntrading,C1,CX,\n',
                "relations.csv:12: company 'CX' is not declared",
            ),
            (
                "relations.csv",
                '\ntrading,C1,"C\nX",\n',
                "relations.csv:11: company 'C\\nX' is not declared",
            ),
            (
                "relations.csv",
                "\n\n\ninvestment,C1,C2,high\n",
                "relations.csv:13: bad stake fraction 'high'",
            ),
            (
                "persons.csv",
                '\nP8,"Two\nLines",D\n\nP9,No Positions,\n',
                "persons.csv:9: person P9: at least one position required",
            ),
            ("persons.csv", "\n\nP9,Short\n", "persons.csv:7: expected 3 columns"),
            (
                "companies.csv",
                '\nC4,"Delta\nCo",retail,domestic,small\nC5,Short\n',
                "companies.csv:8: expected 5 columns",
            ),
        ],
    )
    def test_errors_name_the_physical_line(self, tmp_path, filename, tail, message):
        write_sample(tmp_path)
        path = tmp_path / filename
        path.write_text(path.read_text() + tail)
        with pytest.raises(SerializationError) as err:
            load_registry_csvs(tmp_path)
        assert str(err.value).endswith(message)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="missing"):
            load_registry_csvs(tmp_path)

    def test_bad_header(self, tmp_path):
        write_sample(tmp_path)
        (tmp_path / "persons.csv").write_text("id,name\nx,y\n")
        with pytest.raises(SerializationError, match="header"):
            load_registry_csvs(tmp_path)


class TestRoundTrip:
    def test_province_roundtrip(self, tmp_path):
        dataset = generate_province(ProvinceConfig.small(companies=60, seed=9))
        write_registry_csvs(dataset, tmp_path, trading_probability=0.05)
        bundle = load_registry_csvs(tmp_path)

        original = dataset.fuse_with(dataset.trading_graph(0.05)).tpiin
        reloaded = bundle.fuse().tpiin
        # Same detection outcome from the exported extract.
        assert detect(reloaded).suspicious_trading_arcs == detect(
            original
        ).suspicious_trading_arcs
        assert set(reloaded.graph.arcs()) == set(original.graph.arcs())

    def test_roundtrip_without_trading(self, tmp_path):
        dataset = generate_province(ProvinceConfig.small(companies=40, seed=10))
        write_registry_csvs(dataset, tmp_path)
        bundle = load_registry_csvs(tmp_path)
        assert bundle.trading.number_of_arcs == 0
        assert (
            bundle.influence.number_of_influences
            == dataset.influence.number_of_influences
        )


class TestAffiliationRelations:
    def test_guarantee_rows_loaded_and_mined(self, tmp_path):
        write_sample(tmp_path)
        path = tmp_path / "relations.csv"
        path.write_text(
            path.read_text()
            + "guarantee,C1,C2,\n"
            + "licensing,C1,C3,\n"
        )
        bundle = load_registry_csvs(tmp_path)
        assert bundle.affiliations.number_of_arcs == 2
        result = detect(bundle.fuse().tpiin)
        # C1 guarantees C2 and licenses C3 (and invests in C3): the
        # C3 -> C2 trade now has C1 as a common antecedent directly.
        assert ("C3", "C2") in result.suspicious_trading_arcs

    def test_affiliation_to_unknown_company_rejected(self, tmp_path):
        write_sample(tmp_path)
        path = tmp_path / "relations.csv"
        path.write_text(path.read_text() + "guarantee,C1,CX,\n")
        with pytest.raises(SerializationError, match="not declared"):
            load_registry_csvs(tmp_path)

    @pytest.mark.parametrize("kind", ["GUARANTEE", "exclusive_supply", "AffiliationKind.FRANCHISE"])
    def test_unknown_kind_names_its_line(self, tmp_path, kind):
        write_sample(tmp_path)
        path = tmp_path / "relations.csv"
        path.write_text(path.read_text() + "licensing,C1,C3,\n" + f"{kind},C1,C2,\n")
        # Header, eight sample rows, the licensing row: the bad row is line 11.
        with pytest.raises(SerializationError) as err:
            load_registry_csvs(tmp_path)
        assert str(err.value) == f"relations.csv:11: unknown relation kind {kind!r}"
