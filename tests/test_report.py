import csv
import io
import random
from decimal import Decimal
from html.parser import HTMLParser

import pytest

import cloudcost
from cloudcost import engine, model as m, pricing, report
from cloudcost.months import Month, SimulationWindow

from test_engine import BASIC_CATALOG, catalog_of, entry, vm, window


def one_line_report(months=1):
    return engine.simulate(m.DeploymentModel("one", (vm(),)), BASIC_CATALOG,
                           window(months))


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def page_of(rep, scenario):
    totals = rep.monthly_totals()
    return report.to_html(rep, engine.summarize([t for _, t in totals], scenario.name),
                          scenario, totals)


class TestCsv:
    def test_empty_report_is_header_only(self):
        empty = engine.CostReport(window(1), ())
        assert report.to_csv(empty) == "month,group,node,provider,region,dimension,quantity,unit,cost\r\n"

    def test_single_line(self):
        text = report.to_csv(one_line_report())
        rows = parse_csv(text)
        assert len(rows) == 2
        assert rows[1] == ["2011-01", "", "vm1", "aws", "us-east", "vm_hours",
                           "720", "hours", "72.00"]

    def test_total_of_cost_column_matches_grand_total(self):
        rep = one_line_report(months=4)
        rows = parse_csv(report.to_csv(rep))[1:]
        column_total = sum(Decimal(row[-1]) for row in rows)
        assert column_total == rep.grand_total()

    def test_rows_sorted_by_month_subject_dimension(self, demo_model_text,
                                                    demo_catalog_text):
        rep = engine.simulate(cloudcost.parse_model(demo_model_text),
                              pricing.load_catalog(demo_catalog_text), window(2))
        rows = parse_csv(report.to_csv(rep))[1:]
        keys = [(r[0], r[2], r[5]) for r in rows]
        assert keys == sorted(keys)
        assert keys == [(str(l.month), l.subject, l.dimension) for l in rep.lines]

    def test_byte_determinism(self, demo_model_text, demo_catalog_text):
        parsed = cloudcost.parse_model(demo_model_text)
        catalog = pricing.load_catalog(demo_catalog_text)
        a = report.to_csv(engine.simulate(parsed, catalog, window(3)))
        b = report.to_csv(engine.simulate(parsed, catalog, window(3)))
        assert a.encode() == b.encode()

    def test_quoting_survives_awkward_ids(self):
        node = vm('web "a",1')
        rep = engine.simulate(m.DeploymentModel("q", (node,)), BASIC_CATALOG, window(1))
        rows = parse_csv(report.to_csv(rep))
        assert rows[1][2] == 'web "a",1'


class _ChartReader(HTMLParser):
    def __init__(self):
        super().__init__()
        self.points = []
        self.warning_items = 0
        self._in_warning = False

    def handle_starttag(self, tag, attrs):
        attrs = dict(attrs)
        if tag == "circle" and "data-month" in attrs:
            self.points.append((attrs["data-month"], attrs["data-total"]))
        if tag == "ul" and attrs.get("data-warnings"):
            self._in_warning = True
        if tag == "li" and self._in_warning:
            self.warning_items += 1

    def handle_endtag(self, tag):
        if tag == "ul":
            self._in_warning = False


class TestHtml:
    def test_chart_points_match_csv_monthly_sums(self, demo_model_text,
                                                 demo_catalog_text):
        demo = cloudcost.parse_model(demo_model_text)
        rep = engine.simulate(demo, pricing.load_catalog(demo_catalog_text), window(3))
        page = page_of(rep, demo)
        reader = _ChartReader()
        reader.feed(page)
        assert len(reader.points) == 3
        rows = parse_csv(report.to_csv(rep))[1:]
        sums = {}
        for row in rows:
            sums[row[0]] = sums.get(row[0], Decimal(0)) + Decimal(row[-1])
        for month_text, total_text in reader.points:
            assert Decimal(total_text) == sums[month_text]

    def test_warnings_listed_once_each(self):
        node = vm(patterns=("perm: every month -900",))
        scenario = m.DeploymentModel("w", (node,))
        rep = engine.simulate(scenario, BASIC_CATALOG, window(3))
        assert rep.warnings
        page = page_of(rep, scenario)
        reader = _ChartReader()
        reader.feed(page)
        assert reader.warning_items == len(set(rep.warnings))

    def test_rollup_tables_have_one_row_per_key(self, demo_model_text,
                                                demo_catalog_text):
        demo = cloudcost.parse_model(demo_model_text)
        rep = engine.simulate(demo, pricing.load_catalog(demo_catalog_text), window(2))
        page = page_of(rep, demo)
        for by in ("group", "dimension"):
            keys = engine.rollup(rep, by)
            section = page.split(f'data-rollup="{by}"')[1].split("</table>")[0]
            assert section.count("<tr>") == len(keys) + 1  # plus header

    def test_escape_equals_html_escape(self):
        import html

        rng = random.Random(41)
        alphabet = "&<>\"'; #x27ampquotlt\u00e9\u20ac\U0001f600\n"
        for _ in range(20_000):
            text = "".join(rng.choice(alphabet) if rng.random() < 0.9
                           else chr(rng.randrange(0x110000)) for _ in range(rng.randrange(12)))
            assert report._escape(text) == html.escape(text)

    def test_numbers_identical_across_formats(self):
        rng = random.Random(17)
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS,
                  str(Decimal(rng.randint(1, 999)) / 100), sku="standard.small"))
        scenario = m.DeploymentModel("x", (vm(hours=333.25),))
        rep = engine.simulate(scenario, catalog, window(2))
        rows = parse_csv(report.to_csv(rep))[1:]
        page = page_of(rep, scenario)
        reader = _ChartReader()
        reader.feed(page)
        for (month_text, total_text), row in zip(reader.points, rows):
            assert month_text == row[0]
            assert total_text == row[-1]
