"""Per-line work: each distinct price is computed once per simulation, each
distinct text once per report, and no per-line Python key comes back."""

import csv
import io
import random
from collections import Counter
from decimal import Decimal

import pytest

import cloudcost
from cloudcost import engine, model as m, pricing, report
from cloudcost.months import Month, SimulationWindow
from cloudcost.money import format_money

from test_engine import TRANSFER_CATALOG, catalog_of, entry, vm, window

DECADE = SimulationWindow(Month(2011, 1), Month(2020, 12))
PROVIDERS = ("nimbus", "stratus", "cumulus")  # providers-3's map, all in us-east


@pytest.fixture(scope="module")
def demo():
    return (cloudcost.parse_model(cloudcost.data_path("demo_model.json").read_text()),
            pricing.load_catalog(cloudcost.data_path("demo_catalog.json").read_text()))


def rate_entry(catalog, scenario, line):
    """The catalog entry that prices an on-demand line, found without the engine."""
    node = next(node for node in scenario.nodes if node.id == line.node_id)
    sku = None
    if line.subject == node.id and line.dimension == m.VM_HOURS and node.vm_spec:
        sku = node.vm_spec.sku
    elif line.subject == node.id and node.storage_spec and line.dimension in (
            m.STORAGE_GB, m.IO_IN_REQUESTS, m.IO_OUT_REQUESTS, m.IO_GB):
        sku = node.storage_spec.storage_type
    return pricing.lookup_rate(catalog, line.provider, line.region,
                               engine.BILLING_FOR_KIND[line.dimension][0], sku, line.scope)


class TestPriceMemo:
    def test_every_line_costs_a_fresh_price(self, demo):
        model, catalog = demo
        scenarios = [(model, DECADE)]
        scenarios += [(model.replaced(provider, "us-east"),
                       SimulationWindow(Month(2011, 1), Month(2013, 12)))
                      for provider in PROVIDERS]
        for scenario, span in scenarios:
            for line in engine.simulate(scenario, catalog, span).lines:
                fresh = pricing.price_breakdown(rate_entry(catalog, scenario, line),
                                                line.quantity)
                assert line.cost == fresh and str(line.cost) == str(fresh), line

    def test_each_distinct_entry_and_quantity_is_priced_once(self, demo, monkeypatch):
        model, catalog = demo
        priced = Counter()
        price = pricing.price_breakdown

        def counting(rate, quantity):
            priced[rate, quantity] += 1
            return price(rate, quantity)

        monkeypatch.setattr(pricing, "price_breakdown", counting)
        lines = engine.simulate(model, catalog, DECADE).lines
        pairs = {(rate_entry(catalog, model, line), line.quantity) for line in lines}
        assert set(priced) == pairs
        assert set(priced.values()) == {1}
        assert len(pairs) < len(lines) / 5  # demo-120: 419 pairs for 3,720 lines

    def test_reserved_and_on_demand_nodes_on_one_sku_price_apart(self):
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, Decimal("0.04"), 12, Decimal(0)),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            skus=(sku,))
        rates = {"on-demand": pricing.lookup_rate(catalog, "aws", "us-east",
                                                  pricing.VM_HOURS, "standard.small"),
                 "reserved": entry("aws", "us-east", pricing.VM_HOURS, "0.04",
                                   sku="standard.small")}
        assert rates["on-demand"].key == rates["reserved"].key
        plan = {"reserved": engine.PlanChoice(pricing.RESERVED, 12)}
        for nodes in ((vm("on-demand"), vm("reserved")), (vm("reserved"), vm("on-demand"))):
            rep = engine.simulate(m.DeploymentModel("mixed", nodes), catalog, window(3), plan)
            assert [line.quantity for line in rep.lines[::2]] == [
                line.quantity for line in rep.lines[1::2]]
            for line in rep.lines:
                assert line.cost == pricing.price_breakdown(rates[line.subject], line.quantity)
            assert rep.lines[0].cost > rep.lines[1].cost > 0


def per_line_csv(rep):
    """``report.to_csv`` as a plain loop, each field formatted on its own line."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(report.CSV_HEADER)
    for line in rep.lines:
        writer.writerow((str(line.month), line.group or "", line.subject, line.provider,
                         line.region, line.dimension, report._format_quantity(line.quantity),
                         line.unit, format_money(line.cost)))
    return buffer.getvalue()


def vm_series(subject, quantities, costs):
    return engine.CostSeries(subject, subject, m.VM_HOURS, "hours", None, "aws", "us-east",
                             None, quantities, tuple(map(Decimal, costs)))


class TestTextMemos:
    def test_csv_equals_a_per_line_rendering(self):
        rep = engine.CostReport(window(2), (
            vm_series("a", (0.0, 1.5), ("0.000000", "72.000000")),
            vm_series("b", (0.0, 1.5), ("-0.000000", "72.000000")),
            vm_series("c", (720.0000000000003, -0.0), ("-0.000000", "72.004999")),
            vm_series("d", (720.0, 2.5e-7), ("0.000000", "-0.004999")),
        ))
        text = report.to_csv(rep)
        assert text == per_line_csv(rep)
        costs = [row[-1] for row in csv.reader(io.StringIO(text))][1:]
        assert costs == ["0.00", "-0.00", "-0.00", "0.00", "72.00", "72.00", "72.00",
                         "-0.00"]


    def test_csv_equals_the_writer_for_any_field_text(self):
        # fields hold every character that makes csv.writer quote a field (or,
        # on 3.10, refuse a NUL), beside fields that need no quoting
        rng = random.Random(19)
        alphabet = ',"\r\n\0 \té' + "ab" * 4

        def text(size=3):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, size)))

        seen = Counter()
        for _ in range(3000):
            span = window(rng.randint(1, 3))
            series = []
            for subject, dimension in sorted({(text(), text())
                                              for _ in range(rng.randint(0, 4))}):
                # a line in the first month, then in any later month
                months = [True] + [rng.random() < 0.6 for _ in range(span.count - 1)]
                quantities = tuple(rng.choice((0.0, -0.0, 720 + 3e-13, 2.5e-7,
                                               rng.randint(0, 10**4) + rng.random()))
                                   if line else None for line in months)
                costs = tuple(Decimal(rng.choice(("0", "-0", f"{rng.randint(-10**8, 10**8)}e-6")))
                              .quantize(Decimal("0.000001")) if line else None
                              for line in months)
                series.append(engine.CostSeries(
                    subject, text(), dimension, text(), rng.choice((None, "", text())),
                    text(), text(), rng.choice((None, text())), quantities, costs))
            rep = engine.CostReport(span, tuple(series))
            try:
                expected = per_line_csv(rep)
            except csv.Error:  # Python 3.10 refuses an unquoted NUL
                seen["refused"] += 1
                with pytest.raises(csv.Error):
                    report.to_csv(rep)
                continue
            assert report.to_csv(rep) == expected
            seen["quoted" if '"' in expected else "plain"] += 1
        assert seen["quoted"] > 100 and seen["plain"] > 100

    def test_quoted_series_interleave_with_plain_ones(self):
        # a node id with a comma and a quote, and a group with a comma, sort
        # between plain series; csv.writer quotes their text once per series
        quoted = 'b,"x"'
        nodes = (vm("a", patterns=("perm: every month +10",)), vm(quoted), vm("c"))
        paths = (m.CommunicationPath("p", quoted, "a",
                                     m.ResourceRequirement(m.DATA_LINK_GB, 5.0)),)
        model = m.DeploymentModel("mixed", nodes, paths=paths,
                                  groups=(m.Group("front,end", "front", ("c",)),))
        rep = engine.simulate(model, TRANSFER_CATALOG, window(3))
        text = report.to_csv(rep)
        assert text.splitlines() == per_line_csv(rep).splitlines()
        rows = text.splitlines()[1:]
        assert len(rows) == len(rep.lines) == 15
        assert [row[:7] + ("Q" if '"' in row else "") for row in rows[:5]] == [
            "2011-01", "2011-01Q", '2011-01Q', "2011-01", "2011-01"]
        assert rows[1].startswith('2011-01,,"b,""x""",aws,')
        assert rows[2].startswith('2011-01,"front,end",c,aws,')


class TestNoPerLineKeys:
    def test_simulate_and_csv_read_no_per_line_python_keys(self, demo, monkeypatch):
        model, catalog = demo
        month_strs = Counter()
        month_str = Month.__str__

        def counting_str(month):
            month_strs[month] += 1
            return month_str(month)

        span = SimulationWindow(Month(2011, 1), Month(2011, 12))
        rep = engine.simulate(model, catalog, span)
        monkeypatch.setattr(Month, "__str__", counting_str)
        text = report.to_csv(rep)
        assert len(rep.lines) == 372 and text.count("\n") == 373
        assert set(month_strs) <= set(span.months())
        assert max(month_strs.values()) == 1
