"""Acceptance suite: one test per release criterion, at its stated tolerance.

Heavy criteria use seeded RNG loops (not hypothesis) so the run count and
runtime budget are explicit. Each test carries its budget as an assertion.
"""

import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import cloudcost
from cloudcost import assess, elasticity as el, engine, model as m, patterns as pt, pricing, report
from cloudcost.cli import main
from cloudcost.errors import PatternError
from cloudcost.months import Month, SimulationWindow

from builders import (PLACEMENTS, add_months, flat_catalog, month_quantity,
                      random_model, random_schedule, report_total, table_entry)
from oracle import oracle_month_quantity, oracle_tiered_price

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "demo_report.csv"


def series_with(first: str, total: str, months: int = 36) -> list[Decimal]:
    """A monthly series with the exact first value and exact total."""
    first_d, total_d = Decimal(first), Decimal(total)
    body = ((total_d - first_d) / (months - 1)).quantize(Decimal("0.01"))
    tail = total_d - first_d - body * (months - 2)
    return [first_d] + [body] * (months - 2) + [tail]


def test_summary_identity_on_reference_series():
    began = time.monotonic()
    expected = [
        ("FlexiScale", "5060", "185345", Decimal("5151")),
        ("Rackspace", "6550", "242170", Decimal("6732")),
        ("Non-elastic", "67350", "286415", Decimal("6259")),
        ("Elastic", "65430", "217470", Decimal("4344")),
        ("Elastic small", "75260", "221385", Decimal("4175")),
    ]
    for label, first, total, want_avg in expected:
        row = engine.summarize(series_with(first, total), label)
        assert abs(row.monthly_avg - want_avg) <= 1, label
        assert row.first_month == Decimal(first)
        assert row.total == Decimal(total)
        # defining identity, rounded once, half-even, to cents
        assert row.monthly_avg == round(Fraction(row.total - row.first_month) / 35 * 100) / 100
    aws = engine.summarize(series_with("18980", "85950"), "AWS US-East")
    assert aws.monthly_avg == Decimal("1913.43")
    assert abs(aws.monthly_avg - Decimal("1916")) <= 5
    assert time.monotonic() - began < 1.0


def test_difference_multiples_select_cheapest_baseline():
    began = time.monotonic()
    rows = [engine.summarize(series_with("18980", "85950"), "AWS US-East"),
            engine.summarize(series_with("5060", "185345"), "FlexiScale"),
            engine.summarize(series_with("6550", "242170"), "Rackspace")]
    table = engine.compare(rows)
    assert table.baseline_label == "AWS US-East"
    assert table_entry(table, "FlexiScale").difference == "+2x"
    assert table_entry(table, "Rackspace").difference == "+3x"
    assert time.monotonic() - began < 1.0


def test_elastic_saving_delta():
    began = time.monotonic()
    rows = [engine.summarize(series_with("67350", "286415"), "Non-elastic"),
            engine.summarize(series_with("65430", "217470"), "Elastic"),
            engine.summarize(series_with("75260", "221385"), "Elastic small")]
    table = engine.compare(rows)
    assert table.baseline_label == "Elastic"
    delta = table_entry(table, "Non-elastic").delta
    assert delta == Decimal("68945.000000")
    assert abs(delta - Decimal("70000")) <= Decimal("1500")
    assert time.monotonic() - began < 1.0


MALFORMED_PATTERNS = [
    "",                                  # empty
    "perm",                              # nothing after mode
    "perm every month +10",              # missing colon
    "forever: every month +10",          # unknown mode
    "temporary: every month +10",        # unknown mode (long form)
    "perm: month +10",                   # missing 'every'
    "perm: every +10",                   # missing months
    "perm: every monday +10",            # day name where month belongs
    "perm: every janfeb +10",            # unknown month token
    "perm: every jan-foo +10",           # bad range end
    "temp: every jun-aug on +10",        # 'on' with no day selector usable
    "temp: every jun-aug on weekend /2", # unknown day token
    "temp: every dec on 00 *2",          # day zero
    "temp: every dec on 32 *2",          # day out of range
    "temp: every dec on 30-25 *2",       # decreasing day range
    "temp: every month on fri-mon *2",   # wrapping weekday range
    "perm: every month %5",              # unknown operator
    "perm: every month 10",              # operator missing entirely
    "perm: every month +",               # missing operand
    "perm: every month +ten",            # non-numeric operand
    "perm: every month /0",              # division by zero
    "perm: every month /0.0",            # division by zero, float form
    "perm: every month ^-2",             # negative exponent
    "perm: every month +1 extra",        # trailing junk
]


def test_pattern_grammar_examples_and_rejections():
    # months: bit m per month; days: (bit d per day of month, bit j per weekday)
    assert pt.parse_pattern("perm: every month +10") == pt.PatternSpec(
        "perm", 0b1_1111_1111_1110, None, "+", 10.0, "perm: every month +10")
    assert pt.parse_pattern("temp: every jun-aug on weekends /2") == pt.PatternSpec(
        "temp", 0b1_1100_0000, (0, 0b110_0000), "/", 2.0,
        "temp: every jun-aug on weekends /2")
    assert pt.parse_pattern("temp: every dec on 25-30 * 2") == pt.PatternSpec(
        "temp", 1 << 12, (0b111_1110 << 24, 0), "*", 2.0, "temp: every dec on 25-30 * 2")
    assert len(MALFORMED_PATTERNS) >= 20
    for text in MALFORMED_PATTERNS:
        with pytest.raises(PatternError) as exc:
            pt.parse_pattern(text)
        assert exc.value.position is not None, text
        assert "column" in str(exc.value), text


def test_pattern_semantics_against_day_loop_oracle():
    began = time.monotonic()
    worked = el.UsageSchedule("stock", 100, tuple(pt.parse_patterns(
        "perm: every month +10, temp: every jun-aug on weekends /2, "
        "temp: every dec on 25-30 * 2")))
    start = Month(2011, 1)
    for month, want in ((Month(2011, 6), 130.0), (Month(2011, 12), 7770 / 31)):
        assert month_quantity(worked, month, start) == want
        assert want == oracle_month_quantity("stock", 100, worked.patterns, (2011, 1),
                                             (month.year, month.month))

    rng = random.Random(20110607)
    for _ in range(1000):
        schedule = random_schedule(rng)
        start = Month(rng.randint(2009, 2012), rng.randint(1, 12))
        month = add_months(start, rng.randint(0, 23))
        got = month_quantity(schedule, month, start)
        want = oracle_month_quantity(schedule.kind_class, schedule.baseline,
                                     schedule.patterns,
                                     (start.year, start.month),
                                     (month.year, month.month))
        assert got == want
    assert time.monotonic() - began < 30.0


def test_tiered_pricing_against_unit_loop_oracle():
    began = time.monotonic()
    rng = random.Random(4180)
    for _ in range(120):
        bounds = sorted(rng.sample(range(1, 9000), rng.randint(1, 4)))
        prices = [Decimal(rng.randint(0, 10000)) / 100 for _ in range(len(bounds) + 1)]
        tiers = [pricing.Tier(Decimal(b), p) for b, p in zip(bounds, prices)]
        tiers.append(pricing.Tier(None, prices[-1]))
        entry = pricing.RateEntry("p", "r", pricing.DATA_OUT_GB, scope="internet",
                                  tiers=tuple(tiers))
        quantity = rng.randint(0, 10 ** 4)
        want = oracle_tiered_price(
            [(None if t.upper_bound is None else int(t.upper_bound), t.unit_price)
             for t in tiers], quantity)
        assert pricing.price_breakdown(entry, quantity) == \
            want.quantize(Decimal("0.000001"))
    assert time.monotonic() - began < 10.0


def test_rollup_conservation_on_random_models():
    began = time.monotonic()
    rng = random.Random(500)
    for _ in range(500):
        scenario = random_model(rng)
        catalog = flat_catalog(rng, PLACEMENTS)
        start = Month(rng.randint(2010, 2012), rng.randint(1, 12))
        window = SimulationWindow(start, add_months(start, rng.randint(0, 3)))
        rep = engine.simulate(scenario, catalog, window)
        grand = report_total(rep)
        for by in engine.ROLLUP_KEYS:
            assert sum((total for _, total in engine.rollup(rep, by)),
                       Decimal(0)) == grand
    assert time.monotonic() - began < 30.0


def _elastic_variant(scenario: m.DeploymentModel) -> m.DeploymentModel:
    nodes = []
    for node in scenario.nodes:
        reqs = tuple(
            req._replace(patterns=req.patterns + ("temp: every month on weekends /2",))
            if req.kind == m.VM_HOURS else req
            for req in node.requirements)
        nodes.append(node._replace(requirements=reqs))
    return scenario._replace(name="elastic", nodes=tuple(nodes))


def test_usage_monotonicity_under_flat_catalogs():
    began = time.monotonic()
    rng = random.Random(8080)
    window = SimulationWindow(Month(2011, 1), Month(2011, 3))
    for _ in range(60):
        scenario = random_model(rng)
        catalog = flat_catalog(rng, PLACEMENTS)
        base_total = report_total(engine.simulate(scenario, catalog, window))
        nodes = list(scenario.nodes)
        targets = [(i, j) for i, node in enumerate(nodes)
                   for j, _ in enumerate(node.requirements)]
        if not targets:
            continue
        i, j = rng.choice(targets)
        reqs = list(nodes[i].requirements)
        reqs[j] = reqs[j]._replace(baseline=reqs[j].baseline + rng.uniform(1, 500))
        nodes[i] = nodes[i]._replace(requirements=tuple(reqs))
        raised = scenario._replace(nodes=tuple(nodes))
        assert report_total(engine.simulate(raised, catalog, window)) >= base_total

    demo = cloudcost.parse_model(cloudcost.data_path("demo_model.json").read_text())
    catalog = pricing.load_catalog(cloudcost.data_path("demo_catalog.json").read_text())
    full_window = SimulationWindow(Month(2011, 1), Month(2011, 12))
    around_the_clock = report_total(engine.simulate(demo, catalog, full_window))
    elastic = report_total(engine.simulate(_elastic_variant(demo), catalog, full_window))
    assert elastic <= around_the_clock
    assert time.monotonic() - began < 10.0


def test_reserved_upfront_produces_first_month_spike():
    began = time.monotonic()
    hourly = Decimal("0.05")
    usage_total = hourly * 720 * 36
    upfront = (usage_total * 3 / 7).quantize(Decimal("0.01"))  # 30% of the grand total
    on_demand = pricing.RateEntry("aws", "us-east", pricing.VM_HOURS, sku="standard.small",
                                  flat_price=Decimal("0.10"))
    catalog = pricing.PriceCatalog("USD", {on_demand.key: on_demand}, {
        ("aws", "us-east", "standard.small"): (pricing.PurchaseOption(hourly, 36, upfront),),
    })
    node = m.Node("vm1", m.VIRTUAL_MACHINE, m.Placement("aws", "us-east"),
                  m.VmSpec("linux", sku="standard.small"),
                  requirements=(m.ResourceRequirement(m.VM_HOURS, 720.0),))
    rep = engine.simulate(m.DeploymentModel("reserved", (node,)), catalog,
                          SimulationWindow(Month(2011, 1), Month(2013, 12)),
                          {"vm1": engine.PlanChoice(pricing.RESERVED, 36)})
    totals = rep.monthly_totals()
    later_avg = sum(totals[1:], Decimal(0)) / (len(totals) - 1)
    assert totals[0] > 10 * later_avg
    share = Fraction(upfront) / Fraction(report_total(rep))
    assert abs(share - Fraction(3, 10)) < Fraction(1, 1000)
    assert time.monotonic() - began < 1.0


def test_assessment_seed_and_category_averages():
    began = time.monotonic()
    items = assess.load_items(cloudcost.data_path("assessment_items.json").read_text())
    benefits = [i for i in items if i.kind == assess.BENEFIT]
    risks = [i for i in items if i.kind == assess.RISK]
    assert len(benefits) == 10 and len(risks) == 20
    assert [i.id for i in benefits] == ["B1", "B2", "B3", "B4", "B7", "B9", "B11",
                                        "B14", "B16", "B18"]
    assert [i.id for i in risks] == ["R1", "R3", "R5", "R7", "R11", "R39", "R12",
                                     "R13", "R15", "R16", "R18", "R21", "R23",
                                     "R25", "R26", "R27", "R28", "R31", "R34", "R36"]
    by_category = {
        "organizational": {"B14", "B16", "B18", "R1", "R3", "R5", "R7", "R11", "R39"},
        "legal": {"R12", "R13", "R15", "R16", "R18"},
        "security": {"R21", "R23", "R25"},
        "technical": {"B1", "B2", "B3", "B4", "B7", "R26", "R27", "R28", "R31"},
        "financial": {"B9", "B11", "R34", "R36"},
    }
    for category, ids in by_category.items():
        assert {i.id for i in items if i.category == category} == ids

    three = [assess.AssessmentItem(f"B{i}", "benefit", "technical", "s")
             for i in (1, 2, 3)]
    sheet = assess.RatingSheet("t", "v", {"B1": 5, "B2": 4, "B3": 2})
    (avg,) = assess.radar(sheet, three)
    assert (avg.kind, avg.category, avg.item_count) == ("benefit", "technical", 3)
    assert abs(avg.average - 11 / 3) <= 1e-9
    assert f"{avg.average:.4f}" == "3.6667"

    rng = random.Random(1915)
    for _ in range(1000):
        rated = {i.id: rng.randint(1, 5) for i in items if rng.random() < 0.9}
        if not rated:
            continue
        sheet = assess.RatingSheet("t", "v", rated)
        radar_rows = assess.radar(sheet, items)
        for row in radar_rows:
            # independent mean oracle
            values = [rated[i.id] for i in items
                      if i.kind == row.kind and i.category == row.category
                      and i.id in rated]
            assert row.item_count == len(values)
            assert row.average == pytest.approx(sum(values) / len(values), abs=1e-12)
            assert 1.0 <= row.average <= 5.0
        shuffled = list(rated)
        rng.shuffle(shuffled)
        again = assess.radar(assess.RatingSheet("t", "v",
                                                {k: rated[k] for k in shuffled}), items)
        assert again == radar_rows
    assert time.monotonic() - began < 5.0


def test_report_determinism_and_golden_csv(tmp_path):
    began = time.monotonic()
    model_path = str(cloudcost.data_path("demo_model.json"))
    catalog_path = str(cloudcost.data_path("demo_catalog.json"))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["simulate", "--model", model_path, "--catalog", catalog_path,
                     "--start", "2011-01", "--end", "2011-03", "--out", str(out)])
        assert code == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "report.html").read_bytes() == (b / "report.html").read_bytes()
    assert (a / "report.csv").read_bytes() == GOLDEN.read_bytes()
    assert (a / "report.html").read_bytes() == (GOLDEN_DIR / "demo_report.html").read_bytes()
    assert (a / "summary.json").read_bytes() == (GOLDEN_DIR / "demo_summary.json").read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    identity_gap = (Decimal(summary["monthly_avg"]) * (summary["months"] - 1)
                    + Decimal(summary["first_month"]) - Decimal(summary["total"]))
    assert abs(identity_gap) <= Decimal("0.01") * summary["months"]
    assert time.monotonic() - began < 5.0


def test_every_grammar_form_gives_its_golden_csv(tmp_path, capsys):
    # one VM per month and day clause form, and a clamping temp, over a window
    # that crosses a year end and holds a leap February
    code = main(["export-csv", "--model", str(GOLDEN_DIR / "patterns_model.json"),
                 "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                 "--start", "2011-11", "--end", "2012-03", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").read_bytes() == (
        GOLDEN_DIR / "patterns_report.csv").read_bytes()
    assert "vm-clamping-temp/vm_hours: clamped" in capsys.readouterr().err


def test_reserved_plan_gives_its_golden_report(tmp_path):
    # every way a plan picks an option: a 12- and a 36-month term, no term
    # where the sku has one reserved option, and on demand; the window crosses
    # the 12-month renewal
    code = main(["simulate", "--model", str(cloudcost.data_path("demo_model.json")),
                 "--catalog", str(cloudcost.data_path("demo_catalog.json")),
                 "--plan", str(GOLDEN_DIR / "demo_plan.json"),
                 "--start", "2011-11", "--end", "2013-01", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").read_bytes() == (
        GOLDEN_DIR / "demo_plan_report.csv").read_bytes()
    assert (tmp_path / "summary.json").read_bytes() == (
        GOLDEN_DIR / "demo_plan_summary.json").read_bytes()
