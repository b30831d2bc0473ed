import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from cloudcost import engine, model as m, pricing
from cloudcost.errors import EvaluationError, MissingRateError, PlanError, WindowError
from cloudcost.money import to_money
from cloudcost.months import Month, SimulationWindow

from builders import (PLACEMENTS, add_months, flat_catalog, random_model, report_total,
                      table_entry)


def vm(node_id="vm1", provider="aws", region="us-east", sku="standard.small",
       hours=720.0, patterns=()):
    return m.Node(node_id, m.VIRTUAL_MACHINE, m.Placement(provider, region),
                  m.VmSpec("linux", sku=sku),
                  requirements=(m.ResourceRequirement(m.VM_HOURS, hours, tuple(patterns)),))


def entry(provider, region, dimension, price, sku=None, scope=None):
    return pricing.RateEntry(provider, region, dimension, sku=sku, scope=scope,
                             flat_price=Decimal(price))


def catalog_of(*entries, skus=(), currency="USD"):
    return pricing.PriceCatalog(currency, tuple(entries), tuple(skus))


def window(months, start=Month(2011, 1)):
    return SimulationWindow(start, add_months(start, months - 1))


def assert_prefix(whole, first):
    """``whole``'s lines start with ``first``'s, and the rest fall after its window."""
    head = len(first.lines)
    assert whole.lines[:head] == first.lines
    assert all(line.month > first.window.end for line in whole.lines[head:])


BASIC_CATALOG = catalog_of(
    entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"))

TRANSFER_CATALOG = catalog_of(
    entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
    entry("aws", "us-east", pricing.DATA_OUT_GB, "0.01", scope="intra_region"),
    entry("aws", "us-east", pricing.DATA_IN_GB, "0.01", scope="intra_region"))


class TestSimulate:
    def test_single_vm_three_months(self):
        report = engine.simulate(m.DeploymentModel("one", (vm(),)), BASIC_CATALOG,
                                 window(3))
        assert len(report.lines) == 3
        assert report.monthly_totals() == [Decimal("72.000000")] * 3
        assert all(line.cost == Decimal("72.000000") for line in report.lines)

    def test_intra_region_transfer_is_free(self):
        # both endpoints in one region: the cheap intra_region rate applies,
        # not the internet rate
        nodes = (vm("a"), vm("b", sku="standard.small"))
        path = m.CommunicationPath(
            "ab", "a", "b", m.ResourceRequirement(m.DATA_LINK_GB, 50.0))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            entry("aws", "us-east", pricing.DATA_OUT_GB, "0.00", scope="intra_region"),
            entry("aws", "us-east", pricing.DATA_IN_GB, "0.00", scope="intra_region"),
            entry("aws", "us-east", pricing.DATA_OUT_GB, "0.15", scope="internet"),
            entry("aws", "us-east", pricing.DATA_IN_GB, "0.15", scope="internet"),
        )
        report = engine.simulate(m.DeploymentModel("pair", nodes, paths=(path,)),
                                 catalog, window(1))
        path_lines = [l for l in report.lines if l.subject == "ab"]
        assert len(path_lines) == 2
        assert all(l.scope == "intra_region" for l in path_lines)
        assert sum(l.cost for l in path_lines) == 0

    def test_inter_region_and_internet_scopes(self):
        nodes = (vm("a", region="us-east"), vm("b", region="eu-west"),
                 m.Node("remote", m.REMOTE_NODE))
        paths = (
            m.CommunicationPath("a-b", "a", "b",
                                m.ResourceRequirement(m.DATA_LINK_GB, 10.0)),
            m.CommunicationPath("a-remote", "a", "remote",
                                m.ResourceRequirement(m.DATA_LINK_GB, 10.0)),
        )
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            entry("aws", "eu-west", pricing.VM_HOURS, "0.10", sku="standard.small"),
            entry("aws", "us-east", pricing.DATA_OUT_GB, "0.02", scope="inter_region"),
            entry("aws", "eu-west", pricing.DATA_IN_GB, "0.01", scope="inter_region"),
            entry("aws", "us-east", pricing.DATA_OUT_GB, "0.15", scope="internet"),
        )
        report = engine.simulate(m.DeploymentModel("x", nodes, paths=paths),
                                 catalog, window(1))
        by_key = {(l.subject, l.dimension): l for l in report.lines
                  if l.subject in ("a-b", "a-remote")}
        assert by_key[("a-b", m.DATA_OUT_GB)].scope == "inter_region"
        assert by_key[("a-b", m.DATA_IN_GB)].node_id == "b"
        assert by_key[("a-remote", m.DATA_OUT_GB)].scope == "internet"
        # the remote side is never billed
        assert ("a-remote", m.DATA_IN_GB) not in by_key

    def test_remote_nodes_generate_no_lines(self):
        nodes = (vm("a"),
                 m.Node("remote", m.REMOTE_NODE,
                        requirements=(m.ResourceRequirement(m.DATA_OUT_GB, 100.0),)))
        report = engine.simulate(m.DeploymentModel("x", nodes), BASIC_CATALOG, window(2))
        assert {l.subject for l in report.lines} == {"a"}

    def test_reserved_upfront_shape(self):
        # upfront fee constructed as 30% of the 36-month total
        hourly = Decimal("0.05")
        usage_total = hourly * 720 * 36  # 1296.00
        upfront = (usage_total * 3 / 7).quantize(Decimal("0.01"))  # 30% of grand total
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, hourly, 36, upfront),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            skus=(sku,))
        plan = {"vm1": engine.PlanChoice(pricing.RESERVED, 36)}
        report = engine.simulate(m.DeploymentModel("r", (vm(),)), catalog,
                                 window(36), plan)
        totals = report.monthly_totals()
        first = totals[0]
        later_avg = sum(totals[1:], Decimal(0)) / (len(totals) - 1)
        assert first > 10 * later_avg
        upfront_share = Fraction(upfront) / Fraction(report_total(report))
        assert abs(upfront_share - Fraction(3, 10)) < Fraction(1, 1000)

    def test_reserved_hours_use_reserved_rate(self):
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, Decimal("0.04"), 12, Decimal(100)),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            skus=(sku,))
        plan = {"vm1": engine.PlanChoice(pricing.RESERVED, 12)}
        report = engine.simulate(m.DeploymentModel("r", (vm(),)), catalog,
                                 window(2), plan)
        hour_lines = [l for l in report.lines if l.dimension == m.VM_HOURS]
        assert all(l.cost == Decimal("28.800000") for l in hour_lines)  # 720 * 0.04
        upfronts = [l for l in report.lines if l.dimension == engine.RESERVATION_UPFRONT]
        assert len(upfronts) == 1 and upfronts[0].quantity == 1.0

    @pytest.mark.parametrize("choice", [pricing.ON_DEMAND, pricing.RESERVED])
    def test_cost_too_large_for_decimal_names_the_line(self, choice):
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, Decimal("0.04"), 12, Decimal(100)),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            skus=(sku,))
        plan = {"vm1": engine.PlanChoice(choice, 12 if choice == pricing.RESERVED else None)}
        grower = m.DeploymentModel("g", (vm(patterns=("perm: every month *1e6",)),))
        # May: 7.2e26 hours, a cost with more than 28 digits at 6 decimals
        with pytest.raises(EvaluationError) as exc:
            engine.simulate(grower, catalog, window(5), plan)
        amount = {pricing.ON_DEMAND: "7.1999999999999990E+25",  # 0.10/h
                  pricing.RESERVED: "2.8799999999999996E+25"}[choice]  # 0.04/h
        assert str(exc.value) == (f"vm1/vm_hours in 2011-05: amount {amount} exceeds the "
                                  "28-digit decimal precision at 6 fractional digits")

    @pytest.mark.parametrize("where, message", [
        ("node", "vm1/vm_hours in 2011-03: value overflowed applying '*1e+200'"),
        ("path", "ab/data_link_gb in 2011-03: value overflowed applying '*1e+200'"),
        ("sum", "vm1/vm_hours in 2011-01: value overflowed summing the month's days"),
    ])
    def test_replay_overflow_names_the_line_and_month(self, where, message):
        # a day-less perm skips the first month: 720e200 in February, inf in March
        grows = ("perm: every month *1e200",)
        if where == "node":
            grower = m.DeploymentModel("g", (vm(patterns=grows),))
        elif where == "path":
            path = m.CommunicationPath(
                "ab", "vm1", "vm1", m.ResourceRequirement(m.DATA_LINK_GB, 720.0, grows))
            grower = m.DeploymentModel("g", (vm(),), paths=(path,))
        else:  # every day's value is finite, the month's sum of them is not
            grower = m.DeploymentModel("g", (vm(hours=1e308, patterns=("temp: every month *31",)),))
        with pytest.raises(EvaluationError) as exc:
            engine.simulate(grower, TRANSFER_CATALOG, window(4))
        assert str(exc.value) == message

    def test_missing_rate_names_subject_and_dimension(self):
        report_model = m.DeploymentModel("x", (vm(),))
        with pytest.raises(MissingRateError) as exc:
            engine.simulate(report_model, catalog_of(), window(1))
        message = str(exc.value)
        assert "vm1" in message and "vm_hours" in message
        assert "aws/us-east/vm_hours/standard.small" in message

    @pytest.mark.parametrize("where, key", [
        ("vm", "aws/us-east/vm_hours/standard.small"),
        ("storage", "aws/us-east/storage_gb_month/ssd"),
        ("node-transfer", "aws/us-east/data_out_gb/internet"),
        ("path-intra", "aws/us-east/data_out_gb/intra_region"),
        ("path-inter", "aws/eu-west/data_in_gb/inter_region"),
    ])
    def test_missing_rate_message_and_key(self, where, key):
        # the catalog prices everything but one line's rate
        disk = m.Node("disk", m.VIRTUAL_STORAGE, m.Placement("aws", "us-east"),
                      storage_spec=m.StorageSpec("ssd"),
                      requirements=(m.ResourceRequirement(m.STORAGE_GB, 100.0),))
        sender = vm("a")
        if where == "node-transfer":
            sender = sender._replace(requirements=sender.requirements + (
                m.ResourceRequirement(m.DATA_OUT_GB, 5.0),))
        receiver = vm("b", region="eu-west" if where == "path-inter" else "us-east")
        path = m.CommunicationPath("ab", "a", "b", m.ResourceRequirement(m.DATA_LINK_GB, 5.0))
        scenario = m.DeploymentModel("x", (sender, receiver, disk), paths=(path,))
        rates = [entry("aws", region, pricing.VM_HOURS, "0.10", sku="standard.small")
                 for region in ("us-east", "eu-west")]
        rates.append(entry("aws", "us-east", pricing.STORAGE_GB_MONTH, "0.10", sku="ssd"))
        rates += [entry("aws", region, dimension, "0.01", scope=scope)
                  for region in ("us-east", "eu-west")
                  for dimension in (pricing.DATA_OUT_GB, pricing.DATA_IN_GB)
                  for scope in pricing.SCOPES]
        rates = [rate for rate in rates if "/".join(filter(None, rate.key)) != key]
        with pytest.raises(MissingRateError) as exc:
            engine.simulate(scenario, catalog_of(*rates), window(1))
        subject, kind = {"vm": ("a", m.VM_HOURS), "storage": ("disk", m.STORAGE_GB),
                         "node-transfer": ("a", m.DATA_OUT_GB),
                         "path-intra": ("ab", m.DATA_OUT_GB),
                         "path-inter": ("ab", m.DATA_IN_GB)}[where]
        assert str(exc.value) == f"{subject}/{kind}: no rate for {key}"
        assert exc.value.key == key

    def test_plan_validation(self):
        with pytest.raises(PlanError):
            engine.simulate(m.DeploymentModel("x", (vm(),)), BASIC_CATALOG, window(1),
                            {"ghost": engine.PlanChoice(pricing.RESERVED, 12)})

    @pytest.mark.parametrize("text, message", [
        ("[]", "plan file plan.json: expected an object of node choices"),
        ('{"vm1": {"kind": "reserved", "typo": 1}}', "plan for 'vm1': unknown key(s): typo"),
        ('{"vm1": {"kind": "reserved", "zeta": 1, "alpha": 1}}',
         "plan for 'vm1': unknown key(s): alpha, zeta"),
        ('{"vm1": {"term_months": 12}}', "plan for 'vm1': missing required key(s): kind"),
        ('{"vm1": {"term_months": 12, "zeta": 1}}', "plan for 'vm1': unknown key(s): zeta"),
        ('{"vm1": ["reserved"]}', "plan for 'vm1': expected 'on_demand' or an object"),
        ('{"vm1": {"kind": "bogus"}}', "plan for 'vm1': unknown purchase kind 'bogus'"),
        ('{"vm1\\u0000": "on_demand"}', "$: key 'vm1\\x00' holds a NUL character"),
    ], ids=["non-object", "unknown-key", "unknown-keys-sorted", "missing-key",
            "unknown-before-missing", "list-choice", "unknown-kind", "nul-in-key"])
    def test_load_plan_raises_plan_error(self, text, message):
        with pytest.raises(PlanError) as exc:
            engine.load_plan(text, "plan.json")
        assert str(exc.value) == message

    def test_reversed_window_is_hard_error(self):
        with pytest.raises(WindowError):
            SimulationWindow(Month(2011, 5), Month(2011, 4))

    def test_determinism(self):
        rng = random.Random(5)
        scenario = random_model(rng)
        catalog = flat_catalog(rng, PLACEMENTS)
        first = engine.simulate(scenario, catalog, window(4))
        second = engine.simulate(scenario, catalog, window(4))
        assert first.lines == second.lines
        assert first.warnings == second.warnings

    def test_warnings_are_the_raw_clamp_sequence(self, monkeypatch):
        # each clamp message names its subject, date and pattern, so simulate
        # keeps every one, in the order the replays returned them
        raw = []
        series = engine._series

        def spy(model, req, window, subject, replays):
            replayed = series(model, req, window, subject, replays)
            raw.extend(f"{subject}/{req.kind}: {message}" for message in replayed[1])
            return replayed

        monkeypatch.setattr(engine, "_series", spy)
        rng = random.Random(1407)
        clamping = 0
        for _ in range(80):
            raw.clear()
            report = engine.simulate(random_model(rng), flat_catalog(rng, PLACEMENTS),
                                     window(6))
            assert report.warnings == tuple(raw)
            clamping += bool(raw)
        assert clamping >= 10

    def test_line_order_is_sorted(self):
        # seeded random models over 1-25 months, some machines reserved on terms
        # shorter than the window, so that their fee lines are sparse
        rng = random.Random(11)
        terms = (1, 2, 5, 12)
        seen = Counter()
        for _ in range(200):
            scenario = random_model(rng, max_nodes=6)
            catalog = flat_catalog(rng, PLACEMENTS, terms=terms)
            span = window(rng.randint(1, 25))
            plan = {node.id: engine.PlanChoice(pricing.RESERVED, rng.choice(terms))
                    for node in scenario.nodes
                    if node.vm_spec is not None and node.vm_spec.sku and rng.random() < 0.6}
            try:
                report = engine.simulate(scenario, catalog, span, plan)
            except EvaluationError:  # a random pattern can grow past any price
                continue
            seen["priced"] += 1
            keys = [(l.month, l.subject, l.dimension) for l in report.lines]
            assert all(prev < key for prev, key in zip(keys, keys[1:]))

            months_of = {}
            for month, subject, dimension in keys:
                months_of.setdefault((subject, dimension), []).append(month)
            expected = {}
            placed = {node.id: node for node in scenario.nodes if node.placement}
            for node in placed.values():
                for req in node.requirements:
                    expected[node.id, req.kind] = span.months()
                if node.id in plan:
                    option = catalog.find_sku(*node.placement, "std").reserved_option(
                        plan[node.id].term_months)
                    fees = [month for month, fee in zip(
                        span.months(), pricing.reservation_charges(option, span))
                            if fee is not None]
                    if fees:
                        expected[node.id, engine.RESERVATION_UPFRONT] = fees
                        seen["sparse fees"] += len(fees) < span.count
            for path in scenario.paths:
                ends = ((path.from_node, m.DATA_OUT_GB), (path.to_node, m.DATA_IN_GB))
                for node_id, dimension in ends:
                    if node_id in placed:
                        expected[path.id, dimension] = span.months()
                seen["placed path"] += path.from_node in placed and path.to_node in placed
            assert months_of == expected
        assert seen["priced"] > 150 and seen["sparse fees"] and seen["placed path"]

    def test_first_overflow_in_emission_order_is_the_error(self):
        # z1 comes first in the model and last in the report. It overflows in
        # May, a1 already in April; pricing runs series by series, so z1 is named.
        z1 = vm("z1", patterns=("perm: every month *1e6",))
        a1 = vm("a1", patterns=("perm: every month *1e9",))
        with pytest.raises(EvaluationError) as exc:
            engine.simulate(m.DeploymentModel("g", (z1, a1)), BASIC_CATALOG, window(6))
        assert str(exc.value) == (
            "z1/vm_hours in 2011-05: amount 7.1999999999999990E+25 exceeds the "
            "28-digit decimal precision at 6 fractional digits")
        with pytest.raises(EvaluationError) as exc:
            engine.simulate(m.DeploymentModel("g", (a1, z1)), BASIC_CATALOG, window(6))
        assert str(exc.value).startswith("a1/vm_hours in 2011-04: ")

    def test_window_additivity_with_shared_anchor(self):
        rng = random.Random(1106)
        cases = [(m.DeploymentModel("x", (vm(patterns=("perm: every month +10",)),)),
                  BASIC_CATALOG, 3)]
        cases += [(random_model(rng), flat_catalog(rng, PLACEMENTS), rng.randint(1, 5))
                  for _ in range(25)]
        start = Month(2011, 1)
        for scenario, catalog, split in cases:
            whole = engine.simulate(scenario, catalog,
                                    SimulationWindow(start, add_months(start, 5)))
            first = engine.simulate(scenario, catalog,
                                    SimulationWindow(start, add_months(start, split - 1)))
            assert_prefix(whole, first)

    def test_usage_records(self):
        node = vm(patterns=("perm: every month +10",))
        report = engine.simulate(m.DeploymentModel("x", (node,)), BASIC_CATALOG,
                                 window(3))
        assert [line.quantity for line in report.lines] == pytest.approx([720, 730, 740])
        assert all(line.unit == "hours" for line in report.lines)

    def test_multi_pattern_block_in_one_string(self):
        block = vm("a", patterns=("perm: every month +10, temp: every feb /2",))
        separate = vm("a", patterns=("perm: every month +10", "temp: every feb /2"))
        rep_a = engine.simulate(m.DeploymentModel("a", (block,)), BASIC_CATALOG,
                                window(4))
        rep_b = engine.simulate(m.DeploymentModel("a", (separate,)), BASIC_CATALOG,
                                window(4))
        assert [l.cost for l in rep_a.lines] == [l.cost for l in rep_b.lines]

    def test_raw_spec_vm_and_database_use_skuless_rates(self):
        raw_vm = m.Node("raw", m.VIRTUAL_MACHINE, m.Placement("aws", "us-east"),
                        m.VmSpec("linux", cpu_ghz=2.4, ram_gb=8.0),
                        requirements=(m.ResourceRequirement(m.VM_HOURS, 100.0),))
        db = m.Node("db", m.HOSTED_DATABASE, m.Placement("aws", "us-east"),
                    requirements=(m.ResourceRequirement(m.VM_HOURS, 100.0),
                                  m.ResourceRequirement(m.STORAGE_GB, 50.0)))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.20"),
            entry("aws", "us-east", pricing.STORAGE_GB_MONTH, "0.10"),
        )
        rep = engine.simulate(m.DeploymentModel("x", (raw_vm, db)), catalog, window(1))
        by_key = {(l.subject, l.dimension): l.cost for l in rep.lines}
        assert by_key[("raw", m.VM_HOURS)] == Decimal("20.000000")
        assert by_key[("db", m.VM_HOURS)] == Decimal("20.000000")
        assert by_key[("db", m.STORAGE_GB)] == Decimal("5.000000")

    def test_reservation_charges_agree_when_split_on_term_boundary(self):
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, Decimal("0.04"), 12, Decimal(100)),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            skus=(sku,))
        scenario = m.DeploymentModel("r", (vm(),))
        plan = {"vm1": engine.PlanChoice(pricing.RESERVED, 12)}
        start = Month(2011, 1)
        whole = engine.simulate(scenario, catalog,
                                SimulationWindow(start, add_months(start, 23)), plan)
        first = engine.simulate(scenario, catalog,
                                SimulationWindow(start, add_months(start, 11)), plan)
        assert_prefix(whole, first)

    def test_merging_regions_never_raises_transfer_cost(self):
        # intra_region rates <= internet/inter_region rates: co-locating the
        # endpoints can only cheapen the path
        def path_cost(region_b):
            nodes = (vm("a", region="us-east"), vm("b", region=region_b))
            path = m.CommunicationPath(
                "ab", "a", "b", m.ResourceRequirement(m.DATA_LINK_GB, 80.0))
            catalog = catalog_of(
                entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
                entry("aws", "eu-west", pricing.VM_HOURS, "0.10", sku="standard.small"),
                entry("aws", "us-east", pricing.DATA_OUT_GB, "0.01", scope="intra_region"),
                entry("aws", "us-east", pricing.DATA_IN_GB, "0.00", scope="intra_region"),
                entry("aws", "us-east", pricing.DATA_OUT_GB, "0.06", scope="inter_region"),
                entry("aws", "eu-west", pricing.DATA_IN_GB, "0.03", scope="inter_region"),
            )
            rep = engine.simulate(m.DeploymentModel("x", nodes, paths=(path,)),
                                  catalog, window(1))
            return sum((l.cost for l in rep.lines if l.subject == "ab"), Decimal(0))

        assert path_cost("us-east") <= path_cost("eu-west")


class TestPatternsParsedOnce:
    def test_each_distinct_text_is_parsed_once_per_model(self, monkeypatch):
        parsed_texts = Counter()
        parse = m.parse_patterns

        def counting(text):
            parsed_texts[text] += 1
            return parse(text)

        monkeypatch.setattr(m, "parse_patterns", counting)
        monkeypatch.setattr(engine, "parse_patterns", counting)
        weekends = "temp: every month on weekends /2"
        growth = "perm: every month +10"
        nodes = (vm("a", patterns=(weekends,)), vm("b", patterns=(growth, weekends)),
                 vm("c", patterns=(weekends, growth)))
        path = m.CommunicationPath(
            "ab", "a", "b", m.ResourceRequirement(m.DATA_LINK_GB, 5.0, (weekends,)))
        shared = m.DeploymentModel("shared", nodes, paths=(path,))
        assert m.validate(shared) == []
        first = engine.simulate(shared, TRANSFER_CATALOG, window(3))
        second = engine.simulate(shared, TRANSFER_CATALOG, window(3))
        assert first == second
        assert parsed_texts == {weekends: 1, growth: 1}

    def test_models_replaced_onto_other_placements_parse_nothing_again(self, monkeypatch):
        parsed_texts = Counter()
        parse = m.parse_patterns

        def counting(text):
            parsed_texts[text] += 1
            return parse(text)

        monkeypatch.setattr(m, "parse_patterns", counting)
        bad = "temp: every month on someday /2"
        source = m.DeploymentModel("x", (vm("a", patterns=("perm: every month +10",)),
                                         vm("b", patterns=(bad,))))
        diagnostics = m.validate(source)
        assert [d.severity for d in diagnostics] == ["error"]
        for provider in ("aws", "gcp", "azure"):
            moved = source.replaced(provider, "us-east")
            assert moved.nodes[0].placement == m.Placement(provider, "us-east")
            assert m.validate(moved) == diagnostics
        assert parsed_texts == {"perm: every month +10": 1, bad: 1}

    def test_replaced_requirement_with_added_pattern_is_simulated(self):
        base = m.DeploymentModel("one", (vm(patterns=("perm: every month +10",)),))
        before = engine.simulate(base, BASIC_CATALOG, window(2))
        node = base.nodes[0]
        req = node.requirements[0]
        doubled = base._replace(nodes=(node._replace(requirements=(
            req._replace(patterns=req.patterns + ("temp: every month *2",)),)),))
        after = engine.simulate(doubled, BASIC_CATALOG, window(2))
        assert [line.quantity for line in after.lines] == [
            2 * line.quantity for line in before.lines]
        assert engine.simulate(base, BASIC_CATALOG, window(2)) == before


def series_of(subject, months, dimension=m.VM_HOURS):
    return engine.CostSeries(subject, subject, dimension, "hours", None, "aws", "us-east", None,
                             (1.0,) * months, (Decimal(1),) * months)


def series_costing(subject, *costs):
    """A series of ``subject``'s VM hours costing ``costs``, ``None`` for no line."""
    return series_of(subject, len(costs))._replace(
        quantities=tuple(None if cost is None else 1.0 for cost in costs),
        costs=tuple(None if cost is None else Decimal(cost) for cost in costs))


class TestCostReport:
    def test_sorted_unique_lines_in_the_window_are_accepted(self):
        jan, feb = Month(2011, 1), Month(2011, 2)
        report = engine.CostReport(window(2), (
            series_costing("a", 1, None)._replace(dimension=m.STORAGE_GB),
            series_of("a", 2), series_costing("b", 1, None)))
        assert [(line.month, line.subject, line.dimension) for line in report.lines] == [
            (jan, "a", m.STORAGE_GB), (jan, "a", m.VM_HOURS), (jan, "b", m.VM_HOURS),
            (feb, "a", m.VM_HOURS)]
        assert report.lines[1] == engine.CostLine(jan, "a", "a", m.VM_HOURS, 1.0, "hours",
                                                  Decimal(1), None, "aws", "us-east")

    def test_replace_runs_the_same_checks(self):
        report = engine.CostReport(window(2), (series_of("a", 2),))
        with pytest.raises(ValueError, match=r"^cost series a/vm_hours: 2 costs and "
                                             r"2 quantities for a 1-month window$"):
            report._replace(window=window(1))
        with pytest.raises(ValueError, match=r"^cost series out of order: "):
            report._replace(series=report.series + (series_of("0", 2),))
        with pytest.raises(ValueError, match=r"^duplicate cost series for "):
            report._replace(series=report.series * 2)
        assert report._replace(warnings=("w",)).warnings == ("w",)

    def test_simulated_lines_regrouped_by_subject_and_dimension_give_the_series(
            self, demo_model_text, demo_catalog_text):
        plan = {"web-1": engine.PlanChoice(pricing.RESERVED, 12)}
        report = engine.simulate(m.parse_model(demo_model_text),
                                 pricing.load_catalog(demo_catalog_text),
                                 SimulationWindow(Month(2011, 1), Month(2013, 6)), plan)
        fees = [s for s in report.series if s.dimension == engine.RESERVATION_UPFRONT]
        assert [s.costs.count(None) for s in fees] == [27]  # fees in months 1, 13 and 25
        rng = random.Random(22)
        reports = [report] + [
            engine.simulate(random_model(rng), flat_catalog(rng, PLACEMENTS),
                            window(rng.randint(1, 4))) for _ in range(20)]
        for report in reports:
            months = list(report.window.months())
            regrouped = {}
            for line in report.lines:
                regrouped.setdefault((line.subject, line.dimension), []).append(line)
            assert sorted(regrouped) == [(s.subject, s.dimension) for s in report.series]
            for item in report.series:
                lines = regrouped[item.subject, item.dimension]
                by_month = {line.month: line for line in lines}
                assert len(by_month) == len(lines)
                for field in item._fields[:-2]:  # each but quantities and costs
                    assert {getattr(line, field) for line in lines} == {getattr(item, field)}
                assert item.quantities == tuple(
                    by_month[month].quantity if month in by_month else None for month in months)
                assert item.costs == tuple(
                    by_month[month].cost if month in by_month else None for month in months)

    @pytest.mark.parametrize("keys, problem", [
        ([("b", m.VM_HOURS), ("a", m.VM_HOURS)], "cost series out of order: ('a', 'vm_hours')"),
        ([("a", m.VM_HOURS), ("a", m.STORAGE_GB)],
         "cost series out of order: ('a', 'storage_gb')"),
        ([("a", m.VM_HOURS), ("a", m.VM_HOURS)], "duplicate cost series for ('a', 'vm_hours')"),
    ], ids=["subject", "dimension", "duplicate"])
    def test_series_out_of_order_or_duplicated_are_rejected(self, keys, problem):
        with pytest.raises(ValueError) as caught:
            engine.CostReport(window(2), tuple(series_of(subject, 2, dimension)
                                               for subject, dimension in keys))
        assert str(caught.value) == problem

    @pytest.mark.parametrize("months", [1, 3])
    def test_series_not_as_long_as_the_window_is_rejected(self, months):
        with pytest.raises(ValueError, match=rf"^cost series a/vm_hours: {months} costs and "
                                             rf"{months} quantities for a 2-month window$"):
            engine.CostReport(window(2), (series_of("a", months),))
        uneven = series_of("a", 2)._replace(quantities=(1.0,) * months)
        with pytest.raises(ValueError, match=rf"^cost series a/vm_hours: 2 costs and "
                                             rf"{months} quantities for a 2-month window$"):
            engine.CostReport(window(2), (uneven,))

    def test_series_without_its_first_month_is_rejected(self):
        late = series_of("a", 3)._replace(quantities=(None, 1.0, 1.0),
                                          costs=(None, Decimal(1), Decimal(1)))
        with pytest.raises(ValueError, match=r"^cost series a/vm_hours has no line in the "
                                             r"window's first month 2011-01$"):
            engine.CostReport(window(3), (late,))
        report = engine.CostReport(window(3), (series_of("a", 3),))
        with pytest.raises(ValueError, match=r"has no line in the window's first month"):
            report._replace(series=(late,))
        fee = late._replace(quantities=(1.0, None, None), costs=(Decimal(1), None, None))
        assert [line.month for line in report._replace(series=(fee,)).lines] == [Month(2011, 1)]

    def test_monthly_totals_equal_per_line_sums_keyed_by_month(self, demo_model_text,
                                                              demo_catalog_text):
        decade = engine.simulate(m.parse_model(demo_model_text),
                                 pricing.load_catalog(demo_catalog_text),
                                 SimulationWindow(Month(2011, 1), Month(2020, 12)))
        # Feb has no lines; March's sum rounds differently in any other order, and
        # so does the vm_hours rollup, which adds b's April cost after March's
        # lines (each series has its first month, a January line costing 0)
        gap = engine.CostReport(window(4), (
            series_costing("a", 0, None, "1e21", None),
            series_costing("b", 0, None, "0.0000006", "0.0000005"),
            series_costing("c", 0, None, "0.0000006", None),
            series_costing("vm1", 1, None, None, None)))
        # February's only costs are zeros, one signed; c has no line after
        # January; and a report may have no series at all
        zeros = engine.CostReport(window(3), (
            series_costing("a", "-0.000000", "-0.000000", "1.5")._replace(group="a"),
            series_costing("b", "0E-7", "0E-7", "-0.000000")._replace(group="b"),
            series_costing("c", "2", None, None)))
        empty = engine.CostReport(window(2), ())
        for report in (decade, gap, zeros, empty):
            totals = {month: Decimal(0) for month in report.window.months()}
            for line in report.lines:
                totals[line.month] += line.cost
            expected = [str(to_money(total)) for total in totals.values()]
            assert [str(total) for total in report.monthly_totals()] == expected
            for by in engine.ROLLUP_KEYS:
                keyed = {}
                for line in report.lines:  # month-major, in line order
                    key = line.group or "" if by == "group" else line.dimension
                    keyed[key] = keyed.get(key, Decimal(0)) + line.cost
                assert [(key, str(total)) for key, total in engine.rollup(report, by)] == [
                    (key, str(to_money(keyed[key]))) for key in sorted(keyed)]
        assert [str(total) for total in gap.monthly_totals()] == [
            "1.000000", "0.000000", "1000000000000000000000.000002", "0.000000"]
        # adding series by series, a first, would give ...001.000003
        assert [(key, str(total)) for key, total in engine.rollup(gap, "dimension")] == [
            ("vm_hours", "1000000000000000000001.000002")]
        assert [str(total) for total in zeros.monthly_totals()] == [
            "2.000000", "0.000000", "1.500000"]
        assert [(key, str(total)) for key, total in engine.rollup(zeros, "group")] == [
            ("", "2.000000"), ("a", "1.500000"), ("b", "0.000000")]
        assert [str(total) for total in empty.monthly_totals()] == ["0.000000"] * 2
        assert str(report_total(empty)) == "0.000000"
        assert all(engine.rollup(empty, by) == [] for by in engine.ROLLUP_KEYS)


class TestTotals:
    @staticmethod
    def assert_totals_are_line_sums(report):
        """The summary total is a plain += over the line costs, and each monthly
        total its month's; compared as text, so sign and exponent count."""
        grand = Decimal("0.000000")
        by_month = {month: Decimal("0.000000") for month in report.window.months()}
        for line in report.lines:
            grand += line.cost
            by_month[line.month] += line.cost
        assert str(engine.summarize(report.monthly_totals(), "x").total) == str(grand)
        assert [str(total) for total in report.monthly_totals()] == [
            str(total) for total in by_month.values()]

    def test_summary_total_is_the_line_sum_on_random_models(self):
        # tiers on some dimensions, some machines reserved on every term, and
        # windows that cross a year end
        rng = random.Random(2811)
        terms = (1, 2, 5, 12, 36)
        seen = Counter()
        for _ in range(150):
            scenario = random_model(rng, max_nodes=6)
            catalog = flat_catalog(rng, PLACEMENTS, terms=terms, tiered=True)
            start = Month(rng.randint(2009, 2012), rng.randint(9, 12))
            span = window(rng.randint(14 - start.month, 40), start)
            plan = {node.id: engine.PlanChoice(pricing.RESERVED, rng.choice(terms))
                    for node in scenario.nodes
                    if node.vm_spec is not None and node.vm_spec.sku and rng.random() < 0.6}
            try:
                report = engine.simulate(scenario, catalog, span, plan)
            except EvaluationError:  # a random pattern can grow past any price
                continue
            self.assert_totals_are_line_sums(report)
            seen["priced"] += 1
            seen["fees"] += any(item.dimension == engine.RESERVATION_UPFRONT
                                for item in report.series)
        assert seen["priced"] > 100 and seen["fees"] > 20

    def test_summary_total_is_the_line_sum_on_the_reserved_demo(self, demo_model_text,
                                                                 demo_catalog_text):
        demo = m.parse_model(demo_model_text)
        plan = {node.id: engine.PlanChoice(pricing.RESERVED, 36)
                for node in demo.nodes if node.kind == m.VIRTUAL_MACHINE}
        report = engine.simulate(demo, pricing.load_catalog(demo_catalog_text),
                                 window(40, Month(2010, 11)), plan)
        fees = [item for item in report.series if item.dimension == engine.RESERVATION_UPFRONT]
        assert len(fees) == len(plan)
        self.assert_totals_are_line_sums(report)


class TestRollup:
    def test_single_line(self):
        report = engine.simulate(m.DeploymentModel("one", (vm(),)), BASIC_CATALOG,
                                 window(1))
        assert engine.rollup(report, "group") == [("", Decimal("72.000000"))]
        assert engine.rollup(report, "dimension") == [("vm_hours", Decimal("72.000000"))]

    def test_dimension_shares_sum_to_one(self, demo_model_text, demo_catalog_text):
        import cloudcost
        report = engine.simulate(cloudcost.parse_model(demo_model_text),
                                 pricing.load_catalog(demo_catalog_text), window(3))
        grand = Fraction(report_total(report))
        shares = [Fraction(total) / grand for _, total in engine.rollup(report, "dimension")]
        assert sum(shares) == 1

    def test_conservation_over_random_models(self):
        rng = random.Random(42)
        for _ in range(40):
            scenario = random_model(rng)
            catalog = flat_catalog(rng, PLACEMENTS)
            report = engine.simulate(scenario, catalog, window(rng.randint(1, 4)))
            grand = report_total(report)
            for by in engine.ROLLUP_KEYS:
                keyed = engine.rollup(report, by)
                assert sum((total for _, total in keyed), Decimal(0)) == grand

    def test_unknown_key_rejected(self):
        report = engine.simulate(m.DeploymentModel("one", (vm(),)), BASIC_CATALOG,
                                 window(1))
        with pytest.raises(ValueError):
            engine.rollup(report, "color")
        with pytest.raises(ValueError):
            engine.rollup(report, "month")


class TestSummarize:
    def test_report_summary_identity(self):
        report = engine.simulate(m.DeploymentModel("one", (vm(),)), BASIC_CATALOG,
                                 window(3))
        row = engine.summarize(report.monthly_totals(), "one")
        exact = Fraction(row.total - row.first_month) / (row.months - 1)
        assert row.monthly_avg == round(exact * 100) / 100

    def test_single_month_series(self):
        row = engine.summarize([Decimal(100)], "x")
        assert row.monthly_avg == Fraction(100)
        assert row.total == Decimal("100.000000")

    def test_plain_series(self):
        row = engine.summarize([100, 200, 300], "x")
        assert row.first_month == Decimal("100.000000")
        assert row.total == Decimal("600.000000")
        assert row.monthly_avg == Fraction(250)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            engine.summarize([], "x")

    def test_average_is_rounded_to_cents_once(self):
        # the exact average ends in .014999666..., so cents are .01; rounding
        # first to the 28 digits of the decimal context gives .015000, then .02
        big = Decimal("1e21")
        row = engine.summarize([0, big, big, big + Decimal("0.044999")], "x")
        assert row.monthly_avg == Decimal("1000000000000000000000.01")


def row(label, first, total, months=36):
    remaining = Decimal(total) - Decimal(first)
    body = (remaining / (months - 1)).quantize(Decimal("0.01"))
    series = [Decimal(first)] + [body] * (months - 2) \
        + [remaining - body * (months - 2)]
    return engine.summarize(series, label)


class TestCompare:
    def test_provider_multiples(self):
        rows = [row("AWS US-East", "18980", "85950"),
                row("FlexiScale", "5060", "185345"),
                row("Rackspace", "6550", "242170")]
        table = engine.compare(rows)
        assert table.baseline_label == "AWS US-East"
        assert table_entry(table, "FlexiScale").difference == "+2x"
        assert table_entry(table, "Rackspace").difference == "+3x"
        assert table_entry(table, "AWS US-East").difference is None

    def test_elastic_saving_delta(self):
        rows = [row("Non-elastic", "67350", "286415"),
                row("Elastic", "65430", "217470"),
                row("Elastic small", "75260", "221385")]
        table = engine.compare(rows)
        assert table.baseline_label == "Elastic"
        delta = table_entry(table, "Non-elastic").delta
        assert delta == Decimal("68945.000000")
        assert abs(delta - Decimal(70000)) <= 1500

    def test_tie_breaks_by_label_with_warning(self):
        rows = [row("zeta", "10", "1000", 12), row("alpha", "10", "1000", 12)]
        table = engine.compare(rows)
        assert table.baseline_label == "alpha"
        assert table.warnings and "tie" in table.warnings[0]
        assert table_entry(table, "zeta").difference == "+1x"

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            engine.compare([row("only", "1", "10", 12)])

    @pytest.mark.parametrize("baseline, total, difference", [
        (2, 5, "+2x"), (2, 7, "+4x"), (4, 6, "+2x")])
    def test_multiple_is_the_total_over_the_baseline_rounded_half_even(self, baseline, total,
                                                                      difference):
        table = engine.compare([engine.summarize([baseline], "base"),
                                engine.summarize([total], "other")])
        assert table_entry(table, "other").difference == difference

    def test_a_zero_baseline_reads_1x_on_a_tie_and_n_a_above_it(self):
        rows = [engine.summarize([0, 0], "free"), engine.summarize([0, 0], "gratis"),
                engine.summarize([2, 3], "paid"), engine.summarize([3], "three"),
                engine.summarize([1, 2], "also three")]
        table = engine.compare(rows)
        assert table.baseline_label == "free"
        assert [entry.difference for entry in table.entries] == [None, "+1x", "n/a", "n/a",
                                                                 "n/a"]
        assert engine.compare(rows[3:]).entries[0].difference == "+1x"

    @pytest.mark.parametrize("totals", [([-1], [2]), ([2], [-1]), ([0], [-0.01])],
                             ids=["baseline", "other", "cents"])
    def test_a_negative_total_raises_naming_its_row(self, totals):
        rows = [engine.summarize(totals[0], "a"), engine.summarize(totals[1], "b")]
        (negative,) = [row for row in rows if row.total < 0]
        with pytest.raises(ValueError) as raised:
            engine.compare(rows)
        assert str(raised.value) == (f"cannot compare '{negative.label}': "
                                     f"its total {negative.total} is negative")


class TestCompareScenarios:
    def test_same_model_twice_ties(self):
        scenario = m.DeploymentModel("one", (vm(),))
        other = scenario._replace(name="two")
        table = engine.compare_scenarios(
            [("one", scenario, None), ("two", other, None)], BASIC_CATALOG, window(3))
        assert table.warnings
        assert [entry.row.label for entry in table.entries] == ["one", "two"]
        assert table_entry(table, "one").row == table_entry(table, "two").row._replace(label="one")

    def test_duplicate_labels_rejected(self):
        scenario = m.DeploymentModel("one", (vm(),))
        with pytest.raises(ValueError):
            engine.compare_scenarios([("one", scenario, None), ("one", scenario, None)],
                                     BASIC_CATALOG, window(1))

    def test_a_scenario_error_keeps_its_class_and_key_under_its_label(self):
        placed = m.DeploymentModel("one", (vm(),))
        moved = m.DeploymentModel("two", (vm(region="mars-1"),))
        with pytest.raises(MissingRateError) as exc:
            engine.compare_scenarios([("one", placed, None), ("two", moved, None)],
                                     BASIC_CATALOG, window(1))
        key = "aws/mars-1/vm_hours/standard.small"
        assert str(exc.value) == f"two: vm1/vm_hours: no rate for {key}"
        assert exc.value.key == key

    def test_elastic_never_costs_more(self):
        always_on = m.DeploymentModel("non-elastic", (vm(),))
        reduced = m.DeploymentModel("elastic", (vm(
            patterns=("temp: every month on weekends /3",)),))
        table = engine.compare_scenarios(
            [("non-elastic", always_on, None), ("elastic", reduced, None)],
            BASIC_CATALOG, window(6))
        assert table.baseline_label == "elastic"
        assert (table_entry(table, "elastic").row.total
                <= table_entry(table, "non-elastic").row.total)

    def test_small_instances_trade_first_month_for_average(self):
        # few large instances, on demand: flat months
        large = m.DeploymentModel("large", (vm("big", sku="standard.large"),))
        # many small instances, reserved: big first month, lower average
        small_nodes = tuple(vm(f"s{i}", sku="standard.small", hours=176.0)
                            for i in range(8))
        small = m.DeploymentModel("small", small_nodes)
        sku = pricing.InstanceSku("aws", "us-east", "standard.small", (
            pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10")),
            pricing.PurchaseOption(pricing.RESERVED, Decimal("0.03"), 36, Decimal(300)),
        ))
        catalog = catalog_of(
            entry("aws", "us-east", pricing.VM_HOURS, "0.10", sku="standard.small"),
            entry("aws", "us-east", pricing.VM_HOURS, "0.55", sku="standard.large"),
            skus=(sku,))
        plan = {node.id: engine.PlanChoice(pricing.RESERVED, 36) for node in small_nodes}
        table = engine.compare_scenarios(
            [("large", large, None), ("small", small, plan)], catalog, window(36))
        small_row = table_entry(table, "small").row
        large_row = table_entry(table, "large").row
        assert small_row.first_month > large_row.first_month
        assert small_row.monthly_avg < large_row.monthly_avg
        assert table.baseline_label == "small"


class TestMonotonicity:
    def test_raising_a_baseline_never_lowers_total(self):
        rng = random.Random(77)
        for _ in range(25):
            scenario = random_model(rng, with_patterns=True)
            catalog = flat_catalog(rng, PLACEMENTS)
            win = window(rng.randint(1, 3))
            base_total = report_total(engine.simulate(scenario, catalog, win))
            bumped = _bump_some_baseline(scenario, rng)
            if bumped is None:
                continue
            assert report_total(engine.simulate(bumped, catalog, win)) >= base_total


def _bump_some_baseline(scenario, rng):
    nodes = list(scenario.nodes)
    candidates = [(i, j) for i, node in enumerate(nodes)
                  for j, _ in enumerate(node.requirements)]
    if not candidates:
        return None
    i, j = rng.choice(candidates)
    reqs = list(nodes[i].requirements)
    reqs[j] = reqs[j]._replace(baseline=reqs[j].baseline + rng.uniform(1, 100))
    nodes[i] = nodes[i]._replace(requirements=tuple(reqs))
    return scenario._replace(nodes=tuple(nodes))
