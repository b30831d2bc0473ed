"""Seeded random generators, and edits of JSON documents, shared by tests."""

from __future__ import annotations

import copy
import random
from decimal import Decimal

from cloudcost import elasticity, model, pricing
from cloudcost.months import Month, SimulationWindow

MONTHS = elasticity.MONTH_NAMES
DOWS = elasticity.DOW_NAMES
DELETE = object()  # a change's value that removes its key


def mutated(doc, *changes):
    """A copy of ``doc`` with each (key path, value) change made; DELETE
    removes the key, and the empty key path replaces the whole document."""
    doc = copy.deepcopy(doc)
    for keys, value in changes:
        if not keys:
            doc = value
            continue
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return doc


def month_quantity(schedule: elasticity.UsageSchedule, month: Month, start: Month) -> float:
    """One month's billed quantity: the last month of a replay over
    ``start..month`` through the same entry point that ``engine.simulate`` uses."""
    return elasticity.monthly_series(schedule, SimulationWindow(start, month))[0][-1]


def table_entry(table, label: str):
    """The comparison table's entry for the row labelled ``label``."""
    (found,) = [entry for entry in table.entries if entry.row.label == label]
    return found


def random_pattern_text(rng: random.Random) -> str:
    mode = rng.choice(["temp", "perm"])
    pick = rng.random()
    if pick < 0.4:
        months = "month"
    elif pick < 0.7:
        months = rng.choice(MONTHS)
    else:
        months = f"{rng.choice(MONTHS)}-{rng.choice(MONTHS)}"  # may wrap
    day_kind = rng.choice(["empty", "everyday", "weekdays", "weekends",
                           "dom", "dom_range", "dow", "dow_range"])
    if day_kind == "empty":
        days = ""
    elif day_kind == "dom":
        days = f" on {rng.randint(1, 31):02d}"
    elif day_kind == "dom_range":
        a = rng.randint(1, 30)
        days = f" on {a:02d}-{rng.randint(a, 31):02d}"
    elif day_kind == "dow":
        days = f" on {rng.choice(DOWS)}"
    elif day_kind == "dow_range":
        a = rng.randint(0, 6)
        days = f" on {DOWS[a]}-{DOWS[rng.randint(a, 6)]}"
    else:
        days = f" on {day_kind}"
    op = rng.choice("+-*/^")
    if op == "+":
        operand = rng.choice([rng.randint(1, 40), round(rng.uniform(0.5, 25.0), 1)])
    elif op == "-":
        operand = rng.choice([rng.randint(1, 40), round(rng.uniform(0.5, 25.0), 1)])
    elif op == "*":
        # keep perm multipliers tame: compounding over 24 months must not overflow
        operand = round(rng.uniform(0.4, 1.6), 2) if mode == "perm" else round(rng.uniform(0.0, 3.0), 2)
    elif op == "/":
        operand = round(rng.uniform(1.1, 3.0), 2) if mode == "perm" else round(rng.uniform(0.25, 4.0), 2)
    else:
        operand = round(rng.uniform(0.5, 1.0), 2) if mode == "perm" else round(rng.uniform(0.0, 1.5), 2)
    space = rng.choice(["", " "])
    return f"{mode}: every {months}{days} {op}{space}{operand}"


def random_schedule(rng: random.Random) -> elasticity.UsageSchedule:
    kind_class = rng.choice([elasticity.STOCK, elasticity.FLOW])
    baseline = round(rng.uniform(0.0, 500.0), 2)
    texts = [random_pattern_text(rng) for _ in range(rng.randint(0, 4))]
    specs = tuple(elasticity.parse_pattern(t) for t in texts)
    return elasticity.UsageSchedule(kind_class, baseline, specs)


def flat_catalog(rng: random.Random, placements: list[tuple[str, str]],
                 currency: str = "USD", terms: tuple[int, ...] = (12,)) -> pricing.PriceCatalog:
    """Flat nonnegative rates covering every key a generated model can need;
    sku ``std`` is reservable on each of ``terms``, in months."""
    entries = []
    skus = []
    for provider, region in placements:
        def rate() -> Decimal:
            return Decimal(rng.randint(0, 5000)) / Decimal(10000)

        entries.append(pricing.RateEntry(provider, region, pricing.VM_HOURS,
                                         sku="std", flat_price=rate()))
        entries.append(pricing.RateEntry(provider, region, pricing.VM_HOURS,
                                         flat_price=rate()))
        for dim in (pricing.STORAGE_GB_MONTH, pricing.IO_IN_REQUESTS,
                    pricing.IO_OUT_REQUESTS, pricing.IO_GB):
            entries.append(pricing.RateEntry(provider, region, dim, flat_price=rate()))
            entries.append(pricing.RateEntry(provider, region, dim, sku="disk",
                                             flat_price=rate()))
        for dim in (pricing.DATA_IN_GB, pricing.DATA_OUT_GB):
            for scope in pricing.SCOPES:
                entries.append(pricing.RateEntry(provider, region, dim, scope=scope,
                                                 flat_price=rate()))
        skus.append(pricing.InstanceSku(provider, region, "std", (
            pricing.PurchaseOption(pricing.ON_DEMAND, rate()),
            *(pricing.PurchaseOption(pricing.RESERVED, rate() / 2, term,
                                     Decimal(rng.randint(0, 200))) for term in terms),
        )))
    return pricing.PriceCatalog(currency, tuple(entries), tuple(skus))


PLACEMENTS = [("alpha", "east"), ("alpha", "west"), ("beta", "east")]


def random_model(rng: random.Random, max_nodes: int = 4,
                 with_patterns: bool = True) -> model.DeploymentModel:
    """A small valid model over the PLACEMENTS providers."""
    nodes = []
    count = rng.randint(2, max_nodes)
    for i in range(count):
        node_id = f"n{i}"
        kind = rng.choice([model.VIRTUAL_MACHINE, model.VIRTUAL_MACHINE,
                           model.VIRTUAL_STORAGE, model.HOSTED_DATABASE,
                           model.REMOTE_NODE])
        placement = None if kind == model.REMOTE_NODE else model.Placement(
            *rng.choice(PLACEMENTS))
        vm_spec = None
        storage_spec = None
        reqs: list[model.ResourceRequirement] = []

        def requirement(kind_name: str, high: float) -> model.ResourceRequirement:
            patterns = ()
            if with_patterns and rng.random() < 0.5:
                patterns = (random_pattern_text(rng),)
            return model.ResourceRequirement(kind_name, round(rng.uniform(0, high), 2),
                                             patterns)

        if kind == model.VIRTUAL_MACHINE:
            if rng.random() < 0.7:
                vm_spec = model.VmSpec("linux", sku="std")
            else:
                vm_spec = model.VmSpec("linux", cpu_ghz=2.4, ram_gb=8.0)
            reqs.append(requirement(model.VM_HOURS, 720))
            if rng.random() < 0.4:
                reqs.append(requirement(model.DATA_OUT_GB, 200))
        elif kind == model.VIRTUAL_STORAGE:
            if rng.random() < 0.5:
                storage_spec = model.StorageSpec("disk")
            reqs.append(requirement(model.STORAGE_GB, 1000))
            if rng.random() < 0.5:
                reqs.append(requirement(model.IO_IN_REQUESTS, 1e6))
        elif kind == model.HOSTED_DATABASE:
            reqs.append(requirement(model.VM_HOURS, 720))
            reqs.append(requirement(model.STORAGE_GB, 500))
        nodes.append(model.Node(node_id, kind, placement, vm_spec, storage_spec,
                                tuple(reqs)))
    paths = []
    for j in range(rng.randint(0, 3)):
        a, b = rng.choice(nodes), rng.choice(nodes)
        paths.append(model.CommunicationPath(
            f"p{j}", a.id, b.id,
            model.ResourceRequirement(model.DATA_LINK_GB,
                                      round(rng.uniform(0, 300), 2),
                                      (random_pattern_text(rng),) if with_patterns and rng.random() < 0.4 else ())))
    groups = []
    if rng.random() < 0.6 and len(nodes) >= 2:
        half = len(nodes) // 2
        groups.append(model.Group("g0", "first", tuple(n.id for n in nodes[:half])))
        groups.append(model.Group("g1", "second", tuple(n.id for n in nodes[half:])))
    return model.DeploymentModel(f"random-{rng.randint(0, 10**6)}", tuple(nodes),
                                 (), (), tuple(paths), tuple(groups))


def random_month(rng: random.Random) -> Month:
    return Month(rng.randint(2009, 2013), rng.randint(1, 12))
