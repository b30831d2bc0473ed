"""Seeded synthetic deployment model, price catalog and purchase plan.

``generate(seed, nodes)`` returns three JSON documents. The same seed and
size give byte-identical files, and every file passes ``cloudcost validate``
and simulates without a missing rate.

The model is shaped to exercise what the bundled demo does not:

* nodes spread over three placements (two regions of one provider and a
  second provider), so path transfers are priced at all three scopes;
* flat and marginal-tier rates, and a reserved plan for some VMs;
* day-clause patterns (``weekdays``, ``25-30``, ``fri``, ``mon-wed``,
  wrapped month ranges such as ``nov-feb``) on most requirements;
* temp ``-N`` patterns that drive a value below zero, so replay clamps it
  and records a warning.

Permanent growth stays in realistic magnitudes: monthly ``+N`` or ``*1.01``
to ``*1.02``, and daily steps of ``+N`` only. A compounding daily multiplier
(``perm: every month on everyday *1.5``) overflows the decimal context when
priced and crashes ``simulate``; that is a defect of the program, to be fixed
on its own, and this generator keeps clear of it so the benchmark measures
the normal path.

Run ``python3 bench/synth.py --seed 7 --nodes 500 --out DIR`` to write the
three files.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

PLACEMENTS = (("nimbus", "us-east"), ("nimbus", "eu-west"), ("stratus", "us-east"))
VM_SKUS = ("small", "medium", "large")
STORAGE_TYPES = ("block", "object")

TEMP_PATTERNS = (
    "temp: every month on weekdays *1.2",
    "temp: every month on weekends *0.6",
    "temp: every nov-feb on 25-30 *1.8",
    "temp: every month on fri *1.3",
    "temp: every jun-aug on mon-wed *0.9",
    "temp: every oct-mar on sat /2",
    "temp: every dec on 20-31 +{small}",
)
GROWTH_PATTERNS = (
    "perm: every month +{small}",
    "perm: every month *1.01",
    "perm: every month *1.02",
    "perm: every month on fri +{tiny}",
    "perm: every sep-feb on 1 +{small}",
)
# Subtracts more than any level this generator produces, so the day clamps.
CLAMP_PATTERN = "temp: every jan on 1-3 -1000000000"


def _price(rng: random.Random, low: float, high: float, digits: int = 4) -> str:
    return f"{rng.uniform(low, high):.{digits}f}"


def _tiers(rng: random.Random, first_bound: int, low: float, high: float) -> dict:
    top = rng.uniform(low, high)
    return {"tiers": [
        {"upper_bound": first_bound, "unit_price": f"{top:.4f}"},
        {"upper_bound": first_bound * 10, "unit_price": f"{top * 0.85:.4f}"},
        {"upper_bound": None, "unit_price": f"{top * 0.7:.4f}"},
    ]}


def _catalog(rng: random.Random) -> dict:
    entries = []
    skus = []

    def entry(provider, region, dimension, pricing, sku=None, scope=None):
        doc = {"provider": provider, "region": region, "dimension": dimension}
        if sku is not None:
            doc["sku"] = sku
        if scope is not None:
            doc["scope"] = scope
        doc["pricing"] = pricing
        entries.append(doc)

    for provider, region in PLACEMENTS:
        for scale, sku in enumerate(VM_SKUS, start=1):
            hourly = rng.uniform(0.05, 0.09) * 2 ** scale
            entry(provider, region, "vm_hours", {"flat": f"{hourly:.4f}"}, sku=sku)
            skus.append({"provider": provider, "region": region, "name": sku,
                         "purchase_options": [
                             {"kind": "on_demand", "hourly_rate": f"{hourly:.4f}"},
                             {"kind": "reserved", "hourly_rate": f"{hourly * 0.65:.4f}",
                              "term_months": 12, "upfront_fee": f"{hourly * 2000:.2f}"},
                             {"kind": "reserved", "hourly_rate": f"{hourly * 0.5:.4f}",
                              "term_months": 36, "upfront_fee": f"{hourly * 5000:.2f}"},
                         ]})
        entry(provider, region, "vm_hours", {"flat": _price(rng, 0.1, 0.2)})
        for sku in STORAGE_TYPES + (None,):
            storage = (_tiers(rng, 1000, 0.08, 0.12) if sku == "object"
                       else {"flat": _price(rng, 0.08, 0.12)})
            entry(provider, region, "storage_gb_month", storage, sku=sku)
            for dimension in ("io_in_requests", "io_out_requests"):
                entry(provider, region, dimension, {"flat": _price(rng, 1e-7, 2e-6, 8)},
                      sku=sku)
            io_gb = (_tiers(rng, 500, 0.05, 0.12) if sku == "block"
                     else {"flat": _price(rng, 0.05, 0.12)})
            entry(provider, region, "io_gb", io_gb, sku=sku)
        entry(provider, region, "data_in_gb", {"flat": "0.00"}, scope="internet")
        entry(provider, region, "data_in_gb", {"flat": "0.00"}, scope="intra_region")
        entry(provider, region, "data_in_gb", {"flat": _price(rng, 0.005, 0.02)},
              scope="inter_region")
        entry(provider, region, "data_out_gb", _tiers(rng, 10000, 0.12, 0.18),
              scope="internet")
        entry(provider, region, "data_out_gb", {"flat": "0.00"}, scope="intra_region")
        entry(provider, region, "data_out_gb", {"flat": _price(rng, 0.01, 0.03)},
              scope="inter_region")
    return {"currency": "USD", "entries": entries, "skus": skus}


# Node kinds per 20 nodes. Structure (kinds, requirement and pattern counts)
# is fixed by position, and only values are drawn, so every seed asks for
# about the same amount of work.
KIND_MIX = ("vm",) * 12 + ("storage",) * 3 + ("database",) * 3 + ("remote",) * 2
TEMP_COUNTS = (1, 2, 0, 1, 2, 1)


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.requirements = 0
        self.vms = 0

    def patterns(self) -> list[str]:
        """Most requirements get a day-clause pattern; every second one grows;
        one in twenty clamps."""
        rng, n = self.rng, self.requirements
        self.requirements += 1
        chosen = rng.sample(TEMP_PATTERNS, TEMP_COUNTS[n % len(TEMP_COUNTS)])
        if n % 2:
            chosen.append(rng.choice(GROWTH_PATTERNS))
        if n % 20 == 7:
            chosen.append(CLAMP_PATTERN)
        return [p.format(small=rng.randint(1, 40), tiny=rng.randint(1, 5)) for p in chosen]

    def requirement(self, kind: str, low: float, high: float) -> dict:
        req = {"kind": kind, "baseline": round(self.rng.uniform(low, high), 1)}
        patterns = self.patterns()
        if patterns:
            req["patterns"] = patterns
        return req

    def node(self, kind: str, index: int) -> dict:
        rng, req = self.rng, self.requirement
        placement = dict(zip(("provider", "region"), rng.choice(PLACEMENTS)))
        if kind == "vm":
            self.vms += 1
            if self.vms % 4:
                spec = {"operating_system": "linux", "sku": rng.choice(VM_SKUS)}
            else:
                spec = {"operating_system": "linux", "cpu_ghz": 2.4,
                        "ram_gb": float(rng.choice((4, 8, 16)))}
            reqs = [req("vm_hours", 200, 720)]
            if self.vms % 2:
                reqs.append(req("data_out_gb", 10, 500))
            return {"id": f"vm-{index:04d}", "kind": "virtual_machine",
                    "placement": placement, "vm_spec": spec, "requirements": reqs}
        if kind == "storage":
            reqs = [req("storage_gb", 100, 5000), req("io_in_requests", 1e6, 5e7),
                    req("io_out_requests", 1e6, 5e7), req("io_gb", 10, 800)]
            return {"id": f"st-{index:04d}", "kind": "virtual_storage",
                    "placement": placement,
                    "storage_spec": {"storage_type": rng.choice(STORAGE_TYPES)},
                    "requirements": reqs}
        if kind == "database":
            reqs = [req("vm_hours", 720, 720), req("storage_gb", 50, 2000),
                    req("io_in_requests", 1e6, 2e7), req("io_out_requests", 1e6, 2e7)]
            return {"id": f"db-{index:04d}", "kind": "hosted_database",
                    "placement": placement, "requirements": reqs}
        return {"id": f"rm-{index:04d}", "kind": "remote_node"}


def generate(seed: int, nodes: int = 500) -> tuple[dict, dict, dict]:
    """The (model, catalog, plan) documents for a seed and node count."""
    rng = random.Random(seed)
    catalog = _catalog(rng)
    kinds = [KIND_MIX[i % len(KIND_MIX)] for i in range(nodes)]
    rng.shuffle(kinds)
    builder = _Builder(rng)
    node_docs = [builder.node(kind, i) for i, kind in enumerate(kinds)]
    ids = [n["id"] for n in node_docs]
    placed = [n["id"] for n in node_docs if n["kind"] != "remote_node"]
    paths = []
    for i in range(max(1, nodes * 3 // 10)):
        src = rng.choice(placed)
        dst = rng.choice([node_id for node_id in ids if node_id != src])
        paths.append({"id": f"p-{i:04d}", "from_node": src, "to_node": dst,
                      "volume": builder.requirement("data_link_gb", 10, 2000)})
    rng.shuffle(placed)
    grouped = placed[: len(placed) * 7 // 10]
    group_count = max(1, nodes // 50)
    groups = [{"id": f"g-{g:02d}", "label": f"Tier {g}",
               "node_ids": sorted(grouped[g::group_count])}
              for g in range(group_count)]
    model = {"name": f"synthetic-{seed}", "nodes": node_docs, "paths": paths,
             "groups": groups}
    plan = {}
    for node in node_docs:
        if "sku" in node.get("vm_spec", {}) and rng.random() < 0.15:
            plan[node["id"]] = {"kind": "reserved", "term_months": rng.choice((12, 36))}
    return model, catalog, plan


def write(seed: int, nodes: int, out: Path) -> dict[str, Path]:
    """Write model.json, catalog.json and plan.json under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, doc in zip(("model", "catalog", "plan"), generate(seed, nodes)):
        files[name] = out / f"{name}.json"
        files[name].write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return files


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(args.seed, args.nodes, args.out).values():
        print(path)
