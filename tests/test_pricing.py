import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcost import pricing
from cloudcost.errors import CatalogError, EvaluationError, MissingRateError
from cloudcost.months import Month, SimulationWindow

from builders import add_months
from oracle import oracle_fee_column, oracle_tiered_price


def catalog_doc(**overrides):
    doc = {
        "currency": "USD",
        "entries": [
            {"provider": "aws", "region": "us-east", "dimension": "vm_hours",
             "sku": "standard.small", "pricing": {"flat": "0.10"}},
        ],
        "skus": [],
    }
    doc.update(overrides)
    return doc


def load(doc):
    return pricing.load_catalog(json.dumps(doc))


class TestLoadCatalog:
    def test_single_flat_entry(self):
        entry = pricing.lookup_rate(load(catalog_doc()), "aws", "us-east", "vm_hours",
                                    "standard.small")
        assert entry.flat_price == Decimal("0.10")

    def test_duplicate_key_rejected(self):
        doc = catalog_doc()
        doc["entries"].append(dict(doc["entries"][0]))
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "duplicate" in str(exc.value)

    def test_tiered_transfer_entry_field_by_field(self):
        doc = catalog_doc()
        doc["entries"].append({
            "provider": "aws", "region": "us-east", "dimension": "data_out_gb",
            "scope": "internet",
            "pricing": {"tiers": [
                {"upper_bound": 10240, "unit_price": "0.15"},
                {"upper_bound": None, "unit_price": "0.10"},
            ]},
        })
        entry = pricing.lookup_rate(load(doc), "aws", "us-east", "data_out_gb",
                                    scope="internet")
        assert entry.dimension == "data_out_gb"
        assert entry.scope == "internet"
        assert entry.flat_price is None
        assert entry.tiers == (
            pricing.Tier(Decimal(10240), Decimal("0.15")),
            pricing.Tier(None, Decimal("0.10")),
        )

    def test_unsorted_tiers_rejected(self):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"tiers": [
            {"upper_bound": 100, "unit_price": "1.0"},
            {"upper_bound": 50, "unit_price": "0.5"},
        ]}
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "increasing" in str(exc.value)

    def test_bounded_last_tier_rejected(self):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"tiers": [
            {"upper_bound": 100, "unit_price": "1.0"},
        ]}
        with pytest.raises(CatalogError):
            load(doc)

    @pytest.mark.parametrize("bound", ["NaN", "sNaN", "Infinity"])
    def test_non_finite_tier_bound_rejected(self, bound):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"tiers": [
            {"upper_bound": bound, "unit_price": "1.0"},
            {"upper_bound": None, "unit_price": "0.5"},
        ]}
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "tiers[0].upper_bound: tier bound must be finite" in str(exc.value)

    @pytest.mark.parametrize("priced, message", [
        ({"flat": "abc"}, "entries[0].pricing.flat: invalid decimal 'abc'"),
        ({"flat": "Infinity"}, "entries[0].pricing.flat: price must be finite"),
        ({"tiers": [{"upper_bound": "1e", "unit_price": "1.0"},
                    {"upper_bound": None, "unit_price": "0.5"}]},
         "entries[0].pricing.tiers[0].upper_bound: invalid decimal '1e'"),
        ({"tiers": [{"upper_bound": "10", "unit_price": "1.0"},
                    {"upper_bound": None, "unit_price": "-sNaN"}]},
         "entries[0].pricing.tiers[1].unit_price: price must be finite"),
    ], ids=["price-invalid", "price-infinite", "bound-invalid", "tier-price-nan"])
    def test_decimal_text_errors_name_the_field(self, priced, message):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = priced
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert str(exc.value) == message

    def test_negative_price_rejected(self):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"flat": "-0.10"}
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "negative" in str(exc.value)

    def test_a_zero_price_is_kept_as_positive_zero(self):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"tiers": [
            {"upper_bound": "10", "unit_price": "-0.0"}, {"upper_bound": None, "unit_price": "0"}]}
        doc["entries"].append(dict(doc["entries"][0], sku="small", pricing={"flat": "-0"}))
        doc["skus"] = [{"provider": "aws", "region": "us-east", "name": "small",
                        "purchase_options": [
                            {"kind": "on_demand", "hourly_rate": "-0E+2"},
                            {"kind": "reserved", "hourly_rate": "-0.000", "term_months": 12,
                             "upfront_fee": "-0.00"}]}]
        catalog = load(doc)
        def rate(sku):
            return pricing.lookup_rate(catalog, "aws", "us-east", "vm_hours", sku)

        prices = [tier.unit_price for tier in rate("standard.small").tiers]
        prices.append(rate("small").flat_price)
        for option in catalog.find_sku("aws", "us-east", "small").purchase_options:
            prices.append(option.hourly_rate)
            if option.upfront_fee is not None:
                prices.append(option.upfront_fee)
        assert list(map(str, prices)) == ["0.0", "0", "0", "0E+2", "0.000", "0.00"]

    def test_unknown_dimension_rejected(self):
        doc = catalog_doc()
        doc["entries"][0]["dimension"] = "gpu_hours"
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "gpu_hours" in str(exc.value)

    def test_float_price_rejected(self):
        doc = catalog_doc()
        doc["entries"][0]["pricing"] = {"flat": 0.10}
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "decimal strings" in str(exc.value)

    def test_scope_required_on_transfer(self):
        doc = catalog_doc()
        doc["entries"][0] = {"provider": "aws", "region": "us-east",
                             "dimension": "data_out_gb", "pricing": {"flat": "0.1"}}
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "scope" in str(exc.value)

    @pytest.mark.parametrize("key, value", [
        ("provider", 5), ("region", ["us-east"]), ("sku", ["standard.small"]),
        ("sku", {"name": "standard.small"}),
    ])
    def test_non_string_entry_field_rejected(self, key, value):
        doc = catalog_doc()
        doc["entries"][0][key] = value
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert str(exc.value).startswith(f"entries[0].{key}: expected a string, got ")

    @pytest.mark.parametrize("key, value", [
        ("provider", 5), ("region", None), ("name", {"id": "s"}), ("name", ["s"]),
    ])
    def test_non_string_sku_field_rejected(self, key, value):
        sku = {"provider": "aws", "region": "us-east", "name": "standard.small",
               "purchase_options": [{"kind": "on_demand", "hourly_rate": "0.1"}]}
        with pytest.raises(CatalogError) as exc:
            load(catalog_doc(skus=[{**sku, key: value}]))
        assert str(exc.value).startswith(f"skus[0].{key}: expected a string, got ")

    @pytest.mark.parametrize("skus", [None, 3, "standard.small"])
    def test_skus_must_be_an_array(self, skus):
        with pytest.raises(CatalogError) as exc:
            load(catalog_doc(skus=skus))
        assert str(exc.value) == "$.skus: expected an array"

    def test_scope_forbidden_elsewhere(self):
        doc = catalog_doc()
        doc["entries"][0]["scope"] = "internet"
        with pytest.raises(CatalogError):
            load(doc)

    def test_reserved_rate_above_on_demand_warns(self):
        doc = catalog_doc(skus=[{
            "provider": "aws", "region": "us-east", "name": "standard.small",
            "purchase_options": [
                {"kind": "on_demand", "hourly_rate": "0.10"},
                {"kind": "reserved", "hourly_rate": "0.20",
                 "term_months": 12, "upfront_fee": "100"},
            ],
        }])
        catalog = load(doc)
        assert len(catalog.warnings) == 1
        assert "exceeds" in catalog.warnings[0]

    def test_sku_without_on_demand_rejected(self):
        doc = catalog_doc(skus=[{
            "provider": "aws", "region": "us-east", "name": "standard.small",
            "purchase_options": [
                {"kind": "reserved", "hourly_rate": "0.05",
                 "term_months": 12, "upfront_fee": "100"},
            ],
        }])
        with pytest.raises(CatalogError) as exc:
            load(doc)
        assert "on_demand" in str(exc.value)


class TestLookup:
    def test_present_key(self):
        catalog = load(catalog_doc())
        entry = pricing.lookup_rate(catalog, "aws", "us-east", "vm_hours",
                                    sku="standard.small")
        assert entry.flat_price == Decimal("0.10")

    def test_missing_key_names_full_key(self):
        catalog = load(catalog_doc(entries=[]))
        with pytest.raises(MissingRateError) as exc:
            pricing.lookup_rate(catalog, "aws", "us-east", "vm_hours",
                                sku="standard.small")
        assert "aws/us-east/vm_hours/standard.small" in str(exc.value)

    def test_scope_selects_distinct_entries(self):
        doc = catalog_doc(entries=[
            {"provider": "aws", "region": "us-east", "dimension": "data_out_gb",
             "scope": "internet", "pricing": {"flat": "0.15"}},
            {"provider": "aws", "region": "us-east", "dimension": "data_out_gb",
             "scope": "intra_region", "pricing": {"flat": "0.00"}},
        ])
        catalog = load(doc)
        internet = pricing.lookup_rate(catalog, "aws", "us-east", "data_out_gb",
                                       scope="internet")
        intra = pricing.lookup_rate(catalog, "aws", "us-east", "data_out_gb",
                                    scope="intra_region")
        assert internet.flat_price == Decimal("0.15")
        assert intra.flat_price == Decimal("0.00")


def flat_entry(price):
    return pricing.RateEntry("p", "r", "vm_hours", flat_price=Decimal(price))


def tiered_entry(*tiers):
    return pricing.RateEntry(
        "p", "r", "data_out_gb", scope="internet",
        tiers=tuple(pricing.Tier(None if b is None else Decimal(b), Decimal(p))
                    for b, p in tiers))


class TestPriceQuantity:
    def test_flat_hours(self):
        assert pricing.price_breakdown(flat_entry("0.10"), 720) == Decimal("72.000000")

    def test_marginal_tiers(self):
        entry = tiered_entry((100, "1.00"), (None, "0.50"))
        assert pricing.price_breakdown(entry, 150) == Decimal("125.000000")

    def test_zero_quantity(self):
        assert pricing.price_breakdown(flat_entry("0.10"), 0) == Decimal("0.000000")
        entry = tiered_entry((100, "1.00"), (None, "0.50"))
        assert pricing.price_breakdown(entry, 0) == Decimal("0.000000")

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError):
            pricing.price_breakdown(flat_entry("0.10"), -1)

    @pytest.mark.parametrize("entry", [flat_entry("0.10"),
                                       tiered_entry((100, "1.00"), (None, "0.50"))],
                             ids=["flat", "tiered"])
    def test_cost_beyond_decimal_precision_is_named_error(self, entry):
        with pytest.raises(EvaluationError, match="exceeds the 28-digit decimal precision"):
            pricing.price_breakdown(entry, 1e30)

    def test_quantity_inside_first_tier(self):
        entry = tiered_entry((100, "1.00"), (None, "0.50"))
        assert pricing.price_breakdown(entry, 40) == Decimal("40.000000")

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_marginal_equals_unit_loop(self, seed):
        rng = random.Random(seed)
        bounds = sorted(rng.sample(range(1, 2000), rng.randint(1, 3)))
        prices = [Decimal(rng.randint(0, 500)) / 100 for _ in range(len(bounds) + 1)]
        entry = tiered_entry(*[(b, str(p)) for b, p in zip(bounds, prices)],
                             (None, str(prices[-1])))
        quantity = rng.randint(0, 3000)
        want = oracle_tiered_price([(b, Decimal(str(p))) for b, p in
                                    list(zip(bounds, prices)) + [(None, prices[-1])]],
                                   quantity)
        assert pricing.price_breakdown(entry, quantity) == want.quantize(Decimal("0.000001"))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_quantity(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            entry = flat_entry(str(Decimal(rng.randint(0, 1000)) / 100))
        else:
            entry = tiered_entry((rng.randint(1, 500), str(Decimal(rng.randint(0, 300)) / 100)),
                                 (None, str(Decimal(rng.randint(0, 300)) / 100)))
        a = rng.uniform(0, 1000)
        b = a + rng.uniform(0, 1000)
        assert pricing.price_breakdown(entry, a) <= pricing.price_breakdown(entry, b)

    def test_volume_discount_subadditive(self):
        entry = tiered_entry((100, "1.00"), (500, "0.60"), (None, "0.30"))
        for a, b in [(50, 80), (100, 400), (300, 700), (0, 10)]:
            whole = pricing.price_breakdown(entry, a + b)
            split = pricing.price_breakdown(entry, a) + pricing.price_breakdown(entry, b)
            assert whole <= split

    def test_flat_is_exactly_additive(self):
        entry = flat_entry("0.37")
        assert (pricing.price_breakdown(entry, 130)
                == pricing.price_breakdown(entry, 100) + pricing.price_breakdown(entry, 30))

    def test_sum_is_order_independent(self):
        rng = random.Random(99)
        costs = [pricing.price_breakdown(flat_entry("0.07"), rng.uniform(0, 500))
                 for _ in range(50)]
        total = sum(costs, Decimal(0))
        for _ in range(5):
            rng.shuffle(costs)
            assert sum(costs, Decimal(0)) == total


class TestReservationCharges:
    def reserved(self, upfront, term):
        return pricing.PurchaseOption(pricing.RESERVED, Decimal("0.05"),
                                      term, Decimal(upfront))

    def window(self, months):
        return SimulationWindow(Month(2011, 1), add_months(Month(2011, 1), months - 1))

    def test_single_term(self):
        charges = pricing.reservation_charges(self.reserved("1000", 36), self.window(36))
        assert charges == (Decimal("1000.000000"),) + (None,) * 35

    def test_renewal_boundaries(self):
        window = self.window(36)
        charges = pricing.reservation_charges(self.reserved("1000", 12), window)
        assert [month for month, fee in zip(window.months(), charges) if fee is not None] == [
            Month(2011, 1), Month(2012, 1), Month(2013, 1)]

    @pytest.mark.parametrize("term", [1, 2, 5, 12, 36])
    @pytest.mark.parametrize("first", [(2011, 1), (2011, 11)], ids=["jan", "nov"])
    def test_fee_column_matches_a_hand_stepped_oracle(self, term, first):
        option = self.reserved("1000.5", term)
        end = first
        for count in range(1, 41):  # windows of 1-40 months
            column = pricing.reservation_charges(option, SimulationWindow(Month(*first),
                                                                          Month(*end)))
            expected = oracle_fee_column(Decimal("1000.500000"), term, first, end)
            assert len(column) == len(expected) == count
            assert [None if fee is None else str(fee) for fee in column] == [
                None if fee is None else str(fee) for fee in expected]
            end = (end[0] + 1, 1) if end[1] == 12 else (end[0], end[1] + 1)

    def test_fee_beyond_decimal_precision_is_named_error(self):
        with pytest.raises(EvaluationError, match="exceeds the 28-digit decimal precision"):
            pricing.reservation_charges(self.reserved("1E+30", 12), self.window(12))

    def test_zero_upfront_is_empty(self):
        assert pricing.reservation_charges(self.reserved("0", 12), self.window(36)) == ()

    def test_on_demand_rejected(self):
        option = pricing.PurchaseOption(pricing.ON_DEMAND, Decimal("0.10"))
        with pytest.raises(ValueError):
            pricing.reservation_charges(option, self.window(12))
