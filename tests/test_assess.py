import json
import random

import pytest

from cloudcost import assess
from cloudcost.errors import AssessmentError
from oracle import oracle_radar

SEED_BENEFITS = ["B1", "B2", "B3", "B4", "B7", "B9", "B11", "B14", "B16", "B18"]
SEED_RISKS = ["R1", "R3", "R5", "R7", "R11", "R39", "R12", "R13", "R15", "R16",
              "R18", "R21", "R23", "R25", "R26", "R27", "R28", "R31", "R34", "R36"]


@pytest.fixture(scope="module")
def seed_items():
    import cloudcost
    return assess.load_items(cloudcost.data_path("assessment_items.json").read_text())


def sheet_of(ratings, respondent="t", view="technical"):
    return assess.RatingSheet(respondent, view, ratings)


def items_of(*triples):
    return [assess.AssessmentItem(i, k, c, f"statement {i}") for i, k, c in triples]


class TestLoadItems:
    def test_seed_counts_and_ids(self, seed_items):
        benefits = [i for i in seed_items if i.kind == assess.BENEFIT]
        risks = [i for i in seed_items if i.kind == assess.RISK]
        assert len(seed_items) == 30
        assert [i.id for i in benefits] == SEED_BENEFITS
        assert [i.id for i in risks] == SEED_RISKS

    def test_r3_is_starred_organizational(self, seed_items):
        r3 = next(i for i in seed_items if i.id == "R3")
        assert r3.category == "organizational"
        assert r3.kind == assess.RISK
        assert r3.applies_to_private_cloud is True
        assert r3.mitigation

    def test_benefits_never_carry_mitigation(self, seed_items):
        for item in seed_items:
            if item.kind == assess.BENEFIT:
                assert item.mitigation is None and item.indicators is None

    def test_benefit_with_mitigation_rejected(self):
        doc = {"items": [{"id": "B1", "kind": "benefit", "category": "technical",
                          "statement": "x", "mitigation": "y"}]}
        with pytest.raises(AssessmentError) as exc:
            assess.load_items(json.dumps(doc))
        assert "mitigation" in str(exc.value)

    def test_duplicate_id_rejected(self):
        doc = {"items": [
            {"id": "R1", "kind": "risk", "category": "legal", "statement": "x"},
            {"id": "R1", "kind": "risk", "category": "legal", "statement": "y"},
        ]}
        with pytest.raises(AssessmentError) as exc:
            assess.load_items(json.dumps(doc))
        assert "duplicate" in str(exc.value)

    def test_unknown_category_rejected(self):
        doc = {"items": [{"id": "R1", "kind": "risk", "category": "cosmic",
                          "statement": "x"}]}
        with pytest.raises(AssessmentError):
            assess.load_items(json.dumps(doc))


class TestParseRatings:
    def test_metadata_and_rows(self):
        text = "# respondent: alice\n# view: corporate\nitem_id,rating\nB1,5\nR1,3\n"
        sheet = assess.parse_ratings(text)
        assert sheet.respondent == "alice"
        assert sheet.role_view == "corporate"
        assert sheet.ratings == {"B1": 5, "R1": 3}

    def test_non_integer_rating_rejected(self):
        with pytest.raises(AssessmentError):
            assess.parse_ratings("item_id,rating\nB1,often\n")

    @pytest.mark.parametrize("cell", ["٥", "５"])
    def test_non_ascii_digit_rating_rejected(self, cell):
        with pytest.raises(AssessmentError) as exc:
            assess.parse_ratings(f"item_id,rating\nB1,{cell}\n")
        assert str(exc.value) == f"rating row 2: rating must be an integer, got {cell!r}"

    @pytest.mark.parametrize("text, message", [
        ("item_id,rating\nB1,5\nR1,3,4\n", "rating row 3: expected two cells"),
        ("item_id,rating\nB1,5\nB1,4\n", "rating row 3: duplicate rating for 'B1'"),
    ], ids=["three-cells", "duplicate"])
    def test_a_bad_row_names_its_number(self, text, message):
        with pytest.raises(AssessmentError) as exc:
            assess.parse_ratings(text)
        assert str(exc.value) == message

    def test_blank_rows_between_ratings_are_skipped(self):
        sheet = assess.parse_ratings("item_id,rating\nB1,5\n\n , \nR1,3\n")
        assert sheet.ratings == {"B1": 5, "R1": 3}

    def test_bad_header_rejected(self):
        with pytest.raises(AssessmentError):
            assess.parse_ratings("id,score\nB1,5\n")

    @pytest.mark.parametrize("text", [
        "# respondent: alice\n# view: corporate\nitem_id,rating\nB1,5\nR1,3\n",
        "item_id,rating\nB1,5\nR1,3\n",
    ], ids=["before-comments", "before-header"])
    def test_a_leading_byte_order_mark_is_ignored(self, text):
        # spreadsheets write one when they save "CSV UTF-8"
        assert assess.parse_ratings("\ufeff" + text) == assess.parse_ratings(text)

    def test_cell_beyond_the_csv_field_limit_names_its_row(self):
        text = "item_id,rating\nB1,5\nB2," + "5" * 131073 + "\n"
        with pytest.raises(AssessmentError, match=r"^rating row 3: field larger than"):
            assess.parse_ratings(text)


class TestValidateSheet:
    def test_out_of_range_rating(self, seed_items):
        diags = assess.validate_sheet(sheet_of({"B1": 6}), seed_items)
        assert any(d.severity == "error" and "1..5" in d.message for d in diags)

    def test_unknown_id(self, seed_items):
        diags = assess.validate_sheet(sheet_of({"R99": 3}), seed_items)
        assert any("R99" in d.message and d.severity == "error" for d in diags)

    def test_single_unrated_warning(self, seed_items):
        ratings = {i.id: 3 for i in seed_items if i.id != "R36"}
        diags = assess.validate_sheet(sheet_of(ratings), seed_items)
        warnings = [d for d in diags if d.severity == "warning"]
        assert len(warnings) == 1
        assert "R36" in warnings[0].message

    def test_full_sheet_is_clean(self, seed_items):
        ratings = {i.id: 3 for i in seed_items}
        assert assess.validate_sheet(sheet_of(ratings), seed_items) == []


def of_kind(rows, kind):
    return [row.category for row in rows if row.kind == kind]


class TestCategoryAverage:
    def test_constant_ratings(self):
        items = items_of(("R1", "risk", "legal"), ("R2", "risk", "legal"),
                         ("R3", "risk", "legal"))
        rows = assess.radar(sheet_of({"R1": 3, "R2": 3, "R3": 3}), items)
        assert rows == (assess.CategoryAverage("risk", "legal", 3.0, 3),)

    def test_hand_computed_mean(self):
        items = items_of(("B1", "benefit", "technical"), ("B2", "benefit", "technical"),
                         ("B3", "benefit", "technical"))
        (avg,) = assess.radar(sheet_of({"B1": 5, "B2": 4, "B3": 2}), items)
        assert (avg.kind, avg.category, avg.item_count) == ("benefit", "technical", 3)
        assert avg.average == pytest.approx(11 / 3, abs=1e-9)

    def test_empty_sheet_gives_no_rows(self):
        items = items_of(("B1", "benefit", "technical"))
        assert assess.radar(sheet_of({}), items) == ()

    def test_unrated_items_excluded(self):
        items = items_of(("B1", "benefit", "technical"), ("B2", "benefit", "technical"))
        rows = assess.radar(sheet_of({"B1": 5}), items)
        assert rows == (assess.CategoryAverage("benefit", "technical", 5.0, 1),)


class TestRadar:
    def test_all_fives(self, seed_items):
        ratings = {i.id: 5 for i in seed_items}
        rows = assess.radar(sheet_of(ratings), seed_items)
        assert rows
        assert all(row.average == 5.0 for row in rows)

    def test_matches_the_brute_force_oracle(self, seed_items):
        rng = random.Random(3)
        row_counts = set()
        for _ in range(300):
            share = rng.random()
            ratings = {i.id: rng.randint(1, 5) for i in seed_items if rng.random() < share}
            rows = assess.radar(sheet_of(ratings), seed_items)
            assert rows == oracle_radar(ratings, seed_items)
            assert type(rows) is tuple
            assert all(type(row) is assess.CategoryAverage for row in rows)
            assert all(1.0 <= row.average <= 5.0 for row in rows)
            row_counts.add(len(rows))
        assert {0, 8} < row_counts  # empty, full and partly omitted radars all occur

    def test_single_category_sheet(self, seed_items):
        ratings = {i.id: 4 for i in seed_items
                   if i.kind == assess.BENEFIT and i.category == "technical"}
        rows = assess.radar(sheet_of(ratings), seed_items)
        assert of_kind(rows, assess.BENEFIT) == ["technical"]
        assert of_kind(rows, assess.RISK) == []

    def test_category_order_is_canonical(self, seed_items):
        ratings = {i.id: 2 for i in seed_items}
        rows = assess.radar(sheet_of(ratings), seed_items)
        assert [row.kind for row in rows] == [assess.BENEFIT] * 3 + [assess.RISK] * 5
        assert of_kind(rows, assess.BENEFIT) == ["organizational", "technical", "financial"]
        assert of_kind(rows, assess.RISK) == list(assess.CATEGORIES)


class TestImportantItems:
    def test_nothing_above_threshold(self, seed_items):
        ratings = {i.id: 3 for i in seed_items}
        got = assess.important_items(sheet_of(ratings), seed_items)
        assert got == {"benefit": [], "risk": []}

    def test_filter_and_grouping(self, seed_items):
        got = assess.important_items(sheet_of({"B1": 5, "B2": 4, "R1": 3}), seed_items)
        assert got == {"benefit": ["B1", "B2"], "risk": []}

    def test_degenerate_threshold_returns_everything(self, seed_items):
        ratings = {i.id: 1 for i in seed_items}
        got = assess.important_items(sheet_of(ratings), seed_items, threshold=1)
        assert got["benefit"] == SEED_BENEFITS
        assert sorted(got["risk"], key=assess.natural_id_key) == \
            sorted(SEED_RISKS, key=assess.natural_id_key)


class TestProperties:
    def test_permutation_invariance(self, seed_items):
        rng = random.Random(8)
        ratings = {i.id: rng.randint(1, 5) for i in seed_items}
        shuffled_keys = list(ratings)
        rng.shuffle(shuffled_keys)
        a = assess.radar(sheet_of(ratings), seed_items)
        b = assess.radar(sheet_of({k: ratings[k] for k in shuffled_keys}), seed_items)
        assert a == b

    def test_raising_a_rating_never_lowers_its_average(self, seed_items):
        rng = random.Random(21)
        for _ in range(50):
            ratings = {i.id: rng.randint(1, 4) for i in seed_items}
            victim = rng.choice(seed_items)

            def victim_row():
                (row,) = [row for row in assess.radar(sheet_of(ratings), seed_items)
                          if (row.kind, row.category) == (victim.kind, victim.category)]
                return row

            before = victim_row()
            ratings[victim.id] += 1
            after = victim_row()
            assert after.average >= before.average
