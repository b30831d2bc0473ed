"""Migration benefit/risk catalog, Likert rating sheets, and category averages.

Items are rated 1..5 (unimportant .. very important). Per-category scores
are the arithmetic mean of the ratings given to that category's items;
unrated items are excluded. The five category axes feed a radar chart.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (AssessmentError, Diagnostic, EmptyCategoryError, _key_problem,
                     read_input)

BENEFIT = "benefit"
RISK = "risk"
KINDS = (BENEFIT, RISK)

CATEGORIES = ("organizational", "legal", "security", "technical", "financial")

LIKERT_LABELS = {
    1: "unimportant",
    2: "little important",
    3: "moderately important",
    4: "important",
    5: "very important",
}


@dataclass(frozen=True)
class AssessmentItem:
    id: str
    kind: str
    category: str
    statement: str
    mitigation: str | None = None
    indicators: str | None = None
    references: tuple[str, ...] = ()
    applies_to_private_cloud: bool = False


@dataclass(frozen=True)
class RatingSheet:
    respondent: str = ""
    role_view: str = ""
    ratings: Mapping[str, int] = None  # item id -> 1..5

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratings", dict(self.ratings or {}))


@dataclass(frozen=True)
class CategoryAverage:
    kind: str
    category: str
    average: float
    item_count: int


@dataclass(frozen=True)
class RadarData:
    benefits: tuple[CategoryAverage, ...]
    risks: tuple[CategoryAverage, ...]

    def rows(self) -> list[CategoryAverage]:
        return list(self.benefits) + list(self.risks)

    def to_payload(self) -> list[dict]:
        return [
            {"kind": row.kind, "category": row.category,
             "average": row.average, "item_count": row.item_count}
            for row in self.rows()
        ]


def natural_id_key(item_id: str) -> tuple:
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", item_id)
    if m:
        return (m.group(1).upper(), int(m.group(2)))
    return (item_id, 0)


def load_items(text: str) -> list[AssessmentItem]:
    """Parse the item catalog; raises AssessmentError on any defect."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssessmentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if _key_problem(data, ("items",)) or not isinstance(data["items"], list):
        raise AssessmentError("item file must be an object with a single 'items' array")
    items: list[AssessmentItem] = []
    seen: set[str] = set()
    required = ("id", "kind", "category", "statement")
    optional = ("mitigation", "indicators", "references", "applies_to_private_cloud")
    for i, raw in enumerate(data["items"]):
        path = f"items[{i}]"
        problem = _key_problem(raw, required, optional)
        if problem:
            raise AssessmentError(f"{path}: {problem}")
        for key in required:
            if not isinstance(raw[key], str) or not raw[key]:
                raise AssessmentError(f"{path}.{key}: required non-empty string")
        if raw["kind"] not in KINDS:
            raise AssessmentError(f"{path}.kind: unknown kind {raw['kind']!r}")
        if raw["category"] not in CATEGORIES:
            raise AssessmentError(f"{path}.category: unknown category {raw['category']!r}")
        if raw["id"] in seen:
            raise AssessmentError(f"{path}.id: duplicate item id {raw['id']!r}")
        seen.add(raw["id"])
        mitigation = raw.get("mitigation")
        indicators = raw.get("indicators")
        if raw["kind"] == BENEFIT and (mitigation is not None or indicators is not None):
            raise AssessmentError(
                f"{path}: benefits never carry mitigation or indicator text")
        references = raw.get("references", [])
        if not isinstance(references, list) or not all(isinstance(r, str) for r in references):
            raise AssessmentError(f"{path}.references: expected an array of strings")
        star = raw.get("applies_to_private_cloud", False)
        if not isinstance(star, bool):
            raise AssessmentError(f"{path}.applies_to_private_cloud: expected a boolean")
        items.append(AssessmentItem(raw["id"], raw["kind"], raw["category"],
                                    raw["statement"], mitigation, indicators,
                                    tuple(references), star))
    return items


def load_items_file(path: str) -> list[AssessmentItem]:
    return load_items(read_input(path))


def parse_ratings(text: str) -> RatingSheet:
    """Ratings CSV: '# respondent:'/'# view:' metadata rows, then item_id,rating."""
    respondent = ""
    view = ""
    body_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            meta = stripped.lstrip("#").strip()
            key, _, value = meta.partition(":")
            key = key.strip().lower()
            if key == "respondent":
                respondent = value.strip()
            elif key == "view":
                view = value.strip()
            continue
        if stripped:
            body_lines.append(line)
    if not body_lines:
        raise AssessmentError("rating file has no header row")
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO("\n".join(body_lines))))
    except csv.Error as exc:
        raise AssessmentError(f"rating row {len(rows) + 1}: {exc}") from exc
    if [h.strip().lower() for h in rows[0]] != ["item_id", "rating"]:
        raise AssessmentError("rating file header must be 'item_id,rating'")
    ratings: dict[str, int] = {}
    for row_number, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise AssessmentError(f"rating row {row_number}: expected two cells")
        item_id = row[0].strip()
        try:
            rating = int(row[1].strip())
        except ValueError as exc:
            raise AssessmentError(
                f"rating row {row_number}: rating must be an integer, got {row[1]!r}") from exc
        if item_id in ratings:
            raise AssessmentError(f"rating row {row_number}: duplicate rating for {item_id!r}")
        ratings[item_id] = rating
    return RatingSheet(respondent, view, ratings)


def parse_ratings_file(path: str) -> RatingSheet:
    return parse_ratings(read_input(path))


def validate_sheet(sheet: RatingSheet, items: Sequence[AssessmentItem]) -> list[Diagnostic]:
    """Diagnostics for out-of-range ratings, unknown ids, and unrated items."""
    diags: list[Diagnostic] = []
    known = {item.id for item in items}
    for item_id in sorted(sheet.ratings, key=natural_id_key):
        rating = sheet.ratings[item_id]
        if item_id not in known:
            diags.append(Diagnostic("error", f"ratings[{item_id}]",
                                    f"unknown item id {item_id!r}"))
        if rating not in LIKERT_LABELS:
            diags.append(Diagnostic("error", f"ratings[{item_id}]",
                                    f"rating must be 1..5, got {rating}"))
    unrated = sorted((item.id for item in items if item.id not in sheet.ratings),
                     key=natural_id_key)
    if unrated:
        diags.append(Diagnostic("warning", "ratings",
                                f"{len(unrated)} unrated item(s): {', '.join(unrated)}"))
    return diags


def category_average(sheet: RatingSheet, items: Sequence[AssessmentItem],
                     kind: str, category: str) -> CategoryAverage:
    """Mean rating over the rated items of one kind/category."""
    rated = [sheet.ratings[item.id] for item in items
             if item.kind == kind and item.category == category
             and item.id in sheet.ratings]
    if not rated:
        raise EmptyCategoryError(f"no rated {kind} items in category {category!r}")
    return CategoryAverage(kind, category, sum(rated) / len(rated), len(rated))


def radar(sheet: RatingSheet, items: Sequence[AssessmentItem]) -> RadarData:
    """Category averages for both kinds in canonical category order."""
    by_kind: dict[str, list[CategoryAverage]] = {BENEFIT: [], RISK: []}
    for kind in KINDS:
        for category in CATEGORIES:
            try:
                by_kind[kind].append(category_average(sheet, items, kind, category))
            except EmptyCategoryError:
                continue
    return RadarData(tuple(by_kind[BENEFIT]), tuple(by_kind[RISK]))


def important_items(sheet: RatingSheet, items: Sequence[AssessmentItem],
                    threshold: int = 4) -> dict[str, list[str]]:
    """Ids rated at or above the threshold, grouped by kind, sorted by id."""
    result: dict[str, list[str]] = {BENEFIT: [], RISK: []}
    for item in items:
        rating = sheet.ratings.get(item.id)
        if rating is not None and rating >= threshold:
            result[item.kind].append(item.id)
    for ids in result.values():
        ids.sort(key=natural_id_key)
    return result
