"""Migration benefit/risk catalog, Likert rating sheets, and category averages.

Items are rated 1..5 (unimportant .. very important). Per-category scores
are the arithmetic mean of the ratings given to that category's items;
unrated items are excluded. The five category axes feed a radar chart.

:func:`cmd_assess`, the ``assess`` command's handler, lives here rather than
in :mod:`cloudcost.cli`, since this is the one module the command runs: no
other command compiles it.
"""

from __future__ import annotations

import csv
import io
import os
import re
from collections import namedtuple
from collections.abc import Mapping, Sequence

from . import schema
from .errors import AssessmentError, Diagnostic

BENEFIT = "benefit"
RISK = "risk"
KINDS = (BENEFIT, RISK)

CATEGORIES = ("organizational", "legal", "security", "technical", "financial")


# mitigation, indicators: str | None; references: a tuple of str
AssessmentItem = namedtuple("AssessmentItem", "id kind category statement mitigation "
                            "indicators references applies_to_private_cloud",
                            defaults=(None, None, (), False))


class RatingSheet(namedtuple("RatingSheet", "respondent role_view ratings",
                             defaults=("", "", None))):
    """One respondent's ratings, item id -> 1..5, copied into a dict of its own."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace copies too

    def __new__(cls, respondent: str = "", role_view: str = "",
                ratings: Mapping[str, int] | None = None) -> RatingSheet:
        return super().__new__(cls, respondent, role_view, dict(ratings or {}))


CategoryAverage = namedtuple("CategoryAverage", "kind category average item_count")


def natural_id_key(item_id: str) -> tuple:
    m = re.fullmatch(r"([A-Za-z]+)([0-9]+)", item_id)
    if m:
        return (m.group(1).upper(), int(m.group(2)))
    return (item_id, 0)


def load_items(text: str, source: str | None = None) -> list[AssessmentItem]:
    """Parse the item catalog (from file ``source``); raises AssessmentError."""
    return schema.read(text, _build_items, AssessmentError, source)


def _build_items(data: object) -> list[AssessmentItem]:
    top = schema.fields(data, "$", ("items",))
    items: list[AssessmentItem] = []
    seen: set[str] = set()
    required = ("id", "kind", "category", "statement")
    for i, raw in enumerate(schema.array(top, "items", "$")):
        path = f"items[{i}]"
        obj = schema.fields(raw, path, required,
                            ("mitigation", "indicators", "references", "applies_to_private_cloud"))
        item_id, kind, category, statement = (schema.nonempty_string(obj, key, path)
                                              for key in required)
        schema.choice(kind, f"{path}.kind", KINDS, "kind")
        schema.choice(category, f"{path}.category", CATEGORIES, "category")
        if item_id in seen:
            raise schema.Defect(f"{path}.id", f"duplicate item id {item_id!r}")
        seen.add(item_id)
        mitigation, indicators = (schema.string(obj, key, path) if key in obj else None
                                  for key in ("mitigation", "indicators"))
        if kind == BENEFIT and (mitigation is not None or indicators is not None):
            raise schema.Defect(path, "benefits never carry mitigation or indicator text")
        references = schema.strings(obj, "references", path)
        star = obj.get("applies_to_private_cloud", False)
        if not isinstance(star, bool):
            raise schema.Defect(f"{path}.applies_to_private_cloud", "expected a boolean")
        items.append(AssessmentItem(item_id, kind, category, statement,
                                    mitigation, indicators, references, star))
    return items


def load_items_file(path: str) -> list[AssessmentItem]:
    return load_items(schema.read_input(path), path)


def parse_ratings(text: str) -> RatingSheet:
    """Ratings CSV: '# respondent:'/'# view:' metadata rows, then item_id,rating.

    A NUL anywhere is an error at its line: the csv module rejects it on some
    Python versions and reads it into a cell on others. One leading byte-order
    mark, which spreadsheets write when they save "CSV UTF-8", is ignored."""
    text = text.removeprefix("\ufeff")
    if "\0" in text:
        number = next(n for n, line in enumerate(text.splitlines(), 1) if "\0" in line)
        raise AssessmentError(f"rating file line {number}: holds a NUL character")
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
            rating = int(row[1].strip().encode("ascii"))  # a str's int() takes any Unicode digit
        except ValueError as exc:
            raise AssessmentError(
                f"rating row {row_number}: rating must be an integer, got {row[1]!r}") from exc
        if item_id in ratings:
            raise AssessmentError(f"rating row {row_number}: duplicate rating for {item_id!r}")
        ratings[item_id] = rating
    return RatingSheet(respondent, view, ratings)


def parse_ratings_file(path: str) -> RatingSheet:
    return parse_ratings(schema.read_input(path))


def validate_sheet(sheet: RatingSheet, items: Sequence[AssessmentItem]) -> list[Diagnostic]:
    """Diagnostics for out-of-range ratings, unknown ids, and unrated items."""
    diags: list[Diagnostic] = []
    known = {item.id for item in items}
    for item_id in sorted(sheet.ratings, key=natural_id_key):
        rating = sheet.ratings[item_id]
        if item_id not in known:
            diags.append(Diagnostic("error", f"ratings[{item_id}]",
                                    f"unknown item id {item_id!r}"))
        if not 1 <= rating <= 5:
            diags.append(Diagnostic("error", f"ratings[{item_id}]",
                                    f"rating must be 1..5, got {rating}"))
    unrated = sorted((item.id for item in items if item.id not in sheet.ratings),
                     key=natural_id_key)
    if unrated:
        diags.append(Diagnostic("warning", "ratings",
                                f"{len(unrated)} unrated item(s): {', '.join(unrated)}"))
    return diags


def radar(sheet: RatingSheet, items: Sequence[AssessmentItem]) -> tuple[CategoryAverage, ...]:
    """Each kind/category's mean rating over its rated items, in one pass:
    benefits then risks, each in canonical category order, leaving out a
    category with no rated item."""
    rated: dict[tuple[str, str], list[int]] = {}
    for item in items:
        if item.id in sheet.ratings:
            rated.setdefault((item.kind, item.category), []).append(sheet.ratings[item.id])
    return tuple(CategoryAverage(kind, category, sum(values) / len(values), len(values))
                 for kind in KINDS for category in CATEGORIES
                 if (values := rated.get((kind, category))))


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


def cmd_assess(args: argparse.Namespace) -> int:
    """The ``assess`` command: print the radar and shortlist, and with
    ``--out`` write radar.json and important.json."""
    from . import cli

    items = load_items_file(args.items)
    sheet = parse_ratings_file(args.ratings)
    diagnostics = validate_sheet(sheet, items)
    cli.to_stderr("".join(f"{diag}\n" for diag in diagnostics))
    if any(d.severity == "error" for d in diagnostics):
        return 1
    rows = radar(sheet, items)
    important = important_items(sheet, items, args.threshold)
    for row in rows:
        print(f"{row.kind:8s} {row.category:15s} {row.average:.4f} "
              f"({row.item_count} rated)")
    print(f"important (rating >= {args.threshold}): "
          f"{len(important[BENEFIT])} benefits, {len(important[RISK])} risks")
    if args.out:
        cli.write_json(os.path.join(args.out, "radar.json"), [row._asdict() for row in rows])
        cli.write_json(os.path.join(args.out, "important.json"),
                       {"threshold": args.threshold, **important})
    return 0
