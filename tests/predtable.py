"""Row-wise views of ``Predictions`` tables for tests: build a table from
row tuples, and read a table back as rows with ``None`` for unresolved p."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable, List

from ktrace.records import Predictions

Row = namedtuple("Row", "user_id step skill y_true p model_tag")


def predictions_of(rows: Iterable[tuple]) -> Predictions:
    user, step, skill, y, p, tag = zip(*rows)
    p = [math.nan if value is None else value for value in p]
    return Predictions(user=user, step=step, skill=skill, y=y, p=p, tag=tag)


def rows_of(preds: Predictions) -> List[Row]:
    return [
        Row(user, t, skill, y, None if math.isnan(p) else p, tag)
        for user, t, skill, y, p, tag in zip(*(col.tolist() for col in preds.columns()))
    ]
