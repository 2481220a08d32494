"""A thin DataFrame layer over RDDs of dict rows.

Provides the relational verbs the paper's analyses use — select, where,
with_column, group_by().agg(), join, order_by — with named aggregate
functions ("count", "sum", "avg", "min", "max", "count_distinct").
Rows are plain dicts; ``Row`` is an alias kept for readability.

The layer's own operators are picklable callable objects, so a
DataFrame pipeline runs on the process backend whenever the *user's*
functions (predicates, column expressions) pickle too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.rdd import RDD
from repro.util.errors import EngineError

Row = Dict[str, Any]

_AGGREGATES = ("count", "sum", "avg", "min", "max", "count_distinct")


# ------------------------------------------------------------- row operators
class _Project:
    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns

    def __call__(self, row: Row) -> Row:
        return {c: row.get(c) for c in self.columns}


class _Extend:
    __slots__ = ("name", "fn")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __call__(self, row: Row) -> Row:
        out = dict(row)
        out[self.name] = self.fn(row)
        return out


class _Strip:
    __slots__ = ("dropped",)

    def __init__(self, dropped):
        self.dropped = dropped

    def __call__(self, row: Row) -> Row:
        return {k: v for k, v in row.items() if k not in self.dropped}


class _ColumnOf:
    __slots__ = ("column",)

    def __init__(self, column):
        self.column = column

    def __call__(self, row: Row) -> Any:
        return row.get(self.column)


class _ColumnOrZero:
    __slots__ = ("column",)

    def __init__(self, column):
        self.column = column

    def __call__(self, row: Row) -> Any:
        return row.get(self.column) or 0


class _KeyTuple:
    __slots__ = ("keys",)

    def __init__(self, keys):
        self.keys = keys

    def __call__(self, row: Row) -> Tuple:
        return tuple(row.get(k) for k in self.keys)


class _MergeJoin:
    __slots__ = ("on",)

    def __init__(self, on):
        self.on = on

    def __call__(self, kv: Tuple[Any, Tuple[Row, Optional[Row]]]) -> Row:
        _key, (lrow, rrow) = kv
        out = dict(lrow)
        for k, v in (rrow or {}).items():
            if k != self.on:
                out[k] = v
        return out


class _AggSeq:
    __slots__ = ("specs",)

    def __init__(self, specs):
        self.specs = specs

    def __call__(self, acc: Dict, row: Row) -> Dict:
        for out_col, (in_col, fn) in self.specs.items():
            value = row.get(in_col)
            slot = acc.setdefault(out_col, _zero(fn))
            acc[out_col] = _step(fn, slot, value)
        return acc


class _AggComb:
    __slots__ = ("specs",)

    def __init__(self, specs):
        self.specs = specs

    def __call__(self, a: Dict, b: Dict) -> Dict:
        for out_col, (_in, fn) in self.specs.items():
            a[out_col] = _merge(fn, a.get(out_col, _zero(fn)),
                                b.get(out_col, _zero(fn)))
        return a


class _AggFinish:
    __slots__ = ("keys", "specs")

    def __init__(self, keys, specs):
        self.keys = keys
        self.specs = specs

    def __call__(self, kv) -> Row:
        key_values, acc = kv
        out = dict(zip(self.keys, key_values))
        for out_col, (_in, fn) in self.specs.items():
            out[out_col] = _final(fn, acc.get(out_col, _zero(fn)))
        return out


class DataFrame:
    """A named-column view over an RDD of dict rows."""

    def __init__(self, rdd: RDD, columns: Optional[Sequence[str]] = None):
        self._rdd = rdd
        self.columns = list(columns) if columns is not None else None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_records(cls, context, records: Sequence[Row],
                     num_partitions: Optional[int] = None) -> "DataFrame":
        rdd = context.parallelize(records, num_partitions)
        columns = sorted(records[0].keys()) if records else []
        return cls(rdd, columns)

    @property
    def rdd(self) -> RDD:
        return self._rdd

    # ------------------------------------------------------------- transforms
    def select(self, *columns: str) -> "DataFrame":
        wanted = list(columns)
        return DataFrame(self._rdd.map(_Project(wanted)), wanted)

    def where(self, predicate: Callable[[Row], bool]) -> "DataFrame":
        return DataFrame(self._rdd.filter(predicate), self.columns)

    def with_column(self, name: str,
                    fn: Callable[[Row], Any]) -> "DataFrame":
        columns = None
        if self.columns is not None:
            columns = self.columns + ([name] if name not in self.columns else [])
        return DataFrame(self._rdd.map(_Extend(name, fn)), columns)

    def drop(self, *names: str) -> "DataFrame":
        dropped = frozenset(names)
        columns = ([c for c in self.columns if c not in dropped]
                   if self.columns is not None else None)
        return DataFrame(self._rdd.map(_Strip(dropped)), columns)

    def group_by(self, *keys: str) -> "GroupedFrame":
        if not keys:
            raise EngineError("group_by needs at least one key column")
        return GroupedFrame(self, list(keys))

    def join(self, other: "DataFrame", on: str,
             how: str = "inner") -> "DataFrame":
        """Equi-join on a shared column; 'inner' or 'left'."""
        if how not in ("inner", "left"):
            raise EngineError(f"unsupported join type: {how}")
        left = self._rdd.key_by(_ColumnOf(on))
        right = other._rdd.key_by(_ColumnOf(on))
        joined = (left.left_outer_join(right) if how == "left"
                  else left.join(right))
        return DataFrame(joined.map(_MergeJoin(on)))

    def order_by(self, column: str, ascending: bool = True) -> "DataFrame":
        return DataFrame(
            self._rdd.sort_by(_ColumnOf(column), ascending=ascending),
            self.columns)

    def limit(self, n: int) -> "DataFrame":
        rows = self._rdd.take(n)
        return DataFrame(self._rdd.context.parallelize(rows), self.columns)

    # ----------------------------------------------------------------- actions
    def collect(self) -> List[Row]:
        return self._rdd.collect()

    def count(self) -> int:
        return self._rdd.count()

    def column_values(self, column: str) -> List[Any]:
        return self._rdd.map(_ColumnOf(column)).collect()

    def describe(self, column: str) -> Dict[str, float]:
        """Numeric summary (count/mean/stdev/min/max) of one column."""
        return self._rdd.map(_ColumnOrZero(column)).stats()

    def distinct_values(self, column: str) -> List[Any]:
        """Sorted distinct values of one column."""
        return sorted(self._rdd.map(_ColumnOf(column))
                      .distinct().collect(),
                      key=lambda v: (v is None, v))


class GroupedFrame:
    """Result of ``DataFrame.group_by`` — call :meth:`agg` to aggregate."""

    def __init__(self, frame: DataFrame, keys: List[str]):
        self._frame = frame
        self._keys = keys

    def agg(self, **aggregates: Tuple[str, str]) -> DataFrame:
        """Aggregate with ``out_col=(in_col, fn)`` pairs.

        Example::

            df.group_by("market").agg(n=("company_id", "count"),
                                      total=("raised_usd", "sum"))
        """
        for out_col, (in_col, fn) in aggregates.items():
            if fn not in _AGGREGATES:
                raise EngineError(
                    f"unknown aggregate {fn!r} for {out_col!r}; "
                    f"expected one of {_AGGREGATES}")
        keys = self._keys
        specs = dict(aggregates)
        keyed = self._frame.rdd.key_by(_KeyTuple(keys))
        reduced = keyed.aggregate_by_key({}, _AggSeq(specs), _AggComb(specs))
        columns = keys + list(specs)
        return DataFrame(reduced.map(_AggFinish(keys, specs)), columns)


def _zero(fn: str):
    if fn == "count":
        return 0
    if fn == "sum":
        return 0
    if fn == "avg":
        return (0, 0)
    if fn == "min":
        return None
    if fn == "max":
        return None
    if fn == "count_distinct":
        return set()
    raise EngineError(f"unknown aggregate {fn!r}")


def _step(fn: str, acc, value):
    if fn == "count":
        return acc + 1
    if fn == "sum":
        return acc + (value or 0)
    if fn == "avg":
        total, count = acc
        return (total + (value or 0), count + 1)
    if fn == "min":
        return value if acc is None or (value is not None and value < acc) else acc
    if fn == "max":
        return value if acc is None or (value is not None and value > acc) else acc
    if fn == "count_distinct":
        acc.add(value)
        return acc
    raise EngineError(f"unknown aggregate {fn!r}")


def _merge(fn: str, a, b):
    if fn in ("count", "sum"):
        return a + b
    if fn == "avg":
        return (a[0] + b[0], a[1] + b[1])
    if fn == "min":
        candidates = [x for x in (a, b) if x is not None]
        return min(candidates) if candidates else None
    if fn == "max":
        candidates = [x for x in (a, b) if x is not None]
        return max(candidates) if candidates else None
    if fn == "count_distinct":
        return a | b
    raise EngineError(f"unknown aggregate {fn!r}")


def _final(fn: str, acc):
    if fn == "avg":
        total, count = acc
        return total / count if count else 0.0
    if fn == "count_distinct":
        return len(acc)
    return acc
