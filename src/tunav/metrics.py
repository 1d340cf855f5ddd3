"""Per-function metrics records, CSV/JSON emission, and run comparison."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

from tunav.errors import TunavError

CSV_COLUMNS = ["function", "status", "time_ms", "obligations", "instantiations",
               "rounds", "context_facts", "strategy"]


@dataclass
class MetricsRecord:
    function: str
    status: str
    time_ms: float
    obligations: int
    instantiations: int
    rounds: int
    context_facts: int
    strategy: str
    per_fact: dict[str, int]

    def validate(self):
        if self.time_ms < 0:
            raise TunavError(f"negative wall time for {self.function}")
        if sum(self.per_fact.values()) != self.instantiations:
            raise TunavError(f"per-fact counts do not sum to total "
                             f"for {self.function}")


def records_of_run(run, config, tasks: list[str] | None = None
                   ) -> list[MetricsRecord]:
    out = []
    for task in run.user_tasks if tasks is None else tasks:
        r = run.results.get(task)
        if r is None:
            continue
        rec = MetricsRecord(
            function=task,
            status=r.status,
            time_ms=round(r.wall_ms, 3),
            obligations=len(r.obligations),
            instantiations=sum(r.instantiations.values()),
            rounds=r.rounds,
            context_facts=r.context_facts,
            strategy=config.strategy,
            per_fact=dict(sorted(r.instantiations.items())),
        )
        rec.validate()
        out.append(rec)
    return out


def write_metrics(records: list[MetricsRecord], path: str):
    if path.endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in records], fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([r.function, r.status, r.time_ms, r.obligations,
                        r.instantiations, r.rounds, r.context_facts, r.strategy])


def read_metrics(path: str) -> list[MetricsRecord]:
    """The records of metrics file `path` (JSON if it ends in `.json`, else
    CSV); TunavError names the file and the row or field that is malformed."""
    as_json = path.endswith(".json")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = json.load(fh) if as_json else list(csv.DictReader(fh))
    except (UnicodeDecodeError, ValueError, csv.Error) as e:
        raise TunavError(f"{path}: not a metrics file: {e}") from None
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise TunavError(f"{path}: not a metrics file: expected a list of objects")
    out = []
    for i, row in enumerate(rows, 1):
        fields = {"per_fact": row.get("per_fact", {}) if as_json else {}}
        for name, kind in zip(CSV_COLUMNS, (str, str, float, int, int, int, int, str)):
            if row.get(name) is None:
                raise TunavError(f"{path}: row {i}: missing field '{name}'")
            try:
                fields[name] = kind(row[name])
            except (TypeError, ValueError):
                raise TunavError(f"{path}: row {i}: field '{name}' is not "
                                 f"{kind.__name__}: {row[name]!r}") from None
        out.append(MetricsRecord(**fields))
    return out


@dataclass
class Comparison:
    rows: list[dict]  # function, time_a, time_b, ratio, inst_a, inst_b
    median_ratio: float
    p90_ratio: float
    max_ratio: float
    count_over_2x: int
    total_instantiations_a: int
    total_instantiations_b: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["function", "time_a_ms", "time_b_ms", "ratio",
                    "instantiations_a", "instantiations_b"])
        for r in self.rows:
            w.writerow([r["function"], r["time_a"], r["time_b"],
                        f"{r['ratio']:.4f}", r["inst_a"], r["inst_b"]])
        return buf.getvalue()

    def summary(self) -> str:
        return "\n".join([
            f"functions compared: {len(self.rows)}",
            f"median time ratio (b/a): {self.median_ratio:.3f}",
            f"p90 time ratio: {self.p90_ratio:.3f}",
            f"max time ratio: {self.max_ratio:.3f}",
            f"functions over 2x: {self.count_over_2x}",
            f"total instantiations a: {self.total_instantiations_a}",
            f"total instantiations b: {self.total_instantiations_b}",
        ])


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, round(q * (len(sorted_vals) - 1))))
    return sorted_vals[idx]


EPSILON_MS = 0.001


def compare_metrics(a: list[MetricsRecord], b: list[MetricsRecord]) -> Comparison:
    by_a = {r.function: r for r in a}
    by_b = {r.function: r for r in b}
    if set(by_a) != set(by_b):
        only_a = sorted(set(by_a) - set(by_b))
        only_b = sorted(set(by_b) - set(by_a))
        raise TunavError(f"metrics cover different function sets; "
                         f"only in a: {only_a}; only in b: {only_b}")
    rows = []
    for fn in sorted(by_a):
        ra, rb = by_a[fn], by_b[fn]
        ratio = (rb.time_ms + EPSILON_MS) / (ra.time_ms + EPSILON_MS)
        rows.append({"function": fn, "time_a": ra.time_ms, "time_b": rb.time_ms,
                     "ratio": ratio, "inst_a": ra.instantiations,
                     "inst_b": rb.instantiations})
    ratios = sorted(r["ratio"] for r in rows)
    return Comparison(
        rows=rows,
        median_ratio=_percentile(ratios, 0.5),
        p90_ratio=_percentile(ratios, 0.9),
        max_ratio=ratios[-1] if ratios else 0.0,
        count_over_2x=sum(1 for r in ratios if r > 2.0),
        total_instantiations_a=sum(r["inst_a"] for r in rows),
        total_instantiations_b=sum(r["inst_b"] for r in rows),
    )
