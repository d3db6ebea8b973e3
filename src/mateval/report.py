"""The evaluation report: its schema, its renderers and its reader.

A report holds one :class:`MatcherBlock` per matcher that ran (the scores
of each run and their aggregate), the evaluation's config, the matchers it
skipped and its warnings. Their NamedTuple fields are the JSON schema,
documented in the README: ``EvalReport.to_dict`` writes them and
:func:`read_report` reads them back, so ``render_report(read_report(path),
"json")`` reproduces a report that mateval wrote, byte for byte.
"""

import csv
import io
import json
import typing
from typing import NamedTuple

from .errors import ReportSchemaError, SchemaError, read_as, read_json_file, write_text
from .scoring import RunAggregate, Scores


class RunScores(NamedTuple):
    run: str
    scores: Scores
    expected_total: int
    per_document: list[dict]


class MatcherBlock(NamedTuple):
    runs: list[RunScores]
    aggregate: RunAggregate


class EvalReport(NamedTuple):
    task: str
    config: dict
    matchers: dict[str, MatcherBlock]
    skipped: list[str]
    warnings: list[str]
    generated_at: str | None = None  # written only when set

    def to_dict(self) -> dict:
        return _write(self, EvalReport)

    @classmethod
    def from_dict(cls, payload) -> "EvalReport":
        """The report whose ``to_dict`` is ``payload``, read by
        :func:`~mateval.errors.read_as`: every field but ``generated_at`` is
        required. ``config`` and ``per_document`` entries are taken as they
        are, and aggregates are not recomputed.

        Raises:
            ReportSchemaError: naming the dotted field, e.g.
                ``matchers.strict.runs[0].scores: missing``.
        """
        try:
            return read_as(payload, cls)
        except SchemaError as exc:
            raise ReportSchemaError(str(exc)) from None


def _write(value, kind):
    """``value``, of the annotated type ``kind``, as the JSON ``read_as`` reads back:
    a record (a NamedTuple, which ``json`` would write as an array) is
    walked into an object, what ``read_as`` takes as it is (``config``,
    ``per_document`` entries, strings, numbers) is passed on, and a field
    that is ``None`` (only an optional one may be) is left out."""
    if hasattr(kind, "_fields"):
        return {name: _write(v, kind.__annotations__[name])
                for name, v in zip(kind._fields, value) if v is not None}
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list and hasattr(args[0], "_fields"):
        return [_write(v, args[0]) for v in value]
    if origin is dict and hasattr(args[1], "_fields"):
        return {k: _write(v, args[1]) for k, v in value.items()}
    return value


def read_report(path: str) -> EvalReport:
    """Read a stored report JSON file (see :meth:`EvalReport.from_dict`).

    Raises:
        ReportSchemaError: the file is not UTF-8, not JSON or not a report;
            the message names the file, and the line or the field.
        OSError: unreadable path.
    """
    payload = read_json_file(path, ReportSchemaError)
    try:
        return EvalReport.from_dict(payload)
    except ReportSchemaError as exc:
        raise ReportSchemaError(f"{path}: {exc}") from None


def render_report(report: EvalReport, format: str = "json") -> str:
    """Render a report to json, markdown or csv."""
    if format == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if format == "markdown":
        return _render_markdown(report)
    if format == "csv":
        return _render_csv(report)
    raise ValueError(f"unknown report format {format!r}")


def write_report(report: EvalReport, format: str, path: str) -> None:
    """Render and write a report; propagates OSError on I/O failure."""
    write_text(path, render_report(report, format))


def _pct(value: float) -> str:
    return f"{value * 100:.2f}"


def _render_markdown(report: EvalReport) -> str:
    lines = [f"# Evaluation report: {report.task}", ""]
    if report.config:
        lines += ["Config: `" + json.dumps(report.config, sort_keys=True) + "`", ""]
    lines += ["| Run | Matching | P | R | F1 | Supp |", "| --- | --- | --- | --- | --- | --- |"]
    blocks = sorted(report.matchers.items())  # name order, as in the JSON
    run_labels = dict.fromkeys(run.run for _, block in blocks for run in block.runs)
    for run_label in run_labels:
        for name, block in blocks:
            for run in block.runs:
                if run.run != run_label:
                    continue
                s = run.scores
                lines.append(
                    f"| {run_label} | {name} | {_pct(s.precision)} | "
                    f"{_pct(s.recall)} | {_pct(s.f1)} | {s.support} |"
                )
    lines += ["", "Mean and standard deviation of F1 score", "",
              "| Matching | Avg. F1 | Std | Avg. Supp |", "| --- | --- | --- | --- |"]
    for name, block in blocks:
        agg = block.aggregate
        # percentages, truncated at table precision
        mean, std = agg._replace(mean_f1=agg.mean_f1 * 100, std_f1=agg.std_f1 * 100).table_f1()
        supp = int(agg.avg_support + 0.5)  # rendered half-up
        lines.append(f"| {name} | {mean:.2f} | {std:.2f} | {supp} |")
    for title, notes in (("Skipped:", report.skipped), ("Warnings:", report.warnings)):
        if notes:
            lines += ["", title, *(f"- {note}" for note in notes)]
    return "\n".join(lines) + "\n"


def _render_csv(report: EvalReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["run", "matcher", "precision", "recall", "f1", "support"])
    blocks = sorted(report.matchers.items())  # name order, as in the JSON
    for name, block in blocks:
        for run in block.runs:
            s = run.scores
            writer.writerow([run.run, name, s.precision, s.recall, s.f1, s.support])
    writer.writerow([])
    writer.writerow(["matcher", "mean_f1", "std_f1", "avg_support", "n_runs"])
    for name, block in blocks:
        agg = block.aggregate
        writer.writerow([name, agg.mean_f1, agg.std_f1, agg.avg_support, agg.n_runs])
    return buffer.getvalue()
