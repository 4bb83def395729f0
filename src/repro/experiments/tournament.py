"""The cell × contender harness behind Experiments 4–7.

Every experiment beyond the paper's three has the shape of its Table 2:
*cells* (operating points: a fault level, a churn × straggler pair, a
graph shape) crossed with *contenders* (a protocol, a hierarchy, a
dispatch rule, a scheduling mode).  Each contender replays the cell's
one seeded workload, so every difference inside a cell is attributable
to the contender alone.  No point depends on run order: every run builds
its own grid from ``(config, seed)``.

A :class:`Tournament` declares one experiment and ``repro.cli`` turns it
into a subcommand.  :func:`plan_tournament` builds and validates the
(cell, contender) pairs before anything runs, :func:`run_tournament`
runs them cell-major, and :func:`render_tournament`,
:func:`tournament_json` and :func:`report_checks` produce the table, the
``--json`` document and the ``--check`` verdicts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.utils.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - argparse loads only with the CLI
    from argparse import ArgumentParser, Namespace

__all__ = [
    "Tournament", "TournamentResult", "add_arguments", "argument",
    "fraction", "plan_tournament", "render_tournament", "report_checks",
    "rounded", "run_tournament", "tournament_json",
]


def argument(*flags: str, **options: Any) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """One CLI flag, declared as :meth:`ArgumentParser.add_argument` takes it."""
    return flags, options


@dataclass(frozen=True)
class Tournament:
    """One cell × contender experiment.

    ``cells(args)`` builds the cells, each with a unique ``name``, and
    raises a :class:`~repro.errors.ReproError` on bad arguments without
    running anything.  ``run_point(cell, contender)`` runs one pair into a
    point: a frozen dataclass whose fields are the JSON schema (a field
    with ``metadata={"json": False}`` stays out).  ``header`` maps each
    top-level JSON key to the argument it echoes; ``columns`` are the
    table's ``(heading, format)`` pairs; ``checks(result, args)`` returns
    one message per broken invariant — ``invariants`` names them for
    ``--help``.
    """

    name: str
    title: str
    help: str
    invariants: str
    arguments: Tuple[Tuple[Tuple[str, ...], Dict[str, Any]], ...]
    header: Tuple[Tuple[str, str], ...]
    cells: Callable[["Namespace"], Sequence[Any]]
    contenders: Callable[["Namespace"], Sequence[str]]
    run_point: Callable[[Any, str], Any]
    columns: Tuple[Tuple[str, Callable[[Any], object]], ...]
    checks: Callable[["TournamentResult", "Namespace"], List[str]]


def add_arguments(parser: "ArgumentParser", spec: Tournament) -> None:
    """Register *spec*'s flags plus the shared ``--json`` and ``--check``."""
    for flags, options in spec.arguments:
        parser.add_argument(*flags, **options)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the header and every point as JSON")
    parser.add_argument("--check", action="store_true",
                        help=f"exit non-zero unless {spec.invariants}")


@dataclass
class TournamentResult:
    """The header values and every point, keyed ``(cell, contender)`` in
    the cell-major order the pairs ran."""

    header: Dict[str, Any]
    grid: Dict[Tuple[str, str], Any]

    @property
    def points(self) -> List[Any]:
        return list(self.grid.values())

    @property
    def cells(self) -> List[str]:
        return list(dict.fromkeys(cell for cell, _ in self.grid))

    def point(self, cell: str, contender: str) -> Any:
        try:
            return self.grid[cell, contender]
        except KeyError:
            raise ExperimentError(
                f"no point at cell={cell!r}, contender={contender!r}"
            ) from None


def plan_tournament(spec: Tournament, args: "Namespace") -> List[Tuple[Any, str]]:
    """Every (cell, contender) pair, cell-major, validated before any run."""
    contenders = spec.contenders(args)
    pairs = [(cell, c) for cell in spec.cells(args) for c in contenders]
    if len({(cell.name, c) for cell, c in pairs}) < len(pairs):
        raise ExperimentError(f"{spec.name}: a cell or contender is repeated")
    return pairs


def run_tournament(
    spec: Tournament,
    args: "Namespace",
    plan: Optional[List[Tuple[Any, str]]] = None,
) -> TournamentResult:
    """Run every pair of *plan* (default: :func:`plan_tournament`)."""
    pairs = plan if plan is not None else plan_tournament(spec, args)
    return TournamentResult(
        header={key: getattr(args, attr) for key, attr in spec.header},
        grid={(cell.name, c): spec.run_point(cell, c) for cell, c in pairs},
    )


def render_tournament(spec: Tournament, result: TournamentResult) -> str:
    """One table row per point, in run order."""
    return render_table(
        [heading for heading, _ in spec.columns],
        [[cell(point) for _, cell in spec.columns] for point in result.points],
        title=spec.title,
    )


def tournament_json(result: TournamentResult) -> Dict[str, Any]:
    """The ``--json`` document: the header values, then ``points``."""
    points = []
    for point in result.points:
        doc = asdict(point)
        for f in fields(point):
            if not f.metadata.get("json", True):
                del doc[f.name]
        points.append(doc)
    return {**result.header, "points": points}


def report_checks(spec: Tournament, result: TournamentResult, args: "Namespace") -> int:
    """Print the ``--check`` verdicts; returns the exit code (1 on any failure)."""
    failures = spec.checks(result, args)
    for failure in failures:
        print(f"  FAIL  {failure}")
    if not failures:
        print(f"  PASS  all {spec.name} invariants hold")
    return 1 if failures else 0


def fraction(done: int, total: int) -> str:
    """A count cell: ``"done/total (pct%)"``."""
    return f"{done}/{total} ({done / total if total else 0.0:.0%})"


def rounded(value: float, digits: Optional[int] = None) -> Optional[float]:
    """A metric cell; NaN (ε of a resource that ran nothing) stays blank."""
    return round(value, digits) if value == value else None
