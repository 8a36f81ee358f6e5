"""Benchmark harness: experiment specs, trial execution, report assembly,
and CSV/JSON/SVG emission.

Trial t of an experiment always runs on rng stream (master_seed, t), so any
subset of trials can be re-run bit-identically, and concurrent execution
produces exactly the sequential results.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import baselines, engine, testbed
from .core import (LabelStrategy, RngStream, RunResult, SgmConfig, deviation,
                   require_integers)

ALGORITHMS = ("SGM", "RS", "SA")

# Success = best point within max-norm tolerance of the known optimum;
# F5's wells justify a looser radius, and a stochastic function (F4) is
# judged on its noise-free part instead of the point.
SUCCESS_TOL = {"default": 1e-2, "F5": 1e-1}
NOISE_FREE_TOL = 1e-2

def _labeling(raw) -> LabelStrategy:
    valid = [s.value for s in LabelStrategy]
    if str(raw).lower() not in valid:
        raise ValueError(f"unknown labeling {raw!r}; valid: {', '.join(valid)}")
    return LabelStrategy(str(raw).lower())


# Per-function SGM overrides, shared by spec files (``F2.tf = 3``) and
# ``sgmopt solve`` flags (``--tf 3``): key -> (SgmConfig field, converter).
OVERRIDES = {
    "tf": ("tf_rounds", int),
    "rms": ("alpha_base", float),
    "trm": ("trm_max", int),
    "tc": ("tc_max", int),
    "budget": ("eval_budget", int),
    "labeling": ("labeling", _labeling),
}


def _convert(convert, raw, where: str):
    """``convert(raw)``, with ``where`` leading the message of a rejection."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def apply_overrides(cfg: SgmConfig, overrides: dict) -> SgmConfig:
    """A copy of ``cfg`` with each ``OVERRIDES`` key in ``overrides`` set.

    Raises ValueError for a key outside ``OVERRIDES`` or a value its
    converter rejects."""
    for key in overrides:
        if key not in OVERRIDES:
            raise ValueError(f"unknown override key {key!r}; valid: {', '.join(OVERRIDES)}")
    return replace(cfg, **{OVERRIDES[k][0]: _convert(OVERRIDES[k][1], v, k)
                           for k, v in overrides.items()})


def png_ratio(reference_gens: int, sgm_gens: int) -> int:
    """Ceiling of reference generations over SGM generations."""
    if sgm_gens < 1:
        raise ValueError("sgm_gens must be >= 1")
    return -(-int(reference_gens) // int(sgm_gens))


def png_row() -> tuple:
    """Generation-count ratio of the DE reference row to the SGM row."""
    return tuple(png_ratio(d, s) for d, s in zip(baselines.de_row(), baselines.rslmga_row()))


@dataclass
class ExperimentSpec:
    functions: tuple
    algorithms: tuple = ("SGM",)
    trials: int = 50
    master_seed: int = 0
    overrides: dict = field(default_factory=dict)
    outputs: Optional[str] = None
    emit_svg: bool = False
    workers: int = 1
    record_timing: bool = True
    rs_budget: int = 1000
    sa: baselines.SaConfig = field(default_factory=baselines.SaConfig)

    def validate(self):
        require_integers(self, "trials", "workers", "rs_budget", "master_seed")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.rs_budget < 1:
            raise ValueError("rs_budget must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        self.sa.validate()
        for key in ("functions", "algorithms"):
            names = tuple(str(n).strip().upper() for n in getattr(self, key))
            if not names:
                raise ValueError(f"{key} must name at least one entry")
            repeated = [n for n in names if names.count(n) > 1]
            if repeated:
                raise ValueError(f"{key} names {repeated[0]} more than once")
            setattr(self, key, names)
        for name in self.functions:
            testbed.make_objective(name)
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}; valid: {', '.join(ALGORITHMS)}")
        overrides, self.overrides = self.overrides, {}
        for func, table in overrides.items():
            self.overrides.setdefault(str(func).strip().upper(), {}).update(table)
        for func, table in self.overrides.items():
            if func not in self.functions:
                raise ValueError(f"overrides for {func}: {func} is not in functions")
            obj = testbed.make_objective(func)
            apply_overrides(engine.default_config(func), table).validate(obj)


_FLAGS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _flag(raw: str) -> bool:
    if raw.lower() not in _FLAGS:
        raise ValueError(f"expected true/yes/on/1 or false/no/off/0, got {raw!r}")
    return _FLAGS[raw.lower()]


def _names(raw: str) -> tuple:
    return tuple(tok for tok in raw.split(",") if tok.strip())


# Top-level spec keys -> the converter of their value text.  The sa_* keys
# set the SaConfig fields named in _SA_FIELDS, the others ExperimentSpec's.
_SPEC_KEYS = {
    "functions": _names, "algorithms": _names, "outputs": str,
    "trials": int, "master_seed": int, "workers": int, "rs_budget": int,
    "emit_svg": _flag, "record_timing": _flag,
    "sa_t0": float, "sa_cooling": float, "sa_steps": int, "sa_scale": float,
}
_SA_FIELDS = {"sa_t0": "t0", "sa_cooling": "cooling", "sa_steps": "steps_per_temp",
              "sa_scale": "proposal_scale"}


def parse_spec_file(path) -> ExperimentSpec:
    """Read a flat ``key = value`` experiment description.

    Each ``_SPEC_KEYS`` key converts its text once; a rejected value raises
    ValueError naming the file, line and key.  Per-function overrides
    (``F2.tf = 3``, keys of ``OVERRIDES``) stay text for ``apply_overrides``.
    A ``#`` at the start of a line or after whitespace begins a comment.
    """
    kwargs: Dict = {}
    overrides: Dict[str, dict] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = re.sub(r"(^|\s)#.*", "", line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if "." in key:
            func, _, okey = key.partition(".")
            overrides.setdefault(func, {})[okey.strip().lower()] = raw
        elif key in _SPEC_KEYS:
            kwargs[key] = _convert(_SPEC_KEYS[key], raw, f"{path}:{lineno}: {key}")
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if "functions" not in kwargs:
        raise ValueError(f"{path}: missing required key 'functions'")
    sa = baselines.SaConfig(**{f: kwargs.pop(k) for k, f in _SA_FIELDS.items() if k in kwargs})
    spec = ExperimentSpec(overrides=overrides, sa=sa, **kwargs)
    spec.validate()
    return spec


@dataclass
class TrialRow:
    function: str
    algorithm: str
    trial: int
    seed: int
    generations: int
    evaluations: int
    best_f: float
    best_x: tuple
    sd: Optional[float]
    sd_vector: Optional[tuple]
    wallclock_ms: float

    def sort_key(self):
        return (self.function, self.algorithm, self.trial)


@dataclass
class AggregateRow:
    function: str
    algorithm: str
    trials: int
    median_best_f: float
    mean_generations: float
    success_rate: float
    png: Optional[int]


# The report CSVs' columns, in order.  The trial CSV holds every TrialRow
# field but sd_vector, which only the JSON report holds.
TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRow) if f.name != "sd_vector")
AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateRow))
CSV_TRIAL_HEADER = ",".join(TRIAL_COLUMNS)
CSV_AGGREGATE_HEADER = ",".join(AGGREGATE_COLUMNS)


@dataclass
class Report:
    rows: List[TrialRow]
    aggregates: List[AggregateRow]
    png_row: dict
    svg_paths: list = field(default_factory=list)


def is_success(func: str, result_best_x) -> bool:
    obj = testbed.make_objective(func)
    if obj.stochastic:
        return float(obj.noise_free_fn(np.asarray(result_best_x, dtype=float))) <= NOISE_FREE_TOL
    sd, _ = deviation(result_best_x, obj.known_optimum)
    return sd <= SUCCESS_TOL.get(func, SUCCESS_TOL["default"])


class _SvgCollector:
    """Gathers phase-1 (cell, labeled vertices) pairs and the phase-2 incumbent path."""

    def __init__(self):
        self.cells = []
        self.path = []

    def phase1(self, round_index, cells, labeled):
        self.cells += zip(cells, labeled)

    def phase2(self, iteration, incumbent, candidate, accepted):
        if accepted:
            self.path.append(tuple(float(c) for c in incumbent))


def _run_single(spec: ExperimentSpec, func: str, alg: str, trial: int):
    """Run one trial: its report row, and the path of the SVG trace it wrote
    (a 2-D SGM trial with ``emit_svg`` and ``outputs``), or None."""
    obj = testbed.make_objective(func)
    rng = RngStream(spec.master_seed, trial)
    svg = spec.emit_svg and spec.outputs and alg == "SGM" and obj.dim == 2
    collector = _SvgCollector() if svg else None
    if alg == "SGM":
        cfg = apply_overrides(engine.default_config(func),
                              spec.overrides.get(func, {}))
        result = engine.solve(
            obj, cfg, rng=rng,
            phase1_sink=collector.phase1 if collector else None,
            phase2_sink=collector.phase2 if collector else None)
    elif alg == "RS":
        result = baselines.random_search(obj, spec.rs_budget, rng)
    else:
        result = baselines.simulated_annealing(obj, spec.sa, rng)
    _, sd_vec = deviation(result.best_point, obj.known_optimum)
    row = TrialRow(
        function=func, algorithm=alg, trial=trial, seed=spec.master_seed,
        generations=result.generations, evaluations=result.evaluations,
        best_f=result.best_value, best_x=result.best_point,
        sd=result.sd, sd_vector=sd_vec,
        wallclock_ms=result.wallclock_ms if spec.record_timing else 0.0)
    if collector is None:
        return row, None
    path = Path(spec.outputs) / f"trace_{func}_{alg}_{trial}.svg"
    return row, str(emit_svg_trace(collector, obj, result, path))


def run_experiment(spec: ExperimentSpec) -> Report:
    """Execute trials x functions x algorithms and assemble the report.

    Jobs may run concurrently (spec.workers); every trial owns its rng
    stream and counter, and rows are sorted by (function, algorithm, trial),
    so the report does not depend on scheduling.  Each trial writes its own
    SVG trace; the CSV and JSON reports are written once every trial is done.
    """
    spec.validate()
    jobs = [(func, alg, t)
            for func in spec.functions
            for alg in spec.algorithms
            for t in range(spec.trials)]
    out = Path(spec.outputs) if spec.outputs else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        done = list(pool.map(lambda job: _run_single(spec, *job), jobs))
    rows = sorted((row for row, _ in done), key=TrialRow.sort_key)
    report = Report(rows=rows, aggregates=compute_aggregates(rows),
                    png_row=dict(zip(baselines.DE_JONG_COLUMNS, png_row())),
                    svg_paths=[svg for _, svg in done if svg])
    if out:
        emit_csv(report, out / "report.csv")
        emit_json(report, out / "report.json")
    return report


def compute_aggregates(rows: List[TrialRow]) -> List[AggregateRow]:
    de = dict(zip(baselines.DE_JONG_COLUMNS, baselines.de_row()))
    groups: Dict[tuple, List[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.function, row.algorithm), []).append(row)
    out = []
    for (func, alg) in sorted(groups):
        grp = groups[(func, alg)]
        median_f = statistics.median(r.best_f for r in grp)
        mean_gens = sum(r.generations for r in grp) / len(grp)
        successes = sum(1 for r in grp if is_success(func, r.best_x))
        png = None
        if func in de and mean_gens >= 1:
            png = png_ratio(de[func], round(mean_gens))
        out.append(AggregateRow(
            function=func, algorithm=alg, trials=len(grp),
            median_best_f=median_f, mean_generations=mean_gens,
            success_rate=successes / len(grp), png=png))
    return out


def _atomic_write(path: Path, text: str):
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
        raise OSError(f"failed writing {path}: {exc}") from exc


def _cell(value) -> str:
    """A CSV cell: floats and each coordinate of a tuple (``best_x``, joined by
    ``;``) at 17 significant digits, which parse back exactly; None as empty."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(f"{float(c):.17g}" for c in value)
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def emit_csv(report: Report, path) -> Path:
    """Write trial rows to ``path`` and aggregates to ``*_aggregate.csv``:
    a header of the column names, then one ``_cell`` per column of each row."""
    path = Path(path)
    agg_path = path.with_name(path.stem + "_aggregate.csv")
    for dest, columns, rows in ((path, TRIAL_COLUMNS, report.rows),
                                (agg_path, AGGREGATE_COLUMNS, report.aggregates)):
        lines = [",".join(columns)]
        lines += [",".join(_cell(getattr(r, c)) for c in columns) for r in rows]
        _atomic_write(dest, "\n".join(lines) + "\n")
    return path


# Each trial CSV column that is not text -> the converter of its cells.
_READERS = {
    "trial": int, "seed": int, "generations": int, "evaluations": int,
    "best_f": float, "best_x": lambda t: tuple(float(c) for c in t.split(";")),
    "sd": lambda t: float(t) if t else None, "wallclock_ms": float,
}


def _trial_row(line: str) -> TrialRow:
    parts = line.split(",")
    if len(parts) != len(TRIAL_COLUMNS):
        raise ValueError(f"{len(parts)} fields, expected {len(TRIAL_COLUMNS)}")
    return TrialRow(sd_vector=None, **{
        col: _READERS.get(col, str)(cell) for col, cell in zip(TRIAL_COLUMNS, parts)})


def parse_trial_csv(path) -> List[TrialRow]:
    """Read back an emitted trial CSV (inverse of emit_csv for trial rows);
    malformed input raises ValueError naming the file and line."""
    lines = Path(path).read_text().strip().splitlines() or [""]
    if lines[0] != CSV_TRIAL_HEADER:
        raise ValueError(f"{path}:1: unexpected header {lines[0]!r}")
    return [_convert(_trial_row, line, f"{path}:{lineno}")
            for lineno, line in enumerate(lines[1:], 2)]


def emit_json(report: Report, path) -> Path:
    payload = {
        "trials": [asdict(r) for r in report.rows],
        "aggregates": [asdict(a) for a in report.aggregates],
        "png_row": report.png_row,
    }
    _atomic_write(Path(path), json.dumps(payload, indent=2) + "\n")
    return Path(path)


def emit_svg_trace(collector: _SvgCollector, obj, result: RunResult, path) -> Path:
    """One SVG per trial of a 2-D objective: the domain box, cell outlines
    per round, vertex labels, and the incumbent trajectory."""
    lo, hi = obj.domain.lo, obj.domain.hi
    span = hi - lo
    size = 640.0
    pad = 40.0

    def sx(x):
        return pad + (x - lo[0]) / span[0] * size

    def sy(y):
        return pad + (hi[1] - y) / span[1] * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size + 2 * pad:.0f}" '
        f'height="{size + 2 * pad:.0f}" viewBox="0 0 {size + 2 * pad:.0f} {size + 2 * pad:.0f}">',
        f'<rect x="{sx(lo[0]):.2f}" y="{sy(hi[1]):.2f}" width="{size:.2f}" height="{size:.2f}" '
        'fill="white" stroke="black" stroke-width="2"/>',
    ]
    for cell, verts in collector.cells:
        bx, by = cell.base
        wx, wy = cell.step
        parts.append(
            f'<rect x="{sx(bx):.2f}" y="{sy(by + wy):.2f}" '
            f'width="{wx / span[0] * size:.2f}" height="{wy / span[1] * size:.2f}" '
            f'fill="none" stroke="#888" stroke-width="0.7"/>')
        for v in verts:
            parts.append(
                f'<text x="{sx(v.point[0]) + 2:.2f}" y="{sy(v.point[1]) - 2:.2f}" '
                f'font-size="10" fill="#c22">{v.label}</text>')
    if collector.path:
        pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in collector.path)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#03c" stroke-width="1.5"/>')
    bx, by = result.best_point
    parts.append(f'<circle cx="{sx(bx):.2f}" cy="{sy(by):.2f}" r="4" fill="#03c"/>')
    parts.append("</svg>")
    _atomic_write(Path(path), "\n".join(parts) + "\n")
    return Path(path)
