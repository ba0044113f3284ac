"""File formats: long-format choice data, wide scenario tables, coefficient
tables and the JSON run config.

All CSVs use dot-decimal numbers regardless of locale, LF line endings and
full-precision floats (display rounding happens only in CLI printing).  One
row reader and one row writer serve every table; a footer row is a single
field starting with ``#``, skipped on read.  Files are UTF-8 whatever the
locale.  One codec reads and writes the ``np, dist_m, smoke, fam`` cells of
an exit, flags always as ``0``/``1``.

A read returns shared immutable objects: one ``ExitAttributes`` per distinct
exit cell text and, in a choice file, one ``Scenario`` per distinct scenario
text.  A choice file is read one observation at a time: the rows of one
obs_id must be contiguous and agree on participant_id and scenario_id.  An
observation whose scenario_id, labels and exit cells repeat an earlier
one's text takes that scenario without decoding it again; its flags are
checked every time.  Every error still cites its own line, or the obs_id.

One checker, ``_fields``, reads every object of the run config and names
the dotted key of each error.  The readers return only the options a config
sets; an omitted one takes the default of the library function that uses it.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (ATTRIBUTES, ChoiceObservation, ExitAttributes, ModelSpec,
                   Scenario)
from .design import FactorLevels
from .estimation import InferenceRow, ModelFit
from .simulation import SensitivityConfig

CHOICE_HEADER = ("obs_id", "participant_id", "scenario_id", "alt_label",
                 "np", "dist_m", "smoke", "fam", "chosen", "first_choice")
INFERENCE_HEADER = ("name", "estimate", "std_error", "z_value", "p_value")

#: Attribute column names of the wide scenario table, per exit label.
_ATTR_COLUMNS = {"np": "np", "dist": "dist_m", "smoke": "smoke", "fam": "fam"}


class DataFileError(ValueError):
    """A data file violates its schema; the message cites line or obs id."""


class ConfigError(ValueError):
    """A run config is malformed or carries unknown keys."""


#: The cell of a 0/1 flag; ``True`` and ``1.0`` hash like ``1``.
_FLAG_CELLS = {0: "0", 1: "1"}
_FLAG_VALUES = {"0": 0, "1": 1}
_FLAGS = frozenset(_FLAG_VALUES)

#: Most entries a memo of one read holds, so a file of mostly distinct
#: choice sets pays little memory for sharing that would never hit.  A memo
#: keyed by cell text stops growing there.  The one keyed by scenario id is
#: emptied and starts again, so a long read keeps sharing the scenarios of
#: its recent rows; its entries are objects the read returns anyway.
_MEMO_SIZE = 4096


def _fmt(value) -> str:
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _fmt_float(value) -> str:
    return repr(float(value))


def _parse_binary(text: str, column: str) -> int:
    if text not in _FLAG_VALUES:
        raise ValueError(f"{column} must be 0 or 1, got {text!r}")
    return _FLAG_VALUES[text]


def _encode_exit(attrs: ExitAttributes) -> tuple[str, str, str, str]:
    """The ``np, dist_m, smoke, fam`` cells of one exit."""
    return (_fmt(attrs.np), _fmt(attrs.dist), _FLAG_CELLS[attrs.smoke],
            _FLAG_CELLS[attrs.fam])


def _decode_exit(cells: tuple[str, str, str, str],
                 memo: dict) -> ExitAttributes:
    """The exit written as ``np, dist_m, smoke, fam`` cells.

    ``memo`` maps the cell tuples decoded earlier in the same read to their
    exit, so equal cell text gives one shared object.  It stops growing at
    ``_MEMO_SIZE`` entries.  Cells that fail to decode are never stored, so
    every row that has them raises.
    """
    attrs = memo.get(cells)
    if attrs is None:
        attrs = ExitAttributes(float(cells[0]), float(cells[1]),
                               _parse_binary(cells[2], "smoke"),
                               _parse_binary(cells[3], "fam"))
        if len(memo) < _MEMO_SIZE:
            memo[cells] = attrs
    return attrs


def _line_error(line: int, exc) -> DataFileError:
    return DataFileError(f"line {line}: {exc}")


@contextmanager
def _table(path) -> Iterator[tuple[list | None, Iterator]]:
    """Open a CSV table: its header row (None for an empty file) and an
    iterator over its data rows as ``(line, row)`` pairs.

    Blank and footer rows are skipped, and every other row must have as
    many fields as the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        yield header, _data_rows(reader, header)


def _data_rows(reader, header) -> Iterator[tuple[int, list]]:
    width = len(header)
    for item in enumerate(reader, start=2):
        row = item[1]
        if not row or (len(row) == 1 and row[0].startswith("#")):
            continue
        if len(row) != width:
            raise _line_error(item[0],
                              f"expected {width} fields, got {len(row)}")
        yield item


def _read_rows(path, parser: Callable) -> Iterator:
    """Yield the parsed data rows of a CSV table, one at a time.

    ``parser(header)`` checks the header row (None for an empty file) and
    returns the row parser.  A ValueError from the row parser becomes a
    DataFileError citing the line.
    """
    with _table(path) as (header, rows):
        parse = parser(header)
        for line, row in rows:
            try:
                item = parse(row)
            except ValueError as exc:
                raise _line_error(line, exc) from exc
            yield item


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence],
                footer: str | None = None) -> None:
    """Write a CSV table: the header, the rows and an optional ``# footer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        if footer is not None:
            w.writerow((f"# {footer}",))


# ---------------------------------------------------------------------------
# Choice data (long format, one row per alternative)
# ---------------------------------------------------------------------------

def write_choice_csv(path, observations: Sequence[ChoiceObservation]) -> None:
    """Write observations as long-format rows, one per alternative."""
    _write_rows(path, CHOICE_HEADER, _choice_rows(observations))


def _choice_rows(observations: Iterable[ChoiceObservation]) -> Iterator:
    """The rows of each observation.  The exit cells of a ``Scenario`` are
    encoded once per run of consecutive observations of that object, and
    every cell but participant_id and scenario_id goes to csv as text."""
    previous = None
    for number, obs in enumerate(observations, start=1):
        obs_id, scenario, chosen = str(number), obs.scenario, obs.chosen
        participant, first_choice = obs.participant_id, \
            _FLAG_CELLS[obs.first_choice]
        if scenario is not previous:
            previous, scenario_id = scenario, scenario.id
            exits = [(label, _encode_exit(attrs))
                     for label, attrs in scenario.alternatives]
        for j, (label, cells) in enumerate(exits):
            yield (obs_id, participant, scenario_id, label, *cells,
                   _FLAG_CELLS[j == chosen], first_choice)


def _check_choice_header(header) -> None:
    if header is None:
        raise DataFileError("no observations: file is empty")
    if tuple(header) != CHOICE_HEADER:
        raise DataFileError(
            f"bad header {header!r}; expected {','.join(CHOICE_HEADER)}")


def _observation_rows(rows: Iterable) -> Iterator:
    """Each observation's contiguous ``(lines, rows, text)``.  Its rows
    agree with its first row on participant_id and scenario_id, and its
    obs_id appears nowhere else.  ``text`` holds its scenario_id and the
    label and exit cells of each row."""
    done: set = set()  # obs_ids whose rows have started
    head = (None,)  # the first row of the observation being read
    lines: list = []
    group: list = []
    text: list = []
    for line, row in rows:
        if row[0] == head[0]:
            if row[1] != head[1] or row[2] != head[2]:
                column = 1 if row[1] != head[1] else 2
                raise _line_error(line, (
                    f"obs_id {row[0]}: {CHOICE_HEADER[column]} "
                    f"{row[column]!r} differs from {head[column]!r} in its "
                    "first row"))
            lines.append(line)
            group.append(row)
            text += row[3:8]
            continue
        if row[0] in done:
            raise _line_error(line, f"obs_id {row[0]} reappears after the "
                                    "rows of another observation")
        done.add(row[0])
        if group:
            yield lines, group, tuple(text)
        head, lines, group, text = row, [line], [row], row[2:8]
    if group:
        yield lines, group, tuple(text)


def read_choice_csv(path) -> list[ChoiceObservation]:
    """Read and validate a long-format choice data file.

    Each obs_id must have at least two contiguous rows that agree on
    participant_id and scenario_id, exactly one with chosen=1 and a
    constant first_choice flag.  Errors cite the offending line number or
    obs_id.  Observations with the same scenario text share one
    ``Scenario`` object, and equal exit cells one ``ExitAttributes``
    object.  A scenario equal to the one last read with its id, such as
    the same exits written as ``1`` and ``1.0``, is shared too.
    """
    exits: dict = {}  # exit cell text -> ExitAttributes
    scenarios: dict = {}  # scenario text -> Scenario
    latest: dict = {}  # scenario id -> the Scenario last decoded with it
    observations = []
    with _table(path) as (header, rows):
        _check_choice_header(header)
        for lines, group, text in _observation_rows(rows):
            scenario = scenarios.get(text)
            if scenario is None:
                scenario = _decode_scenario(lines, group, exits, latest)
                if len(scenarios) < _MEMO_SIZE:
                    scenarios[text] = scenario
            observations.append(ChoiceObservation(
                group[0][1], scenario, *_choice_flags(lines, group)))
    if not observations:
        raise DataFileError("no observations: file has a header but no rows")
    return observations


_exit_cells = itemgetter(4, 5, 6, 7)
_chosen_cell = itemgetter(8)
_first_choice_cell = itemgetter(9)


def _decode_scenario(lines: list, rows: list, exits: dict,
                     latest: dict) -> Scenario:
    """The scenario of one observation's rows.  ``exits`` shares equal
    exits across the read, and ``latest`` the scenario last decoded with
    the same id if they are equal."""
    alternatives = []
    for line, row in zip(lines, rows):
        try:
            alternatives.append((row[3], _decode_exit(_exit_cells(row),
                                                      exits)))
        except ValueError as exc:
            raise _line_error(line, exc) from exc
    if len(rows) < 2:
        raise DataFileError(
            f"obs_id {rows[0][0]}: needs at least 2 alternative rows")
    try:
        scenario = Scenario(rows[0][2], alternatives)
    except ValueError as exc:
        raise DataFileError(f"obs_id {rows[0][0]}: {exc}") from exc
    same_id = latest.get(scenario.id)
    if same_id is not None and same_id == scenario:
        return same_id
    if len(latest) >= _MEMO_SIZE:
        latest.clear()
    latest[scenario.id] = scenario
    return scenario


def _choice_flags(lines: list, rows: list) -> tuple[int, int]:
    """The chosen row and the first_choice flag of one observation's rows,
    which must have every flag 0 or 1, one chosen=1 and one first_choice."""
    chosen = list(map(_chosen_cell, rows))
    first_choice = list(map(_first_choice_cell, rows))
    if (chosen.count("1") == 1 and _FLAGS.issuperset(chosen)
            and first_choice.count(first_choice[0]) == len(rows)
            and first_choice[0] in _FLAG_VALUES):
        return chosen.index("1"), _FLAG_VALUES[first_choice[0]]
    for line, row in zip(lines, rows):
        try:
            _parse_binary(row[8], "chosen")
            _parse_binary(row[9], "first_choice")
        except ValueError as exc:
            raise _line_error(line, exc) from exc
    if chosen.count("1") != 1:
        raise DataFileError(f"obs_id {rows[0][0]}: expected exactly one "
                            f"chosen=1 row, found {chosen.count('1')}")
    raise DataFileError(f"obs_id {rows[0][0]}: first_choice differs across "
                        "rows")


# ---------------------------------------------------------------------------
# Scenario tables (wide format, one row per scenario)
# ---------------------------------------------------------------------------

def _scenario_header(labels: Sequence[str]) -> list[str]:
    cols = ["scenario_id"]
    for label in labels:
        cols.extend(f"{_ATTR_COLUMNS[attr]}_{label}" for attr in ATTRIBUTES)
    return cols


def write_scenarios_csv(path, scenarios: Sequence[Scenario],
                        d_error: float | None = None) -> None:
    """Write scenarios as one wide row each; optional D-error footer."""
    if not scenarios:
        raise ValueError("no scenarios to write")
    labels = scenarios[0].labels
    for s in scenarios:
        if s.labels != labels:
            raise ValueError(
                f"scenario {s.id!r} has labels {s.labels}, expected {labels}")
    _write_rows(
        path, _scenario_header(labels),
        ((s.id, *(cell for _, attrs in s.alternatives
                  for cell in _encode_exit(attrs))) for s in scenarios),
        footer=None if d_error is None else f"d_error={_fmt_float(d_error)}")


def _scenario_parser(header):
    if not header or header[0] != "scenario_id":
        raise DataFileError(
            "bad scenario file header; first column must be scenario_id")
    labels: list[str] = []
    for col in header[1:]:
        attr_col = next((c for c in _ATTR_COLUMNS.values()
                         if col.startswith(c + "_")), None)
        if attr_col is None:
            raise DataFileError(f"unrecognized scenario column {col!r}")
        labels.append(col[len(attr_col) + 1:])
    labels = list(dict.fromkeys(labels))
    expected = _scenario_header(labels)
    if header != expected:
        raise DataFileError(
            f"scenario columns {header!r} do not match the expected "
            f"layout {expected!r}")

    exits: dict = {}

    def parse(row):
        cells = zip(*[iter(row[1:])] * len(ATTRIBUTES))  # in fours
        return Scenario(id=row[0], alternatives=tuple(
            (label, _decode_exit(four, exits))
            for label, four in zip(labels, cells)))
    return parse


def read_scenarios_csv(path) -> list[Scenario]:
    """Read a wide scenario table; the footer row is ignored."""
    scenarios = list(_read_rows(path, _scenario_parser))
    if not scenarios:
        raise DataFileError("scenario file has no rows")
    return scenarios


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------

def write_inference_csv(path, rows: Iterable[InferenceRow],
                        fit: ModelFit) -> None:
    """Write an inference table with a log-likelihood footer line."""
    _write_rows(
        path, INFERENCE_HEADER,
        ((r.name, _fmt_float(r.estimate), _fmt_float(r.std_error),
          _fmt_float(r.z_value), _fmt_float(r.p_value)) for r in rows),
        footer=f"log_likelihood={_fmt_float(fit.log_likelihood)} "
               f"n_obs={fit.n_obs} converged={fit.converged} "
               f"iterations={fit.iterations}")


def _params_parser(header):
    if (header is None or tuple(header) != INFERENCE_HEADER[:len(header)]
            or len(header) < 2):
        raise DataFileError(
            "bad coefficient file header; expected columns "
            f"{','.join(INFERENCE_HEADER)} (std_error onward optional)")
    has_se = len(header) >= 3
    seen: set[str] = set()

    def parse(row):
        name = row[0]
        if name in seen:
            raise ValueError(f"duplicate coefficient {name!r}")
        seen.add(name)
        est = float(row[1])
        se = float(row[2]) if has_se else None
        if not math.isfinite(est):
            raise ValueError(
                f"estimate of {name!r} must be finite, got {row[1]!r}")
        if has_se and not 0 < se < math.inf:
            raise ValueError(f"std_error of {name!r} must be finite and "
                             f"> 0, got {row[2]!r}")
        return name, (est, se)
    return parse


def read_params_csv(path) -> dict[str, tuple[float, float | None]]:
    """Read a coefficient table into name -> (estimate, std_error or None).

    Accepts the inference-table layout or any prefix of it that includes
    name and estimate.  Estimates must be finite and standard errors, where
    the layout has them, finite and positive.  Keeps file order (useful to
    rebuild a ModelSpec).
    """
    params = dict(_read_rows(path, _params_parser))
    if not params:
        raise DataFileError("coefficient file has no rows")
    return params


def write_curve_csv(path, curves: Mapping[str, Sequence[tuple]]) -> None:
    """Write sensitivity curves: familiarity, swept value, P(exit A)."""
    _write_rows(path, ("familiarity", "swept_value", "p_exit_a"), (
        (condition, _fmt(value), _fmt_float(p))
        for condition, curve in curves.items() for value, p in curve))


def write_probabilities_csv(path, rows: Sequence[tuple]) -> None:
    """Write predicted probabilities: scenario_id, alt_label, probability."""
    _write_rows(path, ("scenario_id", "alt_label", "probability"), (
        (scenario_id, label, _fmt_float(p))
        for scenario_id, label, p in rows))


# ---------------------------------------------------------------------------
# Run config (JSON with a version key; unknown keys rejected)
# ---------------------------------------------------------------------------

#: How a checked config value of each kind is described in errors.
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object",
          (str, list): "a string or a list of strings"}


def _checked(value, key: str, kind):
    """``value`` if it is a JSON ``kind``: true/false, an integer (not 3.0),
    a finite number (returned as a float), a string, a list or an object
    for bool, int, float, str, list or dict.  A bool is never a number."""
    if kind is int or kind is float:
        ok = (not isinstance(value, bool) and isinstance(value, (int, kind))
              and abs(value) <= sys.float_info.max)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _fields(mapping, context: str, kinds: Mapping, required=()) -> dict:
    """The config object ``mapping`` with each value checked by ``_checked``
    as its kind in ``kinds``, named ``context.key``.  Keys not in ``kinds``
    and ``required`` keys that are absent are errors."""
    _checked(mapping, context, dict)
    unknown = sorted(set(mapping) - set(kinds))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {', '.join(unknown)}")
    missing = [key for key in required if key not in mapping]
    if missing:
        raise ConfigError(
            f"{context}: missing value(s) for {', '.join(missing)}")
    return {key: _checked(value, f"{context}.{key}", kinds[key])
            for key, value in mapping.items()}


def _section(cfg, name: str):
    """The ``name`` section of a config, which the command needs."""
    if name not in cfg:
        raise ConfigError(f"config is missing the \"{name}\" section")
    return _checked(cfg[name], f"config.{name}", dict)


def _unique_keys(pairs) -> dict:
    """A JSON object from its key/value pairs; a repeated key is an error,
    where ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    """Load a run config and check its top level: no key repeated in any
    object, known keys, ``version`` the integer 1, ``out`` a string and
    every section an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _fields(cfg, "config", {"version": int, "out": str, "model": dict,
                            "levels": dict, "priors": dict, "design": dict,
                            "estimate": dict, "sweep": dict})
    if cfg.get("version") != 1:
        raise ConfigError("config must declare \"version\": 1")
    return cfg


def model_from_config(cfg) -> ModelSpec:
    terms = _fields(_section(cfg, "model"), "model", {"terms": list},
                    required=("terms",))["terms"]
    for i, term in enumerate(terms):
        _fields(term, f"model.terms[{i}]", {"attr": str, "first_choice": bool},
                required=("attr",))
    try:
        return ModelSpec(tuple((term["attr"], term.get("first_choice", False))
                               for term in terms))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def levels_from_config(cfg) -> FactorLevels:
    levels = _section(cfg, "levels")
    for label, per_attr in levels.items():
        context = f"levels.{label}"
        for attr, values in _fields(per_attr, context,
                                    dict.fromkeys(ATTRIBUTES, list)).items():
            for i, value in enumerate(values):
                _checked(value, f"{context}.{attr}[{i}]", float)
    try:
        return FactorLevels(levels=levels)
    except ValueError as exc:
        raise ConfigError(f"levels: {exc}") from exc


def priors_from_config(cfg, spec: ModelSpec) -> np.ndarray:
    names = spec.coef_names()
    priors = _fields(_section(cfg, "priors"), "priors",
                     dict.fromkeys(names, float), required=names)
    return np.array([priors[n] for n in names], dtype=float)


def design_options(cfg) -> dict:
    """The checked ``design`` section: ``search_design`` keyword arguments."""
    return _fields(cfg.get("design", {}), "design",
                   {"size": int, "seed": int, "iterations": int})


def estimate_options(cfg) -> dict:
    """The checked ``estimate`` section: ``fit_mnl`` keyword arguments."""
    return _fields(cfg.get("estimate", {}), "estimate",
                   {"tol": float, "max_iter": int})


def sweeps_from_config(cfg) -> list[tuple[str, SensitivityConfig]]:
    """One SensitivityConfig per familiarity condition in the sweep, each
    with its condition.  A list of conditions must be nonempty and have no
    repeats; a sweep without one takes the ``SensitivityConfig`` default."""
    sweep = _fields(_section(cfg, "sweep"), "sweep", {
        "attribute": str, "start": float, "stop": float, "step": float,
        "swept_exit": dict, "fixed_exit": dict, "familiarity": (str, list),
        "rule": str, "alpha": float},
        required=("attribute", "start", "stop", "step"))
    for side in ("swept_exit", "fixed_exit"):
        if side in sweep:
            sweep[side] = _fields(sweep[side], f"sweep.{side}", {
                attr: float for attr in ATTRIBUTES if attr != "fam"})
    sweep["sweep_attr"] = sweep.pop("attribute")
    conditions = [{}]
    if isinstance(sweep.get("familiarity"), list):
        familiarity = sweep.pop("familiarity")
        for i, condition in enumerate(familiarity):
            _checked(condition, f"sweep.familiarity[{i}]", str)
        if not familiarity or len(set(familiarity)) < len(familiarity):
            raise ConfigError("sweep.familiarity must be a nonempty list "
                              f"without repeats, got {familiarity!r}")
        conditions = [{"familiarity": condition} for condition in familiarity]
    configs = []
    for condition in conditions:
        try:
            config = SensitivityConfig(**sweep, **condition)
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
        configs.append((config.familiarity, config))
    return configs
