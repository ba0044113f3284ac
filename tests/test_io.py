"""Tests for CSV formats and the run config loader."""

import csv
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exitchoice import (ChoiceObservation, ExitAttributes, ModelSpec,
                        Scenario, SensitivityConfig, generate_dataset)
from exitchoice import io
from exitchoice import reference as ref
from exitchoice.core import _ChoiceSets

from oracles import write_choice_csv_per_row

SPEC2 = ref.FIRST_CHOICE_SPEC
TRUTH2 = ref.estimates_vector(SPEC2, ref.FIRST_CHOICE_ESTIMATES)


def sample_data(n=5, seed=0):
    return generate_dataset(SPEC2, TRUTH2, ref.EXPERIMENT_SCENARIOS,
                            n_per_scenario=n, c1_pattern=0.25, seed=seed)


# ---------------------------------------------------------------------------
# choice data CSV
# ---------------------------------------------------------------------------

def test_choice_csv_roundtrip(tmp_path):
    path = tmp_path / "choices.csv"
    data = sample_data()
    io.write_choice_csv(path, data)
    back = io.read_choice_csv(path)
    assert len(back) == len(data)
    for a, b in zip(data, back):
        assert a.chosen == b.chosen
        assert a.first_choice == b.first_choice
        assert str(a.scenario.id) == str(b.scenario.id)
        assert a.scenario.labels == b.scenario.labels
        for (_, attrs_a), (_, attrs_b) in zip(a.scenario.alternatives,
                                              b.scenario.alternatives):
            assert attrs_a == attrs_b


def test_choice_csv_header_and_row_count(tmp_path):
    path = tmp_path / "choices.csv"
    io.write_choice_csv(path, sample_data(n=2))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(io.CHOICE_HEADER)
    assert len(lines) == 1 + 16 * 3  # 8 scenarios x 2 obs x 3 alternatives


def test_choice_csv_two_chosen_rows_cite_obs_id(tmp_path):
    path = tmp_path / "bad.csv"
    io.write_choice_csv(path, sample_data(n=1))
    text = path.read_text().splitlines()
    # flip a non-chosen row of obs 3 to chosen
    for i, line in enumerate(text):
        if line.startswith("3,") and line.split(",")[-2] == "0":
            parts = line.split(",")
            parts[-2] = "1"
            text[i] = ",".join(parts)
            break
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(io.DataFileError, match="obs_id 3"):
        io.read_choice_csv(path)


def test_choice_csv_single_row_observation_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(io.CHOICE_HEADER),
            "1,p1,s1,A,0,6,0,1,1,0",
            "1,p1,s1,B,5,3.6,1,0,0,0",
            "2,p2,s1,A,0,6,0,1,1,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(io.DataFileError, match="obs_id 2"):
        io.read_choice_csv(path)


def test_choice_csv_malformed_value_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(io.CHOICE_HEADER),
            "1,p1,s1,A,0,6,0,1,1,0",
            "1,p1,s1,B,five,3.6,1,0,0,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(io.DataFileError, match="line 3"):
        io.read_choice_csv(path)


@pytest.mark.parametrize("cells", ["nan,6", "0,inf", "-inf,6", "0,NaN"])
def test_choice_csv_non_finite_attribute_cites_line(tmp_path, cells):
    path = tmp_path / "bad.csv"
    rows = [",".join(io.CHOICE_HEADER),
            "1,p1,s1,A,0,6,0,1,1,0",
            f"1,p1,s1,B,{cells},1,0,0,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(io.DataFileError, match="line 3: .*must be finite"):
        io.read_choice_csv(path)


def test_choice_csv_inconsistent_first_choice_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(io.CHOICE_HEADER),
            "1,p1,s1,A,0,6,0,1,1,1",
            "1,p1,s1,B,5,3.6,1,0,0,0"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(io.DataFileError, match="first_choice"):
        io.read_choice_csv(path)


def test_choice_csv_empty_file_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(io.DataFileError, match="no observations"):
        io.read_choice_csv(path)
    path.write_text(",".join(io.CHOICE_HEADER) + "\n")
    with pytest.raises(io.DataFileError, match="no observations"):
        io.read_choice_csv(path)


def test_choice_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(io.DataFileError, match="header"):
        io.read_choice_csv(path)


def write_choice_rows(path, rows):
    path.write_text("\n".join([",".join(io.CHOICE_HEADER), *rows]) + "\n")


def test_choice_csv_rows_disagreeing_with_first_row_cite_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_choice_rows(path, ["1,p1,s1,A,0,6,0,1,1,0",
                             "1,p1,s1,B,5,3.6,1,0,0,0",
                             "1,p2,s1,C,5,4.6,1,0,0,0"])
    with pytest.raises(io.DataFileError, match="line 4: obs_id 1: "
                       "participant_id 'p2' differs from 'p1'"):
        io.read_choice_csv(path)
    write_choice_rows(path, ["1,p1,s1,A,0,6,0,1,1,0",
                             "1,p1,s9,B,5,3.6,1,0,0,0"])
    with pytest.raises(io.DataFileError, match="line 3: obs_id 1: "
                       "scenario_id 's9' differs from 's1'"):
        io.read_choice_csv(path)


def test_choice_csv_obs_id_reappearing_after_another_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_choice_rows(path, ["1,p1,s1,A,0,6,0,1,1,0",
                             "1,p1,s1,B,5,3.6,1,0,0,0",
                             "2,p2,s1,A,0,6,0,1,1,0",
                             "2,p2,s1,B,5,3.6,1,0,0,0",
                             "1,p1,s1,C,5,4.6,1,0,0,0"])
    with pytest.raises(io.DataFileError,
                       match="line 6: obs_id 1 reappears after"):
        io.read_choice_csv(path)


def test_choice_csv_bad_cell_in_repeated_exit_cites_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [f"{i // 2 + 1},p,s1,{'AB'[i % 2]},5,3.6,1,0,{i % 2},0"
            for i in range(42)]  # lines 2-43, all with the same exit
    rows[39] = rows[39].replace(",1,0,1,0", ",2,0,1,0")  # line 41
    rows[41] = rows[41].replace(",1,0,1,0", ",2,0,1,0")  # line 43
    write_choice_rows(path, rows)
    with pytest.raises(io.DataFileError,
                       match="line 41: smoke must be 0 or 1, got '2'"):
        io.read_choice_csv(path)


def test_decode_exit_never_stores_a_failure():
    memo = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="smoke"):
            io._decode_exit(("5", "3.6", "2", "0"), memo)
        with pytest.raises(ValueError, match="finite"):
            io._decode_exit(("nan", "3.6", "1", "0"), memo)
    assert memo == {}


def test_choice_csv_equal_exits_in_other_text_group_together(tmp_path):
    path = tmp_path / "choices.csv"
    write_choice_rows(path, ["1,p1,s1,A,1,6,0,1,1,0",
                             "1,p1,s1,B,5,3.6,1,0,0,0",
                             "2,p2,s1,A,1.0,6.00,0,1,0,0",
                             "2,p2,s1,B,5,3.6,1,0,1,0"])
    memo = {}
    one = io._decode_exit(("1", "6", "0", "1"), memo)
    other = io._decode_exit(("1.0", "6.00", "0", "1"), memo)
    assert one == other == ExitAttributes(np=1, dist=6, smoke=0, fam=1)
    assert one is not other and len(memo) == 2
    first, second = io.read_choice_csv(path)
    assert first.scenario is second.scenario
    sets = _ChoiceSets.from_observations([first, second], ref.POOLED_SPEC)
    assert sets.counts.tolist() == [[1.0, 1.0]]


def test_choice_csv_read_shares_one_object_per_exit_and_scenario(tmp_path):
    path = tmp_path / "choices.csv"
    io.write_choice_csv(path, sample_data(n=6250, seed=0))
    data = io.read_choice_csv(path)
    assert len(data) == 50_000
    assert len({id(attrs) for obs in data
                for _, attrs in obs.scenario.alternatives}) == 18
    assert len({id(obs.scenario) for obs in data}) == 8


def test_choice_csv_read_past_the_memo_size_equals_oracle(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(io, "_MEMO_SIZE", 3)
    path = tmp_path / "choices.csv"
    data = sample_data(n=2, seed=1)  # each scenario's observations adjacent
    # and the same observations cycling through the 8 scenarios
    for order, n_scenarios in ((data, 8), (data[::2] + data[1::2], None)):
        io.write_choice_csv(path, order)
        back = io.read_choice_csv(path)
        assert back == oracle_read_choice_csv(path)
        scenarios = {id(obs.scenario) for obs in back}
        if n_scenarios is None:
            assert len(scenarios) > 8  # the memos hold 3 entries
        else:
            # a full memo is emptied, not frozen: adjacent repeats share
            assert len(scenarios) == n_scenarios
        exits = {id(attrs)
                 for obs in back for _, attrs in obs.scenario.alternatives}
        assert 18 < len(exits) < 3 * len(back)
        sets = _ChoiceSets.from_observations(back, SPEC2)
        assert sets.counts.tolist() == \
            _ChoiceSets.from_observations(order, SPEC2).counts.tolist()


# ---------------------------------------------------------------------------
# scenario CSV
# ---------------------------------------------------------------------------

def test_scenario_csv_roundtrip(tmp_path):
    path = tmp_path / "scenarios.csv"
    io.write_scenarios_csv(path, ref.EXPERIMENT_SCENARIOS, d_error=0.25)
    back = io.read_scenarios_csv(path)
    assert len(back) == 8
    for a, b in zip(ref.EXPERIMENT_SCENARIOS, back):
        assert str(a.id) == str(b.id)
        assert a.labels == b.labels
        assert [attrs for _, attrs in a.alternatives] == \
               [attrs for _, attrs in b.alternatives]
    assert path.read_text().splitlines()[-1].startswith("# d_error=")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_scenario_csv_non_finite_attribute_cites_line(tmp_path, bad):
    path = tmp_path / "scenarios.csv"
    io.write_scenarios_csv(path, ref.EXPERIMENT_SCENARIOS[:2])
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = bad  # dist_m of exit A in the second scenario
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(io.DataFileError, match="line 3: dist must be finite"):
        io.read_scenarios_csv(path)


def test_scenario_csv_id_starting_with_hash_is_data(tmp_path):
    path = tmp_path / "scenarios.csv"
    scenarios = [Scenario(id=sid, alternatives=s.alternatives)
                 for sid, s in zip(("#7", 2), ref.EXPERIMENT_SCENARIOS)]
    io.write_scenarios_csv(path, scenarios, d_error=0.5)
    back = io.read_scenarios_csv(path)
    assert [s.id for s in back] == ["#7", "2"]


def test_scenario_csv_comment_with_data_width_is_not_a_footer(tmp_path):
    path = tmp_path / "scenarios.csv"
    io.write_scenarios_csv(path, ref.EXPERIMENT_SCENARIOS[:1])
    with open(path, "a") as fh:
        fh.write("# note" + "," * 12 + "\n")
    with pytest.raises(io.DataFileError, match="line 3: "):
        io.read_scenarios_csv(path)


@pytest.mark.parametrize("flag", [True, 1.0, np.int64(1), np.float64(1.0)])
def test_flags_of_any_numeric_type_written_as_0_or_1(tmp_path, flag):
    zero = type(flag)(0)
    exits = (("A", ExitAttributes(np=1, dist=2.5, smoke=flag, fam=zero)),
             ("B", ExitAttributes(np=0, dist=3, smoke=zero, fam=flag)))
    scenario = Scenario(id=1, alternatives=exits)
    choices, table = tmp_path / "choices.csv", tmp_path / "scenarios.csv"
    io.write_choice_csv(choices, [ChoiceObservation(
        participant_id="p1", scenario=scenario, chosen=1, first_choice=flag)])
    io.write_scenarios_csv(table, [scenario])
    assert choices.read_text().splitlines()[1:] == [
        "1,p1,1,A,1,2.5,1,0,0,1", "1,p1,1,B,0,3,0,1,1,1"]
    assert table.read_text().splitlines()[1] == "1,1,2.5,1,0,0,3,0,1"
    [obs] = io.read_choice_csv(choices)
    assert obs.scenario.alternatives == exits and obs.first_choice == 1
    assert io.read_scenarios_csv(table)[0].alternatives == exits


def test_scenario_csv_empty_list_rejected(tmp_path):
    path = tmp_path / "scenarios.csv"
    with pytest.raises(ValueError, match="no scenarios to write"):
        io.write_scenarios_csv(path, [])
    assert not path.exists()


def test_scenario_csv_unknown_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scenario_id,width_A\n1,2\n")
    with pytest.raises(io.DataFileError, match="unrecognized"):
        io.read_scenarios_csv(path)


# ---------------------------------------------------------------------------
# CSV round trips for any valid data
# ---------------------------------------------------------------------------

_names = st.text(string.ascii_letters + string.digits + "_-. #", min_size=1,
                 max_size=4)
_amounts = (st.integers(0, 10 ** 6)
            | st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))
_flags = st.sampled_from([0, 1, False, True, 0.0, 1.0])
_exits = st.builds(ExitAttributes, np=_amounts, dist=_amounts,
                   smoke=_flags, fam=_flags)


@st.composite
def scenario_lists(draw, same_labels):
    """Scenarios with distinct labels; one shared label tuple on request
    (the wide table needs it)."""
    def labels():
        return draw(st.lists(_names, min_size=2, max_size=4, unique=True))
    shared = labels()
    return [Scenario(id=draw(st.integers(0, 99) | _names), alternatives=tuple(
                (label, draw(_exits))
                for label in (shared if same_labels else labels())))
            for _ in range(draw(st.integers(1, 5)))]


@st.composite
def observation_lists(draw):
    scenarios = draw(scenario_lists(same_labels=False))
    return [ChoiceObservation(
                participant_id=draw(_names), scenario=s,
                chosen=draw(st.integers(0, s.n_alternatives - 1)),
                first_choice=draw(_flags))
            for s in draw(st.lists(st.sampled_from(scenarios), min_size=1,
                                   max_size=8))]


def same_scenario(a, b):
    """Equal up to the id's type: files carry ids as text."""
    return str(a.id) == b.id and a.alternatives == b.alternatives


@settings(max_examples=150, deadline=None)
@given(observation_lists())
def test_choice_csv_roundtrip_any_observations(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("roundtrip") / "choices.csv"
    io.write_choice_csv(path, data)
    back = io.read_choice_csv(path)
    assert len(back) == len(data)
    for a, b in zip(data, back):
        assert same_scenario(a.scenario, b.scenario)
        assert (a.participant_id, a.chosen, a.first_choice) == \
               (b.participant_id, b.chosen, b.first_choice)


@settings(max_examples=150, deadline=None)
@given(scenario_lists(same_labels=True))
def test_scenario_csv_roundtrip_any_scenarios(tmp_path_factory, scenarios):
    path = tmp_path_factory.mktemp("roundtrip") / "scenarios.csv"
    io.write_scenarios_csv(path, scenarios)
    back = io.read_scenarios_csv(path)
    assert len(back) == len(scenarios)
    assert all(same_scenario(a, b) for a, b in zip(scenarios, back))


def oracle_read_choice_csv(path):
    """The reader before interning: new objects for every row, grouped by
    obs_id over the whole file, each observation taken from its first row."""
    def parse_row(row):
        return row[0], (row[1], row[2], row[3], ExitAttributes(
                            np=float(row[4]), dist=float(row[5]),
                            smoke=io._parse_binary(row[6], "smoke"),
                            fam=io._parse_binary(row[7], "fam")),
                        io._parse_binary(row[8], "chosen"),
                        io._parse_binary(row[9], "first_choice"))

    def parser(header):
        assert tuple(header) == io.CHOICE_HEADER
        return parse_row

    groups = {}
    for obs_id, record in io._read_rows(path, parser):
        groups.setdefault(obs_id, []).append(record)
    observations = []
    for obs_id, rows in groups.items():
        chosen_rows = [i for i, r in enumerate(rows) if r[4] == 1]
        assert len(rows) >= 2 and len(chosen_rows) == 1
        assert len({r[5] for r in rows}) == 1
        scenario = Scenario(id=rows[0][1], alternatives=tuple(
            (r[2], r[3]) for r in rows))
        observations.append(ChoiceObservation(
            participant_id=rows[0][0], scenario=scenario,
            chosen=chosen_rows[0], first_choice=rows[0][5]))
    return observations


@st.composite
def repetitive_observation_lists(draw):
    """Observations over 2-/3-exit scenarios whose exits come from a small
    pool, so that exits and whole scenarios repeat."""
    pool = draw(st.lists(_exits, min_size=1, max_size=4))
    exits = st.sampled_from(pool) | _exits
    scenarios = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(_names, min_size=2, max_size=3, unique=True))
        scenarios.append(Scenario(
            id=draw(st.integers(0, 3) | _names),
            alternatives=tuple((label, draw(exits)) for label in labels)))
    return [ChoiceObservation(
                participant_id=draw(_names), scenario=s,
                chosen=draw(st.integers(0, s.n_alternatives - 1)),
                first_choice=draw(_flags))
            for s in draw(st.lists(st.sampled_from(scenarios), min_size=1,
                                   max_size=12))]


@settings(max_examples=150, deadline=None)
@given(repetitive_observation_lists())
def test_choice_csv_read_equals_oracle_and_shares_objects(tmp_path_factory,
                                                          data):
    path = tmp_path_factory.mktemp("interned") / "choices.csv"
    io.write_choice_csv(path, data)
    back = io.read_choice_csv(path)
    assert back == oracle_read_choice_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [tuple(row[4:8]) for row in list(csv.reader(fh))[1:]]
    exits = [attrs for obs in back for _, attrs in obs.scenario.alternatives]
    ids = {}
    for key, attrs in zip(cells, exits, strict=True):
        assert ids.setdefault(key, id(attrs)) == id(attrs)
    scenarios = {}
    for obs in back:
        key = (obs.scenario.id, obs.scenario.alternatives)
        assert scenarios.setdefault(key, obs.scenario) is obs.scenario


FAULTS = ("flag", "amount", "participant_id", "scenario_id", "reappear",
          "one_row", "two_chosen", "first_choice", "width")
_FLAG_COLUMNS = {6: "smoke", 7: "fam", 8: "chosen", 9: "first_choice"}


def inject_fault(rows, fault, draw):
    """Put one ``fault`` into the data rows of a written choice file (row i
    on line i + 2) and return the error that reading it must raise."""
    starts = [i for i, row in enumerate(rows)
              if i == 0 or row[0] != rows[i - 1][0]]
    first = draw(st.sampled_from(starts))
    end = next((i for i in starts if i > first), len(rows))
    obs_id = rows[first][0]
    row = draw(st.integers(first + 1, end - 1))  # not the observation's first
    if fault == "flag":
        column = draw(st.sampled_from(sorted(_FLAG_COLUMNS)))
        row = draw(st.integers(first, end - 1))
        bad = draw(st.sampled_from(["2", "x", "", "1.0", "True", " 1"]))
        rows[row][column] = bad
        return (f"line {row + 2}: {_FLAG_COLUMNS[column]} must be 0 or 1, "
                f"got {bad!r}")
    if fault == "amount":
        column = draw(st.sampled_from([4, 5]))
        row = draw(st.integers(first, end - 1))
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5",
                                    "1e400", "five"]))
        rows[row][column] = bad
        if bad == "five":
            return f"line {row + 2}: could not convert string to float: 'five'"
        name = "np" if column == 4 else "dist"
        return (f"line {row + 2}: {name} must be finite and >= 0, "
                f"got {float(bad)}")
    if fault in ("participant_id", "scenario_id"):
        column = io.CHOICE_HEADER.index(fault)
        old = rows[first][column]
        rows[row][column] = old + "x"
        return (f"line {row + 2}: obs_id {obs_id}: {fault} {old + 'x'!r} "
                f"differs from {old!r} in its first row")
    if fault == "reappear":
        assume(len(starts) > 1)
        rows.append(list(rows[0]))
        return (f"line {len(rows) + 1}: obs_id {rows[0][0]} reappears after "
                "the rows of another observation")
    if fault == "one_row":
        del rows[first + 1:end]
        return f"obs_id {obs_id}: needs at least 2 alternative rows"
    if fault == "two_chosen":
        row = draw(st.sampled_from([i for i in range(first, end)
                                    if rows[i][8] == "0"]))
        rows[row][8] = "1"
        return f"obs_id {obs_id}: expected exactly one chosen=1 row, found 2"
    if fault == "first_choice":
        rows[row][9] = "1" if rows[row][9] == "0" else "0"
        return f"obs_id {obs_id}: first_choice differs across rows"
    assert fault == "width"
    row = draw(st.integers(first, end - 1))
    if draw(st.booleans()):
        rows[row].pop()
    else:
        rows[row].append("")
    return f"line {row + 2}: expected 10 fields, got {len(rows[row])}"


@settings(max_examples=300, deadline=None)
@given(repetitive_observation_lists(), st.sampled_from(FAULTS), st.data())
def test_choice_csv_injected_fault_raises_its_message(tmp_path_factory, data,
                                                       fault, draws):
    path = tmp_path_factory.mktemp("fault") / "choices.csv"
    io.write_choice_csv(path, data)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    message = inject_fault(rows, fault, draws.draw)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    with pytest.raises(io.DataFileError) as info:
        io.read_choice_csv(path)
    assert str(info.value) == message


_quoted = st.text(string.ascii_letters + ',"# ', min_size=1, max_size=4)


@st.composite
def observation_runs(draw):
    """Runs of observations of one ``Scenario`` object, where a scenario
    may come back as another, equal object, and labels, participant and
    scenario ids may need CSV quoting (a comma, a quote, a leading #)."""
    scenarios = [Scenario(id=draw(st.integers(0, 3) | _quoted),
                          alternatives=tuple(
                              (label, draw(_exits)) for label in draw(
                                  st.lists(_quoted, min_size=2, max_size=3,
                                           unique=True))))
                 for _ in range(draw(st.integers(1, 3)))]
    data = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.sampled_from(scenarios))
        if draw(st.booleans()):
            s = Scenario(id=s.id, alternatives=s.alternatives)
        data.extend(ChoiceObservation(
                        participant_id=draw(_quoted | st.integers(0, 9)),
                        scenario=s,
                        chosen=draw(st.integers(0, s.n_alternatives - 1)),
                        first_choice=draw(_flags))
                    for _ in range(draw(st.integers(1, 4))))
    return data


@settings(max_examples=150, deadline=None)
@given(observation_runs())
def test_choice_csv_write_equals_per_row_oracle(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("write")
    io.write_choice_csv(directory / "runs.csv", data)
    write_choice_csv_per_row(directory / "oracle.csv", data)
    assert (directory / "runs.csv").read_bytes() == \
        (directory / "oracle.csv").read_bytes()


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------

UTF8_ROUNDTRIP = r"""
import json, locale, sys
from exitchoice import ChoiceObservation, ExitAttributes, Scenario, io
directory = sys.argv[1]
scenario = Scenario(id="Nord", alternatives=(
    ("S\u00fcd", ExitAttributes(np=1, dist=2.5, smoke=0, fam=1)),
    ("\u00d6st", ExitAttributes(np=0, dist=3, smoke=1, fam=0))))
data = [ChoiceObservation(participant_id="J\u00fcrgen", scenario=scenario,
                          chosen=1)]
io.write_choice_csv(directory + "/choices.csv", data)
io.write_scenarios_csv(directory + "/scenarios.csv", [scenario])
assert io.read_choice_csv(directory + "/choices.csv") == data
assert io.read_scenarios_csv(directory + "/scenarios.csv")[0].labels == \
    scenario.labels
cfg = io.load_config(directory + "/config.json")
print(json.dumps([locale.getpreferredencoding(False), list(cfg["levels"])]))
"""


@pytest.mark.parametrize("locale_env", [
    {},
    # ASCII: the C locale without coercion to C.UTF-8 and without UTF-8 mode
    {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
])
def test_files_are_utf8_whatever_the_locale(tmp_path, locale_env):
    (tmp_path / "config.json").write_bytes(json.dumps(
        {"version": 1, "levels": {"Süd": {"np": [0]}}},
        ensure_ascii=False).encode("utf-8"))
    src = Path(io.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key not in ("LANG", "LANGUAGE", "PYTHONUTF8",
                          "PYTHONCOERCECLOCALE", "PYTHONIOENCODING")
           and not key.startswith("LC_")}
    env.update(PYTHONPATH=str(src), **locale_env)
    done = subprocess.run([sys.executable, "-c", UTF8_ROUNDTRIP,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    encoding, labels = json.loads(done.stdout)
    if locale_env:
        assert encoding.lower().replace("-", "") != "utf8"
    assert labels == ["Süd"]
    assert (tmp_path / "choices.csv").read_bytes().splitlines()[1:] == [
        b"1,J\xc3\xbcrgen,Nord,S\xc3\xbcd,1,2.5,0,1,0,0",
        b"1,J\xc3\xbcrgen,Nord,\xc3\x96st,0,3,1,0,1,0"]
    assert (tmp_path / "scenarios.csv").read_bytes().splitlines()[0] == (
        "scenario_id,np_Süd,dist_m_Süd,smoke_Süd,fam_Süd,"
        "np_Öst,dist_m_Öst,smoke_Öst,fam_Öst"
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

def test_inference_csv_roundtrip(tmp_path):
    from exitchoice import fit_mnl, inference_table
    data = sample_data(n=60, seed=3)
    fit = fit_mnl(data, SPEC2)
    rows = inference_table(fit)
    path = tmp_path / "fit.csv"
    io.write_inference_csv(path, rows, fit)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(io.INFERENCE_HEADER)
    assert lines[-1].startswith("# log_likelihood=")
    params = io.read_params_csv(path)
    assert list(params) == list(SPEC2.coef_names())
    for row in rows:
        est, se = params[row.name]
        assert est == row.estimate  # full-precision round trip
        assert se == row.std_error


def test_params_csv_estimate_only(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("name,estimate\nnp,0.233\ndist,-0.439\n")
    params = io.read_params_csv(path)
    assert params == {"np": (0.233, None), "dist": (-0.439, None)}


@pytest.mark.parametrize("se", ["nan", "-0.2", "0", "0.0", "inf"])
def test_params_csv_bad_std_error_cites_line(tmp_path, se):
    path = tmp_path / "params.csv"
    path.write_text(f"name,estimate,std_error\nnp,0.04,0.01\n"
                    f"np:first,0.19,{se}\n")
    with pytest.raises(io.DataFileError,
                       match="line 3: std_error of 'np:first' must be finite"):
        io.read_params_csv(path)


@pytest.mark.parametrize("est", ["nan", "inf", "-inf"])
def test_params_csv_non_finite_estimate_cites_line(tmp_path, est):
    path = tmp_path / "params.csv"
    path.write_text(f"name,estimate\nnp,{est}\n")
    with pytest.raises(io.DataFileError,
                       match="line 2: estimate of 'np' must be finite"):
        io.read_params_csv(path)


@pytest.mark.parametrize("reader, text, width", [
    (io.read_choice_csv,
     ",".join(io.CHOICE_HEADER) + "\n1,p1,s1,A,0,6,0,1,1,0\n1,p1,s1,B\n", 10),
    (io.read_scenarios_csv,
     "scenario_id,np_A,dist_m_A,smoke_A,fam_A\n\n1,0,6,0,1,2\n", 5),
    (io.read_params_csv, "name,estimate,std_error\n# note\nnp,0.1\n", 3),
])
def test_wrong_field_count_cites_line(tmp_path, reader, text, width):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(io.DataFileError,
                       match=f"line 3: expected {width} fields, got "):
        reader(path)


def test_params_csv_skips_blank_and_footer_rows(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("name,estimate\n\nnp,0.1\n# a footer\n\ndist,-0.4\n")
    assert io.read_params_csv(path) == {"np": (0.1, None),
                                        "dist": (-0.4, None)}


def test_params_csv_duplicate_name_rejected(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("name,estimate\nnp,0.1\nnp,0.2\n")
    with pytest.raises(io.DataFileError, match="duplicate"):
        io.read_params_csv(path)


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------

def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_requires_version(tmp_path):
    for cfg in ({"model": {}}, {"version": 2}, {"version": True},
                {"version": 1.0}):
        with pytest.raises(io.ConfigError, match="version"):
            io.load_config(write_config(tmp_path, cfg))


@pytest.mark.parametrize("key, value", [
    ("out", 1), ("out", True), ("out", ["x"]), ("priors", None),
    ("model", []), ("sweep", "np"),
])
def test_config_top_level_kinds_checked_at_load(tmp_path, key, value):
    with pytest.raises(io.ConfigError, match=rf"config\.{key} must be"):
        io.load_config(write_config(tmp_path, {"version": 1, key: value}))


def test_config_unknown_top_level_key(tmp_path):
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.load_config(write_config(tmp_path, {"version": 1, "extra": 1}))


def test_config_model_terms(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "model": {"terms": [{"attr": "np", "first_choice": True},
                            {"attr": "dist"}]}}))
    spec = io.model_from_config(cfg)
    assert spec == ModelSpec((("np", True), ("dist", False)))


def test_config_model_unknown_attr(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1, "model": {"terms": [{"attr": "width"}]}}))
    with pytest.raises(io.ConfigError, match="unknown attribute"):
        io.model_from_config(cfg)


def test_config_model_unknown_term_key(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1, "model": {"terms": [{"attr": "np", "c1": True}]}}))
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.model_from_config(cfg)


def test_config_priors_must_cover_spec(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "model": {"terms": [{"attr": "np"}, {"attr": "smoke"}]},
        "priors": {"np": 0.1}}))
    spec = io.model_from_config(cfg)
    with pytest.raises(io.ConfigError, match="missing value"):
        io.priors_from_config(cfg, spec)
    cfg["priors"] = {"np": 0.1, "smoke": -0.5, "dist": 0.2}
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.priors_from_config(cfg, spec)
    cfg["priors"] = {"np": 0.1, "smoke": -0.5}
    np.testing.assert_array_equal(io.priors_from_config(cfg, spec),
                                  [0.1, -0.5])


def test_config_levels(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "levels": {
            "A": {"np": [0, 5], "dist": [4.0], "smoke": [0, 1], "fam": [1]},
            "B": {"np": [0, 5], "dist": [2.0], "smoke": [0, 1], "fam": [0]},
        }}))
    levels = io.levels_from_config(cfg)
    assert levels.n_scenarios == 16
    cfg["levels"]["A"]["color"] = ["red"]
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.levels_from_config(cfg)


@pytest.mark.parametrize("values, key", [
    ([0, None], r"levels\.A\.np\[1\]"), ([0, True], r"levels\.A\.np\[1\]"),
    (["5"], r"levels\.A\.np\[0\]"), ([float("nan")], r"levels\.A\.np\[0\]"),
    ([10 ** 400], r"levels\.A\.np\[0\]"), (5, r"levels\.A\.np"),
    (None, r"levels\.A\.np"), ({"0": 1}, r"levels\.A\.np"),
])
def test_config_levels_must_be_lists_of_finite_numbers(tmp_path, values,
                                                       key):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "levels": {
            "A": {"np": values, "dist": [4.0], "smoke": [0, 1], "fam": [1]},
            "B": {"np": [0, 5], "dist": [2.0], "smoke": [0, 1], "fam": [0]},
        }}))
    with pytest.raises(io.ConfigError, match=key):
        io.levels_from_config(cfg)


def test_config_sweep_conditions(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": 10, "step": 0.5,
                  "fixed_exit": {"np": 5, "dist": 3.0, "smoke": 0},
                  "swept_exit": {"dist": 3.0, "smoke": 0},
                  "familiarity": ["A", "B", "both"]}}))
    sweeps = io.sweeps_from_config(cfg)
    assert [condition for condition, _ in sweeps] == ["A", "B", "both"]
    assert all(sc.sweep_attr == "np" for _, sc in sweeps)


def test_config_sweep_omitted_options_take_library_defaults(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": 10, "step": 1}}))
    assert io.sweeps_from_config(cfg) == [("both", SensitivityConfig(
        sweep_attr="np", start=0.0, stop=10.0, step=1.0))]


def test_config_sweep_rejects_fam_in_exit(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": 1, "step": 1,
                  "fixed_exit": {"fam": 1}}}))
    with pytest.raises(io.ConfigError, match="unknown key"):
        io.sweeps_from_config(cfg)


@pytest.mark.parametrize("key, value, named", [
    ("start", "0", "sweep.start"), ("stop", None, "sweep.stop"),
    ("step", True, "sweep.step"), ("step", float("inf"), "sweep.step"),
    ("alpha", float("nan"), "sweep.alpha"), ("alpha", [0.05], "sweep.alpha"),
    ("attribute", ["np"], "sweep.attribute"), ("rule", 1, "sweep.rule"),
    ("swept_exit", {"dist": None}, "sweep.swept_exit.dist"),
    ("fixed_exit", {"np": "5"}, "sweep.fixed_exit.np"),
    ("fixed_exit", {"smoke": False}, "sweep.fixed_exit.smoke"),
    ("familiarity", 3, "sweep.familiarity"),
    ("familiarity", {"A": 1}, "sweep.familiarity"),
    ("familiarity", ["A", None], "sweep.familiarity[1]"),
    ("familiarity", [], "sweep.familiarity"),
    ("familiarity", ["A", "A"], "sweep.familiarity"),
])
def test_config_sweep_value_types(tmp_path, key, value, named):
    sweep = {"attribute": "np", "start": 0, "stop": 10, "step": 0.5,
             "fixed_exit": {"np": 5, "dist": 3.0, "smoke": 0}}
    sweep[key] = value
    cfg = io.load_config(write_config(tmp_path, {"version": 1,
                                                 "sweep": sweep}))
    with pytest.raises(io.ConfigError) as info:
        io.sweeps_from_config(cfg)
    assert named in str(info.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), [1], None,
                                   True, "0.1", 10 ** 400])
def test_config_prior_must_be_finite_number(tmp_path, value):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1, "model": {"terms": [{"attr": "np"}]},
        "priors": {"np": value}}))
    with pytest.raises(io.ConfigError, match=r"priors\.np"):
        io.priors_from_config(cfg, io.model_from_config(cfg))


@pytest.mark.parametrize("section, key, value", [
    ("design", "size", [3]), ("design", "size", 3.0), ("design", "size", "3"),
    ("design", "seed", 1.5), ("design", "seed", True),
    ("design", "iterations", None),
    ("estimate", "tol", float("nan")), ("estimate", "tol", True),
    ("estimate", "tol", "1e-6"), ("estimate", "max_iter", 10.0),
])
def test_config_option_types(tmp_path, section, key, value):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1, section: {key: value}}))
    options = io.design_options if section == "design" else io.estimate_options
    with pytest.raises(io.ConfigError, match=rf"{section}\.{key}"):
        options(cfg)


def test_config_valid_options_pass_through(tmp_path):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "design": {"size": 8, "seed": 3, "iterations": 2},
        "estimate": {"tol": 1, "max_iter": 50}}))
    assert io.design_options(cfg) == cfg["design"]
    assert io.estimate_options(cfg) == cfg["estimate"]


@pytest.mark.parametrize("flag", ["false", 1, None])
def test_config_first_choice_must_be_boolean(tmp_path, flag):
    cfg = io.load_config(write_config(tmp_path, {
        "version": 1,
        "model": {"terms": [{"attr": "np"},
                            {"attr": "dist", "first_choice": flag}]}}))
    with pytest.raises(io.ConfigError,
                       match=r"model\.terms\[1\]\.first_choice"):
        io.model_from_config(cfg)
