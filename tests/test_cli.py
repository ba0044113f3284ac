"""End-to-end tests of the command-line tool (in-process via main)."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from exitchoice import ChoiceObservation, Scenario, io
from exitchoice import reference as ref
from exitchoice.cli import main


def write_params(path, estimates):
    lines = ["name,estimate,std_error"]
    lines += [f"{name},{est!r},{se!r}" for name, (est, se) in estimates.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_scenarios(path):
    io.write_scenarios_csv(path, ref.EXPERIMENT_SCENARIOS)
    return str(path)


@pytest.fixture
def params2(tmp_path):
    return write_params(tmp_path / "params2.csv", ref.FIRST_CHOICE_ESTIMATES)


@pytest.fixture
def scenarios_csv(tmp_path):
    return write_scenarios(tmp_path / "scenarios.csv")


def test_simulate_writes_expected_row_counts(tmp_path, params2, scenarios_csv):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "10", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 8 * 10 * 3  # header + 80 observations x 3 rows
    assert len(io.read_choice_csv(out)) == 80


def test_simulate_same_seed_byte_identical(tmp_path, params2, scenarios_csv):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        assert main(["simulate", "--params", params2, "--scenarios",
                     scenarios_csv, "--n", "25", "--seed", "11",
                     "--out", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    out_c = tmp_path / "c.csv"
    assert main(["simulate", "--params", params2, "--scenarios",
                 scenarios_csv, "--n", "25", "--seed", "12",
                 "--out", str(out_c)]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_simulate_rejects_zero_n(tmp_path, params2, scenarios_csv):
    code = main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_then_estimate_roundtrip(tmp_path, params2, scenarios_csv,
                                          capsys):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "150", "--seed", "4", "--out", str(sim)]) == 0
    config = tmp_path / "model2.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": a, "first_choice": True}
                            for a in ("np", "dist", "smoke", "fam")]}}))
    table = tmp_path / "fit.csv"
    code = main(["estimate", "--data", str(sim), "--config", str(config),
                 "--out", str(table)])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged True" in out
    params = io.read_params_csv(table)
    assert list(params) == list(ref.FIRST_CHOICE_SPEC.coef_names())


def test_estimate_default_model_is_pooled(tmp_path, params2, scenarios_csv):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "50", "--seed", "8", "--out", str(sim)]) == 0
    table = tmp_path / "fit.csv"
    assert main(["estimate", "--data", str(sim), "--out", str(table)]) == 0
    assert list(io.read_params_csv(table)) == ["np", "dist", "smoke", "fam"]


def test_estimate_validation_error_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(io.CHOICE_HEADER) + "\n"
                   + "1,p,s,A,0,6,0,1,1,0\n")
    assert main(["estimate", "--data", str(bad)]) == 2
    missing = tmp_path / "nope.csv"
    assert main(["estimate", "--data", str(missing)]) == 2


def test_estimate_non_finite_attribute_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(io.CHOICE_HEADER) + "\n"
                   + "1,p,s,A,0,6,0,1,1,0\n"
                   + "1,p,s,B,nan,3.6,1,0,0,0\n")
    assert main(["estimate", "--data", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("rows, line", [
    # obs 1 has rows of two participants and two scenarios
    (["1,p1,s1,A,0,6,0,1,1,0", "1,p2,s9,B,5,3.6,1,0,0,0",
      "2,p2,s1,A,0,6,0,1,1,0", "2,p2,s1,B,5,3.6,1,0,0,0"], 3),
    # obs 1 reappears after obs 2
    (["1,p1,s1,A,0,6,0,1,1,0", "1,p1,s1,B,5,3.6,1,0,0,0",
      "2,p2,s1,A,0,6,0,1,1,0", "2,p2,s1,B,5,3.6,1,0,0,0",
      "1,p1,s1,C,5,4.6,1,0,0,0"], 6),
])
def test_estimate_split_or_disagreeing_observation_exit_2(tmp_path, capsys,
                                                           rows, line):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([",".join(io.CHOICE_HEADER), *rows]) + "\n")
    assert main(["estimate", "--data", str(bad)]) == 2
    assert f"line {line}: obs_id 1" in capsys.readouterr().err


def test_simulate_bad_std_error_exit_2(tmp_path, scenarios_csv, capsys):
    params = tmp_path / "params.csv"
    params.write_text("name,estimate,std_error\nnp,0.04,0.01\n"
                      "np:first,0.19,nan\n")
    assert main(["simulate", "--params", str(params), "--scenarios",
                 scenarios_csv, "--n", "2", "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_estimate_not_identified_exit_3(tmp_path, params2, scenarios_csv,
                                        capsys):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "20", "--seed", "1", "--out", str(sim)]) == 0
    # a first-choice interaction cannot be identified without c1 variation,
    # so refit data whose flags are all zero
    data = io.read_choice_csv(sim)
    from exitchoice import ChoiceObservation
    flat = [ChoiceObservation(o.participant_id, o.scenario, o.chosen, 0)
            for o in data]
    io.write_choice_csv(sim, flat)
    config = tmp_path / "model2.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np", "first_choice": True}]}}))
    code = main(["estimate", "--data", str(sim), "--config", str(config)])
    assert code == 3
    assert "np:first" in capsys.readouterr().err


def test_design_command_small_universe(tmp_path, capsys):
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np"}, {"attr": "dist"},
                            {"attr": "smoke"}]},
        "levels": {
            "A": {"np": [0, 5], "dist": [4.0], "smoke": [0, 1], "fam": [1]},
            "B": {"np": [0, 5], "dist": [2.0, 6.0], "smoke": [0, 1],
                  "fam": [0]},
        },
        "priors": {"np": 0.076, "dist": -0.378, "smoke": -1.765},
        "design": {"size": 6, "seed": 0, "iterations": 5}}))
    out = tmp_path / "design.csv"
    code = main(["design", "--config", str(config), "--out", str(out)])
    assert code == 0
    scenarios = io.read_scenarios_csv(out)
    assert len(scenarios) == 6
    # attribute values come from the declared level sets
    for s in scenarios:
        attrs = dict(s.alternatives)
        assert attrs["A"].np in (0, 5) and attrs["A"].dist == 4.0
        assert attrs["B"].dist in (2.0, 6.0)
    assert "d-error" in capsys.readouterr().out


def test_design_size_exceeding_universe_exit_2(tmp_path):
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np"}]},
        "levels": {
            "A": {"np": [0, 5], "dist": [4.0], "smoke": [0], "fam": [1]},
            "B": {"np": [0], "dist": [2.0], "smoke": [0], "fam": [0]},
        },
        "priors": {"np": 0.1},
        "design": {"size": 99}}))
    assert main(["design", "--config", str(config)]) == 2


def test_predict_command(tmp_path, scenarios_csv, capsys):
    params1 = write_params(tmp_path / "params1.csv", ref.POOLED_ESTIMATES)
    out = tmp_path / "probs.csv"
    code = main(["predict", "--params", params1, "--scenarios", scenarios_csv,
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario_id,alt_label,probability"
    assert len(lines) == 1 + 24
    # scenario 1 shares, frozen from the hand evaluation
    first = [line.split(",") for line in lines[1:4]]
    assert [row[1] for row in first] == ["A", "B", "C"]
    assert float(first[0][2]) == pytest.approx(0.625, abs=1e-3)
    assert float(first[1][2]) == pytest.approx(0.256, abs=1e-3)
    assert float(first[2][2]) == pytest.approx(0.120, abs=1e-3)


def test_sensitivity_command_reproduces_reference_endpoints(tmp_path, params2):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": 10, "step": 0.5,
                  "swept_exit": {"dist": 3.0, "smoke": 0},
                  "fixed_exit": {"np": 5, "dist": 3.0, "smoke": 0},
                  "familiarity": ["A", "B", "both"]}}))
    out = tmp_path / "curve.csv"
    code = main(["sensitivity", "--params", params2, "--config", str(config),
                 "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    both = [(float(v), float(p)) for c, v, p in rows if c == "both"]
    assert both[0][1] == pytest.approx(0.23, abs=0.01)
    assert both[-1][1] == pytest.approx(0.76, abs=0.01)
    fam_a = {float(v): float(p) for c, v, p in rows if c == "A"}
    fam_b = {float(v): float(p) for c, v, p in rows if c == "B"}
    assert fam_a[5.0] == pytest.approx(0.68, abs=0.01)
    assert fam_b[5.0] == pytest.approx(0.32, abs=0.01)


def test_sensitivity_unknown_sweep_attribute_exit_2(tmp_path, params2):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "version": 1,
        "sweep": {"attribute": "smoke", "start": 0, "stop": 1, "step": 1}}))
    params_np_only = tmp_path / "np.csv"
    params_np_only.write_text("name,estimate\nnp,0.233\n")
    code = main(["sensitivity", "--params", str(params_np_only),
                 "--config", str(config)])
    assert code == 2


def test_sensitivity_null_sweep_value_exit_2(tmp_path, params2, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": None, "step": 1}}))
    assert main(["sensitivity", "--params", params2,
                 "--config", str(config)]) == 2
    assert "sweep.stop" in capsys.readouterr().err


def test_config_with_unknown_key_exit_2(tmp_path, params2):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"version": 1, "bogus": True}))
    assert main(["sensitivity", "--params", params2,
                 "--config", str(config)]) == 2


def small_design_config(tmp_path, priors, design):
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np"}, {"attr": "smoke"}]},
        "levels": {
            "A": {"np": [0, 5], "dist": [4.0], "smoke": [0, 1], "fam": [1]},
            "B": {"np": [0, 5], "dist": [2.0], "smoke": [0, 1], "fam": [0]},
        },
        "priors": priors, "design": design}))
    return str(config)


@pytest.mark.parametrize("priors, design, key", [
    ({"np": float("nan"), "smoke": -1.0}, {"size": 3}, "priors.np"),
    ({"np": [1], "smoke": -1.0}, {"size": 3}, "priors.np"),
    ({"np": None, "smoke": -1.0}, {"size": 3}, "priors.np"),
    ({"np": 0.1, "smoke": -1.0}, {"size": [3]}, "design.size"),
    ({"np": 0.1, "smoke": -1.0}, {"size": 3, "with_replacement": "false"},
     "design.with_replacement"),
    ({"np": 0.1, "smoke": -1.0}, {"size": 3, "iterations": 0}, "iterations"),
    ({"np": 0.1, "smoke": -1.0}, {"size": 3, "iterations": -1},
     "iterations"),
])
def test_design_bad_config_value_exit_2(tmp_path, capsys, priors, design,
                                        key):
    code = main(["design", "--config",
                 small_design_config(tmp_path, priors, design)])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flags, design, value", [
    (["--seed", "-1"], {"size": 3}, "-1"),
    ([], {"size": 3, "seed": -3}, "-3"),
])
def test_design_negative_seed_exit_2(tmp_path, capsys, flags, design, value):
    config = small_design_config(tmp_path, {"np": 0.1, "smoke": -1.0},
                                 design)
    assert main(["design", "--config", config, *flags]) == 2
    assert f"seed must be >= 0, got {value}" in capsys.readouterr().err


def test_simulate_negative_seed_exit_2(tmp_path, params2, scenarios_csv,
                                       capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--params", params2, "--scenarios",
                 scenarios_csv, "--n", "2", "--seed", "-1",
                 "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_design_with_float_flag_levels_then_predict(tmp_path, capsys):
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np"}, {"attr": "smoke"}]},
        "levels": {
            "A": {"np": [0, 5], "dist": [4.0], "smoke": [0.0, 1.0],
                  "fam": [1.0]},
            "B": {"np": [0, 5], "dist": [2.0], "smoke": [0.0, 1.0],
                  "fam": [0.0]},
        },
        "priors": {"np": 0.1, "smoke": -1.0},
        "design": {"size": 3}}))
    design_csv = tmp_path / "design.csv"
    assert main(["design", "--config", str(config),
                 "--out", str(design_csv)]) == 0
    out = capsys.readouterr().out
    assert "smoke=0)" in out or "smoke=1)" in out
    assert "smoke=0.0" not in out and "smoke=1.0" not in out
    rows = design_csv.read_text().splitlines()
    assert all(row.split(",")[3] in ("0", "1") for row in rows[1:-1])
    params = write_params(tmp_path / "params.csv",
                          {"np": (0.1, 0.01), "smoke": (-1.0, 0.1)})
    assert main(["predict", "--params", params, "--scenarios",
                 str(design_csv)]) == 0


def test_design_non_numeric_level_exit_2(tmp_path, capsys):
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np"}]},
        "levels": {
            "A": {"np": [0, None], "dist": [4.0], "smoke": [0], "fam": [1]},
            "B": {"np": [0], "dist": [2.0], "smoke": [0], "fam": [0]},
        },
        "priors": {"np": 0.1},
        "design": {"size": 2}}))
    assert main(["design", "--config", str(config)]) == 2
    assert "levels.A.np[1]" in capsys.readouterr().err


@pytest.mark.parametrize("flags, options, named", [
    (["--tol", "nan"], {}, "tol"), (["--tol", "inf"], {}, "tol"),
    (["--tol", "0"], {}, "tol"), (["--max-iter", "-5"], {}, "max_iter"),
    (["--max-iter", "0"], {}, "max_iter"), ([], {"max_iter": 0}, "max_iter"),
])
def test_estimate_bad_tol_or_max_iter_exit_2(tmp_path, params2, scenarios_csv,
                                             capsys, flags, options, named):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "5", "--out", str(sim)]) == 0
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"version": 1, "estimate": options}))
    assert main(["estimate", "--data", str(sim), "--config", str(config),
                 *flags]) == 2
    assert named in capsys.readouterr().err


def test_estimate_string_flag_in_config_exit_2(tmp_path, params2,
                                               scenarios_csv, capsys):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "5", "--out", str(sim)]) == 0
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": "np", "first_choice": "false"}]}}))
    assert main(["estimate", "--data", str(sim), "--config", str(config)]) == 2
    assert "model.terms[0].first_choice" in capsys.readouterr().err


@pytest.mark.parametrize("out", [1, True])
def test_design_non_string_out_exit_2(tmp_path, capfd, out):
    config = Path(small_design_config(tmp_path, {"np": 0.1, "smoke": -1.0},
                                      {"size": 3}))
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "out": out}))
    assert main(["design", "--config", str(config)]) == 2
    printed, err = capfd.readouterr()
    assert "config.out" in err
    assert printed == ""


@pytest.mark.parametrize("repeated, key", [
    ('"design": {"size": 2}, "design": {"size": 3}', "design"),
    ('"design": {"size": 2, "size": 3}', "size"),
], ids=["section", "design.size"])
def test_design_repeated_config_key_exit_2(tmp_path, capfd, repeated, key):
    # json alone keeps the last value of a repeated key
    config = Path(small_design_config(tmp_path, {"np": 0.1, "smoke": -1.0},
                                      {"size": 2}))
    config.write_text(config.read_text().replace('"design": {"size": 2}',
                                                 repeated))
    assert repeated in config.read_text()
    out = tmp_path / "design.csv"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 2
    printed, err = capfd.readouterr()
    assert f"config repeats the key '{key}'" in err
    assert printed == ""
    assert not out.exists()


def test_estimate_non_string_out_exit_2(tmp_path, params2, scenarios_csv,
                                        capsys):
    sim = tmp_path / "sim.csv"
    assert main(["simulate", "--params", params2, "--scenarios", scenarios_csv,
                 "--n", "5", "--out", str(sim)]) == 0
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"version": 1, "out": ["x"]}))
    assert main(["estimate", "--data", str(sim), "--config", str(config)]) == 2
    assert "config.out" in capsys.readouterr().err


@pytest.mark.parametrize("option, named", [
    ({"familiarity": []}, "sweep.familiarity"),
    ({"familiarity": ["A", "A"]}, "sweep.familiarity"),
    ({"alpha": 2}, "alpha"), ({"alpha": -1}, "alpha"),
])
def test_sensitivity_result_changing_sweep_exit_2(tmp_path, params2, capsys,
                                                  option, named):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "version": 1,
        "sweep": {"attribute": "np", "start": 0, "stop": 10, "step": 0.5,
                  "familiarity": ["A", "B"], **option}}))
    out = tmp_path / "curve.csv"
    assert main(["sensitivity", "--params", params2, "--config", str(config),
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def overflowing_params(tmp_path):
    return write_params(tmp_path / "huge.csv",
                        {"np": (1e308, 0.1), "dist": (1e308, 0.1)})


def test_predict_overflowing_utility_exit_2(tmp_path, overflowing_params,
                                            scenarios_csv, capsys):
    out = tmp_path / "probs.csv"
    assert main(["predict", "--params", overflowing_params, "--scenarios",
                 scenarios_csv, "--out", str(out)]) == 2
    assert "scenario '1': a utility is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_overflowing_utility_exit_2(tmp_path, overflowing_params,
                                             scenarios_csv, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--params", overflowing_params, "--scenarios",
                 scenarios_csv, "--n", "3", "--out", str(out)]) == 2
    assert "scenario '1': a utility is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_overflowing_information_exit_2(tmp_path, capsys):
    # a finite occupancy of 1e300 at one exit of scenario 3: its utilities
    # at the zero start are finite, its information is not
    battery = list(ref.EXPERIMENT_SCENARIOS)
    huge = battery[2]
    battery[2] = Scenario(id=huge.id, alternatives=(
        (huge.labels[0], replace(huge.alternatives[0][1], np=1e300)),
        *huge.alternatives[1:]))
    data = tmp_path / "huge.csv"
    io.write_choice_csv(data, [
        ChoiceObservation(participant_id=f"p{i}", scenario=s, chosen=i % 3)
        for i, s in enumerate(battery * 3)])
    assert main(["estimate", "--data", str(data)]) == 2
    assert capsys.readouterr().err == (
        f"error: scenario '{huge.id}': its information is not finite; its "
        "attributes are too large\n")


def reference_design_config(tmp_path, np_levels_a, prior_np):
    """The reference design config with exit A's occupancy levels and the
    occupancy prior replaced."""
    levels = {label: {attr: list(values) for attr, values in per.items()}
              for label, per in ref.EXPERIMENT_LEVELS.levels.items()}
    levels["A"]["np"] = np_levels_a
    priors = {name: est for name, (est, _) in ref.POOLED_ESTIMATES.items()}
    config = tmp_path / "design.json"
    config.write_text(json.dumps({
        "version": 1,
        "model": {"terms": [{"attr": a} for a, _ in ref.POOLED_SPEC.terms]},
        "levels": levels, "priors": {**priors, "np": prior_np},
        "design": {"size": 8}}))
    return str(config)


def test_design_overflowing_utility_exit_2(tmp_path, capsys):
    # candidate 1537 is the first with exit A at np = 1e308: 10 * 1e308
    # overflows
    config = reference_design_config(tmp_path, [0, 1, 5, 1e308], 10)
    assert main(["design", "--config", config]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 1537: a utility is not finite; the coefficients "
        "are too large for its attributes\n")


def test_design_huge_finite_levels_still_search(tmp_path, capsys):
    # np levels up to 1e300 at the reference prior keep every candidate's
    # information finite
    config = reference_design_config(
        tmp_path, [0, 1, 5, 1e300], ref.POOLED_ESTIMATES["np"][0])
    assert main(["design", "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "searched 2048 candidate scenarios; selected 8 with d-error 0.171679")


def test_readme_run_config_runs(tmp_path, params2):
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    config = tmp_path / "run.json"
    config.write_text(block)
    assert main(["design", "--config", str(config),
                 "--out", str(tmp_path / "design.csv")]) == 0
    assert main(["sensitivity", "--params", params2, "--config", str(config),
                 "--out", str(tmp_path / "curves.csv")]) == 0
