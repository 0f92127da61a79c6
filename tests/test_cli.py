import json
import time
from fractions import Fraction

import pytest

from nilcone import cli
from nilcone import oracle as oc
from nilcone.errors import DiagnosticError, InputError


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grade_json(capsys):
    code, out, _ = _run(capsys, "grade", "--form", "su(2,1)", "--H", "2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical_weight"]["coords"] == [0, 0]
    assert payload["layers"]["2"]["dims"] == [0, 2]


def test_grade_explicit_type(capsys):
    code, out, _ = _run(capsys, "grade", "--type", "A", "--rank", "1",
                        "--epsilon", "-1", "--H", "2")
    assert code == 0
    assert json.loads(out)["canonical_weight"]["coords"] == [2]


def test_malformed_epsilon_is_input_error(capsys):
    code, _, err = _run(capsys, "grade", "--type", "A", "--rank", "2",
                        "--epsilon", "-1", "--H", "2,2")
    assert code == 2
    assert "error" in json.loads(err)


def test_out_of_scope_form(capsys):
    code, _, err = _run(capsys, "grade", "--form", "sl(3,R)", "--H", "2,2")
    assert code == 2
    assert "out of scope" in json.loads(err)["error"]


def test_bott_command(capsys):
    code, out, _ = _run(capsys, "bott", "--form", "su(2,1)", "--weight", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim"] == 3  # adjoint of the compact gl(2) factor


def test_verify_vanishing_pass_and_gate(capsys):
    code, out, _ = _run(capsys, "verify-vanishing", "--form", "su(2,1)",
                        "--H", "2,2", "--lambda", "0,0", "--N", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert [d["dims"] for d in payload["per_degree"]] == [1, 4, 9, 16, 25, 36, 49]

    code, out, _ = _run(capsys, "verify-vanishing", "--form", "su(2,1)",
                        "--H", "2,2", "--lambda=-1,0", "--N", "4")
    assert code == 2
    assert json.loads(out)["verdict"] == "HYPOTHESIS-UNMET"


def test_hilbert_command(capsys):
    code, out, _ = _run(capsys, "hilbert", "--form", "su(1,1)", "--H", "2",
                        "--N", "5")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1, 1, 1, 1, 1]


def test_blattner_command(capsys):
    code, out, _ = _run(capsys, "blattner", "--form", "su(2,1)", "--H", "2,2",
                        "--mu", "0,0", "--lambda", "0,0")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 1


def test_components_command(capsys):
    code, out, _ = _run(capsys, "components", "--form", "su(1,1)",
                        "--H", "2", "--H=-2", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dims"] == [2, 2, 2, 2, 2]
    assert payload["per_component_dims"] == [[1] * 5, [1] * 5]


def test_oracle_verify_grading(capsys):
    code, out, _ = _run(capsys, "oracle", "verify-grading", "--form", "su(2,1)",
                        "--H", "2,2")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_oracle_triple(capsys):
    code, out, _ = _run(capsys, "oracle", "triple", "--form", "su(1,1)",
                        "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["identities_exact"] is True
    assert payload["orbit_dim"] == payload["nilcone_dim"] == 1


def test_qct_report_command(capsys):
    code, out, _ = _run(capsys, "qct-report", "--form", "su(1,1)", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "EVIDENCE"
    assert payload["G1_evidence"]["component_count_evidence"] == 2


def test_verify_pipeline_and_json_out(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "verify", "--form", "su(1,1)", "--N", "6",
                        "--seed", "7", "--json-out", str(out_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert json.loads(out_path.read_text()) == payload


def test_verify_reports_are_bit_identical(capsys):
    code1, out1, _ = _run(capsys, "verify", "--form", "su(1,1)", "--seed", "7",
                          "--checks", "grading,theta,canonical,blattner")
    code2, out2, _ = _run(capsys, "verify", "--form", "su(1,1)", "--seed", "7",
                          "--checks", "grading,theta,canonical,blattner")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_out_of_scope(capsys):
    code, _, err = _run(capsys, "verify", "--form", "sl(3,R)")
    assert code == 2
    assert "out of scope" in json.loads(err)["error"]


def test_run_config(tmp_path, capsys):
    config = {"form": "su(1,1)", "H": [2], "N": 6, "seed": 7,
              "checks": ["grading", "theta", "dense", "canonical"],
              "out": str(tmp_path / "r.json")}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert (tmp_path / "r.json").exists()


def test_run_config_rejects_malformed(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"N": 4}))
    code, _, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 2


def test_hilbert_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "dims.csv"
    code, out, _ = _run(capsys, "hilbert", "--form", "su(2,1)", "--H", "2,2",
                        "--N", "3", "--csv-out", str(csv_path))
    assert code == 0
    assert csv_path.read_text() == "k,dim\n0,1\n1,4\n2,9\n3,16\n"


def test_verify_writes_nothing_to_home(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--form", "su(1,1)", "--seed", "7",
            "--checks", "grading,theta,canonical,blattner"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert not list(tmp_path.iterdir())


def test_run_config_with_explicit_grading_and_weight(tmp_path, capsys):
    config = {"form": "su(2,1)", "H": [2, 2], "lambda": [0, 0], "N": 6,
              "seed": 7}
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    canonical = [c for c in payload["checks"] if c["check"] == "canonical"][0]
    assert canonical["detail"]["combinatorial"]["coords"] == [0, 0]


def test_non_integral_lambda_is_input_error(tmp_path, capsys):
    # no line bundle O(lambda) exists, so no check may run and call it PASS
    for lam in (["1/3", "0"], ["1/2", 0], [0], ["x", 0]):
        with pytest.raises(InputError):
            cli.verify_form("su(2,1)", N=3, lam_list=lam, checks=("vanishing",))
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(2,1)", "lambda": ["1/3", 0],
                                    "checks": ["vanishing"], "N": 3}))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT
    assert out == "" and "not integral" in json.loads(err)["error"]
    report = cli.verify_form("su(2,1)", N=3, lam_list=["1", "0"],
                             checks=("vanishing",))
    assert report["checks"][0]["verdict"] == "PASS"


def test_verify_su21_full_pipeline(capsys):
    code, out, _ = _run(capsys, "verify", "--form", "su(2,1)", "--N", "6",
                        "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    hilbert = [c for c in payload["checks"] if c["check"] == "hilbert"][0]
    assert hilbert["detail"]["series"] == hilbert["detail"]["oracle"]


def test_oracle_subcommand_requires_form(capsys):
    code, _, err = _run(capsys, "oracle", "triple", "--type", "A", "--rank",
                        "1", "--epsilon", "-1")
    assert code == 2


def test_run_config_with_odd_grading_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(1,1)", "H": [1]}))
    code, _, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 2
    assert "odd orbit" in json.loads(err)["error"]


def test_budget_exhausted_check_is_inconclusive(monkeypatch):
    def stalls(*args, **kwargs):
        raise DiagnosticError("evaluation ranks did not stabilize", partial=[1, 4, 9])

    monkeypatch.setattr(oc, "coordinate_ring_dims", stalls)
    report = cli.verify_form("su(2,1)", kmax=3, checks=("grading", "hilbert"))
    verdicts = {c["check"]: c for c in report["checks"]}
    assert verdicts["grading"]["verdict"] == "PASS"
    assert verdicts["hilbert"]["verdict"] == "INCONCLUSIVE"
    assert verdicts["hilbert"]["detail"] == {
        "error": "evaluation ranks did not stabilize", "partial": [1, 4, 9]}
    assert report["verdict"] == "INCONCLUSIVE"
    assert cli._exit_code(report) == 2

    # FAIL > INCONCLUSIVE > HYPOTHESIS-UNMET
    unmet = cli.verify_form("su(2,1)", kmax=3, checks=("vanishing", "hilbert"),
                            lam_list=[-1, 0])
    assert [c["verdict"] for c in unmet["checks"]] == ["HYPOTHESIS-UNMET",
                                                       "INCONCLUSIVE"]
    assert unmet["verdict"] == "INCONCLUSIVE"
    monkeypatch.setattr(oc, "verify_grading_dims", lambda *args: (False, {}))
    failed = cli.verify_form("su(2,1)", kmax=3, checks=("grading", "hilbert"))
    assert failed["verdict"] == "FAIL" and cli._exit_code(failed) == 1


def test_qct_evidence_is_billed_to_qct(monkeypatch):
    def slow_evidence(real, seed, cone_dim=None):
        time.sleep(0.2)
        return {"degenerate": True, "seed": seed}

    monkeypatch.setattr(oc, "qct_evidence", slow_evidence)
    report = cli.verify_form("su(1,1)", checks=("components", "qct"), timings=True)
    seconds = {c["check"]: c["seconds"] for c in report["checks"]}
    assert seconds["qct"] >= 0.2 > seconds["components"]
    untimed = cli.verify_form("su(1,1)", checks=("components", "qct"))
    assert all("seconds" not in c for c in untimed["checks"])


def test_checks_are_parsed_for_verify_and_run(tmp_path, capsys):
    code, out, err = _run(capsys, "verify", "--form", "su(1,1)", "--checks", "vanish")
    assert code == cli.EXIT_INPUT and out == ""
    assert "vanish" in json.loads(err)["error"]
    report = cli.run({"form": "su(1,1)", "checks": "hilbert"})
    assert [c["check"] for c in report["checks"]] == ["hilbert"]
    report = cli.run({"form": "su(1,1)", "checks": "grading, theta"})
    assert [c["check"] for c in report["checks"]] == ["grading", "theta"]
    for checks in ([], "", ["grading", "vanish"], ["all", "theta"], 3, [None]):
        with pytest.raises(InputError):
            cli.run({"form": "su(1,1)", "checks": checks})
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(1,1)", "checks": []}))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert cli.parse_checks("all") == cli.parse_checks(["all"]) == cli.ALL_CHECKS


@pytest.mark.parametrize("text", [
    json.dumps({"form": "su(1,1)", "H": ["two"]}),
    json.dumps({"form": "su(1,1)", "H": 2}),
    json.dumps({"form": "su(1,1)", "N": "six"}),
    json.dumps({"form": "su(1,1)", "seed": [7]}),
    json.dumps({"form": "su(1,1)", "kmax": 2.5}),
    json.dumps({"form": "su(1,1)", "N": True}),
    json.dumps(["su(1,1)"]),
    '{"form": "su(1,1)", "N": ',
])
def test_malformed_run_config_is_input_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(text)
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert "error" in json.loads(err)


def test_stalled_search_reports_partial_as_json(monkeypatch, capsys):
    def stalls(real, seed):
        raise DiagnosticError("principal search stalled",
                              partial=[[Fraction(1, 2), Fraction(0)], (1, 2)])

    monkeypatch.setattr(oc, "principal_nilpotent_search", stalls)
    code, out, err = _run(capsys, "oracle", "triple", "--form", "su(1,1)")
    assert code == cli.EXIT_INPUT and out == ""
    assert json.loads(err) == {"error": "principal search stalled",
                               "partial": [["1/2", "0"], [1, 2]]}
