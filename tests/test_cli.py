import json
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilcone import cli
from nilcone import grading as gr
from nilcone import oracle as oc
from nilcone import realform as rf
from nilcone import series as se
from nilcone.errors import DiagnosticError, InputError, OutOfScopeError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


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


def test_grade_explicit_type_takes_a_dashed_epsilon_after_equals(capsys):
    # README's example of an unnamed form: a value that starts with a dash
    # is given as --epsilon=value, and it grades as the named form does
    code, out, _ = _run(capsys, "grade", "--type", "A", "--rank", "2",
                        "--epsilon=-1,-1", "--H", "2,2")
    assert code == 0
    _, named, _ = _run(capsys, "grade", "--form", "su(2,1)", "--H", "2,2")
    assert json.loads(out)["layers"] == json.loads(named)["layers"]


def test_grade_reads_a_catalog_form_or_a_type_rank_and_epsilon(capsys):
    # a catalog name takes the catalog's signs; an explicit type needs a
    # rank and one sign per simple root
    code, out, _ = _run(capsys, "grade", "--form", "su(2,1)", "--H", "2,2")
    assert code == 0
    layers = json.loads(out)["layers"]
    assert layers["2"]["p_roots"] == [[1, 0], [0, 1]]
    assert layers["4"]["k_roots"] == [[1, 1]]
    code, out, _ = _run(capsys, "grade", "--type", "A", "--rank", "2",
                        "--epsilon=-1,-1", "--H", "2,2")
    assert code == 0
    assert json.loads(out)["layers"] == layers
    for argv in (["--type", "A", "--rank", "2", "--epsilon=-1"],
                 ["--type", "A", "--epsilon=-1,-1"]):
        code, out, err = _run(capsys, "grade", *argv, "--H", "2,2")
        assert (code, out) == (2, "")
        assert "error" in json.loads(err)


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


# nilcone bott's stdout, byte for byte, on a regular dominant, a singular
# and a non-dominant weight of each form
_BOTT_PINS = [
    ("su(2,1)", "2,2",  # regular
     '{"form": "su(2,1)", "per_degree": {"0": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [2, 2]}}]}, "total_dim": 5, '
     '"weight": {"basis": "fw", "coords": [2, 2]}}'),
    ("su(2,1)", "-1,0",  # singular
     '{"form": "su(2,1)", "per_degree": {}, "total_dim": 0, '
     '"weight": {"basis": "fw", "coords": [-1, 0]}}'),
    ("su(2,1)", "-2,-2",  # non-dominant
     '{"form": "su(2,1)", "per_degree": {"1": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [1, 1]}}]}, "total_dim": 3, '
     '"weight": {"basis": "fw", "coords": [-2, -2]}}'),
    ("sp(4,R)", "2,2",  # regular
     '{"form": "sp(4,R)", "per_degree": {"0": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [2, 2]}}]}, "total_dim": 7, '
     '"weight": {"basis": "fw", "coords": [2, 2]}}'),
    ("sp(4,R)", "-1,0",  # singular
     '{"form": "sp(4,R)", "per_degree": {}, "total_dim": 0, '
     '"weight": {"basis": "fw", "coords": [-1, 0]}}'),
    ("sp(4,R)", "-2,-2",  # non-dominant
     '{"form": "sp(4,R)", "per_degree": {"1": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [-2, 3]}}]}, "total_dim": 5, '
     '"weight": {"basis": "fw", "coords": [-2, -2]}}'),
    ("so*(8)", "2,2,2,0",  # regular
     '{"form": "so*(8)", "per_degree": {"0": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [2, 2, 2, 0]}}]}, '
     '"total_dim": 729, "weight": {"basis": "fw", "coords": [2, 2, 2, '
     '0]}}'),
    ("so*(8)", "-1,0,0,0",  # singular
     '{"form": "so*(8)", "per_degree": {}, "total_dim": 0, '
     '"weight": {"basis": "fw", "coords": [-1, 0, 0, 0]}}'),
    ("so*(8)", "-2,-2,-2,0",  # non-dominant
     '{"form": "so*(8)", "per_degree": {"6": [{"mult": 1, '
     '"weight": {"basis": "fw", "coords": [0, 0, 0, -4]}}]}, '
     '"total_dim": 1, "weight": {"basis": "fw", "coords": [-2, -2, -2, '
     '0]}}'),
]


@pytest.mark.parametrize("form,weight,pin", _BOTT_PINS)
def test_bott_stdout_is_pinned(capsys, form, weight, pin):
    code, out, _ = _run(capsys, "bott", "--form", form, "--weight=" + weight)
    assert code == 0
    assert out == json.dumps(json.loads(pin), indent=2, sort_keys=True) + "\n"


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


def test_oracle_verify_grading_without_H_is_input_error(capsys):
    code, out, err = _run(capsys, "oracle", "verify-grading", "--form", "su(2,1)")
    assert code == cli.EXIT_INPUT and out == ""
    assert "comma-separated integers" in json.loads(err)["error"]


def test_oracle_hilbert(capsys):
    code, out, _ = _run(capsys, "oracle", "hilbert", "--form", "su(2,1)",
                        "--kmax", "4")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 4, 9, 16, 25]


def test_oracle_triple(capsys):
    code, out, _ = _run(capsys, "oracle", "triple", "--form", "su(1,1)",
                        "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["identities_exact"] is True
    assert payload["orbit_dim"] == payload["nilcone_dim"] == 1


def test_oracle_triple_reports_the_nilcone_dimension(monkeypatch, capsys):
    # nilcone_dim comes from nilcone_dimension, not from the orbit it found
    real = oc.realize("su(2,1)")
    x = oc.dense_element(real, (2, 2), 7)[1]
    monkeypatch.setattr(oc, "principal_nilpotent_search", lambda real, seed: x)
    monkeypatch.setattr(oc, "nilcone_dimension", lambda real, seed=None: "sentinel")
    code, out, _ = _run(capsys, "oracle", "triple", "--form", "su(2,1)")
    assert code == cli.EXIT_PASS
    payload = json.loads(out)
    assert payload["nilcone_dim"] == "sentinel" and payload["orbit_dim"] == 3


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


def test_unknown_config_key_is_refused_before_any_check(tmp_path, monkeypatch, capsys):
    # a misspelt key would otherwise run the default box and report PASS
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "verify_form", no_check)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(1,1)", "lamda": [1]}))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert "lamda" in json.loads(err)["error"]
    for key in ("timings", "lam_list", "epsilon"):
        with pytest.raises(InputError):
            cli.run({"form": "su(1,1)", key: None}, timings=False)


def test_run_refuses_h_search(tmp_path, monkeypatch, capsys):
    # leaving H out lets verify pick it; "search" is not a grading
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(oc, "dense_element", no_check)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(2,1)", "H": "search"}))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert json.loads(err)["error"] == "H must be a list of integers, got 'search'"
    with pytest.raises(InputError, match="got 'search'"):
        cli.run({"form": "su(2,1)", "H": "search"}, timings=False)


def test_verify_and_run_pass_on_only_what_was_given(monkeypatch, capsys):
    # the defaults of a job are written only in verify_form's signature
    seen = []

    def recorded(form, **kwargs):
        seen.append(dict(kwargs, form=form))
        return {"verdict": "PASS"}

    monkeypatch.setattr(cli, "verify_form", recorded)
    assert cli.main(["verify", "--form", "su(1,1)"]) == cli.EXIT_PASS
    assert cli.main(["verify", "--form", "su(1,1)", "--seed", "3",
                     "--checks", "theta"]) == cli.EXIT_PASS
    cli.run({"form": "su(1,1)", "lambda": [0], "kmax": 2}, timings=False)
    cli.run({"form": "su(1,1)", "H": [2], "N": 4}, timings=True)
    capsys.readouterr()
    assert seen == [
        {"form": "su(1,1)", "timings": False},
        {"form": "su(1,1)", "seed": 3, "checks": "theta", "timings": False},
        {"form": "su(1,1)", "lam_list": [0], "kmax": 2, "timings": False},
        {"form": "su(1,1)", "H": [2], "N": 4, "timings": True},
    ]


@pytest.mark.parametrize("form", workloads.PINNED_FORMS)
def test_a_report_reproduces_from_its_own_form_and_H(form, capsys):
    # one sign convention per form: run with a verify report's form and H
    # makes the same checks, and qct-report gives verify's qct detail
    report = cli.verify_form(form)
    rerun = cli.run({"form": report["form"], "H": report["H"]}, timings=False)
    assert (report["presentation"], rerun["presentation"]) == ("principal", "config")
    assert rerun["checks"] == report["checks"]
    assert rerun["verdict"] == report["verdict"]
    code, out, _ = _run(capsys, "qct-report", "--form", form,
                        "--seed", str(report["seed"]))
    qct = next(c for c in report["checks"] if c["check"] == "qct")
    assert code == cli.EXIT_PASS
    assert json.loads(out) == json.loads(json.dumps(qct["detail"]))


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


@pytest.mark.parametrize("config", [
    {"form": 5}, {"form": None}, {"form": ["su(1,1)"]},
    {"form": "su(1,1)", "out": 7}, {"form": "su(1,1)", "out": ["a"]},
    {"form": "su(1,1)", "out": True}],
    ids=["form-int", "form-null", "form-list", "out-int", "out-list", "out-true"])
def test_a_config_form_or_out_that_is_no_string_exits_2(config, tmp_path, monkeypatch,
                                                          capsys):
    # refused before any check: an int out would be a file descriptor and
    # True is fd 1, which the report would be written into and closed
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(oc, "dense_element", no_check)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == cli.EXIT_INPUT and out == ""
    assert "error" in json.loads(err)
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_form_name_that_is_no_string_is_an_input_error():
    for form in (5, None, ["su(1,1)"]):
        for call in (cli.verify_form, oc.realize, rf.standard_form_catalog):
            with pytest.raises(InputError, match="must be a string"):
                call(form)


@pytest.mark.parametrize("argv", [
    ("grade", "--form", "su(2,1)", "--H", "2,2", "--json-out", "{missing}"),
    ("hilbert", "--form", "su(2,1)", "--H", "2,2", "--N", "2", "--csv-out", "{missing}"),
    ("verify", "--form", "su(1,1)", "--checks", "theta", "--json-out", "{dir}"),
    ("run", "--config", "{config}")],
    ids=["grade-json-out", "hilbert-csv-out", "verify-json-out-dir", "run-out"])
def test_an_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    # the one writer turns the OSError into an input error, for --json-out,
    # --csv-out and a job's out alike (the last after every check has run)
    missing = tmp_path / "missing" / "x"
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"form": "su(1,1)", "checks": "theta",
                                  "out": str(missing)}))
    argv = [a.format(missing=missing, dir=tmp_path, config=config) for a in argv]
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_INPUT and out == ""
    assert json.loads(err)["error"].startswith("cannot write ")
    assert sorted(tmp_path.iterdir()) == [config]


def test_a_jobs_out_and_json_out_are_byte_equal_to_stdout(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"form": "su(1,1)", "checks": "theta,grading",
                                  "out": str(tmp_path / "out.json")}))
    code, out, _ = _run(capsys, "run", "--config", str(config),
                        "--json-out", str(tmp_path / "json-out.json"))
    assert code == cli.EXIT_PASS and out.endswith("}\n")
    assert (tmp_path / "out.json").read_text() == out
    assert (tmp_path / "json-out.json").read_text() == out


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
    # --form is required, --type/--rank/--epsilon are no options of
    # qct-report or oracle, and oracle takes one of its three subcommands:
    # argparse exits 2 before any work
    for argv in (["oracle", "triple", "--type", "A", "--rank", "1", "--epsilon=-1"],
                 ["oracle", "triple"], ["qct-report"],
                 ["oracle", "foo", "--form", "su(1,1)"],
                 ["qct-report", "--form", "su(1,1)", "--rank", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_run_config_with_odd_grading_is_input_error(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(1,1)", "H": [1]}))
    code, _, err = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 2
    assert "odd orbit" in json.loads(err)["error"]


@pytest.mark.parametrize("argv,root", [
    (("hilbert", "--form", "su(2,1)", "--H=-2,-2", "--N", "3"), [1, 1]),
    (("hilbert", "--form", "su(2,2)", "--H=-2,-2,-2"), [0, 1, 1]),
    (("verify-vanishing", "--form", "su(2,1)", "--H=-2,-2", "--lambda", "0,0"), [1, 1]),
    (("blattner", "--form", "su(2,1)", "--H=-2,-2", "--mu", "0,0", "--lambda", "0,0"),
     [1, 1]),
    (("components", "--form", "su(2,1)", "--H", "2,2", "--H=-2,-2", "--N", "2"), [1, 1]),
])
def test_an_H_whose_q_cap_k_misses_the_borel_of_k_is_refused(capsys, argv, root):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert "positive compact root %s" % root in error and "Borel of K" in error


def test_run_refuses_an_H_whose_q_cap_k_misses_the_borel_of_k(tmp_path, monkeypatch,
                                                               capsys):
    # refused before the matrix model builds H, so before any check runs:
    # an unmet hypothesis is no violation
    monkeypatch.setattr(oc, "dense_element", None)
    with pytest.raises(InputError, match=r"root \[1, 1\] has degree -4"):
        cli.run({"form": "su(2,1)", "H": [-2, -2]}, timings=False)
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(2,1)", "H": [-2, -2]}))
    code, out, err = _run(capsys, "run", "--config", str(cfg_path))
    assert (code, out) == (2, "")
    assert "Borel of K" in json.loads(err)["error"]


def test_a_torus_k_takes_either_chamber(capsys):
    # su(1,1) has no compact root, so H = -2 is graded and its series runs
    code, out, _ = _run(capsys, "hilbert", "--form", "su(1,1)", "--H=-2", "--N", "3")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1, 1, 1]


def test_a_torus_k_counts_blattner_in_either_chamber(capsys):
    # under H = -2 the weight of u cap p has negative height but positive phi
    code, out, _ = _run(capsys, "blattner", "--form", "su(1,1)", "--H=-2",
                        "--mu", "0", "--lambda", "0")
    assert code == 0
    assert json.loads(out)["multiplicity"] == 1


def test_a_torus_k_runs_the_blattner_identity_in_either_chamber():
    # under H = -2 the weight of u cap p has negative height, which the
    # graded identity does not need
    report = cli.run({"form": "su(1,1)", "H": [-2]}, timings=False)
    blattner = next(c for c in report["checks"] if c["check"] == "blattner")
    assert blattner == {"check": "blattner", "verdict": "PASS",
                        "detail": {"types_checked": 4}}
    assert report["verdict"] == "PASS"


# the engine call each check makes once the form is set up
_CHECK_ENGINES = {
    "grading": (oc, "verify_grading_dims"),
    "theta": (cli, "Root"),
    "dense": (oc, "orbit_dimension"),
    "canonical": (oc, "canonical_weight_from_matrices"),
    "vanishing": (se, "verify_vanishing_box"),
    "hilbert": (se, "hilbert_series"),
    "blattner": (se, "blattner_series_identity"),
    "components": (oc, "qct_evidence"),
    "qct": (oc, "qct_evidence"),
}


@pytest.mark.parametrize("check", cli.ALL_CHECKS)
def test_a_refusal_inside_a_check_is_hypothesis_unmet(check, tmp_path, monkeypatch,
                                                      capsys):
    def refuses(*args, **kwargs):
        raise InputError("refused inside %s" % check)

    monkeypatch.setattr(*_CHECK_ENGINES[check], refuses)
    report = cli.verify_form("su(2,1)", N=2, kmax=1, checks=(check,))
    assert report["checks"] == [{"check": check, "verdict": "HYPOTHESIS-UNMET",
                                 "detail": {"error": "refused inside %s" % check}}]
    assert report["verdict"] == "HYPOTHESIS-UNMET"
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"form": "su(2,1)", "N": 2, "kmax": 1,
                                    "checks": [check]}))
    code, out, _ = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 2 and json.loads(out)["verdict"] == "HYPOTHESIS-UNMET"


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
    assert cli._exit_code(report["verdict"]) == 2

    # FAIL > INCONCLUSIVE > HYPOTHESIS-UNMET
    unmet = cli.verify_form("su(2,1)", kmax=3, checks=("vanishing", "hilbert"),
                            lam_list=[-1, 0])
    assert [c["verdict"] for c in unmet["checks"]] == ["HYPOTHESIS-UNMET",
                                                       "INCONCLUSIVE"]
    assert unmet["verdict"] == "INCONCLUSIVE"
    monkeypatch.setattr(oc, "verify_grading_dims", lambda *args: (False, {}))
    failed = cli.verify_form("su(2,1)", kmax=3, checks=("grading", "hilbert"))
    assert failed["verdict"] == "FAIL" and cli._exit_code(failed["verdict"]) == 1


def test_dense_is_pass_only_at_the_cone_dimension(monkeypatch):
    def dense():
        return cli.verify_form("su(2,1)", checks=("dense",))["checks"][0]

    assert dense() == {"check": "dense", "verdict": "PASS",
                       "detail": {"orbit_dim": 3, "nilcone_dim": 3}}
    # a dense X of a smaller orbit resolves no component of the cone
    monkeypatch.setattr(oc, "nilcone_dimension", lambda real: 4)
    assert dense()["verdict"] == "HYPOTHESIS-UNMET"
    monkeypatch.setattr(oc, "dense_orbit_check", lambda real, layers, x: False)
    assert dense()["verdict"] == "FAIL"


def test_dense_reads_the_gradings_dense_element(tmp_path, capsys):
    # su(3,3) at (0,0,2,0,0): the sum of the degree-2 p basis is not dense
    # (orbit dim 5), a seeded sum is; its orbit is below the cone's, so the
    # hypothesis is unmet, and nothing failed
    config = {"form": "su(3,3)", "H": [0, 0, 2, 0, 0], "checks": ["dense"]}
    report = cli.run(config, timings=False)
    assert report["checks"] == [{"check": "dense", "verdict": "HYPOTHESIS-UNMET",
                                 "detail": {"orbit_dim": 9, "nilcone_dim": 15}}]
    assert report["verdict"] == "HYPOTHESIS-UNMET"
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "run", "--config", str(cfg_path))
    assert code == 2 and json.loads(out) == report


def test_qct_evidence_is_billed_to_the_check_that_computes_it(monkeypatch):
    def slow_evidence(real, seed, grading_orbit_dims=None):
        time.sleep(0.2)
        return {"label": "EVIDENCE", "degenerate": True}

    monkeypatch.setattr(oc, "qct_evidence", slow_evidence)
    # each check's seconds is its own wall time: components runs first and
    # computes the evidence, qct reuses it
    report = cli.verify_form("su(1,1)", checks=("components", "qct"), timings=True)
    seconds = {c["check"]: c["seconds"] for c in report["checks"]}
    assert seconds["components"] >= 0.2 > seconds["qct"]
    for only in ("components", "qct"):
        report = cli.verify_form("su(1,1)", checks=(only,), timings=True)
        assert [c["check"] for c in report["checks"]] == [only]
        assert report["checks"][0]["seconds"] >= 0.2
    untimed = cli.verify_form("su(1,1)", checks=("components", "qct"))
    assert all("seconds" not in c for c in untimed["checks"])


def test_verify_searches_the_gradings_once(monkeypatch):
    # a searched form's qct evidence reuses verify's grading search
    calls = []
    search = gr.search_even_gradings

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(gr, "search_even_gradings", counted)
    report = cli.verify_form("su(3,1)", seed=7)
    assert len(calls) == 1
    qct = next(c for c in report["checks"] if c["check"] == "qct")
    assert qct["detail"]["G2_evidence"]["even_grading_orbit_dims"] != []
    cli.verify_form("su(3,1)", seed=7, checks=("dense", "qct"))
    assert len(calls) == 2
    # without the search (a pinned form), qct still runs it itself
    cli.verify_form("su(2,1)", seed=7, checks=("qct",))
    assert len(calls) == 3


def test_verify_reports_of_searched_forms_match_the_fixture():
    # these forms have no pinned presentation, so verify searches their even
    # gradings; the reports at seed 7 are kept without timings.  The rank-5
    # forms cover the matrix model's Cartan dictionary where no benchmark
    # workload reaches.  Compared as parsed JSON, a matrix entry that turns
    # into a number where the report had a string fails here.
    path = Path(__file__).parent / "data" / "verify-searched.seed7.json"
    expected = json.loads(path.read_text())
    assert sorted(expected) == ["so*(10)", "so*(8)", "sp(2,2)", "sp(6,R)", "sp(8,R)",
                                "su(3,1)", "su(3,2)", "su(3,3)", "su(4,2)"]
    for form, report in expected.items():
        assert json.loads(json.dumps(cli.verify_form(form, seed=7))) == report


def test_checks_are_parsed_for_verify_and_run(tmp_path, capsys):
    code, out, err = _run(capsys, "verify", "--form", "su(1,1)", "--checks", "vanish")
    assert code == cli.EXIT_INPUT and out == ""
    assert "vanish" in json.loads(err)["error"]
    report = cli.run({"form": "su(1,1)", "checks": "hilbert"}, timings=False)
    assert [c["check"] for c in report["checks"]] == ["hilbert"]
    report = cli.run({"form": "su(1,1)", "checks": "grading, theta"}, timings=False)
    assert [c["check"] for c in report["checks"]] == ["grading", "theta"]
    for checks in ([], "", ["grading", "vanish"], ["all", "theta"], 3, [None]):
        with pytest.raises(InputError):
            cli.run({"form": "su(1,1)", "checks": checks}, timings=False)
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


def _readme_block(readme, lang, after):
    """The first ```lang block of README.md after the line `after`."""
    text = readme[readme.index(after):]
    start = text.index("```%s\n" % lang) + len(lang) + 4
    return text[start:text.index("```", start)]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = _readme_block(readme, "sh", "## Command line").splitlines()
    job = _readme_block(readme, "json", "`run` takes")
    (tmp_path / "job.json").write_text(job)
    monkeypatch.chdir(tmp_path)
    assert commands
    # the example documents every key the reader takes, and only those
    config = json.loads(job)
    assert sorted(config) == sorted(cli._JOB_KEYS)
    assert cli.run(config, timings=False)["verdict"] == "PASS"
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "nilcone", line
        assert cli.main(argv[1:]) == cli.EXIT_PASS, (line, capsys.readouterr().err)
    assert (tmp_path / "dims.csv").is_file() and (tmp_path / "report.json").is_file()


_TABLE_A_FORMS = ("su(1,1)", "su(2,1)", "sp(4,R)", "su(2,2)", "su(3,1)", "sp(6,R)",
                  "su(3,2)", "so*(8)", "su(4,2)", "su(3,3)", "so*(10)", "sp(2,2)",
                  "sp(8,R)")


@pytest.mark.parametrize("name", _TABLE_A_FORMS)
def test_int_twist_box_equals_the_benchmark_box(name):
    # the benchmark rebuilds the box from Weights and rs.pairing
    rs, eps = rf.standard_form_catalog(name)
    try:
        presentations = [rf.principal_presentation(name)[1:]]
    except OutOfScopeError:
        presentations = [(eps, h) for h in ((0,) * rs.rank, (2,) + (0,) * (rs.rank - 1),
                                            (0,) * (rs.rank - 1) + (2,))]
    for eps, h in presentations:
        gd = gr.grade(rs, eps, h)
        kd, pd = gd.k_root_datum(), gr.parabolic(gd)
        box = cli._qk_dominant_box(rs, pd, kd)
        assert box == workloads.qk_dominant_box(rs, pd, kd, bound=2)
        assert box


def test_negative_degree_bound_is_refused_before_any_check(monkeypatch):
    # a negative degree bound leaves nothing to check, so verify_form
    # refuses it before building the form
    def no_form(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "standard_form_catalog", no_form)
    for kwargs in ({"N": -1, "checks": ("vanishing",)},
                   {"N": -2, "checks": ("blattner",)},
                   {"kmax": -1, "checks": ("hilbert",)},
                   {"N": "-1"}):
        with pytest.raises(InputError):
            cli.verify_form("su(2,1)", **kwargs)
        with pytest.raises(InputError):
            cli.run({"form": "su(2,1)", **kwargs}, timings=False)


@pytest.mark.parametrize("argv", [
    "verify --form su(1,1) --N -1 --checks vanishing",
    "verify --form su(2,1) --N -2 --checks blattner",
    "verify --form su(2,1) --kmax -1 --checks hilbert",
    "verify-vanishing --form su(2,1) --H 2,2 --lambda 0,0 --N -1",
    "hilbert --form su(2,1) --H 2,2 --N -3",
    "components --form su(2,1) --H 2,2 --N -1",
    "oracle hilbert --form su(2,1) --kmax -2",
])
def test_negative_degree_bound_exits_2(capsys, argv):
    code, out, err = _run(capsys, *shlex.split(argv))
    assert code == cli.EXIT_INPUT and out == ""
    assert ">= 0" in json.loads(err)["error"]


def test_oracle_hilbert_refuses_a_negative_kmax_before_the_search(monkeypatch, capsys):
    def no_search(real, seed):
        raise AssertionError("the principal search ran")

    monkeypatch.setattr(oc, "principal_nilpotent_search", no_search)
    code, out, err = _run(capsys, "oracle", "hilbert", "--form", "su(3,3)",
                          "--kmax", "-2", "--seed", "0")
    assert code == cli.EXIT_INPUT and out == ""
    assert json.loads(err)["error"] == "kmax must be >= 0, got -2"


def test_zero_degree_bounds_still_run(capsys):
    report = cli.verify_form("su(2,1)", N=0, kmax=0,
                             checks=("vanishing", "hilbert", "blattner"))
    assert [c["verdict"] for c in report["checks"]] == ["PASS"] * 3
    assert report["checks"][1]["detail"] == {"series": [1], "oracle": [1]}
    assert report["checks"][2]["detail"] == {"types_checked": 1}
    for argv, key, want in (
            ("verify-vanishing --form su(2,1) --H 2,2 --lambda 0,0 --N 0", "verdict", "PASS"),
            ("hilbert --form su(2,1) --H 2,2 --N 0", "dims", [1]),
            ("components --form su(2,1) --H 2,2 --N 0", "total_dims", [1]),
            ("oracle hilbert --form su(2,1) --kmax 0", "dims", [1])):
        code, out, _ = _run(capsys, *shlex.split(argv))
        assert code == 0 and json.loads(out)[key] == want
