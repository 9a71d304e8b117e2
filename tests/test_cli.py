"""End-to-end command-line tests driving ``main`` directly."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wavelqg import analysis, cli, oracle, simulator, synthesis
from wavelqg.cli import main
from wavelqg.params import NondimParams
from wavelqg.spectral import rfft_half

SVG = "{http://www.w3.org/2000/svg}"
DECENTRAL = ["--pi1", "0.5", "--pi2", "1", "--pi3", "4", "--pi4", "4",
           "--n", "4"]


def test_synth_writes_gain_files_and_verdict(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert main(["synth", *DECENTRAL, "--out", out]) == 0
    text = capsys.readouterr().out
    assert f"wrote {out}_lqr.json" in text
    assert f"wrote {out}_kf.json" in text
    assert "offdiag_mass(K1)" in text and "offdiag_mass(L2)" in text
    assert "completely decentralized output feedback" in text

    payload = json.loads((tmp_path / "g_lqr.json").read_text())
    assert payload["kind"] == "lqr"
    assert payload["pi"]["pi1"] == 0.5
    # at pi3 = pi4 = 2/pi1 the position gain is the constant 4 I
    assert np.allclose(payload["block1_first_row"], [4.0, 0.0, 0.0, 0.0],
                       atol=1e-12)


def test_synth_at_tiny_pi3_pi4_writes_both_files(tmp_path):
    # pi3**2 far below d**2: the gain spectra must still be mirror-symmetric
    out = str(tmp_path / "g")
    assert main(["synth", "--pi1", "0", "--pi3", "1e-6", "--pi4", "1e-6",
                 "--out", out]) == 0
    assert (tmp_path / "g_lqr.json").exists()
    assert (tmp_path / "g_kf.json").exists()


def test_verify_passes_at_small_pi3_pi4():
    assert main(["verify", "--pi1", "0", "--pi3", "1e-3",
                 "--pi4", "1e-3"]) == 0


def test_verify_passes_at_pi3_pi4_1e_6(capsys):
    # the closed forms' absolute Riccati residual is about 1.04e-9 here;
    # their backward error, which the check scores, is at roundoff
    assert main(["verify", "--pi1", "0", "--pi3", "1e-6", "--pi4", "1e-6",
                 "--n", "30"]) == 0
    assert capsys.readouterr().out.count("[ok ]") == 4


def test_verify_passes_where_dense_eigenvalues_misread_the_loop(capsys):
    # eigenvalues of the dense 4n x 4n loop read an abscissa of +4.5e-2
    # here; the per-frequency poles give -4.0e-3
    assert main(["verify", "--pi1", "0", "--pi2", "5740", "--pi3", "9.2e5",
                 "--pi4", "0.016", "--n", "52"]) == 0
    assert capsys.readouterr().out.count("[ok ]") == 4


def test_verify_passes_at_large_pi2(capsys):
    # kc >> k0 here: a 3x3 solve for each Newton step's Lyapunov equation
    # is conditioned near 2.5e9 and loses x12 = k0 / pi3**2 to roundoff,
    # reading a gain deviation of 1.8
    assert main(["verify", "--pi1", "0", "--pi2", "3.84e9", "--pi3", "0.641",
                 "--pi4", "3.49e-10", "--n", "50"]) == 0
    assert capsys.readouterr().out.count("[ok ]") == 4


def test_check_file_passes_at_an_extreme_point(tmp_path, capsys):
    # the absolute Riccati residual of the LQR file is 1.4e-9 here; its
    # backward error, which the audit scores, is at roundoff
    out = str(tmp_path / "g")
    assert main(["synth", "--pi1", "933016.9844489184",
                 "--pi2", "0.002590554118736111",
                 "--pi3", "0.747505060083648",
                 "--pi4", "160.64235925620508", "--n", "39",
                 "--out", out]) == 0
    for kind in ("lqr", "kf"):
        assert main(["verify", "--check-file", f"{out}_{kind}.json"]) == 0


def test_synth_reports_non_decentralizable_at_pi1_zero(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert main(["synth", "--pi1", "0", "--n", "4", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "not decentralizable (pi1=0)" in text


def test_synth_single_kind(tmp_path, capsys):
    out = str(tmp_path / "only")
    assert main(["synth", *DECENTRAL, "--kind", "kf", "--out", out]) == 0
    assert (tmp_path / "only_kf.json").exists()
    assert not (tmp_path / "only_lqr.json").exists()


def test_synth_is_deterministic(tmp_path):
    out = str(tmp_path / "g")
    main(["synth", *DECENTRAL, "--out", out])
    first = (tmp_path / "g_lqr.json").read_bytes()
    main(["synth", *DECENTRAL, "--out", out])
    assert (tmp_path / "g_lqr.json").read_bytes() == first


def test_synth_writes_nothing_when_a_set_fails(tmp_path, monkeypatch,
                                              capsys):
    # both sets are serialized before any file is opened, so a failure on
    # the filter set leaves no regulator file behind
    to_dict = synthesis.gain_set_to_dict

    def failing(gs):
        if gs.kind is synthesis.GainKind.KF:
            raise ValueError("cannot serialize")
        return to_dict(gs)

    monkeypatch.setattr(synthesis, "gain_set_to_dict", failing)
    assert main(["synth", *DECENTRAL, "--out", str(tmp_path / "g")]) == 2
    assert "cannot serialize" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# one run per command that writes two outputs, with the names of the
# first and the second; {tmp} is the test's directory
WRITERS = {
    "synth": (["synth", *DECENTRAL, "--out", "{tmp}/g"],
              "g_lqr.json", "g_kf.json"),
    "sweep": (["sweep", "--pi1-count", "3", "--pi34-count", "3", "--n", "4",
               "--out", "{tmp}/s.csv", "--heatmap", "{tmp}/h.svg"],
              "s.csv", "h.svg"),
    "simulate": (["simulate", *DECENTRAL, "--t-final", "1",
                  "--summary-json", "{tmp}/s.json", "--traj-csv",
                  "{tmp}/t.csv"],
                 "s.json", "t.csv"),
}


def _writer(tmp_path, command):
    argv, first, second = WRITERS[command]
    return [a.format(tmp=tmp_path) for a in argv], first, second


@pytest.mark.parametrize("command", WRITERS)
def test_failed_write_removes_temporary_files(tmp_path, capsys, command):
    # a directory blocks the second output's temporary file, so the write
    # fails after the first output's temporary file is written
    argv, _, second = _writer(tmp_path, command)
    (tmp_path / f"{second}.tmp").mkdir()
    assert main(argv) == 2
    assert "wrote" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == [f"{second}.tmp"]


@pytest.mark.parametrize("command", WRITERS)
def test_directory_target_is_rejected_before_writing(tmp_path, capsys,
                                                     command):
    # os.replace would refuse the directory only after the first output
    # had been moved into place
    argv, first, second = _writer(tmp_path, command)
    (tmp_path / second).mkdir()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "directory" in err and "wrote" not in out
    assert not (tmp_path / first).exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_failed_run_keeps_an_existing_target(tmp_path, capsys):
    argv, first, second = _writer(tmp_path, "sweep")
    (tmp_path / first).write_text("old\n")
    (tmp_path / f"{second}.tmp").mkdir()
    assert main(argv) == 2
    assert (tmp_path / first).read_text() == "old\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--pi1-count", "3", "--pi34-count", "3", "--n", "4",
     "--out", "{x}", "--heatmap", "{x}"],
    ["simulate", *DECENTRAL, "--t-final", "1", "--summary-json", "{x}",
     "--traj-csv", "{x}"],
    ["sweep", "--pi1-count", "3", "--pi34-count", "3", "--n", "4",
     "--out", "{x}.tmp", "--heatmap", "{x}"],
], ids=["sweep", "simulate", "sweep-temporary"])
def test_one_path_for_two_outputs_is_rejected(tmp_path, capsys, argv):
    # the second output, or its temporary file, would silently replace the
    # first
    x = str(tmp_path / "x")
    assert main([a.format(x=x) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert x in err and "wrote" not in out
    assert list(tmp_path.iterdir()) == []


def test_non_finite_design_is_a_usage_error(tmp_path, capsys):
    # pi3**2 underflows to 0, and the spectra turn NaN
    assert main(["synth", "--pi3", "1e-200", "--pi4", "1e-200", "--n", "4",
                 "--out", str(tmp_path / "g")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "pi=(0, 1, 1e-200, 1e-200), n=4" in err
    assert out == "" and list(tmp_path.iterdir()) == []
    assert main(["report", "--pi3", "1e160"]) == 2
    # the table runs on half the spectrum; the message names the ring
    assert capsys.readouterr().err.endswith(", n=30\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-final", "1"], ["report"], ["verify"], ["synth"]])
def test_underflowed_design_is_a_usage_error(tmp_path, capsys, argv):
    # every spectrum is positive in exact arithmetic, but at pi1 = 1e250
    # s1 = sqrt(2 s0 / w) underflows to 0, and with it lc and s2
    argv = [*argv, "--pi1", "1e250", "--n", "4"]
    if argv[0] == "synth":
        argv += ["--out", str(tmp_path / "g")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not positive and finite" in err
    assert "pi=(1e+250, 1, 1, 1), n=4" in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["report", "--pi1", "5.9e77", "--pi2", "8.6e282", "--pi3", "4.1e-101",
     "--pi4", "9.2e-62", "--n", "12", "--out", "{x}.json"],
    ["sweep", "--pi2", "1e300", "--pi1-min", "1", "--pi1-max", "1",
     "--pi1-count", "1", "--pi34-min", "1e-50", "--pi34-max", "1",
     "--pi34-count", "3", "--n", "4", "--out", "{x}.csv",
     "--heatmap", "{x}.svg"],
], ids=["report", "sweep"])
def test_overflowing_costs_are_a_usage_error(tmp_path, capsys, argv):
    # every spectrum is finite here, but a cost's products overflow; the
    # table names the first such point instead of writing Infinity
    x = str(tmp_path / "x")
    assert main([a.format(x=x) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "costs or masses are not finite" in err
    point = ("pi=(5.9e+77, 8.6e+282, 4.1e-101, 9.2e-62), n=12"
             if argv[0] == "report" else "pi=(1, 1e+300, 1e-50, 1e-50), n=4")
    assert point in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("e, code", [(104, 0), (105, 0), (106, 1), (107, 1)])
def test_verify_scores_a_tiny_filter_gain_by_its_own_size(capsys, e, code):
    # lc loses digits as pi3 = pi4 grows (the closed forms' s1 nears
    # underflow); from 1e106 its error against the oracle, whose gains
    # are below 1e-30 there, exceeds the 1e-7 tolerance and must show
    pi = f"1e{e}"
    assert main(["verify", "--pi1", "0", "--pi3", pi, "--pi4", pi,
                 "--n", "4"]) == code
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")]
    assert [line.split(":")[0] for line in failed] == (
        ["[FAIL] per_frequency_gain_vs_dense_oracle"] if code else [])


def test_verify_against_dense_oracle(capsys):
    assert main(["verify", *DECENTRAL]) == 0
    text = capsys.readouterr().out
    assert text.count("[ok ]") == 4
    assert "verify passed" in text


def test_verify_report_schema(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["verify", *DECENTRAL, "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["pass"] is True
    assert isinstance(rep["source"], str)
    assert [c["name"] for c in rep["checks"]] == [
        "per_frequency_gain_vs_dense_oracle", "closed_form_riccati_residual",
        "lqg_cost_dual_form_agreement", "closed_loop_spectral_abscissa"]
    for c in rep["checks"]:
        assert list(c) == ["name", "value", "tol", "ok"]
        assert c["ok"] is True


def test_verify_oracle_non_convergence_exits_1(monkeypatch, capsys):
    # the oracle settles here in 2 Newton steps from its data-scaled start;
    # a cap of one forces the failure path
    monkeypatch.setattr(oracle, "MAX_NEWTON_STEPS", 1)
    assert main(["verify", "--pi1", "1e-8", "--pi3", "1e8", "--pi4", "1e8",
                 "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_check_file_round_trip(tmp_path, capsys):
    out = str(tmp_path / "g")
    main(["synth", *DECENTRAL, "--out", out])
    capsys.readouterr()
    assert main(["verify", "--check-file", f"{out}_kf.json"]) == 0
    assert "verify passed" in capsys.readouterr().out


def test_verify_flags_tampered_gains(tmp_path, capsys):
    out = str(tmp_path / "g")
    main(["synth", *DECENTRAL, "--out", out])
    path = tmp_path / "g_lqr.json"
    payload = json.loads(path.read_text())
    payload["block1_first_row"] = [1.05 * v
                                   for v in payload["block1_first_row"]]
    path.write_text(json.dumps(payload))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["verify", "--check-file", str(path),
                 "--report", str(report)]) == 1
    assert "verify FAILED" in capsys.readouterr().out
    rep = json.loads(report.read_text())
    assert rep["pass"] is False
    assert any(not c["ok"] for c in rep["checks"])


@pytest.mark.parametrize("field, value", [
    ("block1_first_row", None), ("block2_first_row", None),
    ("spectral.k0", None), ("spectral.companion", None), ("n", None),
    ("block1_first_row", {"0": 1.0}),
    ("block1_first_row", [[1.0, 2.0], [3.0]]),
    ("block2_first_row", "abc"),
], ids=["block1_first_row", "block2_first_row", "spectral.k0",
        "spectral.companion", "n", "block1_first_row-object",
        "block1_first_row-nested-list", "block2_first_row-string"])
def test_check_file_with_wrong_array_length_is_rejected(tmp_path, capsys,
                                                       field, value):
    # value None drops the last entry of the field (n: adds one to it)
    main(["synth", *DECENTRAL, "--kind", "lqr", "--out", str(tmp_path / "g")])
    path = tmp_path / "g_lqr.json"
    payload = json.loads(path.read_text())
    if value is not None:
        payload[field] = value
    elif field == "n":
        payload["n"] += 1
    elif field.startswith("spectral."):
        payload["spectral"][field.split(".")[1]].pop()
    else:
        payload[field].pop()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--check-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if field != "n":
        assert field in err


@pytest.mark.parametrize("field", [
    "kind", "n", "pi", "pi.pi1", "pi.pi2", "pi.pi3", "pi.pi4",
    "block1_first_row", "block2_first_row", "spectral", "spectral.k0",
    "spectral.companion"])
def test_check_file_without_a_field_names_it(tmp_path, capsys, field):
    main(["synth", *DECENTRAL, "--kind", "lqr", "--out", str(tmp_path / "g")])
    path = tmp_path / "g_lqr.json"
    payload = json.loads(path.read_text())
    *parents, key = field.split(".")
    parent = payload
    for name in parents:
        parent = parent[name]
    del parent[key]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", "--check-file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: gain file has no field {field}\n"


@pytest.mark.parametrize("source, mutation, field", [
    ("gain file", {"n": 4.9}, "n"),
    ("gain file", {"n": [8]}, "n"),
    ("gain file", {"pi": None}, "pi"),
    ("gain file", {"spectral": None}, "spectral"),
    ("gain file", {"pi": {"pi1": None, "pi2": 1, "pi3": 4, "pi4": 4}}, "pi1"),
    ("config", {"n": 4.5}, "n"),
    ("config", {"pi1": None}, "pi1"),
    ("gain file", None, "gain file"),  # the gain object inside a list
    ("config", {"pi3": True}, "pi3"),
    ("config", {"pi1": "0.5"}, "pi1"),
    ("gain file", {"pi": {"pi1": True, "pi2": 1, "pi3": 4, "pi4": 4}}, "pi1"),
    ("gain file", {"kind": "bogus"}, "kind must be one of ['lqr', 'kf']"),
    ("gain file", {"kind": 1}, "kind must be one of ['lqr', 'kf']"),
], ids=["file-n-fraction", "file-n-list", "file-pi-null",
        "file-spectral-null", "file-pi1-null",
        "config-n-fraction", "config-pi1-null", "file-not-an-object",
        "config-pi3-bool", "config-pi1-string", "file-pi1-bool",
        "file-kind-bogus", "file-kind-number"])
def test_malformed_parameters_are_usage_errors(tmp_path, capsys, source,
                                               mutation, field):
    # never truncated to a neighbouring n, never a traceback
    main(["synth", *DECENTRAL, "--kind", "lqr", "--out", str(tmp_path / "g")])
    if source == "gain file":
        path = tmp_path / "g_lqr.json"
        payload = json.loads(path.read_text())
        argv = ["verify", "--check-file", str(path)]
    else:
        path = tmp_path / "cfg.json"
        payload = {"pi1": 0.5, "pi3": 4.0, "pi4": 4.0, "n": 4}
        argv = ["synth", "--config", str(path), "--out", str(tmp_path / "h")]
    if mutation is None:
        payload = [payload]
    else:
        payload.update(mutation)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_verify_fails_on_an_unstable_assembly(monkeypatch, capsys):
    # a sign error in the regulator spectra must surface as a FAIL record
    spectra = synthesis.design_spectra

    def broken(*args):
        s = spectra(*args)
        return dataclasses.replace(s, kc=-s.kc)

    monkeypatch.setattr(synthesis, "design_spectra", broken)
    assert main(["verify", *DECENTRAL]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] closed_loop_spectral_abscissa" in out
    assert "verify FAILED" in out


# ------------------------------------------------------- parameter plumbing

def test_mixed_parameter_families_are_rejected(capsys):
    code = main(["synth", "--pi1", "0.5", "--c", "1", "--out", "x"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_incomplete_physical_set_is_rejected(capsys):
    code = main(["synth", "--c", "1", "--dx", "1", "--out", "x"])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_physical_parameters_map_through(tmp_path, capsys):
    out = str(tmp_path / "g")
    code = main(["synth", "--c", "1", "--dx", "1", "--q1", "1", "--q2", "1",
                 "--r", "2", "--sigma-m", "1", "--sigma-d", "2",
                 "--alpha", "1", "--n", "4", "--out", out, "--kind", "lqr"])
    assert code == 0
    payload = json.loads((tmp_path / "g_lqr.json").read_text())
    assert payload["pi"]["pi1"] == pytest.approx(1.0)


def test_simulate_requires_matched_scalings(capsys):
    code = main(["simulate", "--c", "1", "--dx", "1", "--q1", "1", "--q2",
                 "1", "--r", "1", "--sigma-m", "1", "--sigma-d", "2",
                 "--alpha", "1", "--n", "4"])
    assert code == 2
    assert "r == sigma_d" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pi1": 0.5, "pi2": 1.0, "pi3": 4.0,
                               "pi4": 4.0, "n": 4}))
    out = tmp_path / "rep.json"
    assert main(["report", "--config", str(cfg), "--pi2", "2.0",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pi2"] == 2.0
    assert rep["pi1"] == 0.5


@pytest.mark.parametrize("content", ["[1, 2]", "{bad json"])
def test_bad_config_is_a_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["synth", "--config", str(cfg), "--out", "x"]) == 2


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", "x"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# ------------------------------------------------------------------- sweep

def test_single_point_sweep_equals_report(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--pi1-min", "0.7", "--pi1-max", "0.7",
                 "--pi1-count", "1", "--pi34-min", "2", "--pi34-max", "2",
                 "--pi34-count", "1", "--n", "6", "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header.startswith("pi1,")
    vals = dict(zip(header.split(","), row.split(",")))
    rep = analysis.report(NondimParams(pi1=0.7, pi2=1.0, pi3=2.0, pi4=2.0,
                                       n=6))
    assert float(vals["j_lqg"]) == pytest.approx(rep.j_lqg, rel=1e-12)
    assert float(vals["j_kf"]) == pytest.approx(rep.j_kf, rel=1e-12)


def test_sweep_heatmap_svg(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "hm.svg"
    assert main(["sweep", "--pi1-count", "4", "--pi34-count", "3",
                 "--n", "4", "--out", str(out), "--heatmap", str(svg),
                 "--metric", "lqg"]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert out.read_text().count("\n") == 13  # header + 12 rows


def test_heatmap_takes_the_grid_axes_not_the_distinct_values(tmp_path,
                                                              capsys):
    # a pi1 grid whose points round to two distinct floats
    svg = tmp_path / "hm.svg"
    assert main(["sweep", "--pi1-min", "1", "--pi1-max", "1.0000000000000002",
                 "--pi1-count", "3", "--pi34-min", "1", "--pi34-max", "2",
                 "--pi34-count", "3", "--n", "4", "--out",
                 str(tmp_path / "s.csv"), "--heatmap", str(svg)]) == 0
    cells = [r for r in ET.fromstring(svg.read_text()).iter(f"{SVG}rect")
             if r.get("fill").startswith("#") and r.get("width") != "14"]
    assert len(cells) == 9


def test_curve_only_sweep_with_lineplot(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    assert main(["sweep", "--curve-only", "--pi1-count", "5", "--n", "4",
                 "--out", str(out), "--lineplot", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert out.read_text().count("\n") == 6


def test_heatmap_needs_two_dimensional_sweep(tmp_path, capsys):
    assert main(["sweep", "--curve-only", "--out",
                 str(tmp_path / "c.csv"), "--heatmap",
                 str(tmp_path / "h.svg")]) == 2
    out, err = capsys.readouterr()
    assert "2-D sweep" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_lineplot_needs_curve_only(tmp_path, capsys):
    assert main(["sweep", "--pi1-count", "2", "--pi34-count", "2", "--n", "4",
                 "--out", str(tmp_path / "s.csv"), "--lineplot",
                 str(tmp_path / "l.svg")]) == 2
    out, err = capsys.readouterr()
    assert "curve-only" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_bad_grid_bounds(tmp_path, capsys):
    assert main(["sweep", "--pi1-min", "2", "--pi1-max", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("argv, names", [
    (["--pi34-max", "1e309"], "--pi34-max"),
    (["--pi1-max", "inf"], "--pi1-max"),
    (["--curve-only", "--pi1-min", "1e-320", "--pi1-max", "1e-300",
      "--pi1-count", "3"], "2/pi1 overflows at pi1 = 1e-320")],
    ids=["pi34-max-overflow", "pi1-max-inf", "curve-2-over-pi1-overflow"])
def test_sweep_grid_overflow_is_one_error_line(tmp_path, argv, names):
    # in a fresh interpreter, so numpy's warnings would reach stderr
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    run = subprocess.run(
        [sys.executable, "-m", "wavelqg.cli", "sweep", *argv,
         "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=env)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert names in run.stderr and "np.float64" not in run.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- simulate

def test_simulate_zero_noise_reports_zero_cost(tmp_path, capsys):
    summ = tmp_path / "summary.json"
    assert main(["simulate", *DECENTRAL, "--t-final", "2", "--zero-noise",
                 "--summary-json", str(summ)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert float(line.split()[3]) == 0.0
    payload = json.loads(summ.read_text())
    assert payload["empirical_lqg_cost"] == 0.0
    assert payload["backend"] == "python"
    assert payload["generator"] == "pcg64"


def test_simulate_outputs_are_reproducible(tmp_path, capsys):
    args = ["simulate", *DECENTRAL, "--t-final", "5", "--seed", "7",
            "--store-every", "20"]
    s1, t1 = tmp_path / "s1.json", tmp_path / "t1.csv"
    s2, t2 = tmp_path / "s2.json", tmp_path / "t2.csv"
    assert main([*args, "--summary-json", str(s1),
                 "--traj-csv", str(t1)]) == 0
    assert main([*args, "--summary-json", str(s2),
                 "--traj-csv", str(t2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_trajectory_csv_layout(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    assert main(["simulate", *DECENTRAL, "--t-final", "1", "--store-every",
                 "50", "--traj-csv", str(traj)]) == 0
    lines = traj.read_text().strip().splitlines()
    header = lines[0].split(",")
    n = 4
    assert header[0] == "time" and header[-1] == "running_cost"
    assert header[1:n + 1] == [f"pos_{i}" for i in range(n)]
    assert len(header) == 1 + 5 * n + 1
    # 100 steps stored every 50 -> t = 0, 0.5, 1.0
    assert len(lines) == 4
    values = [float(tok) for tok in lines[-1].split(",")]
    assert values[0] == pytest.approx(1.0)


def test_simulate_rejects_coarse_dt(capsys):
    assert main(["simulate", *DECENTRAL, "--dt", "0.5"]) == 2
    assert "stability guard" in capsys.readouterr().err


def test_simulate_rejects_a_negative_seed(capsys):
    assert main(["simulate", *DECENTRAL, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be a nonnegative integer" in err


def test_simulate_rejects_unstable_euler_step(capsys):
    # dt = 0.01 passes the guard here, but the Euler map has radius 3
    argv = ["simulate", "--pi1", "0.5", "--pi2", "100", "--pi3", "40",
            "--pi4", "4", "--n", "8", "--t-final", "20"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "forward Euler map unstable" in err


def test_simulate_rejects_dt_at_a_stiff_stable_design(capsys):
    # a stable design whose control pole is about -1.0e11: the step size
    # is rejected, the design is not
    argv = ["simulate", "--pi1", "1e6", "--pi2", "2.3e6", "--pi3", "6.7e7",
            "--pi4", "0.0022", "--n", "7", "--dt", "3e-6",
            "--t-final", "1e-4"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "stable only for dt < 1.968" in err


def test_simulate_blow_up_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(simulator, "_BLOWUP", 1e-6)
    assert main(["simulate", *DECENTRAL, "--t-final", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "reduce dt" in err and "Traceback" not in err


# ------------------------------------------------------------------ report

def test_report_to_stdout(capsys):
    assert main(["report", *DECENTRAL]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual_lqr_decentral"] == 0.0
    assert payload["j_lqg"] > 0.0
    assert payload["offdiag_k1"] <= 1e-10


def test_report_to_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["report", *DECENTRAL, "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["n"] == 4


# ---------------------------------------------------------- parser reuse

def test_one_parser_serves_every_call(monkeypatch, capsys):
    built, original = [], cli.build_parser

    def build():
        built.append(original())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        for _ in range(10):
            assert main(["report", *DECENTRAL]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_back_to_back_calls_share_no_flags(tmp_path, capsys):
    grid = ["--pi1-count", "2", "--pi34-count", "2", "--n", "4"]
    untied, tied = tmp_path / "u.csv", tmp_path / "t.csv"
    assert main(["sweep", *grid, "--untie", "--pi3-fixed", "3",
                 "--out", str(untied)]) == 0
    assert main(["sweep", *grid, "--out", str(tied)]) == 0
    for path, is_tied in ((untied, False), (tied, True)):
        rows = [dict(zip(analysis.COLUMNS, line.split(",")))
                for line in path.read_text().splitlines()[1:]]
        assert all((r["pi3"] == r["pi4"]) == is_tied for r in rows)
    capsys.readouterr()
    costs = []
    for flags in (["--zero-noise"], []):
        assert main(["simulate", *DECENTRAL, "--t-final", "2", *flags]) == 0
        costs.append(float(capsys.readouterr().out.split()[3]))
    assert costs[0] == 0.0 < costs[1]


# ------------------------------------------------------ design recomputation

# one command line per path through the CLI; {tmp} holds g_lqr.json
COMMANDS = {
    "report": ["report", *DECENTRAL],
    "synth": ["synth", *DECENTRAL, "--out", "{tmp}/h"],
    "verify": ["verify", *DECENTRAL],
    "verify-check-file": ["verify", "--check-file", "{tmp}/g_lqr.json"],
    "simulate": ["simulate", *DECENTRAL, "--t-final", "1"],
    "sweep": ["sweep", "--pi1-count", "4", "--pi34-count", "3", "--n", "4",
              "--out", "{tmp}/s.csv", "--heatmap", "{tmp}/s.svg"],
    "sweep-curve-only": ["sweep", "--curve-only", "--pi1-count", "5",
                         "--n", "4", "--out", "{tmp}/c.csv",
                         "--lineplot", "{tmp}/c.svg"],
}


def _command(tmp_path, command):
    """Write the gain files ``COMMANDS`` reads; return the command line."""
    assert main(["synth", *DECENTRAL, "--out", str(tmp_path / "g")]) == 0
    return [a.format(tmp=tmp_path) for a in COMMANDS[command]]


def _count_calls(monkeypatch, name, original):
    """Wrap ``original`` under ``name`` in every wavelqg module that holds
    it; returns the list the wrapper appends each call's arguments to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if (modname.split(".")[0] == "wavelqg"
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command, expected", [
    ("report", 1), ("synth", 1), ("verify", 1), ("verify-check-file", 0),
    ("simulate", 1),
    # 12 points in chunks of _CHUNK_CELLS // n = 20 // 4 = 5 points
    ("sweep", 3), ("sweep-curve-only", 1),
], ids=list(COMMANDS))
def test_design_evaluations_per_command(tmp_path, monkeypatch, capsys,
                                        command, expected):
    argv = _command(tmp_path, command)
    calls = _count_calls(monkeypatch, "design_spectra",
                         synthesis.design_spectra)
    monkeypatch.setattr(analysis, "_CHUNK_CELLS", 20)
    assert main(argv) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_designs_take_the_rfft_half(tmp_path, monkeypatch, capsys, command):
    # every command designs on the n//2 + 1 distinct eigenvalues of its
    # ring (n = 4 in every command line) with their multiplicities, whose
    # sum names the ring when the design fails
    argv = _command(tmp_path, command)
    calls = _count_calls(monkeypatch, "design_spectra",
                         synthesis.design_spectra)
    assert main(argv) == 0
    d, mult = rfft_half(4)
    for args in calls:
        assert len(args) == 6
        np.testing.assert_array_equal(args[4], d)
        np.testing.assert_array_equal(args[5], mult)


def test_verify_at_a_point_solves_the_rfft_half(tmp_path, monkeypatch,
                                                capsys):
    argv = _command(tmp_path, "verify")
    solves = _count_calls(monkeypatch, "newton_kleinman",
                          oracle.newton_kleinman)
    scored = _count_calls(monkeypatch, "backward_error",
                          oracle.backward_error)
    assert main(argv) == 0
    assert len(solves) == 1
    assert solves[0][0].shape == (2, 3, 2, 2)  # (kind, n//2 + 1, 2, 2)
    assert [args[-1].shape for args in scored] == [(2, 3, 2, 2)]


def test_verify_check_file_scores_every_frequency(tmp_path, monkeypatch,
                                                  capsys):
    # a file's spectra are checked as given, over all n = 4 frequencies
    argv = _command(tmp_path, "verify-check-file")
    scored = _count_calls(monkeypatch, "backward_error",
                          oracle.backward_error)
    assert main(argv) == 0
    assert [args[-1].shape for args in scored] == [(4, 2, 2)]


@pytest.mark.parametrize("command", COMMANDS)
def test_eigenvalue_solves_per_command(tmp_path, monkeypatch, capsys,
                                       command):
    # no command assembles a dense matrix (np.block), inverts one, takes
    # its eigenvalues or solves with it: stability comes from
    # analysis.loop_poles, and the oracle's Lyapunov steps are closed-form
    argv = _command(tmp_path, command)
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)

    for module, name in ((np, "block"), (np.linalg, "inv"),
                         (np.linalg, "eigvals"), (np.linalg, "solve")):
        count(module, name)
    assert main(argv) == 0
    assert calls == {"block": 0, "inv": 0, "eigvals": 0, "solve": 0}


@pytest.mark.parametrize("command", ["report", "sweep", "sweep-curve-only"])
def test_tables_take_no_fourier_transform(tmp_path, monkeypatch, capsys,
                                          command):
    # costs and off-diagonal masses come from the half spectrum by
    # Parseval: no np.fft call, gain rows being needed only for gain files
    argv = _command(tmp_path, command)
    calls = []
    for name in np.fft.__all__:
        original = getattr(np.fft, name)
        if callable(original):
            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
    assert main(argv) == 0
    assert calls == []
