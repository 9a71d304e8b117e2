"""End-to-end command-line tests driving ``main`` directly."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wavelqg import analysis
from wavelqg.cli import main
from wavelqg.params import NondimParams

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


def test_verify_against_dense_oracle(capsys):
    assert main(["verify", *DECENTRAL]) == 0
    text = capsys.readouterr().out
    assert text.count("[ok ]") == 4
    assert "verify passed" in text


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
    assert "2-D sweep" in capsys.readouterr().err


def test_lineplot_needs_curve_only(tmp_path, capsys):
    assert main(["sweep", "--pi1-count", "2", "--pi34-count", "2", "--n", "4",
                 "--out", str(tmp_path / "s.csv"), "--lineplot",
                 str(tmp_path / "l.svg")]) == 2
    assert "curve-only" in capsys.readouterr().err


def test_bad_grid_bounds(tmp_path, capsys):
    assert main(["sweep", "--pi1-min", "2", "--pi1-max", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2


# ---------------------------------------------------------------- simulate

def test_simulate_zero_noise_reports_zero_cost(tmp_path, capsys):
    summ = tmp_path / "summary.json"
    assert main(["simulate", *DECENTRAL, "--t-final", "2", "--zero-noise",
                 "--summary-json", str(summ)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert float(line.split()[3]) == 0.0
    payload = json.loads(summ.read_text())
    assert payload["empirical_lqg_cost"] == 0.0
    assert payload["backend"] in ("cython", "python")
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
