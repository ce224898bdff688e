"""Command-line contract: exit codes, config validation, determinism of
emitted reports, and manifests."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import shlex
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hokdv
import hokdv.solver
from hokdv.cli import COMMANDS, build_parser, main, resolve_config
from hokdv.config import ConfigError, parse_config_text, validate_config, Field
from hokdv.dispersion import DispersionModel
from hokdv.verifier import ModulationField

from helpers import accepted_s_edges, reference_phi_functions, replay_bilinear_zs, replay_embedding


def run(tmp_path, *argv):
    return main([*argv, "--out-root", str(tmp_path)])


def only_run_dir(tmp_path) -> Path:
    dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


# -- config parsing ----------------------------------------------------------


def test_parse_config_types():
    raw = parse_config_text(
        """
        # comment
        j = 2
        t = 0.5
        flag = true
        name = phi_n
        N_list = 8, 16, 32
        """
    )
    assert raw == {"j": "2", "t": "0.5", "flag": "true", "name": "phi_n", "N_list": "8, 16, 32"}
    schema = {"j": Field("int"), "t": Field("float"), "flag": Field("bool"), "name": Field("str"),
              "N_list": Field("int_list")}
    cfg = validate_config(raw, schema)
    assert cfg == {"j": 2, "t": 0.5, "flag": True, "name": "phi_n", "N_list": [8, 16, 32]}
    assert [type(cfg[key]) for key in ("j", "t", "flag")] == [int, float, bool]


def test_each_kind_has_its_own_parser():
    schema = {"name": Field("str"), "flag": Field("bool"), "x": Field("float"),
              "xs": Field("float_list"), "ns": Field("int_list")}
    raw = {"name": "3.10", "flag": "FALSE", "x": "2", "xs": "1, , 2.5,", "ns": "7"}
    cfg = validate_config(raw, schema)
    assert cfg == {"name": "3.10", "flag": False, "x": 2.0, "xs": [1.0, 2.5], "ns": [7]}
    for key, text in [("flag", "1"), ("x", "true"), ("ns", "1, 2.0"), ("x", "1, 2")]:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config({**raw, key: text}, schema)


def test_validate_rejects_unknown_and_missing_keys():
    schema = {"j": Field("int")}
    with pytest.raises(ConfigError, match="unknown"):
        validate_config({"j": "2", "bogus": "1"}, schema)
    with pytest.raises(ConfigError, match="missing required key"):
        validate_config({}, schema)
    with pytest.raises(ConfigError, match="'j'"):
        validate_config({"j": "two"}, schema)


# -- exit codes ---------------------------------------------------------------


def test_missing_required_key_names_it(tmp_path, capsys):
    code = run(tmp_path, "simulate", "--set", "M = 64", "--set", "dt = 0.001", "--set", "T = 0.01")
    assert code == 2
    assert "'j'" in capsys.readouterr().err


def test_unknown_key_is_usage_error(tmp_path, capsys):
    code = run(tmp_path, "resonance-audit", "--set", "j_list = 2", "--set", "kmax = 5", "--set", "zzz = 1")
    assert code == 2
    assert "zzz" in capsys.readouterr().err


def test_jobs_other_than_one_is_usage_error(tmp_path, capsys):
    # argparse refuses it while parsing, before a config is read or a run directory made
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, "resonance-audit", "--set", "j_list = 2", "--set", "kmax = 5", "--jobs", "2")
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_unknown_command_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, "nosuch")
    assert exit_info.value.code == 2
    assert "nosuch" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip() == hokdv.__version__


def test_help_lists_every_command_and_the_shared_options(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["contraction", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert all(option in out for option in ("--config", "--set", "--out-root"))
    assert all(name in out for name in COMMANDS)


def test_audit_passes_and_emits_csv(tmp_path):
    code = run(tmp_path, "resonance-audit", "--set", "j_list = 2, 3", "--set", "kmax = 40")
    assert code == 0
    run_dir = only_run_dir(tmp_path)
    header = (run_dir / "audit.csv").read_text().splitlines()[0]
    assert header == "j,kmax,pairs_checked,violations,min_ratio"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "resonance-audit"
    assert manifest["verdicts"]["violations"] == 0
    assert "audit.csv" in manifest["outputs"]


def test_audit_includes_classical_sanity_mode(tmp_path):
    # j = 1 runs with the equality case of the bound, still violation-free
    code = run(tmp_path, "resonance-audit", "--set", "j_list = 1", "--set", "kmax = 30")
    assert code == 0
    lines = (only_run_dir(tmp_path) / "audit.csv").read_text().splitlines()
    assert lines[1].startswith("1,30,")
    assert ",0," in lines[1]  # zero violations


def test_audit_at_kmax_a_million_exits_zero_within_a_second(tmp_path, capsys):
    # the certificate covers every pair, so kmax only picks the reported minimum
    start = time.perf_counter()
    code = run(tmp_path, "resonance-audit", "--set", "j_list = 1, 2, 3, 4",
               "--set", "kmax = 1000000")
    assert code == 0 and time.perf_counter() - start < 1.0
    lines = (only_run_dir(tmp_path) / "audit.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:4] for line in lines] == [
        [str(j), "1000000", "3999998000000", "0"] for j in (1, 2, 3, 4)
    ]
    assert "j=2: pairs=3999998000000 violations=0 min_ratio=1.00000000" in capsys.readouterr().out


def test_audit_names_an_unproved_condition_and_exits_one(tmp_path, capsys, monkeypatch):
    condition = "condition 2: d(R^2)/dr > 0 on (-1, 0)"
    uncertified = hokdv.dispersion._uncertified
    monkeypatch.setattr(hokdv.dispersion, "_uncertified",
                        lambda j, n: condition if j == 3 else uncertified(j, n))
    assert run(tmp_path, "resonance-audit", "--set", "j_list = 2, 3", "--set", "kmax = 5") == 1
    run_dir = only_run_dir(tmp_path)
    rows = (run_dir / "audit.csv").read_text().splitlines()
    assert rows[1].startswith("2,5,90,0,") and rows[2] == "3,5,,,"
    verdicts = strict_json(run_dir / "manifest.json")["verdicts"]
    assert verdicts == {"violations": 0, "uncertified": [f"j=3: {condition}"]}
    assert f"uncertified j=3: {condition}" in capsys.readouterr().out


def test_illposed_sweep_verdicts(tmp_path):
    code = run(
        tmp_path,
        "illposed-sweep",
        "--set", "j = 2",
        "--set", "s_list = -1.5, -2",
        "--set", "N_list = 8, 16, 32, 64",
    )
    assert code == 0
    run_dir = only_run_dir(tmp_path)
    verdicts = json.loads((run_dir / "verdicts.json").read_text())
    assert verdicts["passed"] is True
    by_s = {entry["s"]: entry for entry in verdicts["per_s"]}
    assert abs(by_s[-2.0]["fitted_exponent"] - 1.0) < 0.1
    assert abs(by_s[-1.5]["fitted_exponent"]) < 0.1


def test_illposed_sweep_requires_enough_points(tmp_path):
    code = run(tmp_path, "illposed-sweep", "--set", "j = 2", "--set", "s_list = -2", "--set", "N_list = 8")
    assert code == 2


def test_estimate_search_deterministic_outputs(tmp_path):
    argv = [
        "estimate-search",
        "--set", "estimate = 3.1",
        "--set", "trials = 25",
        "--set", "seed = 5",
    ]
    assert run(tmp_path, *argv) == 0
    assert run(tmp_path, *argv) == 0
    dirs = sorted(p for p in tmp_path.iterdir() if p.is_dir())
    assert len(dirs) == 2
    first = (dirs[0] / "trials.csv").read_bytes()
    second = (dirs[1] / "trials.csv").read_bytes()
    assert first == second
    assert (dirs[0] / "summary.json").read_bytes() == (dirs[1] / "summary.json").read_bytes()


SMALL_SIMULATE = ["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 1e-3",
                  "--set", "T = 0.05", "--set", "frame_stride = 5"]


@pytest.mark.parametrize(
    "argv,data_files",
    [
        (["resonance-audit", "--set", "j_list = 1, 2, 3", "--set", "kmax = 30"], ["audit.csv"]),
        (
            ["illposed-sweep", "--set", "j = 2", "--set", "s_list = -1.5, -1.75, -2",
             "--set", "N_list = 8, 16, 32, 64, 128"],
            ["growth.csv", "verdicts.json"],
        ),
        (SMALL_SIMULATE, ["conservation.csv", "frames.bin"]),
        ([*SMALL_SIMULATE, "--set", "scheme = etdrk4"], ["conservation.csv", "frames.bin"]),
        (["contraction", "--set", "max_iter = 3", "--set", "n_frames = 101"],
         ["summary.json", "trace.csv"]),
        (["picard-check", "--set", "N_list = 2", "--set", "t_list = 0.1, 0.3"], ["oracle.csv"]),
        *(
            (["estimate-search", "--set", f"estimate = {estimate}", "--set", "trials = 8"],
             ["summary.json", "trials.csv"])
            for estimate in ("2.1", "2.2", "2.5", "3.1")
        ),
    ],
    ids=["resonance-audit", "illposed-sweep", "simulate-ifrk4", "simulate-etdrk4",
         "contraction", "picard-check", "estimate-2.1", "estimate-2.2", "estimate-2.5",
         "estimate-3.1"],
)
def test_data_files_identical_across_runs(tmp_path, argv, data_files):
    # Three runs at --jobs 1, the only worker count the option accepts.
    digests = []
    for _ in range(3):
        out = tmp_path / f"run{len(digests)}"
        assert main([*argv, "--jobs", "1", "--out-root", str(out)]) == 0
        run_dir = only_run_dir(out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(data_files)
        digests.append(
            {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in data_files}
        )
    assert digests[0] == digests[1] == digests[2]
    if argv[0] == "estimate-search":
        summary = json.loads((run_dir / "summary.json").read_text())
        assert sorted(summary) == ["inputs", "kind", "notes", "passed", "summary"]
        assert sorted(summary["summary"]) == [
            "argmax_trial", "flags", "max_ratio", "skipped", "witness"
        ]


@pytest.mark.parametrize(
    "estimate,sets,cells,replay",
    [("3.1", ["--set", "lam = 2", "--set", "k_max = 32"], [64, 64], replay_bilinear_zs),
     ("2.5", [], [64], replay_embedding)],
    ids=["3.1-free-solution", "2.5"],
)
def test_estimate_search_witness_replays_from_summary_json(tmp_path, estimate, sets, cells, replay):
    """The witness columns in summary.json have equal lengths per field, and the
    fields rebuilt from them give the manifest's max_ratio bit for bit."""
    argv = ["estimate-search", "--set", f"estimate = {estimate}", "--set", "trials = 32", *sets]
    assert run(tmp_path, *argv) == 0
    run_dir = only_run_dir(tmp_path)
    summary = json.loads((run_dir / "summary.json").read_text())
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg = manifest["config"]
    model = DispersionModel(cfg["j"], cfg["lam"])
    fields = []
    for desc in summary["summary"]["witness"]["fields"]:
        columns = [desc[key] for key in ("m", "sigma_scaled", "re", "im")]
        assert len({len(col) for col in columns}) == 1
        m, sig, re, im = columns
        fields.append(ModulationField(model, m, sig, np.array(re) + 1j * np.array(im), [0, len(m)]))
    assert [len(u.m) for u in fields] == cells
    assert replay(model, fields, cfg["s"]) == manifest["verdicts"]["max_ratio"]


def test_estimate_search_unknown_id(tmp_path):
    assert run(tmp_path, "estimate-search", "--set", "estimate = 9.9") == 2


def test_estimate_search_inadmissible_is_exploratory(tmp_path):
    code = run(
        tmp_path,
        "estimate-search",
        "--set", "estimate = 2.2",
        "--set", "a = 0.0",
        "--set", "b = 0.0",
        "--set", "trials = 10",
    )
    assert code == 0
    summary = json.loads((only_run_dir(tmp_path) / "summary.json").read_text())
    assert "inadmissible-exponents" in summary["summary"]["flags"]


def test_simulate_linear_only_has_tiny_drift(tmp_path):
    code = run(
        tmp_path,
        "simulate",
        "--set", "j = 2",
        "--set", "M = 64",
        "--set", "dt = 0.01",
        "--set", "T = 0.2",
        "--set", "nonlinear = false",
    )
    assert code == 0
    run_dir = only_run_dir(tmp_path)
    lines = (run_dir / "conservation.csv").read_text().splitlines()
    drift_col = lines[0].split(",").index("l2_drift")
    drifts = [float(line.split(",")[drift_col]) for line in lines[1:]]
    assert max(drifts) <= 1e-13
    assert (run_dir / "frames.bin").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blow_up_exits_one(tmp_path, capsys):
    code = run(
        tmp_path,
        "simulate",
        "--set", "j = 2",
        "--set", "M = 64",
        "--set", "dt = 0.05",
        "--set", "T = 2.0",
        "--set", "initial_amplitude = 40.0",
        "--set", "initial_decay = 0.3",
        "--set", "initial_modes = 8",
    )
    assert code == 1
    out = capsys.readouterr()
    assert "unstable" in out.err
    assert out.out.startswith("run directory: ")


def test_simulate_blow_up_at_a_frame_records_its_finite_ratio(tmp_path):
    # a frame after every step sees the norm grow before it overflows
    code = run(
        tmp_path, "simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 0.05",
        "--set", "T = 2.0", "--set", "frame_stride = 1", "--set", "initial_amplitude = 5.0",
        "--set", "initial_decay = 0.3", "--set", "initial_modes = 8",
    )
    assert code == 1
    blow_up = strict_json(only_run_dir(tmp_path) / "manifest.json")["verdicts"]["blow_up"]
    assert blow_up["t"] == 0.05 and 10 < blow_up["ratio"] < math.inf


def test_simulate_overflow_between_frames_names_the_interval(tmp_path, capsys):
    """A state that overflows between two frames raises no RuntimeWarning, and the
    error says that the norm is not finite and where the state left double
    precision: after the last frame (t = 0), by the frame at t = 0.01."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(
            tmp_path, "simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 1e-3",
            "--set", "T = 0.01", "--set", "initial_amplitude = 1e20",
        )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: L2 norm is nan (not finite) at t = 0.01: the state left double precision "
        "in (0, 0.01]; the run is unstable (reduce dt or the data amplitude)\n"
    )
    # the ratio is not finite: null in the manifest, since NaN is not JSON
    verdicts = strict_json(only_run_dir(tmp_path) / "manifest.json")["verdicts"]
    assert verdicts["blow_up"] == {"t": 0.01, "ratio": None}


EXPQUAD_LARGE_PHASE = ["simulate", "--set", "j = 5", "--set", "M = 512", "--set", "dt = 1e-4",
                       "--set", "T = 0.001", "--set", "scheme = etdrk4"]


def test_etdrk4_at_a_phase_past_the_series_range_stays_finite(tmp_path, monkeypatch):
    """At j = 5, M = 512 the ETDRK4 weights see |z| up to 2^88 dt: the phi series
    overflowed there, though its values were discarded (a RuntimeWarning, which
    pytest makes an error).  The frames equal those of a run whose series sees
    only the entries |z| < 0.5."""
    assert run(tmp_path / "a", *EXPQUAD_LARGE_PHASE) == 0
    monkeypatch.setattr(hokdv.solver, "phi_functions", reference_phi_functions)
    assert run(tmp_path / "b", *EXPQUAD_LARGE_PHASE) == 0
    frames = [(only_run_dir(tmp_path / side) / "frames.bin").read_bytes() for side in "ab"]
    assert frames[0] == frames[1]


def test_contraction_default_run_contracts(tmp_path):
    code = run(tmp_path, "contraction", "--set", "max_iter = 6", "--set", "n_frames = 201")
    assert code == 0
    summary = json.loads((only_run_dir(tmp_path) / "summary.json").read_text())
    assert summary["factor"] < 0.5
    assert summary["verdict_contracting"] is True


def strict_json(path: Path):
    """Parse a JSON file, refusing the NaN and Infinity tokens that are not JSON."""

    def refuse(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_contraction_single_step_has_no_verdict(tmp_path, capsys):
    # one difference gives no ratio: the factor is null in both files, n/a when printed
    code = run(tmp_path, "contraction", "--set", "max_iter = 1", "--set", "n_frames = 101")
    assert code == 0
    summary = strict_json(only_run_dir(tmp_path) / "summary.json")
    verdicts = strict_json(only_run_dir(tmp_path) / "manifest.json")["verdicts"]
    for payload in (summary, verdicts):
        assert payload["factor"] is None and payload["verdict_contracting"] is None
    assert "contraction factor: n/a (" in capsys.readouterr().out


def test_contraction_large_amplitude_diverges(tmp_path):
    code = run(
        tmp_path,
        "contraction",
        "--set", "amplitude = 10.0",
        "--set", "max_iter = 8",
        "--set", "n_frames = 101",
    )
    assert code == 1
    trace = (only_run_dir(tmp_path) / "trace.csv").read_text().splitlines()
    assert len(trace) >= 3  # header plus the growing differences


def test_picard_check_resolved_case(tmp_path):
    code = run(
        tmp_path,
        "picard-check",
        "--set", "j_list = 2",
        "--set", "N_list = 2",
        "--set", "t_list = 0.1, 0.3",
    )
    assert code == 0
    rows = (only_run_dir(tmp_path) / "oracle.csv").read_text().splitlines()
    assert len(rows) == 3


def test_picard_check_defaults_pass(tmp_path):
    code = run(tmp_path, "picard-check")
    assert code == 0
    rows = (only_run_dir(tmp_path) / "oracle.csv").read_text().splitlines()
    assert len(rows) == 5  # header plus j=2 x N in {2, 4} x t in {0.1, 0.3}


def test_picard_check_tolerance_scales_with_large_data(tmp_path):
    # A2(phi_2) at s = -300 is ~2^600, and the oracle meets it to ~1e-15 relative:
    # max_abs_err ~6e165 passes tol = 1e-6 times max|A2|, and tol = 1e-30 still fails
    argv = ["picard-check", "--set", "s = -300", "--set", "N_list = 2"]
    assert run(tmp_path / "scaled", *argv) == 0
    rows = (only_run_dir(tmp_path / "scaled") / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(float(row.split(",")[4]) > 1e150 for row in rows)
    assert run(tmp_path / "tight", *argv, "--set", "tol = 1e-30") == 1


def test_picard_check_refuses_unresolved_budget(tmp_path, capsys):
    code = run(
        tmp_path,
        "picard-check",
        "--set", "j_list = 2",
        "--set", "N_list = 4",
        "--set", "t_list = 0.3",
        "--set", "steps = 256",
    )
    assert code == 2
    assert "steps must be >= 392" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SWEEP_J2 = ["illposed-sweep", "--set", "j = 2", "--set", "N_list = 8, 16, 32"]
SWEEP_N128 = ["--set", "N_list = 8, 16, 32, 64, 128"]
SIMULATE_SHORT = ["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 1e-3",
                  "--set", "T = 0.01"]


@pytest.mark.parametrize(
    "argv,key",
    [
        (["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 0.003",
          "--set", "T = 0.01"], "'T'"),
        # 21 steps in frames of 10: the last frame would sit off the stored spacing
        (["simulate", "--set", "j = 2", "--set", "M = 32", "--set", "dt = 5e-4",
          "--set", "T = 0.0105", "--set", "frame_stride = 10"], "'frame_stride'"),
        (["contraction", "--set", "max_iter = 1", "--set", "seed = abc"], "'seed'"),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "lam = 1.5"], "'lam'"),
        (["resonance-audit", "--set", "j_list = 2, 0", "--set", "kmax = 5"], "'j_list'"),
        # the gap bound has degree 2j + 1 on both sides: lam cancels, and the audit takes none
        (["resonance-audit", "--set", "j_list = 2", "--set", "kmax = 5", "--set", "lam = 2"], "'lam'"),
        # initial data past double precision: overflow, underflow to zero, an infinite L2 norm
        ([*SIMULATE_SHORT, "--set", "initial = phi_n", "--set", "initial_s = -1000"], "'initial_s'"),
        ([*SIMULATE_SHORT, "--set", "initial = phi_n", "--set", "initial_s = 1000"], "'initial_s'"),
        ([*SIMULATE_SHORT, "--set", "initial_amplitude = 1e200"], "'initial_amplitude'"),
        ([*SIMULATE_SHORT, "--set", "initial_decay = -1000"], "'initial_decay'"),
        ([*SIMULATE_SHORT, "--set", "initial = cosine", "--set", "initial_amplitude = 1e307"],
         "'initial_amplitude'"),
        # the phase p(M / 2 lam) dt / 2 overflows: the run exited 1 as a blow-up
        (["simulate", "--set", "j = 200", "--set", "M = 64", "--set", "dt = 1e-3",
          "--set", "T = 0.01"], "'j'"),
        # the gap of A3's 3N pair leaves the doubles: this raised OverflowError
        (["illposed-sweep", "--set", "j = 60", "--set", "s_list = -50",
          "--set", "N_list = 8, 16, 32, 64, 128"], "'j'"),
        # the forcing frequency 2 |p(2)| overflows: the panel count raised OverflowError
        (["picard-check", "--set", "j_list = 600", "--set", "N_list = 2"], "'j_list'"),
        # t |w0| at j = 200 is past the doubles: the rule compares it in log2 of the exact
        # gap, and the walk's phase is refused
        (["illposed-sweep", "--set", "j = 200", "--set", "s_list = -1.5",
          "--set", "N_list = 8, 16, 32"], "'j'"),
        # t |w0| below 50 at the smallest N: A3 grows as t^2 there, not t.  At t = 1e-8 the
        # fit read 81.08 against 75 and the run exited 1 ...
        (["illposed-sweep", "--set", "j = 3", "--set", "lam = 3.5", "--set", "t = 1e-8",
          "--set", "s_list = -40", "--set", "N_list = 8, 16, 32"], "'t'"),
        # ... at t = 1e-100 the norm underflowed to 0 ...
        ([*SWEEP_J2, "--set", "t = 1e-100", "--set", "s_list = -1.5"], "'t'"),
        # ... as did A3 of the walk at N^(g/3) at t = 1e-250, whatever s ...
        ([*SWEEP_J2, "--set", "t = 1e-250", "--set", "s_list = -1.5"], "'t'"),
        # ... and A3 at N = 8 cancelled to rounding noise (t |w0| = 2^-317): it wrote
        # non-monotone norms, a fit of -50.8 against 75, and exited 1
        (["illposed-sweep", "--set", "j = 3", "--set", "lam = 3.5", "--set", "t = 1e-100",
          "--set", "s_list = -40", "--set", "N_list = 8, 16, 32"], "'t'"),
        # a search lattice past int64 names the range that overflows; each of the last
        # three named k_max, which was never set
        (["estimate-search", "--set", "estimate = 2.2", "--set", "k_max = 2000000"], "'k_max'"),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "j = 3", "--set", "lam = 256"],
         "'lam'"),
        (["estimate-search", "--set", "estimate = 2.1", "--set", "l1 = 62"], "'l1'"),
        (["estimate-search", "--set", "estimate = 2.1", "--set", "l2 = 2000"], "'l2'"),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "t_modes = 5000000000000000000"],
         "'t_modes'"),
    ],
    ids=["T-not-multiple-of-dt", "frame-stride-not-dividing-steps", "non-integer-seed",
         "non-integral-lam", "audit-j-below-one", "audit-lam", "phi-n-overflows", "phi-n-underflows",
         "smooth-random-l2-overflows", "smooth-random-decay-overflows", "cosine-l2-overflows",
         "simulate-phase-overflows", "sweep-phase-overflows", "picard-phase-overflows",
         "sweep-j-200-phase-overflows",
         "sweep-t-1e-8-quadratic-in-t",
         "sweep-t-1e-100", "sweep-t-1e-250", "sweep-j3-lam3.5-cancels",
         "search-k-max-past-int64", "search-lam-past-int64", "search-l1-past-int64",
         "search-l2-past-int64", "search-t-modes-past-int64"],
)
def test_bad_input_exits_two_before_a_run_directory(tmp_path, capsys, argv, key):
    assert run(tmp_path, *argv) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# s = -20 underflows silently: with the box guard bypassed it exited 0 with a smallest weight of 0
ZS_WEIGHT_OVERFLOWS = [("3.1", 17, 40), ("3.1", 20, 40), ("3.1", -20, 40), ("3.1", -30, 40),
                       ("3.1", -40, 40), ("3.1", -60, 40), ("3.1", -80, 40), ("2.5", 30, 20)]


@pytest.mark.parametrize(
    "argv,key",
    [
        ([*SWEEP_J2, "--set", "s_list = -300"], "'s_list'"),
        ([*SWEEP_J2, "--set", "s_list = -100"], "'s_list'"),
        ([*SWEEP_J2, "--set", "s_list = 300"], "'s_list'"),
        # this passed a bound on N^(-4s - 2g) alone: the squared norm at N = 128, smaller
        # by A3's constant 2^-38, underflowed to 0, and verdicts.json held NaN fits
        (["illposed-sweep", "--set", "j = 20", "--set", "s_list = 16.9", *SWEEP_N128], "'s_list'"),
        (["picard-check", "--set", "s = -2000"], "'s'"),
        (["picard-check", "--set", "s = -300"], "'s'"),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "s = -2000",
          "--set", "trials = 4"], "'s'"),
        # at j = 2 and k_max = 32 these passed the phi_N bound, exited 0 and printed inf, 0
        # or a maximum formed from overflowed Z^s weights
        *((["estimate-search", "--set", f"estimate = {estimate}", "--set", f"s = {s}",
            "--set", f"trials = {trials}"], "'s'")
          for estimate, s, trials in ZS_WEIGHT_OVERFLOWS),
        # X_{0,a} and X_{0,b} weights past the doubles: 3 of 4 trials wrote rhs = inf and
        # ratio 0 at a = 1000, and at b = -400 trial 0's rhs underflowed to 0, silently
        (["estimate-search", "--set", "estimate = 2.2", "--set", "a = 1000",
          "--set", "trials = 4"], "'a'"),
        (["estimate-search", "--set", "estimate = 2.2", "--set", "b = -400",
          "--set", "trials = 4"], "'b'"),
    ],
    ids=["sweep-s-minus-300", "sweep-s-minus-100", "sweep-s-300", "sweep-j20-s-16.9",
         "picard-s-minus-2000",
         "picard-s-minus-300", "estimate-3.1-s-minus-2000",
         *(f"estimate-{estimate}-s-{s}-zs-weights" for estimate, s, _ in ZS_WEIGHT_OVERFLOWS),
         "estimate-2.2-a-1000-xsb-weights", "estimate-2.2-b-minus-400-xsb-weights"],
)
def test_phi_n_data_past_double_precision_exits_two(tmp_path, capsys, argv, key):
    """A regularity whose phi_N data, iterates, Z^s or X_{s,b} weights overflow, or drop out
    of the normal doubles, is refused where the number is formed, before any file is written."""
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert key in err and "double precision" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("j", [2, 20, 40])
def test_illposed_sweep_at_the_accepted_edges_stays_finite(tmp_path, j):
    # pytest turns a RuntimeWarning, log(0) among them, into an error
    lo, hi = accepted_s_edges({"j": j, "lam": 1.0, "t": 1.0, "N_list": [8, 16, 32, 64, 128]},
                              -j + 0.5)
    code = run(tmp_path, "illposed-sweep", "--set", f"j = {j}", "--set", f"s_list = {lo!r}, {hi!r}",
               *SWEEP_N128)
    assert code in (0, 1)
    run_dir = only_run_dir(tmp_path)
    rows = (run_dir / "growth.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert all(0.0 < float(row.split(",")[4]) < math.inf for row in rows)
    for entry in strict_json(run_dir / "verdicts.json")["per_s"]:
        assert math.isfinite(entry["fitted_exponent"]) and math.isfinite(entry["stderr"])


@pytest.mark.filterwarnings("ignore::hokdv.norms.NormRangeWarning")
@pytest.mark.parametrize(
    "sets,key",
    [
        # at the defaults (j = 2, M = 16, 301 frames) these overflowed a power of the
        # weight pass, and the run exited 1 as divergent with inf or nan in trace.csv
        (["s = 35"], "'s'"),
        (["s = -60"], "'s'"),
        (["j = 3", "s = 25"], "'s'"),
        (["j = 3", "s = -35"], "'s'"),
        (["amplitude = 1e77"], "'amplitude'"),
        # <sigma>^{2s + 2} of the D2 block underflows 2^-1022 on the largest |sigma|
        (["s = -40"], "'s'"),
        # the first difference, ~ amplitude^2, squared underflows 2^-1022: to 0 at 1e-85,
        # and at 1e-78 to a subnormal 1.0e-310 that moved diff_zs by 5e-11 relative
        (["amplitude = 1e-85"], "'amplitude'"),
        (["amplitude = 1e-78"], "'amplitude'"),
        # the phase p(M / 2 lam) overflows: this named 's'
        (["j = 200"], "'j'"),
    ],
    ids=["s-35", "s-minus-60", "j3-s-25", "j3-s-minus-35", "amplitude-1e77", "s-minus-40",
         "amplitude-1e-85", "amplitude-1e-78", "j-200"],
)
def test_contraction_past_double_precision_exits_two(tmp_path, capsys, sets, key):
    argv = ["contraction", *itertools.chain.from_iterable(("--set", kv) for kv in sets)]
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert key in err and "double precision" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::hokdv.norms.NormRangeWarning")
@pytest.mark.parametrize(
    "sets",
    [["s = 32"], ["s = -35"], ["j = 3", "s = 22"], ["j = 3", "s = -25"],
     ["amplitude = 1e71"], ["amplitude = 4e-78"]],
    ids=["s-32", "s-minus-35", "j3-s-22", "j3-s-minus-25", "amplitude-1e71", "amplitude-4e-78"],
)
def test_contraction_at_the_accepted_edges_stays_finite(tmp_path, sets):
    # pytest turns a RuntimeWarning, an overflow among them, into an error
    argv = ["contraction", "--set", "max_iter = 2",
            *itertools.chain.from_iterable(("--set", kv) for kv in sets)]
    assert run(tmp_path, *argv) in (0, 1)
    rows = (only_run_dir(tmp_path) / "trace.csv").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def run_is_right_or_refused(argv: list[str]) -> None:
    """Run argv: it exits 2, naming a config key of its command, with nothing under its
    out-root, or it exits 0 or 1 with every CSV number finite and every JSON file strict."""
    with tempfile.TemporaryDirectory() as out_root:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out-root", out_root])
        if code == 2:
            named = err.getvalue().split("config key '", 1)[1].split("'", 1)[0]
            assert named in COMMANDS[argv[0]].schema
            assert not any(Path(out_root).iterdir())
            return
        assert code in (0, 1)
        (run_dir,) = Path(out_root).iterdir()
        for path in run_dir.glob("*.csv"):
            for row in list(csv.reader(path.open()))[1:]:
                for value in row:
                    try:
                        number = float(value)
                    except ValueError:  # a generator name or a pass flag
                        continue
                    assert math.isfinite(number), f"{path.name}: {row}"
        for path in run_dir.glob("*.json"):
            strict_json(path)


@pytest.mark.filterwarnings("ignore::hokdv.norms.NormRangeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(j=st.integers(2, 4), s=st.floats(-80.0, 40.0), log_amplitude=st.floats(-100.0, 80.0))
@example(j=2, s=-40.0, log_amplitude=-2.0).via("the D2 block's weights underflow")
@example(j=2, s=-1.5, log_amplitude=-85.0).via("the first difference underflows to 0")
def test_contraction_is_right_or_refused(j, s, log_amplitude):
    run_is_right_or_refused(["contraction", "--set", f"j = {j}", "--set", f"s = {s!r}",
                             "--set", f"amplitude = {10.0**log_amplitude!r}",
                             "--set", "max_iter = 2", "--set", "n_frames = 41"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(estimate=st.sampled_from(["2.5", "3.1"]), j=st.integers(2, 3), s=st.floats(-40.0, 25.0),
       k_max=st.integers(8, 32), trials=st.integers(1, 4))
@example(estimate="3.1", j=2, s=-20.0, k_max=32, trials=4).via("its Z^s weights underflow")
def test_estimate_search_is_right_or_refused(estimate, j, s, k_max, trials):
    run_is_right_or_refused(["estimate-search", "--set", f"estimate = {estimate}",
                             "--set", f"j = {j}", "--set", f"s = {s!r}", "--set", f"k_max = {k_max}",
                             "--set", f"trials = {trials}"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(j=st.integers(2, 6), scheme=st.sampled_from(["ifrk4", "etdrk4"]),
       M=st.sampled_from([8, 16, 64]), dt=st.sampled_from(["1e-3", "3e-3", "0.01"]),
       T=st.sampled_from(["0.01", "0.02", "0.03"]), stride=st.integers(1, 12),
       initial=st.sampled_from(["phi_n", "cosine", "smooth-random"]), N=st.integers(1, 12),
       initial_s=st.floats(-600.0, 600.0), log_amplitude=st.floats(-300.0, 300.0),
       modes=st.integers(1, 40), decay=st.floats(-300.0, 300.0))
def test_simulate_is_right_or_refused(j, scheme, M, dt, T, stride, initial, N, initial_s,
                                      log_amplitude, modes, decay):
    run_is_right_or_refused(["simulate", "--set", f"j = {j}", "--set", f"scheme = {scheme}",
                             "--set", f"M = {M}", "--set", f"dt = {dt}", "--set", f"T = {T}",
                             "--set", f"frame_stride = {stride}", "--set", f"initial = {initial}",
                             "--set", f"initial_N = {N}", "--set", f"initial_s = {initial_s!r}",
                             "--set", f"initial_amplitude = {10.0**log_amplitude!r}",
                             "--set", f"initial_modes = {modes}",
                             "--set", f"initial_decay = {decay!r}"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(j=st.integers(2, 200), lam=st.sampled_from(["1", "2", "3.5"]),
       s=st.lists(st.floats(-600.0, 600.0), min_size=1, max_size=2),
       N0=st.integers(1, 16), log_t=st.floats(-12.0, 3.0))
@example(j=200, lam="1", s=[-1.5], N0=8, log_t=0.0).via("the phase of j = 200 overflows")
def test_illposed_sweep_is_right_or_refused(j, lam, s, N0, log_t):
    run_is_right_or_refused(["illposed-sweep", "--set", f"j = {j}", "--set", f"lam = {lam}",
                             "--set", f"s_list = {', '.join(map(repr, s))}",
                             "--set", f"N_list = {N0}, {2 * N0}, {4 * N0}",
                             "--set", f"t = {10.0**log_t!r}"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(j=st.integers(2, 200), N=st.integers(1, 8), log_t=st.floats(-12.0, 3.0),
       steps=st.integers(16, 1024), s=st.floats(-600.0, 600.0),
       lam=st.sampled_from(["1", "2"]))
@example(j=2, N=4, log_t=math.log10(0.3), steps=256, s=0.0, lam="1").via("steps below 392")
@example(j=171, N=1, log_t=0.0, steps=16, s=0.0, lam="1").via("the oracle's p(M/2) overflows")
def test_picard_check_is_right_or_refused(j, N, log_t, steps, s, lam):
    run_is_right_or_refused(["picard-check", "--set", f"j_list = {j}", "--set", f"N_list = {N}",
                             "--set", f"t_list = {10.0**log_t!r}", "--set", f"steps = {steps}",
                             "--set", f"s = {s!r}", "--set", f"lam = {lam}"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(j=st.lists(st.integers(-1, 40), min_size=1, max_size=3), kmax=st.integers(-2, 10**12))
def test_resonance_audit_is_right_or_refused(j, kmax):
    run_is_right_or_refused(["resonance-audit", "--set", f"j_list = {', '.join(map(str, j))}",
                             "--set", f"kmax = {kmax}"])


def test_picard_check_phases_only_the_modes_a2_fills(tmp_path):
    # p(M/2) at j = 171 overflows, but A2 of phi_1 fills |m| <= 2, where the phase is
    # finite: the run was refused naming j_list, though its answer was right
    code = run(tmp_path, "picard-check", "--set", "j_list = 171", "--set", "N_list = 1",
               "--set", "t_list = 1")
    assert code == 0
    (row,) = list(csv.DictReader((only_run_dir(tmp_path) / "oracle.csv").open()))
    assert row["pass"] == "true" and float(row["max_abs_err"]) < 1e-100


def test_bench_contraction_amplitudes_pass_the_check():
    for amplitude in (0.0025, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16):
        args = build_parser().parse_args(
            ["contraction", "--set", f"amplitude = {amplitude}", "--set", "max_iter = 8"]
        )
        assert resolve_config(args)["amplitude"] == amplitude


def test_campaign_estimate_searches_pass_the_zs_weight_check(tmp_path):
    # run_estimate_searches.py's 3.1 grid, at the threshold s = -j + 1/2 and with its trials
    for j, lam, k_max in itertools.product((2, 3), (1, 2, 4), (32, 64, 128)):
        out_root = tmp_path / f"{j}-{lam}-{k_max}"
        assert run(out_root, "estimate-search", "--set", "estimate = 3.1", "--set", f"j = {j}",
                   "--set", f"lam = {lam}", "--set", f"k_max = {k_max}", "--set", f"s = {-j + 0.5}",
                   "--set", "trials = 500") == 0
        assert (only_run_dir(out_root) / "summary.json").exists()


SIMULATE_PHI_N = ["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 0.01",
                  "--set", "T = 0.1", "--set", "initial = phi_n"]


@pytest.mark.parametrize(
    "argv,key",
    [
        ([*SIMULATE_PHI_N, "--set", "initial_s = nan"], "initial_s"),
        ([*SIMULATE_PHI_N, "--set", "T = 1e400"], "T"),
        (["illposed-sweep", "--set", "j = 2", "--set", "s_list = -1.5, nan",
          "--set", "N_list = 8, 16, 32"], "s_list"),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "s = nan"], "s"),
        (["estimate-search", "--set", "estimate = 2.2", "--set", "a = -inf"], "a"),
        (["contraction", "--set", "s = nan"], "s"),
        (["contraction", "--set", "amplitude = 1e400"], "amplitude"),
        (["picard-check", "--set", "lam = inf"], "lam"),
        (["picard-check", "--set", "t_list = 0.1, 1e400"], "t_list"),
    ],
    ids=["simulate-initial-s-nan", "simulate-T-overflow", "sweep-s-nan", "estimate-s-nan",
         "estimate-a-minus-inf", "contraction-s-nan", "contraction-amplitude-overflow",
         "picard-lam-inf", "picard-t-overflow"],
)
def test_non_finite_number_exits_two_naming_its_key(tmp_path, capsys, argv, key):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "finite" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,code",
    [
        (["picard-check", "--set", "j_list = 0"], 2),
        (["picard-check", "--set", "N_list = 0"], 2),
        (["illposed-sweep", "--set", "j = 2", "--set", "s_list = -2", "--set", "N_list = 0, 1, 2"], 2),
        (["illposed-sweep", "--set", "j = 2", "--set", "s_list = -2", "--set", "N_list = 8, 4, 16"], 2),
        (["illposed-sweep", "--set", "j = 2", "--set", "s_list = -2", "--set", "N_list = 8, 8, 16"], 2),
        (["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 0.01", "--set", "T = 0.1",
          "--set", "initial = foo"], 2),
        (["simulate", "--set", "j = 2", "--set", "M = 8", "--set", "dt = 0.01", "--set", "T = 0.1",
          "--set", "initial = phi_n", "--set", "initial_N = 4"], 2),
        (["simulate", "--set", "j = 2", "--set", "M = 8", "--set", "dt = 0.01", "--set", "T = 0.1"], 2),
        (["simulate", "--set", "j = 2", "--set", "M = 64", "--set", "dt = 0.05", "--set", "T = 2.0",
          "--set", "initial_amplitude = 40.0", "--set", "initial_decay = 0.3",
          "--set", "initial_modes = 8"], 1),
        (["contraction", "--set", "amplitude = 10.0", "--set", "max_iter = 8",
          "--set", "n_frames = 101"], 1),
        (["picard-check", "--set", "N_list = 2", "--set", "t_list = 0.1", "--set", "tol = 1e-30"], 1),
        (["estimate-search", "--set", "estimate = 3.1", "--set", "generator = foo",
          "--set", "trials = 2"], 2),
        (["estimate-search", "--set", "estimate = 2.2", "--set", "k_max = 2000000",
          "--set", "trials = 2", "--set", "generator = gaussian-random"], 2),
        # |sig_scaled| reaches 64 * 256^7 = 2^62, so sums of two cells pass int64
        (["estimate-search", "--set", "estimate = 3.1", "--set", "j = 3", "--set", "lam = 256",
          "--set", "trials = 2"], 2),
        # 2.1 always draws dyadic-concentrated fields, whatever generator says
        (["estimate-search", "--set", "estimate = 2.1", "--set", "generator = fixed-tau",
          "--set", "trials = 3"], 2),
    ],
    ids=["picard-j-zero", "picard-N-zero", "sweep-N-zero", "sweep-N-descending",
         "sweep-N-repeated", "simulate-unknown-initial", "simulate-phi-n-off-grid",
         "simulate-random-modes-off-grid", "simulate-blow-up", "contraction-diverges",
         "picard-disagrees", "estimate-unknown-generator", "estimate-k-max-past-int64",
         "estimate-sigma-past-int64", "estimate-2.1-generator"],
)
def test_nonzero_exit_leaves_no_run_directory_or_one_manifest(tmp_path, capsys, argv, code):
    assert run(tmp_path, *argv) == code
    dirs = list(tmp_path.iterdir())
    if code == 2:
        assert "usage error:" in capsys.readouterr().err
        assert dirs == []
    else:
        assert len(dirs) == 1
        assert [p.name for p in dirs[0].glob("manifest*")] == ["manifest.json"]


def test_config_file_drives_a_run(tmp_path):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("# exact-audit smoke config\nj_list = 2\nkmax = 15\n")
    code = main(
        ["resonance-audit", "--config", str(cfg), "--out-root", str(tmp_path / "runs")]
    )
    assert code == 0
    manifest = json.loads(
        next((tmp_path / "runs").glob("*/manifest.json")).read_text()
    )
    assert manifest["config"]["kmax"] == 15


def test_config_file_overridden_by_set(tmp_path):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("j_list = 2\nkmax = 15\n")
    code = main(
        [
            "resonance-audit",
            "--config", str(cfg),
            "--set", "kmax = 7",
            "--out-root", str(tmp_path / "runs"),
        ]
    )
    assert code == 0
    manifest = json.loads(
        next((tmp_path / "runs").glob("*/manifest.json")).read_text()
    )
    assert manifest["config"]["kmax"] == 7


def test_missing_config_file_is_usage_error(tmp_path):
    code = run(tmp_path, "resonance-audit", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2


def test_every_run_directory_has_exactly_one_manifest(tmp_path):
    run(tmp_path, "resonance-audit", "--set", "j_list = 2", "--set", "kmax = 10")
    run_dir = only_run_dir(tmp_path)
    manifests = list(run_dir.glob("manifest*"))
    assert len(manifests) == 1
    payload = json.loads(manifests[0].read_text())
    for key in ("command", "config", "seed", "version", "outputs", "verdicts"):
        assert key in payload


# -- one parser per process, and run directories published whole ---------------


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_two_calls_in_one_process_parse_independently(tmp_path):
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("j_list = 2\nkmax = 5\n")
    second.write_text("j_list = 3\n")
    assert run(tmp_path / "a", "resonance-audit", "--config", str(first),
               "--set", "seed = 3", "--set", "kmax = 6") == 0
    assert run(tmp_path / "b", "resonance-audit", "--config", str(second),
               "--set", "kmax = 7") == 0
    configs = [json.loads((only_run_dir(tmp_path / side) / "manifest.json").read_text())["config"]
               for side in "ab"]
    assert configs == [{"j_list": [2], "kmax": 6, "seed": 3}, {"j_list": [3], "kmax": 7, "seed": 2025}]


def with_runner(monkeypatch, run_after):
    """Replace resonance-audit's runner by the real one followed by run_after(ctx)."""
    command = COMMANDS["resonance-audit"]

    def run_then(ctx):
        passed = command.run(ctx)
        run_after(ctx)
        return passed

    monkeypatch.setitem(COMMANDS, "resonance-audit", dataclasses.replace(command, run=run_then))


AUDIT = ("resonance-audit", "--set", "j_list = 2", "--set", "kmax = 5")


def test_a_run_that_raises_after_its_first_write_leaves_nothing(tmp_path, monkeypatch):
    def fail(ctx):
        raise RuntimeError("after the first write")

    with_runner(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="after the first write"):
        run(tmp_path, *AUDIT)
    assert list(tmp_path.iterdir()) == []


def test_a_run_is_hidden_until_its_manifest_is_written(tmp_path, monkeypatch):
    seen = []

    def spy(path, text):
        seen.append((path, sorted(p.name for p in tmp_path.iterdir())))
        write(path, text)

    write = hokdv.cli.atomic_write_text
    monkeypatch.setattr(hokdv.cli, "atomic_write_text", spy)
    assert run(tmp_path, *AUDIT) == 0
    assert [path.name for path, _ in seen] == ["audit.csv", "manifest.json"]
    for path, listing in seen:
        assert listing == [path.parent.name] and path.parent.name.startswith(".")
    run_dir = only_run_dir(tmp_path)
    assert list(tmp_path.iterdir()) == [run_dir]
    assert sorted(p.name for p in run_dir.iterdir()) == ["audit.csv", "manifest.json"]


def test_same_second_runs_publish_numbered_directories(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "20260101T000000")
    assert run(tmp_path, *AUDIT) == 0
    (first,) = tmp_path.iterdir()
    (first / "note.txt").write_text("not a run's file")
    before = {p.name: p.read_bytes() for p in first.iterdir()}
    assert run(tmp_path, *AUDIT) == 0
    assert run(tmp_path, *AUDIT) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [first.name, f"{first.name}-1", f"{first.name}-2"]
    assert first.name.startswith("20260101T000000-")
    assert {p.name: p.read_bytes() for p in first.iterdir()} == before
    for name in names[1:]:
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["audit.csv", "manifest.json"]


def test_run_directories_have_the_mode_of_mkdir_and_files_0600(tmp_path):
    (tmp_path / "plain").mkdir()
    assert run(tmp_path / "runs", *AUDIT) == 0
    run_dir = only_run_dir(tmp_path / "runs")
    assert run_dir.stat().st_mode & 0o777 == (tmp_path / "plain").stat().st_mode & 0o777
    assert {p.stat().st_mode & 0o777 for p in run_dir.iterdir()} == {0o600}


def test_a_non_finite_csv_cell_exits_one_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    audit = hokdv.cli.audit_resonance_bound

    def infinite_ratio(model, kmax):
        report = audit(model, kmax)
        report.rows[0]["min_ratio"] = float("inf")
        return report

    monkeypatch.setattr(hokdv.cli, "audit_resonance_bound", infinite_ratio)
    assert run(tmp_path, *AUDIT) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: audit.csv: non-finite value inf\n"
    assert "run directory" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_a_non_finite_verdict_exits_one_and_leaves_nothing(tmp_path, monkeypatch, capsys):
    with_runner(monkeypatch, lambda ctx: ctx.verdicts.update(extra=float("nan")))
    assert run(tmp_path, *AUDIT) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest.json: ") and err.endswith("nan\n")
    assert list(tmp_path.iterdir()) == []


def readme_command_lines() -> list[str]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hokdv ")]


def test_readme_commands_pass_their_schema_and_check():
    # Resolves each README command through the command table without running it.
    lines = readme_command_lines()
    assert sorted(shlex.split(line)[1] for line in lines) == sorted(COMMANDS)
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert set(resolve_config(args)) == {*COMMANDS[args.command].schema, "seed"}
