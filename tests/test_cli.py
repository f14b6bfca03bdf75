import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import platoonnet
from platoonnet import cli, coverage, mcp_counts, montecarlo
from platoonnet.cli import (DEFAULT_CONFIG, FIGURE_OVERRIDES, build_params,
                            build_radio, figure_7, figure_8, load_config,
                            main, tv_distance, validate_checks)
from platoonnet.connectivity import (V2VParams, pmf_degree_npts,
                                     pmf_degree_pts)
from platoonnet.coverage import CoverageMeta, RadioParams
from platoonnet.geometry import TRAFFICS, NetworkParams
from platoonnet.mcp_counts import DiscretePMF
from platoonnet.montecarlo import SimEstimate
from platoonnet.numerics import NumericsError


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


class TestConfig:
    def test_defaults_convert_to_per_meter(self):
        params = build_params(load_config())
        assert params.lambda_r == pytest.approx(0.002)
        assert params.lam == pytest.approx(0.005)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"lambda_r": 2.0}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(bad))

    def test_file_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"m": 15.0, "a_m": 150.0}))
        cfg = load_config(str(cfg_path))
        assert cfg["m"] == 15.0
        assert cfg["a_m"] == 150.0
        assert cfg["lambda_r_per_km"] == DEFAULT_CONFIG["lambda_r_per_km"]

    def test_cli_overrides_win(self):
        cfg = load_config(None, {"master_seed": 1, "replications": None})
        assert cfg["master_seed"] == 1
        assert cfg["replications"] == DEFAULT_CONFIG["replications"]

    def test_figure_values_then_file_then_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"a_m": 120.0, "master_seed": 5}))
        cfg = load_config(str(cfg_path),
                          {"master_seed": 9, "replications": None}, figure=9)
        assert cfg == dict(DEFAULT_CONFIG, alpha=4.0, x_reliability=0.9,
                           a_m=120.0, master_seed=9)

    @pytest.mark.parametrize("overrides", [
        {"replications": 1}, {"tau_sinr": -1}, {"x_reliability": 1.5},
        {"k_max": 2.7}, {"u_values": [5.0, -1.0]}, {"k_max": 2**15},
        {"tau_rate_bps": 1024 * 10e6},
    ], ids=["replications", "tau_sinr", "x_reliability", "k_max",
            "u_values", "k_max_past_fft_cap", "tau_rate_threshold_overflows"])
    def test_out_of_range_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            load_config(None, overrides)

    def test_k_max_fills_the_largest_fft(self):
        # k_max + 1 masses fit the PTS FFT cap exactly
        assert load_config(None, {"k_max": 2**15 - 1})["k_max"] == 2**15 - 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9])
    def test_sweep_figures_refuse_lam_per_km(self, n):
        # their rows set the N-PTS density to u * lambda_p themselves
        with pytest.raises(ValueError, match="'lam_per_km' must be null"):
            load_config(None, {"lam_per_km": 3.0}, figure=n)

    @pytest.mark.parametrize("n", [None, 2, 7])
    def test_lam_per_km_elsewhere_is_kept(self, n):
        cfg = load_config(None, {"lam_per_km": 3.0}, figure=n)
        assert build_params(cfg).lam == 0.003

    def test_tau_rate_up_to_a_finite_threshold(self):
        # 2^(tau_rate_bps / B) - 1 stays finite just below 1024 B
        tau = math.nextafter(1024 * 10e6, 0.0)
        cfg = load_config(None, {"tau_rate_bps": tau})
        assert math.isfinite(build_radio(cfg).rate_threshold(tau, 1))


class TestTvDistance:
    def test_identical_is_zero(self):
        p = DiscretePMF(np.array([0.5, 0.5]), 0.0)
        assert tv_distance(p, p) == 0.0

    def test_disjoint_is_one(self):
        p = DiscretePMF(np.array([1.0]), 0.0)
        q = DiscretePMF(np.array([0.0, 1.0]), 0.0)
        assert tv_distance(p, q) == pytest.approx(1.0)

    def test_symmetric(self):
        p = DiscretePMF(np.array([0.7, 0.3]), 0.0)
        q = DiscretePMF(np.array([0.2, 0.5, 0.3]), 0.0)
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p))


class TestOps:
    def test_scalar_op(self):
        out = dict(cli._rows(cli._op("active_prob_npts", load_config())()))
        # gamma = 2.5: 1 - 4 / (2.5 + 2)^2
        assert out["value"] == pytest.approx(1.0 - 16.0 / 81.0, rel=1e-10)

    def test_moment_op(self):
        out = dict(cli._rows(cli._op("moments_typical_pts", load_config())()))
        assert out["mean"] == pytest.approx(2.5, rel=1e-9)
        assert set(out) == {"mean", "variance", "third_moment", "skewness"}

    def test_npts_op_honours_lam_per_km(self):
        # lam / lambda_r = 3 / 2 VUs per typical cell
        cfg = load_config(None, {"lam_per_km": 3.0})
        out = dict(cli._rows(cli._op("moments_typical_npts", cfg)()))
        assert out["mean"] == 1.5

    def test_pmf_op_normalizes(self):
        out = cli._rows(cli._op("pmf_typical_npts", load_config())())
        masses = np.array([v for _, v in out])
        assert masses[0] == pytest.approx(16.0 / 81.0, rel=1e-10)
        assert masses.sum() == pytest.approx(1.0, abs=1e-4)

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op 'nope'; available: "
                           "active_prob_npts, "):
            cli._op("nope", load_config())


class TestMain:
    def test_figure_5_csv(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["figure", "5", "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["u", "p_off_PTS", "p_off_NPTS"]
        assert len(rows) == len(DEFAULT_CONFIG["u_values"])
        assert any("master_seed" in line for line in meta)
        assert any("figure 5" in line for line in meta)
        for _, p_pts, p_npts in rows:
            assert float(p_pts) > float(p_npts)

    def test_figure_7_is_exact_to_k_max(self):
        # P[N > k] of the degree PMFs on 0..k_max, as `op` builds them: a
        # certified PMF stops at its K, past which ccdf(k) stays constant
        cfg = load_config(figure=7)
        K = int(cfg["k_max"])
        v2v = V2VParams(cfg["r_b_m"], build_params(cfg))
        pmfs = pmf_degree_pts(K, v2v), pmf_degree_npts(K, v2v)
        cols, rows = figure_7(cfg)
        assert rows == [[k] + [p.ccdf(k) for p in pmfs] for k in range(K + 1)]
        assert np.all(np.diff([p_pts for _, p_pts, _ in rows]) < 0)

    def test_figure_7_npts_column_is_the_poisson_tail(self):
        # P[N > k] of the Poisson degree to k_max, past where 1 - sum
        # loses it to cancellation (k >= 17 at the default lam R_b = 1)
        cfg = load_config(figure=7)
        mu = build_params(cfg).lam * cfg["r_b_m"]
        _, rows = figure_7(cfg)
        assert len(rows) == 41
        for k, _, p_npts in rows:
            assert p_npts == pytest.approx(special.pdtrc(k, mu), rel=1e-12,
                                           abs=0)

    def test_figure_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["figure", "5", "--seed", "9", "--out", str(a)])
        main(["figure", "5", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_op_to_stdout(self, capsys):
        assert main(["op", "moments_typical_npts", "--out", "-"]) == 0
        text = capsys.readouterr().out
        assert "mean" in text and text.startswith("#")

    def test_op_cells_parse_as_floats(self, tmp_path):
        # the tagged PTS moments are numpy scalars, which NumPy 2 reprs
        # as np.float64(...)
        out = tmp_path / "op.csv"
        assert main(["op", "moments_tagged_pts", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["quantity", "value"]
        assert [name for name, _ in rows] == [
            "mean", "variance", "third_moment", "skewness"]
        for _, value in rows:
            float(value)

    def test_simulate_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "load_typical", "--traffic", "NPTS",
                "--reps", "500", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        _, header, rows = read_csv(a)
        masses = np.array([float(v) for _, v in
                           (r for r in rows)], dtype=float)
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_simulate_coverage_fields(self, tmp_path):
        out = tmp_path / "cov.csv"
        main(["simulate", "coverage", "--traffic", "NPTS",
              "--reps", "100", "--out", str(out)])
        _, _, rows = read_csv(out)
        got = {name: float(val) for name, val in rows}
        assert 0.0 <= got["value"] <= 1.0
        assert got["n"] == 100
        assert got["std_error"] > 0.0

    @pytest.mark.parametrize("n, file, want", [
        (8, {"master_seed": 7}, {"a_m": "150.0", "alpha": "3.5"}),
        (9, {"master_seed": 7}, {"a_m": "150.0", "alpha": "4.0",
                                 "x_reliability": "0.9"}),
        (9, {"a_m": 100.0, "x_reliability": 0.5},
         {"a_m": "100.0", "alpha": "4.0", "x_reliability": "0.5"}),
    ])
    def test_figure_values_under_config_file(self, tmp_path, monkeypatch,
                                             n, file, want):
        # the figure's own values, then the file's keys, then the flags
        monkeypatch.setitem(cli.FIGURES, n, lambda cfg: (["u"], [[1.0]]))
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "fig.csv"
        cfg_path.write_text(json.dumps(file))
        main(["figure", str(n), "--config", str(cfg_path), "--seed", "3",
              "--out", str(out)])
        meta, _, _ = read_csv(out)
        for key, value in dict(want, master_seed="3").items():
            assert f"# {key} = {value}" in meta

    def test_figure_8_row(self):
        cfg = dict(DEFAULT_CONFIG, **FIGURE_OVERRIDES[8], u_values=[5.0])
        _, rows = figure_8(cfg)
        assert len(rows[0]) == 7
        u, cp_p, cp_n, act_p, act_n, md_p, md_n = rows[0]
        assert cp_p > cp_n
        assert act_n > act_p

    def test_figure_9_cells_come_from_their_calls(self, tmp_path,
                                                   monkeypatch):
        # each call returns its own number, so a cell names the call (and
        # the arguments) that made it
        calls = []

        def spy(name):
            def call(*args):
                calls.append((name, args))
                return float(len(calls))
            return call

        monkeypatch.setattr(coverage, "rate_coverage", spy("rate_coverage"))
        monkeypatch.setattr(coverage, "md_rate", spy("md_rate"))
        out = tmp_path / "fig9.csv"
        assert main(["figure", "9", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["u", "RC_PTS", "RC_NPTS", "MD_RC_PTS",
                          "MD_RC_NPTS"]
        us = DEFAULT_CONFIG["u_values"]
        assert [float(row[0]) for row in rows] == us
        assert len(calls) == 4 * len(us)
        # a = 150 m, alpha = 4, x = 0.9 and m = lam / lambda_p = u
        radio = RadioParams(1.0, 5e-5, 4.0, 10e6)
        for u, row in zip(us, rows):
            params = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
            assert params.lam == u * params.lambda_p
            want = [("rate_coverage", (9e6, t, params, radio))
                    for t in TRAFFICS]
            want += [("md_rate", (9e6, 0.9, t, params, radio))
                     for t in TRAFFICS]
            assert [calls[int(float(c)) - 1] for c in row[1:]] == want

    @pytest.mark.parametrize("args, config", [
        (["simulate", "coverage", "--reps", "1"], None),
        (["simulate", "coverage", "--reps", "0"], None),
        (["simulate", "coverage"], {"fading_draws": 0}),
        (["figure", "2", "--reps", "1"], None),
        (["validate", "--reps", "0"], None),
        (["figure", "5"], {"lambda_r": 2.0}),  # an unknown config key
        (["op", "coverage_prob_pts"], {"a_m": float("nan")}),
        (["simulate", "coverage"], {"replications": True}),
        (["figure", "8"], {"u_values": [5.0, -1.0]}),
        (["figure", "7"], {"r_b_m": -5.0}),
        (["op", "pmf_typical_npts"], {"lam_per_km": "x"}),
        (["op", "md_coverage_pts"], {"sigma2_w": float("inf")}),
        (["validate", "--tolerance", "0"], None),
        (["validate", "--tolerance", "nan"], None),
        (["simulate", "load_typical", "--seed", "-1", "--reps", "10"], None),
        (["simulate", "load_typical"], {"master_seed": 1.5}),
        (["simulate", "load_typical"], {"replications": 2.5}),
        (["op", "pmf_typical_npts"], {"k_max": -5}),
        (["op", "pmf_typical_npts"], {"k_max": 2.7}),
        (["op", "md_coverage_npts"], {"x_reliability": 1.5}),
        (["op", "md_coverage_npts"], {"x_reliability": 0}),
        (["op", "coverage_prob_npts"], {"tau_sinr": -1}),
        (["op", "rate_coverage_npts"], {"tau_rate_bps": 0}),
        (["validate"], {"tau_sinr": 0}),
        (["op", "nope"], None),
        (["op", "active_prob_npts", "--out", "{tmp}"], None),
        (["simulate", "coverage", "--out", "{tmp}/missing/out.csv"], None),
        (["op", "pmf_typical_pts"], {"k_max": 100_000}),
        (["op", "rate_coverage_npts"], {"tau_rate_bps": 2e10}),
        (["op", "md_rate_pts"], {"tau_rate_bps": 2e10}),
        (["figure", "9"], {"tau_rate_bps": 2e10}),
        # 2^(tau_rate_bps / B) - 1 rounds to 0 at B = 1e300
        (["op", "rate_coverage_npts"], {"bandwidth_hz": 1e300}),
        (["figure", "3"], {"lam_per_km": 3.0}),
        (["figure", "9"], {"lam_per_km": 3.0}),
    ])
    def test_bad_simulation_settings_are_usage_errors(
            self, args, config, tmp_path, capsys, monkeypatch):
        def no_replications(*args):
            raise AssertionError("a replication ran before a usage error")

        monkeypatch.setattr(montecarlo, "_replicate", no_replications)
        args = [a.format(tmp=tmp_path) for a in args]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        if "--out" not in args:
            args = args + ["--out", str(tmp_path / "out.csv")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text", [
        '{"m": 15.0,', "5", None, '{"u_values": 5}', '{"alpha": "x"}',
        '{"lambda_r_per_km": -1}', '{"alpha": 0.5}', '{"a_m": NaN}',
        '{"scenario": 3}', '{"m": 1' + "0" * 400 + "}", '{"m": null}',
    ], ids=["malformed", "not_an_object", "missing", "u_values_number",
            "alpha_string", "negative_density", "alpha_below_one",
            "a_m_nan", "scenario_number", "int_beyond_float", "m_null"])
    def test_bad_config_files_are_usage_errors(self, text, tmp_path,
                                               capsys):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["figure", "5", "--config", str(path),
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args", [
        ["op", "rate_coverage_pts"],  # raised by the work
        ["figure", "6"],
        ["validate", "--reps", "300", "--tolerance", "0.9"],  # by the gate
    ])
    def test_numerics_error_exits_3(self, args, tmp_path, capsys,
                                    monkeypatch):
        def uncertified(mass_at):
            raise NumericsError("PMF tail not certified below K=512")

        monkeypatch.setattr(mcp_counts, "choose_truncation", uncertified)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            "platoonnet: error: PMF tail not certified below K=512\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args, config, name", [
        (["op", "active_prob_pts"], {"lambda_r_per_km": 1e300},
         "active_prob"),
        (["figure", "4"], {"lambda_r_per_km": 1e300}, "moments_tagged_pts"),
        (["op", "moments_tagged_pts"], {"lambda_r_per_km": 1e300},
         "moments_tagged_pts"),
        (["op", "moments_typical_pts"], {"lambda_p_per_km": 1e300},
         "moments_typical_pts"),
        (["op", "moments_typical_pts"], {"a_m": 1e-300},
         "moments_typical_pts"),
        (["op", "coverage_prob_pts"], {"alpha": 300}, "coverage_prob"),
        (["op", "moments_typical_npts"], {"lam_per_km": 1e300},
         "moments_typical_npts"),
        (["op", "moments_tagged_npts"], {"lambda_r_per_km": 1e-300},
         "moments_tagged_npts"),
    ])
    def test_float_overflow_exits_3(self, args, config, name, tmp_path,
                                    capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", str(path),
                         "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 3
        assert capsys.readouterr().err == (
            f"platoonnet: error: {name}: a value overflows a float\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("args, config", [
        *[(["op", op], {key: value})
          for op in ("moments_typical_npts", "moments_tagged_npts")
          for key, value in (("lambda_r_per_km", 1e300),
                             ("lambda_p_per_km", 1e-300), ("m", 1e-300),
                             ("lam_per_km", 1e-300))],
        (["figure", "4"], {"lambda_p_per_km": 1e-300}),
    ])
    def test_skewness_underflow_exits_3(self, args, config, tmp_path,
                                        capsys):
        # the N-PTS variance is near 1e-300, and its 1.5 power is 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", str(path),
                         "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: skewness: variance**1.5 "
                              "underflows to 0 (variance ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_never_active_rsu_exits_3(self, tmp_path, capsys):
        # at u = 1e-17 no typical RSU serves a VU: p_off is 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"u_values": [1e-17]}))
        with pytest.raises(SystemExit) as exc:
            main(["figure", "6", "--config", str(path),
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: the RSU is never active")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_monte_carlo_window_past_the_cap_exits_3(self, tmp_path,
                                                      capsys):
        # at alpha = 1.01 the interference reach overflows a float
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha": 1.01}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "coverage", "--config", str(path), "--reps",
                  "2", "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: a Monte Carlo window")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_bad_figure_number(self):
        with pytest.raises(SystemExit):
            main(["figure", "12"])

    def test_validate_exit_codes(self, tmp_path, monkeypatch):
        # a deliberately tiny run with a huge tolerance must pass ...
        out = tmp_path / "val.csv"
        code = main(["validate", "--reps", "300", "--tolerance", "0.9",
                     "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["check", "gap", "status"]
        names = {r[0] for r in rows}
        assert "load_typical_PTS" in names
        assert "connectivity_NPTS" in names
        assert "coverage_PTS" in names
        assert all(r[2] == "PASS" for r in rows)
        # ... a gap past the tolerance must fail: here a deliberately
        # wrong coverage estimate, off by more than any probability ...
        with monkeypatch.context() as mp:
            mp.setattr(montecarlo, "sim_coverage",
                       lambda *args: SimEstimate(2.0, 0.0, 300))
            code = main(["validate", "--reps", "300", "--tolerance", "0.9",
                         "--out", str(out)])
        assert code == 1
        _, _, rows = read_csv(out)
        assert {r[0] for r in rows if r[2] == "FAIL"} == {"coverage_PTS",
                                                          "coverage_NPTS"}
        # ... and an impossible tolerance is a usage error before any
        # simulation
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--reps", "300", "--tolerance", "1e-9",
                  "--out", str(out)])
        assert exc.value.code == 2

    def test_validate_status_lines(self, tmp_path, capsys, monkeypatch):
        # one stderr line per check: coverage checks print the MC standard
        # error next to their gap, TV checks their noise bound, every line
        # its wall time; the CSV keeps its three columns
        monkeypatch.setattr(montecarlo, "sim_coverage",
                            lambda *args: SimEstimate(0.5, 0.01234, 300))
        out = tmp_path / "val.csv"
        assert main(["validate", "--reps", "300", "--tolerance", "0.9",
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        _, header, rows = read_csv(out)
        assert header == ["check", "gap", "status"]
        assert [line.split()[1] for line in lines] == [
            f"{name}:" for name, _, _ in rows]
        for line, (name, gap, status) in zip(lines, rows):
            assert line.startswith(f"{status} {name}: gap={float(gap):.5f} ")
            assert re.search(r" time=\d+\.\d\ds$", line)
            if name.startswith("coverage"):
                assert " se=0.01234 " in line
            else:
                assert " noise_bound=" in line and " se=" not in line

    def test_validate_refuses_reps_below_its_noise(self, tmp_path, capsys,
                                                    monkeypatch):
        # at 5,000 replications sampling noise alone makes TV gaps of
        # 0.021-0.035 likely on correct code, past the 0.02 default gate
        def no_replications(*args):
            raise AssertionError("validate simulated a replication")

        monkeypatch.setattr(montecarlo, "_replicate", no_replications)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--reps", "5000",
                  "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("platoonnet: error: --reps 5000 is too few")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()
        # the named count clears every bound, one fewer does not
        reps = int(err.split("use --reps ")[1].split()[0])

        def tv_bounds(**overrides):
            checks = validate_checks(load_config(None, overrides), 0.02)
            return [bound for *_, bound in checks if bound is not None]
        bounds = tv_bounds(replications=reps)
        assert len(bounds) == 6 and max(bounds) < 0.02
        with pytest.raises(ValueError, match="too few"):
            tv_bounds(replications=reps - 1)
        # the default count is not refused
        bounds = tv_bounds()
        assert 0.01 < max(bounds) < 0.0176


def run_module(*args):
    """`python -m platoonnet *args` in a fresh process that imports this
    platoonnet; its CompletedProcess, with text stdout and stderr."""
    src = str(Path(platoonnet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "platoonnet", *args],
                          env=env, capture_output=True, text=True)


def test_module_entry_exit_status():
    ok = run_module("op", "active_prob_npts", "--out", "-")
    assert ok.returncode == 0
    assert ok.stdout.startswith("# platoonnet data series\n")
    bad = run_module("op", "nope")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("platoonnet: error: unknown op 'nope'")
    assert bad.stderr.count("\n") == 1


@pytest.mark.parametrize("m", [1000, 1e5])
@pytest.mark.parametrize("args", [["op", "pmf_tagged_pts"], ["figure", "2"],
                                  ["op", "md_rate_pts"]])
def test_overflowed_load_bound_is_one_line(m, args, tmp_path):
    # e^{m (rho - 1)} overflows at the Chernoff radii: no numpy warning
    # reaches stderr, only the error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"m": m}))
    run = run_module(*args, "--config", str(path),
                     "--out", str(tmp_path / "out.csv"))
    assert run.returncode == 3
    assert run.stderr == ("platoonnet: error: load PMF: its Chernoff tail "
                          "bound overflows a float\n")
    assert not (tmp_path / "out.csv").exists()


def test_md_coverage_at_alpha_300_is_quiet(tmp_path):
    # u^alpha overflows a float at most serving-distance nodes; inf is the
    # limit there and exp of the exponent is 0, so nothing is printed,
    # and the value sits just below the noise-only bound
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 300}))
    run = run_module("op", "md_coverage_pts", "--config", str(path),
                     "--out", "-")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-2:-1] == ["quantity,value"]
    value = float(run.stdout.splitlines()[-1].split(",")[1])
    cfg = load_config(path)
    bound = CoverageMeta(cfg["tau_sinr"], "PTS", build_params(cfg),
                         build_radio(cfg), p_active=1.0).md_noise_bound(
                             cfg["x_reliability"])
    assert 0.999 * bound <= value <= bound
