"""End-to-end tests of the command line driver.

Everything goes through cli.main with an argv list (no subprocesses), writing
into pytest tmp_path directories.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import MALFORMED, circle
from sobcurve import cli, transport
from sobcurve.cli import (
    build_parser,
    fitted_slope,
    main,
    parse_eps_rule,
    parse_tau_rule,
    resolve_curve,
)
from sobcurve.curve import curve_to_dict, load_curve, pad, save_curve
from sobcurve.energy import EnergyKind
from sobcurve.errors import NoConvergence
from sobcurve.metric import MetricWeights, sobolev_norm


#: The coefficient stack [a_0..a_N, b_1..b_N] of each builtin, at its
#: defaults and with explicit parameters.
BUILTIN_COEFFS = {
    "circle": [[0, 0], [1, 0], [0, 1]],
    "circle:": [[0, 0], [1, 0], [0, 1]],
    "circle:1.2": [[0, 0], [1.2, 0], [0, 1.2]],
    "circle:-2.5": [[0, 0], [-2.5, 0], [0, -2.5]],
    "ellipse": [[0, 0], [1.5, 0], [0, 1]],
    "ellipse:2": [[0, 0], [2, 0], [0, 1]],
    "ellipse:2,0.5": [[0, 0], [2, 0], [0, 0.5]],
    # a_0..a_6, then b_1..b_6
    "star": [[0, 0], [1, 0], [0, 0], [0, 0], [0.15, 0], [0, 0], [0.15, 0],
             [0, 1], [0, 0], [0, 0], [0, -0.15], [0, 0], [0, 0.15]],
    "cosx": [[0, 0], [1, 0], [0, 0]],
    "cosy": [[0, 0], [0, 1], [0, 0]],
    "mixv": [[0, 0], [-0.5, 0], [0, 1]],
    "mixw": [[0, 0], [1, 0], [0, -0.5]],
    "normal5": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0.5], [0, 0], [0, -0.5],
                [0, 0], [0, 0], [0, 0], [0.5, 0], [0, 0], [0.5, 0]],
}


class TestResolveCurve:
    @pytest.mark.parametrize("spec", BUILTIN_COEFFS)
    def test_builtin_coefficients(self, spec):
        expected = np.array(BUILTIN_COEFFS[spec], dtype=float)
        assert np.array_equal(resolve_curve(spec).coeffs, expected)

    def test_every_builtin_has_coefficients_above(self):
        assert {spec.partition(":")[0] for spec in BUILTIN_COEFFS} == set(cli._BUILTINS)

    def test_builtin_circle_default(self):
        c = resolve_curve("circle")
        np.testing.assert_allclose(c.coeffs, circle().coeffs)

    def test_builtin_circle_radius(self):
        c = resolve_curve("circle:2.5")
        np.testing.assert_allclose(c.coeffs, circle(radius=2.5).coeffs)

    def test_builtin_ellipse(self):
        c = resolve_curve("ellipse:2,0.5")
        assert c.cos_coeffs[1, 0] == 2.0
        assert c.sin_coeffs[0, 1] == 0.5

    def test_star_is_the_advertised_shape(self):
        # r(theta) = 1 + 0.3 cos(5 theta) times (cos theta, sin theta)
        c = resolve_curve("star")
        theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        r = 1.0 + 0.3 * np.cos(5.0 * theta)
        expected = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        np.testing.assert_allclose(c.eval(theta), expected, atol=1e-12)

    def test_normal5_is_modulated_normal(self):
        c = resolve_curve("normal5")
        theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        expected = np.sin(5.0 * theta)[:, None] * np.stack(
            [np.cos(theta), np.sin(theta)], axis=1
        )
        np.testing.assert_allclose(c.eval(theta), expected, atol=1e-12)

    def test_file_path_wins(self, tmp_path):
        path = tmp_path / "c.json"
        save_curve(circle(radius=3.0), str(path))
        c = resolve_curve(str(path))
        np.testing.assert_allclose(c.coeffs, circle(radius=3.0).coeffs)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_curve("dodecagon")


class TestRuleParsing:
    def test_eps_constant(self):
        rule = parse_eps_rule("0.05")
        assert rule(4) == 0.05
        assert rule(512) == 0.05

    def test_eps_one_over_k(self):
        rule = parse_eps_rule("1/K")
        assert rule(8) == pytest.approx(0.125)

    def test_eps_inverse_sqrt(self):
        rule = parse_eps_rule("1/sqrt(K)")
        assert rule(16) == pytest.approx(0.25)

    def test_eps_scaled_three_halves(self):
        rule = parse_eps_rule("2*K^-3/2")
        assert rule(4) == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", ["-1", "0", "K", "eps/K", "inf", "nan",
                                     "-1*K^-3/2", "0*K^-3/2", "1e999*K^-3/2"])
    def test_eps_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_eps_rule(bad)

    @pytest.mark.parametrize("bad", ["tau/0", "tau^2/-1", "tau^2/1e999", "0", "inf"])
    def test_tau_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            parse_tau_rule(bad)

    def test_tau_powers(self):
        assert parse_tau_rule("tau")(0.25) == 0.25
        assert parse_tau_rule("tau^2")(0.5) == pytest.approx(0.25)
        assert parse_tau_rule("tau^3/2")(0.5) == pytest.approx(0.0625)

    def test_tau_constant(self):
        assert parse_tau_rule("1e-3")(0.5) == 1e-3


def test_fitted_slope_recovers_power_law():
    ks = [4, 8, 16, 32, 64]
    errs = [10.0 * k**-1.5 for k in ks]
    assert fitted_slope(ks, errs) == pytest.approx(1.5, abs=1e-12)


class TestSingleCommands:
    def test_geodesic_writes_nodes_and_manifest(self, tmp_path, capsys):
        rc = main([
            "geodesic", "--in-a", "circle", "--in-b", "circle:1.2",
            "-K", "4", "-N", "6", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["nodes"] == [f"node_{j:04d}.json" for j in range(5)]
        first = load_curve(str(tmp_path / "node_0000.json"))
        np.testing.assert_allclose(first.coeffs, pad(circle(), 6).coeffs)
        out = capsys.readouterr().out
        assert "energy=" in out and "iterations=" in out and "grad_norm=" in out

    def test_geodesic_identical_endpoints(self, tmp_path, capsys):
        rc = main([
            "geodesic", "--in-a", "circle", "--in-b", "circle",
            "-K", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["iterations"] == 0
        assert abs(manifest["energy"]) < 1e-14

    def test_log_then_exp_round_trip(self, tmp_path):
        assert main([
            "log", "--in-a", "circle", "--in-b", "circle:1.1",
            "-N", "6", "--out", str(tmp_path),
        ]) == 0
        assert main([
            "exp", "--in-a", "circle",
            "--in-v", str(tmp_path / "log_result.json"),
            "-K", "2", "-N", "6", "--out", str(tmp_path),
        ]) == 0
        end = load_curve(str(tmp_path / "exp_result.json"))
        target = pad(circle(radius=1.1), end.order)
        assert sobolev_norm(end - target, 2) < 1e-10

    def test_transport_writes_alphas(self, tmp_path, capsys):
        rc = main([
            "transport", "--in-a", "circle", "--in-b", "circle:1.2",
            "--in-v", "normal5", "-K", "4", "-N", "8", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "transport_alphas.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "k,alpha"
        assert len(lines) == 2 + 4  # one row per rung
        assert "alpha_drift_max=" in capsys.readouterr().out

    @pytest.mark.filterwarnings("always::RuntimeWarning")
    def test_warning_prints_one_line(self, tmp_path, capsys):
        # a trial point of the second step slows below epsilon / 2
        assert main([
            "exp", "--in-a", "circle", "--in-v", "mixv", "--kind", "reg", "--epsilon", "0.6",
            "-K", "4", "-N", "8", "--out", str(tmp_path),
        ]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "sobcurve: warning: epsilon 6.000e-01 >= twice the minimal speed 1.791e-01; "
            "the clipped lower bound may be active"
        ]

    def test_transport_climbs_one_ladder(self, tmp_path, monkeypatch):
        # the alphas reuse the transported family: K rungs, not 2K, each
        # with one midpoint solve
        real_midpoint, rungs = transport.el_midpoint, []

        def counted(*args, **kwargs):
            rungs.append(None)
            return real_midpoint(*args, **kwargs)

        monkeypatch.setattr(transport, "el_midpoint", counted)
        assert main([
            "transport", "--in-a", "circle", "--in-b", "circle:1.2",
            "--in-v", "normal5", "-K", "4", "-N", "8", "--out", str(tmp_path),
        ]) == 0
        assert len(rungs) == 4

    def test_curvature_prints_kappa(self, tmp_path, capsys):
        rc = main([
            "curvature", "--in-a", "circle", "--in-v", "cosx", "--in-w", "cosy",
            "--weights", "1,1,1", "-N", "12", "-K", "16", "--centered",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        result = json.loads((tmp_path / "curvature_result.json").read_text())
        # tau = 1/16 sits within a couple percent of -31/(117 pi)
        assert result["kappa"] == pytest.approx(-31.0 / (117.0 * math.pi), rel=0.03)
        assert "kappa=" in capsys.readouterr().out

    def test_curvature_schedule_flags(self, tmp_path):
        # --beta and --eps-in replace the one-sided schedule's inner exponent
        # and inner epsilon; the smoothed kind reads both
        rc = main([
            "curvature", "--in-a", "circle", "--in-v", "cosx", "--in-w", "cosy",
            "--weights", "1,1,1", "-N", "4", "-K", "8", "--kind", "reg",
            "--beta", "1.75", "--eps-in", "tau^3", "--out", str(tmp_path),
        ])
        assert rc == 0
        tau = 1.0 / 8
        eps_in = parse_tau_rule("tau^3")(tau)
        schedule = dataclasses.replace(
            transport.CurvatureSchedule.one_sided(tau), beta=1.75, eps_in=eps_in
        )
        c, v, w = (pad(resolve_curve(name), 4) for name in ("circle", "cosx", "cosy"))
        expected = transport.sectional_curvature(
            c, v, w, tau, schedule, MetricWeights.of(1.0, 1.0, 1.0), EnergyKind.reg(1.0), 16
        )
        assert json.loads((tmp_path / "curvature_result.json").read_text())["kappa"] == expected

    def test_covderiv_runs_both_quotients(self, tmp_path):
        base = ["covderiv", "--in-a", "circle", "--in-v", "mixv",
                "--in-w", "mixw", "-K", "50", "--out", str(tmp_path)]
        assert main(base) == 0
        one_sided = load_curve(str(tmp_path / "covderiv_result.json"))
        assert main(base + ["--centered"]) == 0
        central = load_curve(str(tmp_path / "covderiv_result.json"))
        # different quotients, same limit: close but not identical
        assert 0.0 < sobolev_norm(central - one_sided, 0) < 0.1


CURVATURE_ARGV = ["curvature", "--in-a", "circle", "--in-v", "cosx", "--in-w", "cosy",
                  "--weights", "1,1,1", "-K", "8"]
SWEEP_CURVATURE_ARGV = ["sweep-curvature", "--in-v", "cosx", "--in-w", "cosy",
                        "--weights", "1,1,1", "--K-list", "4,8"]
BETA_400 = ("inner step tau**beta = 0.25**400.0 leaves no digit: "
            "tau * tau**beta = 3.749e-242 is at or below machine epsilon")


class TestErrorExits:
    @pytest.mark.parametrize("argv, message", [
        (["exp", "--in-a", "circle:1,2", "--in-v", "cosx"],
         "builtin 'circle' takes 1 parameter(s), got 2"),
        (["log", "--in-a", "circle", "--in-b", "ellipse:1,2,3"],
         "builtin 'ellipse' takes 2 parameter(s), got 3"),
        (["geodesic", "--in-a", "circle", "--in-b", "star:1", "-K", "2"],
         "builtin 'star' takes 0 parameter(s), got 1"),
        (["exp", "--in-a", "circle", "--in-v", "cosx:2"],
         "builtin 'cosx' takes 0 parameter(s), got 1"),
        (CURVATURE_ARGV + ["--beta", "inf"], "inner-step exponent beta must be finite and exceed 1"),
        # tau**beta underflows to 0.0
        (CURVATURE_ARGV + ["--beta", "1e6"],
         "inner step tau**beta = 0.125**1000000.0 must be finite and positive"),
        (SWEEP_CURVATURE_ARGV + ["--beta", "1e6"],
         "inner step tau**beta = 0.25**1000000.0 must be finite and positive"),
        # tau**beta = 1.5e-241 does not, but the nested quotient's divisor
        # tau * tau**beta is far below the coefficients' rounding
        (CURVATURE_ARGV[:-1] + ["4", "--beta", "400"], BETA_400),
        (SWEEP_CURVATURE_ARGV + ["--beta", "400"], BETA_400),
        # other values rejected before any solve
        (CURVATURE_ARGV + ["--epsilon", "0.1"],
         "curvature commands take --eps-out/--eps-in schedule rules, not --epsilon"),
        (["sweep-exp", "--in-a", "circle", "--in-v", "mixv", "--K-list", "0,4"],
         "segment counts must be at least 1"),
        (["log", "--in-a", "circle", "--in-b", "circle:1.1", "-N", "0"],
         "need at least one Fourier mode"),
        (["sweep-geodesic", "--in-a", "circle", "--in-b", "circle:1.2", "--K-list", "2,4",
          "--ref", "ref.json"], "sweep-geodesic supports only self:K references"),
    ], ids=["circle:1,2", "ellipse:1,2,3", "star:1", "cosx:2", "beta-inf", "beta-1e6",
            "sweep-beta-1e6", "beta-400", "sweep-beta-400", "curvature-epsilon", "K-list-0",
            "N-0", "sweep-geodesic-ref-file"])
    def test_bad_builtin_parameters_and_beta_are_config_errors(self, argv, message, tmp_path,
                                                              capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"sobcurve: error[config]: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_shape_is_config_error(self, tmp_path, capsys):
        rc = main(["geodesic", "--in-a", "circle", "--in-b", "wibble",
                   "-K", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert "error[config]" in capsys.readouterr().err

    def test_degenerate_plane_is_package_error(self, tmp_path, capsys):
        rc = main(["curvature", "--in-a", "circle", "--in-v", "cosx",
                   "--in-w", "cosx", "-K", "8", "--weights", "1,1,1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error[degenerate-plane]" in capsys.readouterr().err

    def test_reg_without_epsilon(self, tmp_path, capsys):
        rc = main(["log", "--in-a", "circle", "--in-b", "circle:1.1",
                   "--kind", "reg", "--out", str(tmp_path)])
        assert rc == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_epsilon_with_rat_rejected(self, tmp_path):
        rc = main(["log", "--in-a", "circle", "--in-b", "circle:1.1",
                   "--epsilon", "0.1", "--out", str(tmp_path)])
        assert rc == 2

    def test_unsorted_k_list(self, tmp_path, capsys):
        rc = main(["sweep-exp", "--in-a", "circle", "--in-v", "mixv",
                   "--K-list", "8,4", "--out", str(tmp_path)])
        assert rc == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_quadrature_too_coarse(self, tmp_path):
        rc = main(["log", "--in-a", "circle", "--in-b", "circle:1.1",
                   "-N", "8", "-M", "16", "--out", str(tmp_path)])
        assert rc == 2

    def test_quadrature_too_coarse_for_input_order(self, tmp_path, capsys):
        # without -N the inputs' own order (star: 6) sets the M > 2N bound
        rc = main(["exp", "--in-a", "star", "--in-v", "mixv", "-M", "10",
                   "-K", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert "need M > 2N" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bad", [
        (["log", "--in-a", "circle", "--in-b"], math.nan),
        (["geodesic", "-K", "4", "--in-a", "circle", "--in-b"], math.inf),
        (["transport", "-K", "4", "--in-a", "circle", "--in-b", "circle:1.2", "--in-v"],
         -math.inf),
    ], ids=["log-nan", "geodesic-inf", "transport-neg-inf"])
    def test_non_finite_coefficients_are_config_errors(self, argv, bad, tmp_path, capsys):
        # json reads NaN and Infinity; such a file must stop at load time
        record = curve_to_dict(circle(radius=1.2))
        record["cos"][1][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        rc = main(argv + [str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["log", "--in-a", "circle", "--in-b", "circle:1.1", "--weights", "1,nan,1"],
        ["geodesic", "-K", "2", "--in-a", "circle", "--in-b", "circle:1.1",
         "--weights", "1,1,inf"],
        ["geodesic", "-K", "2", "--in-a", "circle", "--in-b", "circle:1.1",
         "--kind", "reg", "--epsilon", "inf"],
        ["curvature", "--in-a", "circle", "--in-v", "cosx", "--in-w", "mixw", "-K", "8",
         "--kind", "reg", "--eps-out", "inf"],
        ["curvature", "--in-a", "circle", "--in-v", "cosx", "--in-w", "mixw", "-K", "8",
         "--kind", "reg", "--eps-out", "tau/0"],
        ["geodesic", "-K", "2", "--in-a", "circle", "--in-b", "circle:1.1",
         "--tol", "inf"],
    ], ids=["weights-nan", "weights-inf", "epsilon-inf", "eps-out-inf",
            "eps-out-zero-divisor", "tol-inf"])
    def test_non_finite_parameters_are_config_errors(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error[config]" in err and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["covderiv", "-K", "0"],
        ["curvature", "-K", "0"],
        ["curvature", "--centered", "--curv-scale", "0"],
    ], ids=["covderiv-K0", "curvature-K0", "curv-scale-zero"])
    def test_zero_step_parameters_are_config_errors(self, argv, tmp_path, capsys):
        # each of these once divided by zero: -K 0 in tau = 1/K, a zero
        # --curv-scale in the central schedule's tau^2/C
        argv = argv + ["--in-a", "circle", "--in-v", "cosx", "--in-w", "cosy"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", MALFORMED, ids=[m.__name__ for m, _ in MALFORMED])
    def test_malformed_curve_files_are_config_errors(self, mutate, message, tmp_path, capsys):
        record = curve_to_dict(circle(radius=1.2, order=2))
        mutate(record)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        rc = main(["log", "--in-a", "circle", "--in-b", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"sobcurve: error[config]: {message}\n"

    def test_oracle_sweep_requires_unit_circle(self, tmp_path, capsys):
        rc = main(["sweep-covderiv", "--in-a", "circle:2", "--in-v", "mixv",
                   "--in-w", "mixw", "--K-list", "4,8", "--out", str(tmp_path)])
        assert rc == 2
        assert "unit circle" in capsys.readouterr().err


def _subcommands():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return sorted(action.choices)


COVDERIV_INPUTS = ["--in-a", "circle", "--in-v", "mixv", "--in-w", "mixw"]


class TestParser:
    @pytest.mark.parametrize("command", _subcommands())
    def test_help_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: sobcurve {command}" in capsys.readouterr().out

    # the covderiv commands take no schedule flag but --centered, and flags
    # are never prefix-matched (--m, no longer an option, is not --max-iters)
    @pytest.mark.parametrize("argv", [
        ["covderiv", *COVDERIV_INPUTS, "--beta", "2"],
        ["covderiv", *COVDERIV_INPUTS, "--eps-out", "tau"],
        ["covderiv", *COVDERIV_INPUTS, "--eps-in", "tau^2"],
        ["covderiv", *COVDERIV_INPUTS, "--curv-scale", "2"],
        ["sweep-covderiv", *COVDERIV_INPUTS, "--K-list", "4,8", "--beta", "2"],
        ["log", "--in-a", "circle", "--in-b", "circle:1.1", "--m", "2"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unaccepted_flag_is_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


# (argv, CSV header, K-list) for every sweep, at small sizes
SWEEPS = [
    (["sweep-geodesic", "--in-a", "circle", "--in-b", "circle:1.2",
      "--ref", "self:8"], "K,err_L2,err_W1,err_W2", [2, 4]),
    (["sweep-exp", "--in-a", "circle", "--in-v", "mixv", "--ref", "self:8"],
     "K,err_W2", [2, 4]),
    (["sweep-transport", "--in-a", "circle", "--in-b", "circle:1.2",
      "--in-v", "mixv", "--ref", "self:8"], "K,err_W2", [2, 4]),
    (["sweep-covderiv", "--in-v", "mixv", "--in-w", "mixw"], "K,err_W2", [4, 8]),
    (["sweep-curvature", "--in-v", "cosx", "--in-w", "cosy", "--weights", "1,1,1",
      "--centered"], "K,kappa,err", [4, 8]),
]


class TestSweeps:
    @pytest.mark.parametrize("argv, header, ks", SWEEPS, ids=[s[0][0] for s in SWEEPS])
    def test_sweep_csv_header_rows_and_slope(self, argv, header, ks, tmp_path, capsys):
        k_list = ",".join(map(str, ks))
        assert main(argv + ["-N", "4", "--K-list", k_list, "--out", str(tmp_path)]) == 0
        name = argv[0].replace("-", "_") + ".csv"
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("# ") and f"K_list={k_list}" in lines[0]
        assert lines[1] == header
        assert [int(line.split(",")[0]) for line in lines[2:2 + len(ks)]] == ks
        assert all(line.startswith("# ") for line in lines[2 + len(ks):])
        slope = lines[-1].removeprefix("# fitted_slope_final_half=")
        assert slope != lines[-1]
        assert capsys.readouterr().out.rstrip().endswith(f"fitted_slope={slope}")
        errors = [float(line.split(",")[-1]) for line in lines[2:2 + len(ks)]]
        assert float(slope) == fitted_slope(ks, errors)  # fitted on the last column

    def test_curvature_sweep_csv_shape_and_determinism(self, tmp_path, capsys):
        argv = ["sweep-curvature", "--in-v", "cosx", "--in-w", "cosy",
                "--weights", "1,1,1", "-N", "10", "--K-list", "4,8,16",
                "--centered"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        text_a = (tmp_path / "a" / "sweep_curvature.csv").read_bytes()
        text_b = (tmp_path / "b" / "sweep_curvature.csv").read_bytes()
        assert text_a == text_b  # identical invocations, identical bytes

        lines = text_a.decode().splitlines()
        assert lines[0].startswith("# ")
        assert "K_list=4,8,16" in lines[0]
        assert lines[1] == "K,kappa,err"
        assert len(lines) == 2 + 3 + 2  # config, header, rows, 2 trailing comments
        assert lines[-1].startswith("# fitted_slope_final_half=")
        errs = [float(line.split(",")[2]) for line in lines[2:5]]
        assert errs == sorted(errs, reverse=True)

    def test_covderiv_sweep_reg_rate(self, tmp_path, capsys):
        rc = main(["sweep-covderiv", "--in-v", "mixv", "--in-w", "mixw",
                   "--kind", "reg", "--epsilon", "1/K", "-N", "10",
                   "--K-list", "8,16,32,64", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        slope = float(out.split("fitted_slope=")[1])
        assert 0.7 <= slope <= 1.3  # eps = tau bias converges first order

    def test_exp_sweep_against_self_reference(self, tmp_path):
        rc = main(["sweep-exp", "--in-a", "circle", "--in-v", "mixv",
                   "--K-list", "2,4,8", "--ref", "self:64", "-N", "6",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep_exp.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:5]]
        assert [int(r[0]) for r in rows] == [2, 4, 8]
        errs = [float(r[1]) for r in rows]
        assert errs == sorted(errs, reverse=True)

    def test_exp_sweep_against_a_reference_file(self, tmp_path):
        # the endpoint that exp writes, given as --ref, yields the rows of the
        # self reference at the same K
        assert main(["exp", "--in-a", "circle", "--in-v", "mixv", "-K", "256", "-N", "4",
                     "--out", str(tmp_path / "exp")]) == 0
        sweep = ["sweep-exp", "--in-a", "circle", "--in-v", "mixv", "--K-list", "4,8,16",
                 "-N", "4"]
        refs = {"file": str(tmp_path / "exp" / "exp_result.json"), "self": "self:256"}
        for out, ref in refs.items():
            assert main(sweep + ["--ref", ref, "--out", str(tmp_path / out)]) == 0
        file_rows, self_rows = (
            (tmp_path / out / "sweep_exp.csv").read_text().splitlines()[1:] for out in refs
        )
        assert file_rows == self_rows
        assert len(file_rows) == 1 + 3 + 1  # header, rows, slope

    def test_transport_sweep_against_a_reference_file(self, tmp_path, monkeypatch):
        ref = tmp_path / "w_ref.json"
        save_curve(pad(resolve_curve("cosx"), 4) * 0.9, str(ref))
        real_transport, moved = cli.transport_path, {}

        def recorded(path, *args, **kwargs):
            moved[path.num_segments] = out = real_transport(path, *args, **kwargs)
            return out

        monkeypatch.setattr(cli, "transport_path", recorded)
        assert main(["sweep-transport", "--in-a", "circle", "--in-b", "circle:1.2",
                     "--in-v", "cosx", "-N", "4", "--K-list", "2,4,8", "--ref", str(ref),
                     "--out", str(tmp_path)]) == 0
        assert sorted(moved) == [2, 4, 8]  # the file replaces the reference transport
        reference = load_curve(str(ref))
        rows = (tmp_path / "sweep_transport.csv").read_text().splitlines()[2:5]
        assert rows == [f"{k},{sobolev_norm(moved[k] - reference, 2)!r}" for k in (2, 4, 8)]

    def test_geodesic_sweep_second_order(self, tmp_path, capsys):
        rc = main(["sweep-geodesic", "--in-a", "circle", "--in-b", "circle:1.2",
                   "--K-list", "2,4,8", "--ref", "self:64", "-N", "6",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        slope = float(out.split("fitted_slope=")[1])
        assert slope > 1.5
        lines = (tmp_path / "sweep_geodesic.csv").read_text().splitlines()
        assert lines[1] == "K,err_L2,err_W1,err_W2"

    @pytest.mark.parametrize("argv", [
        ["sweep-geodesic", "--in-a", "circle", "--in-b", "circle:1.2", "--ref", "self:8"],
        ["sweep-exp", "--in-a", "circle", "--in-v", "cosx", "-N", "4", "--ref", "self:4"],
        ["sweep-transport", "--in-a", "circle", "--in-b", "circle:1.2", "--in-v", "cosx",
         "-N", "4", "--ref", "self:2"],
    ], ids=lambda argv: argv[0])
    def test_sweep_rejects_low_reference(self, argv, tmp_path, capsys):
        # a self reference no finer than the largest swept K is refused before
        # any solve, so no CSV is written
        rc = main(argv + ["--K-list", "2,4,8", "--out", str(tmp_path)])
        assert rc == 2
        assert "exceed the sweep range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_solver_failure_at_a_later_k_keeps_the_finished_rows(self, tmp_path, capsys,
                                                                monkeypatch):
        real = cli.sectional_curvature

        def stall_at_k8(c, v, w, tau, *args):
            if tau == 1.0 / 8:
                raise NoConvergence("stalled")
            return real(c, v, w, tau, *args)

        monkeypatch.setattr(cli, "sectional_curvature", stall_at_k8)
        assert main(SWEEP_CURVATURE_ARGV + ["-N", "4", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "sobcurve: error[no-convergence]: stalled\n"
        lines = (tmp_path / "sweep_curvature.csv").read_text().splitlines()
        assert lines[0].startswith("# ") and lines[1] == "K,kappa,err"
        assert len(lines) == 3 and lines[2].startswith("4,")

    @pytest.mark.parametrize("argv", [s[0] for s in SWEEPS], ids=[s[0][0] for s in SWEEPS])
    def test_sweep_rejects_a_single_k(self, argv, tmp_path, capsys):
        # a slope through one point is meaningless: refused before any solve
        rc = main(argv + ["-N", "4", "--K-list", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "sobcurve: error[config]: --K-list needs at least two segment counts to fit a slope\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_transport_sweep_runs(self, tmp_path):
        rc = main(["sweep-transport", "--in-a", "circle", "--in-b", "circle:1.2",
                   "--in-v", "normal5", "--K-list", "2,4,8", "--ref", "self:32",
                   "-N", "6", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep_transport.csv").read_text().splitlines()
        errs = [float(line.split(",")[1]) for line in lines[2:5]]
        assert errs[-1] < errs[0]
