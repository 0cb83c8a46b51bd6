"""End-to-end tests of the command-line interface (subprocess level)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from convexreg import Model, cli, transform_from_dict


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "convexreg", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """Run the CLI in this process, so that a line trace of the suite sees the code it runs."""
    code = cli.main([str(arg) for arg in args])
    out, err = capsys.readouterr()
    return code, out, err


def report_of(stdout):
    report = json.loads(stdout)
    assert set(report) == {"command", "config_echo", "results", "wall_time_ms", "version"}
    assert isinstance(report["wall_time_ms"], int) and report["wall_time_ms"] >= 0
    return report


def strip_timing(stdout):
    report = json.loads(stdout)
    report["wall_time_ms"] = None
    return report


@pytest.fixture()
def synth_dir(tmp_path):
    code, out, err = run_cli(
        "synth", "--n", 100, "--d", 3, "--noise", 0, "--seed", 7,
        "--out", tmp_path / "data.csv",
    )
    assert code == 0, err
    return tmp_path


class TestSynth:
    def test_report_and_files(self, tmp_path):
        code, out, err = run_cli(
            "synth", "--n", 10, "--d", 2, "--noise", 0, "--seed", 1,
            "--out", tmp_path / "s.csv",
        )
        assert code == 0, err
        report = report_of(out)
        assert report["command"] == "synth"
        csv_lines = (tmp_path / "s.csv").read_text().splitlines()
        assert csv_lines[0] == "x1,x2,target"
        assert len(csv_lines) == 11
        companion = json.loads((tmp_path / "s.weights.json").read_text())
        assert len(companion["true_weights"]) == 2
        assert companion["transform"]["kind"] == "convex-sqrt"

    @pytest.mark.parametrize(
        "argv, expected",
        [(["--d", 20, "--seed", 1], ["15 target(s) exceed the bound 1; the convexity guarantee does not apply"]),
         (["--d", 2, "--noise", 0], [])],
        ids=["out-of-bound", "in-bound"],
    )
    def test_reports_targets_outside_the_bound(self, tmp_path, argv, expected):
        code, out, err = run_cli("synth", "--n", 500, *argv, "--out", tmp_path / "s.csv")
        assert code == 0, err
        assert report_of(out)["results"]["warnings"] == expected

    def test_deterministic_files(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            code, _, err = run_cli(
                "synth", "--n", 50, "--d", 3, "--noise", 0.2, "--seed", 7,
                "--out", tmp_path / name,
            )
            assert code == 0, err
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        a = json.loads((tmp_path / "a.weights.json").read_text())
        b = json.loads((tmp_path / "b.weights.json").read_text())
        assert a == b

    def test_bad_flags(self, tmp_path):
        code, _, err = run_cli("synth", "--n", 0, "--d", 3, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "--n" in err
        code, _, err = run_cli("synth", "--n", 5, "--d", 3, "--noise", -1, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "--noise" in err


class TestFit:
    def test_zero_noise_fit_converges(self, synth_dir):
        code, out, err = run_cli(
            "fit", "--data", synth_dir / "data.csv", "--transform", "convex-sqrt",
            "--alpha", 1.0, "--y-bound", 1.0, "--seed", 3,
            "--out", synth_dir / "model.json",
        )
        assert code == 0, err
        report = report_of(out)
        fit = report["results"]["fit"]
        assert fit["termination"] == "converged"
        assert fit["final_loss"] <= 1e-10 * 100
        assert report["config_echo"]["y_bound"] == 1.0
        model = json.loads((synth_dir / "model.json").read_text())
        assert set(model) == {"weights", "transform"}
        assert model["transform"] == {"kind": "convex-sqrt", "alpha": 1.0, "y_bound": 1.0}
        assert len(model["weights"]) == 4  # 3 features + bias

    def test_auto_y_bound_echoed_numerically(self, synth_dir):
        code, out, _ = run_cli("fit", "--data", synth_dir / "data.csv", "--y-bound", "auto")
        report = json.loads(out)
        assert isinstance(report["config_echo"]["y_bound"], float)
        assert report["config_echo"]["y_bound"] > 0
        assert code in (0, 4)

    def test_bad_alpha_names_flag(self, synth_dir):
        code, _, err = run_cli("fit", "--data", synth_dir / "data.csv", "--alpha", -1)
        assert code == 2
        assert "--alpha" in err

    def test_small_y_bound_records_warning(self, synth_dir):
        for restarts in (1, 3):
            code, out, err = run_cli(
                "fit", "--data", synth_dir / "data.csv", "--y-bound", 0.01, "--max-iters", 200,
                "--restarts", restarts,
            )
            assert code in (0, 4), err
            assert "TargetBoundWarning" not in err  # recorded in the report, not printed
            report = json.loads(out)
            assert report["results"]["warnings"], "expected a recorded hypothesis warning"
            assert "bound" in report["results"]["warnings"][0]

    @pytest.mark.parametrize("column, echo", [("target", "target"), ("0", 0)], ids=["name", "index"])
    def test_target_column_is_a_name_or_an_index(self, synth_dir, capsys, column, echo):
        # With x1 as the target (the index id) the loss Hessian's eigenvalues span 0.05 to 25
        # near the optimum; both fits still end converged.
        code, out, err = run_main(capsys, "fit", "--data", synth_dir / "data.csv", "--target-column", column)
        assert code == 0, err
        report = report_of(out)
        assert report["config_echo"]["target_column"] == echo
        assert type(report["config_echo"]["target_column"]) is type(echo)
        assert len(report["results"]["fit"]["final_weights"]) == 4  # 3 columns + bias

    def test_missing_data_file(self, tmp_path):
        code, _, err = run_cli("fit", "--data", tmp_path / "absent.csv")
        assert code == 3
        assert err.strip()

    def test_restarts_are_reported(self, synth_dir):
        code, out, _ = run_cli(
            "fit", "--data", synth_dir / "data.csv", "--y-bound", 1.0, "--restarts", 3,
            "--seed", 11,
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["restarts"]) == 3

    def test_convex_sqrt_restarts_reach_one_optimum(self, tmp_path):
        # The paper's claim through the CLI: on tanh-generated data the loss
        # under convex-sqrt is still convex, so every start ends at one loss.
        code, _, err = run_cli(
            "synth", "--n", 60, "--d", 2, "--noise", 0, "--transform", "tanh",
            "--y-bound", 1.0, "--seed", 13, "--out", tmp_path / "t.csv",
        )
        assert code == 0, err
        code, out, err = run_cli("fit", "--data", tmp_path / "t.csv", "--restarts", 20, "--seed", 3)
        assert code == 0, err
        losses = [r["final_loss"] for r in report_of(out)["results"]["restarts"]]
        assert len(losses) == 20
        assert max(losses) - min(losses) <= 1e-6 * (1.0 + min(losses))

    def test_fits_optimal_at_the_rounding_floor_exit_0(self, tmp_path):
        # Noisy data with --y-bound auto: the fit ends when the line search
        # can no longer resolve a decrease, at a point the Newton decrement
        # certifies as optimal.  (At seed 2 it ends converged instead.)
        code, _, err = run_cli(
            "synth", "--n", 5000, "--d", 8, "--noise", 0.1, "--seed", 1, "--out", tmp_path / "d.csv",
        )
        assert code == 0, err
        code, out, err = run_cli("fit", "--data", tmp_path / "d.csv", "--y-bound", "auto")
        assert code == 0, err
        assert json.loads(out)["results"]["fit"]["termination"] == "converged_at_floor"

    def test_iteration_cap_exits_4_with_the_report(self, synth_dir, capsys):
        code, out, err = run_main(capsys, "fit", "--data", synth_dir / "data.csv", "--max-iters", 1)
        assert code == 4, err
        assert report_of(out)["results"]["fit"]["termination"] == "max_iters"


class TestPredict:
    def test_known_model(self, tmp_path):
        model = {"weights": [1.0], "transform": {"kind": "convex-sqrt", "alpha": 1.0, "y_bound": 1.0}}
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("x\n3\n0\n")
        code, out, err = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 0, err
        assert out.splitlines() == ["1.0", "0.0"]

    def test_bias_heuristic(self, synth_dir):
        run_cli(
            "fit", "--data", synth_dir / "data.csv", "--y-bound", 1.0,
            "--out", synth_dir / "model.json",
        )
        # model has 4 weights (3 features + bias); feature file has 3 columns
        (synth_dir / "f.csv").write_text("x1,x2,x3\n0.1,0.2,0.3\n")
        code, out, err = run_cli(
            "predict", "--model", synth_dir / "model.json", "--data", synth_dir / "f.csv"
        )
        assert code == 0, err
        float(out.strip())  # parses as a number

    def test_dimension_mismatch(self, tmp_path):
        model = {"weights": [1.0, 2.0], "transform": {"kind": "affine", "a": 1.0, "b": 0.0}}
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("a,b,c,d\n1,2,3,4\n")
        code, out, err = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 3
        assert out == ""
        assert err == f"error: {tmp_path / 'f.csv'}: model has 2 weights but features have 4 columns\n"

    def test_header_width_mismatch(self, tmp_path):
        model = {"weights": [1.0], "transform": {"kind": "affine", "a": 1.0, "b": 0.0}}
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("a,b\n1\n2\n")
        code, out, err = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 3
        assert out == ""
        assert "header has 2 fields but rows have 1" in err

    def test_output_bytes_are_repr_of_each_prediction(self, tmp_path):
        model = {"weights": [1.0], "transform": {"kind": "affine", "a": 1.0, "b": 0.0}}
        values = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2]
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("x\n" + "".join(repr(v) + "\n" for v in values))
        code, out, err = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 0, err
        predictions = Model(np.array([1.0]), transform_from_dict(model["transform"])).predict(
            np.array(values)[:, None]
        )
        assert out == "".join(repr(float(v)) + "\n" for v in predictions)

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"weights": [True, False, "3"], "transform": {"kind": "affine", "a": 1.0, "b": 0.0}},
             "weights[0] must be a number, got True"),
            ({"weights": [1.0], "transform": {"kind": "affine", "a": True, "b": "0"}}, "a must be a number, got True"),
        ],
        ids=["weights", "transform"],
    )
    def test_model_numbers_must_be_json_numbers(self, tmp_path, model, message):
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("x\n1\n")
        code, out, err = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 3
        assert out == ""
        assert message in err

    def test_shortest_round_trip_formatting(self, tmp_path):
        model = {"weights": [1.0], "transform": {"kind": "affine", "a": 1.0, "b": 0.1}}
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "f.csv").write_text("x\n0.2\n")
        code, out, _ = run_cli("predict", "--model", tmp_path / "m.json", "--data", tmp_path / "f.csv")
        assert code == 0
        assert float(out.strip()) == 0.2 + 0.1


class TestVerify:
    def test_convex_sqrt_passes(self):
        code, out, err = run_cli("verify", "--transform", "convex-sqrt", "--alpha", 1, "--y-bound", 1, "--samples", 4000)
        assert code == 0, err
        report = report_of(out)
        assert report["results"]["all_passed"] is True
        assert all(c["passed"] for c in report["results"]["checks"])

    def test_affine_passes(self):
        code, out, _ = run_cli("verify", "--transform", "affine", "--samples", 4000)
        assert code == 0
        assert json.loads(out)["results"]["all_passed"] is True

    def test_tanh_fails_with_witness(self):
        code, out, _ = run_cli("verify", "--transform", "tanh", "--y-bound", 1, "--samples", 4000)
        assert code == 5
        report = json.loads(out)
        assert report["results"]["all_passed"] is False
        failed = [c for c in report["results"]["checks"] if not c["passed"]]
        assert failed
        assert any(c["witness"] is not None for c in failed)

    @pytest.mark.parametrize(
        "flags", [["--alpha", "1e-6"], ["--alpha", "1e-3"], ["--alpha", "1e12"], ["--y-bound", "1e6"]]
    )
    def test_convex_sqrt_passes_at_extreme_alpha_or_y_bound(self, flags):
        code, out, err = run_cli("verify", *flags, "--samples", 4000)
        assert code == 0, err
        assert report_of(out)["results"]["all_passed"] is True

    def test_auto_y_bound_rejected(self):
        code, _, err = run_cli("verify", "--transform", "convex-sqrt", "--y-bound", "auto")
        assert code == 2
        assert "--y-bound" in err


class TestConfigEcho:
    """``config_echo`` is every flag under its dest name, plus the y_bound resolved from the data."""

    @staticmethod
    def assert_echo(stdout, expected):
        echo = report_of(stdout)["config_echo"]
        assert echo == expected
        assert {key: type(value) for key, value in echo.items()} == {
            key: type(value) for key, value in expected.items()
        }

    def test_fit_headerless_with_auto_bound(self, synth_dir, capsys):
        rows = (synth_dir / "data.csv").read_text().splitlines()[1:]
        (synth_dir / "bare.csv").write_text("\n".join(rows) + "\n")
        y_bound = max(abs(float(row.split(",")[0])) for row in rows)
        code, out, err = run_main(
            capsys, "fit", "--data", synth_dir / "bare.csv", "--no-header", "--no-bias", "--standardize",
            "--target-column", "0", "--y-bound", "auto",
        )
        assert code in (0, 4), err
        self.assert_echo(out, {
            "data": str(synth_dir / "bare.csv"), "target_column": 0, "has_header": False, "add_bias": False,
            "standardize": True, "transform": "convex-sqrt", "alpha": 1.0, "y_bound": y_bound, "restarts": 1,
            "seed": 0, "max_iters": 10000, "grad_tol": 1e-8, "out": None,
        })

    def test_fit_every_flag_set(self, synth_dir, capsys):
        code, out, err = run_main(
            capsys, "fit", "--data", synth_dir / "data.csv", "--target-column", "target", "--transform", "tanh",
            "--alpha", "2", "--y-bound", "0.5", "--restarts", "2", "--seed", "4", "--max-iters", "30",
            "--grad-tol", "1e-6", "--out", synth_dir / "m.json",
        )
        assert code in (0, 4), err
        self.assert_echo(out, {
            "data": str(synth_dir / "data.csv"), "target_column": "target", "has_header": True, "add_bias": True,
            "standardize": False, "transform": "tanh", "alpha": 2.0, "y_bound": 0.5, "restarts": 2, "seed": 4,
            "max_iters": 30, "grad_tol": 1e-6, "out": str(synth_dir / "m.json"),
        })

    def test_verify(self, capsys):
        code, out, err = run_main(
            capsys, "verify", "--transform", "affine", "--alpha", "2", "--y-bound", "0.5", "--samples", "100",
            "--seed", "3",
        )
        assert code == 0, err
        self.assert_echo(out, {"transform": "affine", "alpha": 2.0, "y_bound": 0.5, "samples": 100, "seed": 3})

    def test_synth(self, tmp_path, capsys):
        code, out, err = run_main(capsys, "synth", "--n", "5", "--d", "2", "--out", tmp_path / "s.csv")
        assert code == 0, err
        self.assert_echo(out, {
            "n": 5, "d": 2, "noise": 0.0, "transform": "convex-sqrt", "alpha": 1.0, "y_bound": 1.0, "seed": 0,
            "out": str(tmp_path / "s.csv"),
        })


DATA = "x,t\n0.1,0.2\n0.3,0.4\n-0.5,-0.6\n"


class TestBadInput:
    """Bad flags exit 2 through argparse; bad files exit 3; neither prints a traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "--alpha", "nan"], "--alpha"),
            (["fit", "--alpha", "inf"], "--alpha"),
            (["fit", "--grad-tol", "nan"], "--grad-tol"),
            (["fit", "--y-bound", "inf"], "--y-bound"),
            (["fit", "--seed", "-1"], "--seed"),
            (["fit", "--max-iters", "0"], "--max-iters"),
            (["fit", "--restarts", "0"], "--restarts"),
            (["verify", "--alpha", "nan"], "--alpha"),
            (["verify", "--samples", "0"], "--samples"),
            (["synth", "--n", "5", "--d", "0"], "--d"),
            (["synth", "--n", "5", "--d", "2", "--noise", "nan"], "--noise"),
            (["verify", "--y-bound", "1e308"], "--y-bound"),
        ],
        ids=["fit-alpha-nan", "fit-alpha-inf", "fit-grad-tol-nan", "fit-y-bound-inf",
             "fit-seed-negative", "fit-max-iters-0", "fit-restarts-0", "verify-alpha-nan", "verify-samples-0",
             "synth-d-0", "synth-noise-nan", "verify-y-bound-huge"],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, argv, flag):
        (tmp_path / "d.csv").write_text(DATA)
        extra = {"fit": ["--data", "d.csv"], "synth": ["--out", "s.csv"]}
        code, out, err = run_cli(*argv, *extra.get(argv[0], []), cwd=tmp_path)
        assert code == 2
        assert out == ""
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "files, argv, message",
        [
            ({"d.csv": "a,b,t\n1,1,2\n1,2,3\n1,5,1\n"},
             ["fit", "--data", "d.csv", "--standardize"], "zero variance"),
            ({"d.csv": "a,b,t\n1e308,1,2\n-1e308,2,3\n0,5,1\n"},
             ["fit", "--data", "d.csv", "--standardize"], "feature column 1"),
            ({"d.csv": b"a,t\n1,2\n\xff,3\n"}, ["fit", "--data", "d.csv"], "line 3"),
            ({"d.csv": "a,t\n1,1e200\n2,-1e200\n"},
             ["fit", "--data", "d.csv", "--y-bound", "3"], "loss at the starting point is inf"),
            ({"d.csv": DATA}, ["fit", "--data", "d.csv", "--out", "absent/m.json"], "absent"),
            ({"f.csv": "x\n1\n", "m.json": '{"weights": [NaN], "transform": {"kind": "tanh", "scale": 1}}'},
             ["predict", "--model", "m.json", "--data", "f.csv"], "weights must be finite"),
            ({"f.csv": "x\n1\n", "m.json": "[1.0]"},
             ["predict", "--model", "m.json", "--data", "f.csv"], "cannot load model"),
            ({"f.csv": "x\n1\n", "m.json": '{"weights": [1.0], "transform": null}'},
             ["predict", "--model", "m.json", "--data", "f.csv"], "cannot load model"),
            ({"f.csv": "x\n1\n", "m.json": '{"weights": [1.0], "transform": "tanh"}'},
             ["predict", "--model", "m.json", "--data", "f.csv"], "cannot load model"),
            ({}, ["verify", "--alpha", "1e308"], "the loss is not finite"),
            # Convex there, but the curvature overflows: no verdict rather than a refutation.
            ({}, ["verify", "--alpha", "1e200"], "the loss curvature is not finite at 1281 of 1281 grid points"),
            ({}, ["synth", "--n", "5", "--d", "2", "--noise", "1e308", "--out", "s.csv"], "must be finite"),
            ({}, ["synth", "--n", "5", "--d", "2", "--out", ""], "error: --out '' has no file name\n"),
            ({}, ["synth", "--n", "5", "--d", "2", "--out", "."], "error: --out '.' has no file name\n"),
            ({}, ["synth", "--n", "5", "--d", "2", "--out", "/"], "error: --out '/' has no file name\n"),
            ({"d.csv": DATA}, ["fit", "--data", "d.csv", "--alpha", "1e308"],
             "gradient norm at the starting point is inf"),
            ({"d.csv": "x,y\n1,2\n" + "1" * 200_000 + ",3\n"}, ["fit", "--data", "d.csv"],
             "line 3, column 1: cell '" + "1" * 64 + "'... (200000 characters) is not finite"),
            ({"d.csv": "x,y\n1,2\n0." + "0" * 200_000 + ",3\n4,abc\n"}, ["fit", "--data", "d.csv"],
             "line 4, column 2: cell 'abc' is not a number"),
            ({"d.csv": "x,y\n1,2\n1,abc\n"}, ["fit", "--data", "d.csv"],
             "error: d.csv: line 3, column 2: cell 'abc' is not a number\n"),
            ({}, ["fit", "--data", "absent.csv"], "absent.csv"),
            ({"d.csv": "a,t\n1,2\n1\n"}, ["fit", "--data", "d.csv"],
             "error: d.csv: line 3: expected 2 fields, found 1\n"),
            ({"d.csv": "1,2\n3,4\n"}, ["fit", "--data", "d.csv", "--no-header", "--target-column", "t"],
             "error: target column 't' requested but the file has no header\n"),
            ({"d.csv": "t\n1\n2\n"}, ["fit", "--data", "d.csv", "--no-bias"],
             "error: d.csv: no feature columns remain after removing the target\n"),
            # Python 3.10's csv rejects the NUL byte (csv.Error); later versions pass
            # the cell to float(), which rejects it.  Either way the error names line 3.
            ({"d.csv": "a,t\n1,2\n1\x00,3\n"}, ["fit", "--data", "d.csv"], "d.csv: line 3"),
        ],
        ids=["constant-column", "std-overflow", "not-utf8", "fit-loss-overflow",
             "unwritable-model", "nan-weight", "model-not-object",
             "model-transform-null", "model-transform-string",
             "verify-alpha-huge", "verify-alpha-curvature-overflow", "synth-noise-huge",
             "synth-out-empty", "synth-out-dot", "synth-out-root", "fit-alpha-huge", "oversized-field",
             "long-field-then-bad-cell", "bad-cell-names-file", "fit-missing-file",
             "fit-ragged-row", "target-name-without-header", "target-only-without-bias", "nul-byte"],
    )
    def test_bad_data_exits_3(self, tmp_path, files, argv, message):
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        code, out, err = run_cli(*argv, cwd=tmp_path)
        assert code == 3
        assert out == ""
        assert message in err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)  # nothing written

    def test_overflowing_loss_prints_only_the_error(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,t\n1,1e200\n2,-1e200\n")
        code, out, err = run_cli("fit", "--data", "d.csv", cwd=tmp_path)
        assert code == 3
        assert out == ""
        assert err == "error: d.csv: loss at the starting point is inf\n"  # no RuntimeWarning

    def test_removed_compare_command_exits_2(self, tmp_path):
        # `fit --restarts N` is the one restart path; the old `compare` is an unknown command.
        (tmp_path / "d.csv").write_text(DATA)
        code, out, err = run_cli("compare", "--data", "d.csv", cwd=tmp_path)
        assert code == 2
        assert out == ""
        assert "invalid choice: 'compare'" in err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--alpha", "1e308"], ["verify", "--alpha", "1e200"], ["verify", "--y-bound", "1e307"],
         ["fit", "--data", "d.csv", "--alpha", "1e308"]],
        ids=["verify-alpha-huge", "verify-alpha-curvature-overflow", "verify-y-bound-huge", "fit-alpha-huge"],
    )
    def test_huge_flag_prints_only_the_error(self, tmp_path, argv):
        (tmp_path / "d.csv").write_text(DATA)
        code, out, err = run_cli(*argv, cwd=tmp_path)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # no RuntimeWarning


class TestCoreCount:
    """stdout is the same at any number of cores the worker threads use, except the wall time."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", 70000, "--seed", 3],
            ["verify", "--transform", "tanh", "--samples", 70000],
            ["verify", "--transform", "affine", "--samples", 40000, "--seed", 7],
        ],
        ids=["convex-sqrt", "tanh", "affine"],
    )
    def test_verify(self, capsys, pin_cores, argv):
        runs = []
        for cores in (1, 2):
            pin_cores(cores)
            code, out, err = run_main(capsys, *argv)
            runs.append((code, strip_timing(out), err))
        assert runs[0] == runs[1]


class TestDeterminism:
    def test_pipeline_reports_identical_modulo_timing(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            code, synth_out, err = run_cli(
                "synth", "--n", 80, "--d", 3, "--noise", 0, "--seed", 21,
                "--out", base / "d.csv",
            )
            assert code == 0, err
            code, fit_out, err = run_cli(
                "fit", "--data", base / "d.csv", "--y-bound", 1.0, "--seed", 21,
                "--out", base / "m.json",
            )
            assert code == 0, err
            code, verify_out, err = run_cli("verify", "--transform", "convex-sqrt", "--seed", 21)
            assert code == 0, err
            outputs.append((strip_timing(synth_out), strip_timing(fit_out), strip_timing(verify_out)))
        first, second = outputs
        for a, b in zip(first, second):
            a = {**a, "config_echo": _relocate(a["config_echo"]), "results": _relocate(a["results"])}
            b = {**b, "config_echo": _relocate(b["config_echo"]), "results": _relocate(b["results"])}
            assert a == b

    def test_same_seed_same_fit_report(self, synth_dir):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(
                "fit", "--data", synth_dir / "data.csv", "--y-bound", 1.0,
                "--restarts", 3, "--seed", 5,
            )
            assert code == 0
            runs.append(strip_timing(out))
        assert runs[0] == runs[1]


def _relocate(payload):
    """Mask run-directory paths so cross-directory runs compare equal."""
    masked = {}
    for key, value in payload.items():
        if isinstance(value, str) and ("/" in value or "\\" in value):
            masked[key] = value.rsplit("/", 1)[-1]
        else:
            masked[key] = value
    return masked
