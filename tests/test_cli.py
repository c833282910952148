import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprec import (
    derive_seed,
    gen_separable_q,
    gen_uniform_q,
    load_q,
    sample_uniform_partition,
    save_q,
)
from blockprec.cli import main


# Valid JSON nested too deeply for the json module's recursive decoder.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def indefinite_q(n=6):
    """Symmetric and indefinite, with every diagonal entry positive."""
    q = np.eye(n)
    q[0, 1] = q[1, 0] = 2.0
    return q


def run_cli(*args):
    return main([str(a) for a in args])


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# blockprec ")
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


class TestGen:
    def test_uniform_round_trip(self, tmp_path):
        out = tmp_path / "u"
        assert run_cli("gen", "--kind", "uniform", "--n", 20, "--alpha", 0.1,
                       "--seed", 7, "--out", out) == 0
        q, meta = load_q(str(out) + ".q")
        np.testing.assert_array_equal(q, gen_uniform_q(20, 0.1))
        assert meta["kind"] == "uniform"
        assert meta["n"] == 20

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "--kind", "randomcorr", "--n", 15, "--alpha", 0.2,
                           "--seed", 3, "--out", out) == 0
        assert (tmp_path / "a.q").read_bytes() == (tmp_path / "b.q").read_bytes()

    def test_separable_toy(self, tmp_path):
        out = tmp_path / "s"
        assert run_cli("gen", "--kind", "separable", "--n", 4, "--k", 2,
                       "--alpha", 0.6, "--seed", 0, "--out", out) == 0
        q, _ = load_q(str(out) + ".q")
        np.testing.assert_array_equal(q, gen_separable_q(4, 2, 0.6))

    def test_factor_writes_square_root(self, tmp_path):
        out = tmp_path / "f"
        assert run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.3,
                       "--seed", 1, "--out", out, "--factor") == 0
        q, _ = load_q(str(out) + ".q")
        a, _ = load_q(str(out) + ".a")
        assert np.max(np.abs(a.T @ a - q)) <= 1e-8

    def test_missing_flags_exit_2(self, tmp_path):
        assert run_cli("gen", "--kind", "uniform", "--n", 4,
                       "--seed", 0, "--out", tmp_path / "x") == 2

    def test_separable_needs_k(self, tmp_path):
        assert run_cli("gen", "--kind", "separable", "--n", 4, "--alpha", 0.5,
                       "--seed", 0, "--out", tmp_path / "x") == 2


class TestSpectral:
    def test_closed_form_on_uniform(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 200, "--alpha", 0.1,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "rep"
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 2,
                       "--samples", 50, "--closed-form", "--seed", 5,
                       "--out", out) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["closed_form"]["rho_dynamic"] == pytest.approx(0.4977, abs=5e-4)
        assert report["closed_form"]["rho_static"] == pytest.approx(0.0413, abs=5e-4)
        assert len(report["samples"]) == 50
        lines = (tmp_path / "rep_samples.csv").read_text().strip().split("\n")
        assert lines[1] == "lambda_min"
        assert len(lines) == 52

    def test_identity_all_ones(self, tmp_path):
        qfile = tmp_path / "i"
        run_cli("gen", "--kind", "uniform", "--n", 12, "--alpha", 0.0,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "rep"
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 3,
                       "--samples", 10, "--seed", 1, "--out", out) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["lambda_min_expected"] == pytest.approx(1.0, abs=1e-12)
        assert all(s["lambda_min"] == pytest.approx(1.0, abs=1e-12)
                   for s in report["samples"])

    def test_exact_mode(self, tmp_path):
        qfile = tmp_path / "s"
        run_cli("gen", "--kind", "separable", "--n", 4, "--k", 2, "--alpha", 0.6,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "rep"
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 2, "--exact",
                       "--seed", 0, "--out", out) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["estimator"]["kind"] == "exact enumeration"
        assert len(report["samples"]) == 3
        assert report["lambda_min_expected"] == pytest.approx(0.6, abs=1e-10)

    def test_dataset_mode(self, tmp_path):
        ds = tmp_path / "toy.libsvm"
        ds.write_text("1 1:1.0 2:0.5\n-1 1:0.5 2:1.0\n1 3:1.0\n-1 1:0.2 3:0.7\n")
        out = tmp_path / "rep"
        assert run_cli("spectral", "--dataset", ds, "--k", 3, "--samples", 8,
                       "--lambda-reg", 1.0, "--seed", 2, "--out", out) == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["n"] == 3

    def test_closed_form_rejected_off_uniform(self, tmp_path):
        qfile = tmp_path / "s"
        run_cli("gen", "--kind", "separable", "--n", 4, "--k", 2, "--alpha", 0.6,
                "--seed", 0, "--out", qfile)
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 2,
                       "--closed-form", "--seed", 0, "--out", tmp_path / "rep") == 2

    def test_singular_block_exit_3(self, tmp_path):
        # symmetric but indefinite: every 1x1 block is fine, 2-block masks
        # hit the indefinite principal submatrix
        q = np.array([[1.0, 2.0, 0.0, 0.0],
                      [2.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        save_q(tmp_path / "bad.q", q, {"kind": "custom"})
        code = run_cli("spectral", "--q", tmp_path / "bad.q", "--k", 2, "--exact",
                       "--seed", 0, "--out", tmp_path / "rep")
        assert code == 3

    @pytest.mark.parametrize("mode", [["--exact"], ["--samples", 20]])
    def test_singular_block_one_stderr_line(self, tmp_path, capsys, mode):
        q = np.eye(6)
        q[1, 4] = q[4, 1] = 2.0
        save_q(tmp_path / "bad.q", q, {"kind": "custom"})
        capsys.readouterr()
        code = run_cli("spectral", "--q", tmp_path / "bad.q", "--k", 2, *mode,
                       "--seed", 0, "--out", tmp_path / "rep")
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("blockprec: numerical failure: block ")

    @pytest.mark.parametrize("mode", [["--exact"], ["--samples", 20]])
    def test_q_not_positive_definite_exit_2(self, tmp_path, capsys, mode):
        # every 1x1 block is positive definite, Q itself is indefinite; n = 200
        # would take its distribution by Lanczos, after Q's factorization
        for n in (6, 200):
            save_q(tmp_path / "indef.q", indefinite_q(n), {"kind": "custom"})
            capsys.readouterr()
            code = run_cli("spectral", "--q", tmp_path / "indef.q", "--k", n, *mode,
                           "--seed", 0, "--out", tmp_path / "rep")
            err = capsys.readouterr().err
            assert code == 2
            assert err == "blockprec: invalid arguments: Q is not positive definite\n"
            assert not (tmp_path / "rep.json").exists()

    def test_singular_block_of_the_mean_exit_3(self, tmp_path, capsys):
        # the one distribution partitioning keeps coordinates 0 and 1 apart, the mean's joins them
        spread = sample_uniform_partition(6, 2, derive_seed(derive_seed(0, 0), 0)).assignment
        joined = sample_uniform_partition(6, 2, derive_seed(derive_seed(0, 1), 0)).assignment
        assert spread[0] != spread[1] and joined[0] == joined[1]
        save_q(tmp_path / "indef.q", indefinite_q(), {"kind": "custom"})
        capsys.readouterr()
        code = run_cli("spectral", "--q", tmp_path / "indef.q", "--k", 2, "--samples", 1,
                       "--seed", 0, "--out", tmp_path / "rep")
        err = capsys.readouterr().err
        assert code == 3
        assert err == (f"blockprec: numerical failure: block {joined[0]} (size 3) is not "
                       "positive definite; consider a positive jitter\n")
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_exit_2(self, tmp_path, capsys, samples):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.1, "--seed", 0, "--out", qfile)
        capsys.readouterr()
        code = run_cli("spectral", "--q", str(qfile) + ".q", "--k", 2, "--samples", samples,
                       "--seed", 0, "--out", tmp_path / "rep")
        err = capsys.readouterr().err
        assert code == 2
        assert err == "blockprec: invalid arguments: n_samples must be at least 1\n"

    @pytest.mark.parametrize("mode", [["--k", 12, "--samples", 30], ["--k", 12, "--exact"],
                                      ["--k", 1, "--exact"]])
    def test_extreme_block_counts(self, tmp_path, mode):
        qfile = tmp_path / "r"
        run_cli("gen", "--kind", "randomcorr", "--n", 12, "--alpha", 0.2, "--seed", 1,
                "--out", qfile)
        out = tmp_path / "rep"
        assert run_cli("spectral", "--q", str(qfile) + ".q", *mode, "--seed", 0,
                       "--out", out) == 0
        report = json.loads(out.with_suffix(".json").read_text())
        # blocks of size 1 keep only the diagonal; one block keeps all of Q
        assert all(0.0 < s["lambda_min"] <= 1.0 + 1e-10 for s in report["samples"])
        if mode[1] == 1:
            assert report["samples"][0]["lambda_min"] == pytest.approx(1.0, abs=1e-12)

    def test_parse_error_exit_4(self, tmp_path):
        ds = tmp_path / "bad.libsvm"
        ds.write_text("1 1:1.0\n-1 2:zzz\n")
        assert run_cli("spectral", "--dataset", ds, "--k", 2, "--seed", 0,
                       "--out", tmp_path / "rep") == 4

    def test_rerun_identical_bytes(self, tmp_path):
        # stacked chunks at n = 16, one-row (Lanczos) chunks at n = 200
        for n, samples in ((16, 30), (200, 8)):
            qfile = tmp_path / f"u{n}"
            run_cli("gen", "--kind", "uniform", "--n", n, "--alpha", 0.25,
                    "--seed", 0, "--out", qfile)
            blobs = []
            for name in (f"one{n}", f"two{n}"):
                out = tmp_path / name
                assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 4,
                               "--samples", samples, "--seed", 6, "--out", out) == 0
                blobs.append((out.with_suffix(".json").read_bytes(),
                              (tmp_path / f"{name}_samples.csv").read_text()
                              .split("\n", 1)[1]))
            assert blobs[0] == blobs[1]

    def test_threads_identical_bytes(self, tmp_path):
        # one-row (Lanczos) chunks at n = 200, with the Monte Carlo mean on the same pool
        qfile = tmp_path / "r"
        run_cli("gen", "--kind", "randomcorr", "--n", 200, "--alpha", 0.05,
                "--seed", 3, "--out", qfile)
        blobs = []
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 4, "--samples", 10,
                           "--threads", threads, "--seed", 6, "--out", out) == 0
            invocation, rows = (tmp_path / f"t{threads}_samples.csv").read_bytes().split(b"\n", 1)
            assert invocation.startswith(b"# blockprec ")
            blobs.append((out.with_suffix(".json").read_bytes(), rows))
        assert blobs[0] == blobs[1]

    def test_arpack_failure_exit_0(self, tmp_path, capsys, monkeypatch):
        import scipy.sparse.linalg

        def failing_eigsh(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                          np.empty(0))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "randomcorr", "--n", 200, "--alpha", 0.05,
                "--seed", 0, "--out", qfile)
        capsys.readouterr()
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 4, "--samples", 3,
                       "--seed", 1, "--out", tmp_path / "rep") == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "rep.json").read_text())
        assert len(report["samples"]) == 3

    def test_normalize_flag(self, tmp_path):
        ds = tmp_path / "toy.libsvm"
        ds.write_text("1 1:4.0\n-1 1:3.0 2:2.0\n1 2:1.0\n")
        out_raw = tmp_path / "raw"
        out_norm = tmp_path / "norm"
        for out, extra in ((out_raw, []), (out_norm, ["--normalize"])):
            assert run_cli("spectral", "--dataset", ds, "--k", 2, "--samples", 1,
                           "--lambda-reg", 0.0, "--seed", 0, "--out", out,
                           *extra) == 0
        raw = json.loads((tmp_path / "raw.json").read_text())
        norm = json.loads((tmp_path / "norm.json").read_text())
        # unit columns make the normalized gram's masked blocks identity-like
        assert raw["lambda_min_expected"] != norm["lambda_min_expected"]


class TestSolve:
    def test_single_block_one_step(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 10, "--alpha", 0.3,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "run"
        assert run_cli("solve", "--objective", "quadratic", "--q", str(qfile) + ".q",
                       "--k", 1, "--scheme", "static", "--t", 1, "--eta", 1.0,
                       "--seed", 4, "--out", out) == 0
        _, rows = read_csv_rows(tmp_path / "run_static_runs.csv")
        assert float(rows[1]["subopt"]) <= 1e-12

    def test_both_schemes_and_envelope(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 30, "--alpha", 0.3,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "run"
        assert run_cli("solve", "--objective", "quadratic", "--q", str(qfile) + ".q",
                       "--k", 2, "--scheme", "both", "--t", 25, "--repeats", 5,
                       "--seed", 4, "--out", out) == 0
        for scheme in ("static", "dynamic"):
            header, rows = read_csv_rows(tmp_path / f"run_{scheme}_runs.csv")
            assert header == ["run", "t", "fval", "subopt", "gradnorm"]
            assert len(rows) == 5 * 26
            agg_header, agg_rows = read_csv_rows(tmp_path / f"run_{scheme}_agg.csv")
            assert agg_header == ["t", "subopt_min", "subopt_median", "subopt_max"]
            assert len(agg_rows) == 26
        _, s_rows = read_csv_rows(tmp_path / "run_static_agg.csv")
        _, d_rows = read_csv_rows(tmp_path / "run_dynamic_agg.csv")
        assert float(d_rows[-1]["subopt_median"]) < float(s_rows[-1]["subopt_median"])
        config = json.loads((tmp_path / "run_static.json").read_text())["config"]
        assert config["scheme"] == "static" and config["k_blocks"] == 2

    def test_ridge_from_dataset(self, tmp_path):
        ds = tmp_path / "toy.libsvm"
        ds.write_text("0.5 1:1.0 2:0.5\n-0.25 1:0.5 2:1.0\n1.0 2:1.0\n")
        out = tmp_path / "run"
        assert run_cli("solve", "--objective", "ridge", "--dataset", ds, "--k", 2,
                       "--scheme", "dynamic", "--t", 10, "--reg", 0.5,
                       "--seed", 1, "--out", out) == 0
        _, rows = read_csv_rows(tmp_path / "run_dynamic_runs.csv")
        assert float(rows[-1]["subopt"]) < float(rows[0]["subopt"])

    def test_logistic_synthetic(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.2,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "run"
        assert run_cli("solve", "--objective", "logistic", "--q", str(qfile) + ".q",
                       "--k", 2, "--scheme", "dynamic", "--t", 10, "--reg", 1.0,
                       "--seed", 2, "--out", out) == 0
        _, rows = read_csv_rows(tmp_path / "run_dynamic_runs.csv")
        assert float(rows[-1]["subopt"]) < float(rows[0]["subopt"])

    def test_armijo_step_policy(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 12, "--alpha", 0.5,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "run"
        assert run_cli("solve", "--objective", "ridge", "--q", str(qfile) + ".q",
                       "--k", 3, "--scheme", "dynamic", "--step", "armijo",
                       "--t", 15, "--seed", 3, "--out", out) == 0
        _, rows = read_csv_rows(tmp_path / "run_dynamic_runs.csv")
        fvals = [float(r["fval"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(fvals, fvals[1:]))

    def test_divergence_exit_3_with_partial_trace(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 10, "--alpha", 0.5,
                "--seed", 0, "--out", qfile)
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("solve", "--objective", "quadratic", "--q",
                           str(qfile) + ".q", "--k", 2, "--scheme", "dynamic",
                           "--t", 400, "--eta", 500.0, "--seed", 1, "--out", out)
        assert code == 3
        assert (tmp_path / "run_dynamic_runs.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_keeps_completed_repeats(self, tmp_path):
        # Static runs on the 4x4 separable toy at eta = 1.9: the partitioning
        # aligned with the blocks converges (Q_P = Q), a misaligned one
        # (Q_P = I) diverges. With seed 0, repeats 0 and 1 draw aligned
        # partitionings and repeat 2 a misaligned one.
        drawn = [sample_uniform_partition(4, 2, derive_seed(0, r)).assignment for r in range(3)]
        assert [a[0] == a[1] and a[2] == a[3] for a in drawn] == [True, True, False]
        qfile = tmp_path / "s"
        run_cli("gen", "--kind", "separable", "--n", 4, "--k", 2, "--alpha", 0.9,
                "--seed", 0, "--out", qfile)
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"run{threads}"
            assert run_cli("solve", "--objective", "quadratic", "--q", str(qfile) + ".q",
                           "--k", 2, "--scheme", "static", "--t", 500, "--eta", 1.9,
                           "--repeats", 4, "--threads", threads, "--seed", 0,
                           "--out", out) == 3
            outputs[threads] = (tmp_path / f"run{threads}_static.json").read_text()
            _, rows = read_csv_rows(tmp_path / f"run{threads}_static_runs.csv")
            assert [int(r["run"]) for r in rows] == sorted(int(r["run"]) for r in rows)
            assert {int(r["run"]) for r in rows} == {0, 1, 2}
        traces = json.loads(outputs[1])["traces"]
        assert [len(t["fvals"]) for t in traces[:2]] == [501, 501]
        assert len(traces) == 3 and len(traces[2]["fvals"]) < 501
        assert outputs[1] == outputs[2]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 20, "--alpha", 0.2,
                "--seed", 0, "--out", qfile)
        outs = {}
        for threads in (1, 4):
            out = tmp_path / f"run{threads}"
            assert run_cli("solve", "--objective", "quadratic", "--q",
                           str(qfile) + ".q", "--k", 2, "--scheme", "dynamic",
                           "--t", 10, "--repeats", 6, "--threads", threads,
                           "--seed", 9, "--out", out) == 0
            text = (tmp_path / f"run{threads}_dynamic_runs.csv").read_text()
            outs[threads] = text.split("\n", 1)[1]  # drop invocation comment
        assert outs[1] == outs[4]


class TestSweep:
    def test_grid_matches_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n", 200, "--k-grid", "2,5", "--alpha-grid",
                       "0.0,0.5", "--out", out) == 0
        header, rows = read_csv_rows(out)
        assert header == ["n", "K", "alpha", "epsilon", "rho_static", "rho_dynamic"]
        assert len(rows) == 4
        cell = {(r["K"], r["alpha"]): r for r in rows}
        k5 = cell[("5", "0.5")]
        assert float(k5["rho_dynamic"]) == pytest.approx(0.196078, abs=1e-6)
        assert float(k5["rho_static"]) == pytest.approx(0.004878, abs=1e-6)
        zero = cell[("2", "0.0")]
        assert float(zero["rho_static"]) == 0.5
        assert float(zero["rho_dynamic"]) == 0.5

    def test_invalid_k_exit_2(self, tmp_path):
        assert run_cli("sweep", "--n", 200, "--k-grid", "3", "--alpha-grid", "0.1",
                       "--out", tmp_path / "s.csv") == 2

    def test_alpha_out_of_range_exit_2(self, tmp_path):
        assert run_cli("sweep", "--n", 10, "--k-grid", "2", "--alpha-grid", "1.0",
                       "--out", tmp_path / "s.csv") == 2


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 200, "k-grid": "2", "alpha-grid": "0.1",
                                   "out": str(tmp_path / "from_config.csv")}))
        assert run_cli("sweep", "--config", cfg) == 0
        assert (tmp_path / "from_config.csv").exists()
        override = tmp_path / "override.csv"
        assert run_cli("sweep", "--config", cfg, "--out", override) == 0
        _, rows = read_csv_rows(override)
        assert rows[0]["n"] == "200"

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_cli("sweep", "--config", cfg) == 2

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLOCKPREC_THREADS", "2")
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.1,
                "--seed", 0, "--out", qfile)
        assert run_cli("spectral", "--q", str(qfile) + ".q", "--k", 2,
                       "--samples", 5, "--seed", 0, "--out", tmp_path / "rep") == 0


class TestExitContract:
    """Bad environment, config and seed values exit 2 with one line on stderr."""

    @staticmethod
    def assert_one_line_exit(code, capsys, want=2):
        err = capsys.readouterr().err
        assert code == want
        assert "Traceback" not in err
        kind = {2: "invalid arguments", 4: "parse error"}[want]
        assert err.count("\n") == 1 and err.startswith(f"blockprec: {kind}: ")
        return err

    def spectral_args(self, tmp_path):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.1,
                "--seed", 0, "--out", qfile)
        return ["spectral", "--q", str(qfile) + ".q", "--samples", 5,
                "--out", tmp_path / "rep"]

    def test_non_integer_env_threads(self, tmp_path, monkeypatch, capsys):
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("BLOCKPREC_THREADS", "abc")
        self.assert_one_line_exit(run_cli(*args, "--k", 2, "--seed", 0), capsys)

    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "two"}))
        self.assert_one_line_exit(run_cli(*args, "--seed", 0, "--config", cfg), capsys)

    @pytest.mark.parametrize("flag", ["--k=--", "--config=--", "--samples=--"])
    def test_flag_given_double_dash(self, tmp_path, capsys, flag):
        # argparse parses "--flag=--" to an empty list instead of failing
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        self.assert_one_line_exit(run_cli(*args, "--k", 2, "--seed", 0, flag), capsys)

    def test_deeply_nested_config_exit_4(self, tmp_path, capsys):
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(DEEP_JSON)
        code = run_cli(*args, "--k", 2, "--seed", 0, "--config", cfg)
        self.assert_one_line_exit(code, capsys, want=4)

    def test_config_value_double_dash(self, tmp_path, capsys):
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "--"}))
        self.assert_one_line_exit(run_cli(*args, "--k", 2, "--config", cfg), capsys)

    @pytest.mark.parametrize("seed", [2**128, 2**64, -1])
    def test_seed_outside_64_bits(self, tmp_path, capsys, seed):
        args = self.spectral_args(tmp_path)
        capsys.readouterr()
        self.assert_one_line_exit(run_cli(*args, "--k", 2, "--seed", seed), capsys)

    @pytest.mark.parametrize("flags", [("--eta", "nan"), ("--eta", "inf"), ("--jitter", "nan"),
                                       ("--objective", "logistic", "--reg", "inf")])
    def test_non_finite_solver_value(self, tmp_path, capsys, flags):
        qfile = tmp_path / "u"
        run_cli("gen", "--kind", "uniform", "--n", 8, "--alpha", 0.1,
                "--seed", 0, "--out", qfile)
        capsys.readouterr()
        code = run_cli("solve", "--objective", "quadratic", "--q", str(qfile) + ".q", "--k", 2,
                       "--t", 5, "--seed", 0, "--out", tmp_path / "run", *flags)
        self.assert_one_line_exit(code, capsys)
        assert not list(tmp_path.glob("run*"))

    @staticmethod
    def uniform_q(tmp_path, sidecar):
        """An alpha = 0.3 uniform matrix file whose JSON sidecar holds the text ``sidecar``."""
        save_q(tmp_path / "u.q", gen_uniform_q(8, 0.3))
        (tmp_path / "u.q.json").write_text(sidecar)
        return tmp_path / "u.q"

    @pytest.mark.parametrize("sidecar", ["{bad json", "[1, 2]", "null", DEEP_JSON],
                             ids=["bad-json", "list", "null", "deep"])
    @pytest.mark.parametrize("command", ["spectral", "solve"])
    def test_sidecar_not_a_json_object_exit_4(self, tmp_path, capsys, sidecar, command):
        qfile = self.uniform_q(tmp_path, sidecar)
        flags = ["--closed-form"] if command == "spectral" else ["--objective", "quadratic"]
        code = run_cli(command, "--q", qfile, "--k", 2, "--seed", 0, "--out", tmp_path / "rep",
                       *flags)
        self.assert_one_line_exit(code, capsys, want=4)
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.parametrize("sidecar", [
        {"kind": "uniform"}, {"kind": "uniform", "alpha": None},
        {"kind": "uniform", "alpha": "abc"}, {"kind": "uniform", "alpha": "0.3"},
        {"kind": "uniform", "alpha": 0.9},  # the matrix has alpha = 0.3
    ])
    def test_closed_form_sidecar_checked(self, tmp_path, capsys, sidecar):
        qfile = self.uniform_q(tmp_path, json.dumps(sidecar))
        code = run_cli("spectral", "--q", qfile, "--k", 2, "--samples", 5, "--closed-form",
                       "--seed", 0, "--out", tmp_path / "rep")
        assert "--closed-form" in self.assert_one_line_exit(code, capsys)
        assert not list(tmp_path.glob("rep*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    def test_lambda_reg_checked_when_parsed(self, tmp_path, capsys, value):
        ds = tmp_path / "toy.libsvm"
        ds.write_text("1 1:1.0 2:0.5\n-1 1:0.5 2:1.0\n1 3:1.0\n")
        code = run_cli("spectral", "--dataset", ds, "--k", 3, "--samples", 4,
                       f"--lambda-reg={value}", "--seed", 0, "--out", tmp_path / "rep")
        assert "--lambda-reg" in self.assert_one_line_exit(code, capsys)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_returns_0(self, capsys, flag):
        assert main(["spectral", flag]) == 0
        assert capsys.readouterr().out.startswith("usage: blockprec spectral")


# --- exit-code contract under fuzzed argv and --config -------------------
#
# An invocation starts from valid flag values for its subcommand, then up to
# two flags are dropped or given a wild value, some flags may move into a
# --config object, next to junk keys and values, and -h/--help may be put
# anywhere. Sizes stay at most 32 and --threads at most 2, so every example
# runs in milliseconds.

_REAL = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from([0.0, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]))
_WILD_INT = st.integers(-2, 40)
_WILD_TEXT = st.one_of(st.text("0123456789,.-e", max_size=8), st.just("bogus"))
_SIZE = st.integers(1, 32)
_FRACTION = st.floats(0.0, 0.95)
_POSITIVE = st.floats(0.01, 2.0)

# subcommand -> flag -> (valid values, wild values, always given); None is a switch.
_FLAGS = {
    "gen": {"kind": (st.sampled_from(["uniform", "separable", "randomcorr"]), _WILD_TEXT, True),
            "n": (_SIZE, _WILD_INT, True), "k": (st.integers(1, 4), _WILD_INT, False),
            "alpha": (_FRACTION, _REAL, True), "factor": None},
    "spectral": {"k": (st.integers(1, 3), _WILD_INT, True), "samples": (_SIZE, _WILD_INT, False),
                 "exact": None, "closed-form": None,
                 "lambda-reg": (_POSITIVE, _REAL, False), "normalize": None},
    "solve": {"objective": (st.sampled_from(["quadratic", "ridge", "logistic"]), _WILD_TEXT, True),
              "k": (st.integers(1, 3), _WILD_INT, True),
              "scheme": (st.sampled_from(["static", "dynamic", "both"]), _WILD_TEXT, False),
              "model": (st.sampled_from(["exact_hessian", "smoothness_bound"]), _WILD_TEXT,
                        False),
              "step": (st.sampled_from(["fixed", "armijo"]), _WILD_TEXT, False),
              "eta": (_POSITIVE, _REAL, False), "c1": (_FRACTION, _REAL, False),
              "shrink": (_FRACTION, _REAL, False),
              "max-backtracks": (st.integers(1, 60), _WILD_INT, False),
              "t": (st.integers(0, 32), _WILD_INT, False),
              "repeats": (st.integers(1, 3), _WILD_INT, False),
              "reg": (_POSITIVE, _REAL, False), "jitter": (st.just(0.0), _REAL, False),
              "normalize": None},
    "sweep": {"n": (_SIZE, _WILD_INT, True),
              "k-grid": (st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
                  lambda v: ",".join(map(str, v))), _WILD_TEXT, True),
              "alpha-grid": (st.lists(_FRACTION, min_size=1, max_size=3).map(
                  lambda v: ",".join(map(repr, v))), _WILD_TEXT, True)},
}
_COMMON = {"seed": (st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, 2**128]), True),
           "threads": (st.sampled_from([1, 2]), st.sampled_from([0, -1, "two"]), False),
           "out": (st.sampled_from(["out", "sub/out"]), st.just("missing/../out"), True)}
_SOURCES = {"q": (st.sampled_from(["u.q", "s.q"]),
                  st.sampled_from(["a.libsvm", "junk.bin", "missing.q", "badjson.q", "list.q",
                                   "deep.q", "noalpha.q", "stralpha.q", "indef.q"])),
            "dataset": (st.just("a.libsvm"), st.sampled_from(["u.q", "junk.bin", "missing.q"]))}
_JUNK = st.one_of(st.none(), st.booleans(), st.text("abc-_", max_size=4),
                  st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text("ab", max_size=2), st.integers(0, 3), max_size=1))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    save_q(d / "u.q", gen_uniform_q(6, 0.3), {"kind": "uniform", "n": 6, "alpha": 0.3})
    save_q(d / "s.q", gen_separable_q(6, 3, 0.5), {"kind": "separable", "n": 6, "k": 3})
    (d / "a.libsvm").write_text("1 1:0.5 2:1.0\n0 2:0.25 3:2.0\n1 1:1.5 3:0.5 4:1.0\n"
                                "0 1:0.5 4:0.75\n1 2:1.25 4:0.5\n0 1:1.0 3:1.0\n")
    (d / "junk.bin").write_bytes(bytes(range(256)))
    save_q(d / "indef.q", indefinite_q(), {"kind": "custom"})
    # Malformed sidecars next to a well-formed matrix.
    save_q(d / "noalpha.q", gen_uniform_q(6, 0.3), {"kind": "uniform"})
    save_q(d / "stralpha.q", gen_uniform_q(6, 0.3), {"kind": "uniform", "alpha": "abc"})
    for name, sidecar in (("badjson.q", "{bad json"), ("list.q", "[1, 2]"),
                          ("deep.q", DEEP_JSON)):
        save_q(d / name, gen_uniform_q(6, 0.3))
        (d / f"{name}.json").write_text(sidecar)
    return d


@st.composite
def _invocation(draw, root):
    """(argv, config object or None) for one subcommand."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_FLAGS[command], **_COMMON}
    if command in ("spectral", "solve"):
        source = draw(st.sampled_from(sorted(_SOURCES)))
        flags.update({name: (*values, name == source) for name, values in _SOURCES.items()})
    values = {}
    for name, spec in sorted(flags.items()):
        if spec is None:
            if draw(st.booleans()):
                values[name] = True
        elif spec[2] or draw(st.booleans()):
            values[name] = draw(spec[0])
    for name in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        if flags[name] is None or draw(st.booleans()):
            values.pop(name, None)
        else:
            values[name] = draw(flags[name][1])
    for name in ("q", "dataset", "out"):
        if name in values:
            values[name] = str(root / values[name])
    config = None
    if draw(st.booleans()):
        config = {name.replace("-", "_") if draw(st.booleans()) else name: values.pop(name)
                  for name in draw(st.lists(st.sampled_from(sorted(values)), unique=True))}
        # Junk never goes to a path flag, so nothing is read or written outside fuzz_dir.
        junk_keys = sorted(set(flags) - {"q", "dataset", "out"}) + ["bogus", "command"]
        for key in draw(st.lists(st.sampled_from(junk_keys), max_size=1)):
            config[key] = draw(_JUNK)
    argv = [command]
    for name in draw(st.permutations(sorted(values))):
        if values[name] is True:
            argv.append(f"--{name}")
        elif draw(st.booleans()):
            argv.append(f"--{name}={values[name]}")
        else:
            argv += [f"--{name}", str(values[name])]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv, config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_invocation_keeps_exit_contract(fuzz_dir, data):
    argv, config = data.draw(_invocation(fuzz_dir))
    if config is not None:
        path = fuzz_dir / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
