"""Command-line front end: exit codes, file formats, determinism."""

import json
import math
import re
import shlex
import time
from pathlib import Path

import mpmath as mp
import pytest

from _oracles import mp_f_abq, mp_h_aux, mp_q_psi
from qmono import (
    QParam,
    polylog,
    q_factorial,
    q_gamma,
)
from qmono.cli import (
    _MAX_CONV_PAIRS,
    _MAX_CONV_TIME,
    BUILTINS,
    build_function,
    build_parser,
    main,
    run,
)

Q5 = QParam(0.5)
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
MEASURE = GOLDEN / "measure_two_atom.txt"


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    footer = []
    for line in lines[1:]:
        if line.startswith("#"):
            footer.append(line)
        elif line:
            rows.append(line.split(","))
    return header, rows, footer


class TestEval:
    def test_gamma_matches_factorial(self, tmp_path):
        out = tmp_path / "gamma.csv"
        code = run_cli(
            "eval", "q_gamma", "--q", "0.5",
            "--grid-min", "2", "--grid-max", "5", "--grid-count", "4",
            "--grid-spacing", "linear", "--out", str(out),
        )
        assert code == 0
        header, rows, footer = read_csv(out)
        assert header == ["x", "q_gamma"]
        assert len(rows) == 4
        for x_s, v_s in rows:
            n = int(float(x_s)) - 1
            assert float(v_s) == pytest.approx(q_factorial(n, Q5), rel=1e-10)
        assert footer and footer[0].startswith("# q=")
        assert "version=" in footer[0]

    def test_function_params_flow_through(self, tmp_path):
        out = tmp_path / "recip.csv"
        code = run_cli(
            "eval", "reciprocal_shift", "--shift", "2.0",
            "--grid-min", "1", "--grid-max", "1", "--grid-count", "1",
            "--grid-spacing", "linear", "--out", str(out),
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_json_format_is_valid_json(self, capsys):
        code = run_cli(
            "eval", "q_psi", "--format", "json",
            "--grid-min", "1", "--grid-max", "2", "--grid-count", "3",
            "--grid-spacing", "linear",
        )
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["kind"] == "eval_table"
        assert tree["provenance"]["version"]
        assert len(tree["rows"]) == 3

    def test_unknown_function_is_usage_error(self, capsys):
        assert run_cli("eval", "no_such_fn") == 2
        assert "unknown function" in capsys.readouterr().err

    def test_jackson_window_underflow_is_named(self, capsys):
        # t = 0.05^300 underflows to 0.0; the error names the window, not log(0)
        code = run_cli("eval", "q_gamma_jackson", "--q", "0.05", "--n-lo", "300",
                       "--grid-count", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert "n_lo = 300" in err and "underflows" in err
        assert "math domain error" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "identity", "--grid-min", "0"),
            ("eval", "identity", "--grid-min", "1", "--grid-max", "0"),
            ("laplace", "--atoms", "1:1", "--grid-spacing", "log"),  # default --grid-min 0
        ],
    )
    def test_log_grid_end_not_positive_is_named(self, capsys, argv):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "grid points must be finite and > 0, got 0.0" in err
        assert "math domain error" not in err

    @pytest.mark.parametrize("window", [("--n-hi", "2000"), ("--n-lo", "-1500", "--n-hi", "1600")])
    def test_jackson_window_overflow_is_named(self, capsys, window):
        # t = 0.5^-n_hi overflows a float; the error names the window, not ERANGE
        code = run_cli("eval", "q_gamma_jackson", "--q", "0.5", *window, "--grid-count", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert f"n_hi = {window[-1]}" in err and "overflows" in err
        assert "Numerical result out of range" not in err


class TestCertify:
    def test_reciprocal_qcm_exit_zero(self, tmp_path):
        out = tmp_path / "ok.csv"
        code = run_cli(
            "certify", "reciprocal_shift", "--property", "qcm",
            "--order", "5", "--out", str(out),
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["x", "n", "value", "scale", "margin"]
        assert rows == []

    def test_identity_qcm_exit_one_with_named_counterexample(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = run_cli("certify", "identity", "--property", "qcm", "--out", str(out))
        assert code == 1
        assert out.exists(), "report is still written on violation"
        _, rows, _ = read_csv(out)
        x, n, value = float(rows[0][0]), int(rows[0][1]), float(rows[0][2])
        assert x == pytest.approx(0.1)  # first grid point
        assert n == 1
        assert value == -1.0

    def test_json_report(self, capsys):
        code = run_cli("certify", "identity", "--property", "qbernstein", "--format", "json")
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["verdict"] == "Consistent"
        assert tree["property"] == "qbernstein"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_tol_rel_is_refused_before_certifying(self, tmp_path, capsys, fmt):
        out = tmp_path / f"inf.{fmt}"
        code = run_cli("certify", "identity", "--tol-rel", "inf", "--format", fmt, "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert "tol_rel" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_byte_identical_outputs(self, tmp_path):
        args = ["certify", "identity", "--property", "qcm", "--q", "0.7", "--order", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 1
        assert run_cli(*args, "--out", str(b)) == 1
        assert a.read_bytes() == b.read_bytes()


#: the common and certification flags, which every theorem harness takes
CERT_FLAGS = ("--q", "--grid-min", "--grid-max", "--grid-count", "--grid-spacing",
              "--format", "--out", "--order", "--tol-rel")
ALL_PARAMS = tuple(dict.fromkeys("--" + ps.name for b in BUILTINS.values() for ps in b.params))
#: each theorem harness's flags besides CERT_FLAGS
HARNESS_FLAGS = {
    "thm31": ("--negative-control", "--alpha", "--beta"),
    "thm32": ("--negative-control", "--a", "--b"),
    "bernstein_iff": ("--fn", "--ts") + ALL_PARAMS,
    "difference": ("--fn", "--offset") + ALL_PARAMS,
    "closure": ("--ts", "--value", "--rate", "--shift"),
}
FN_HARNESSES = ("bernstein_iff", "difference")
#: a value other than the default (and than the lead's --fn identity) for
#: each flag that the value "2" does not fit
FLAG_VALUES = {"--grid-spacing": "linear", "--format": "json", "--out": "x.csv", "--fn": "square",
               "--ts": "3", "--tol-rel": "1e-8"}


class TestTheorem:
    def test_thm31_exit_zero(self, tmp_path):
        out = tmp_path / "t31.csv"
        code = run_cli(
            "theorem", "thm31", "--alpha", "0.5", "--beta", "1.0",
            "--q", "0.5", "--order", "4", "--out", str(out),
        )
        assert code == 0
        assert out.exists()

    def test_thm31_hypothesis_gate(self, capsys):
        code = run_cli("theorem", "thm31", "--alpha", "0.9", "--beta", "1.0", "--order", "3")
        assert code == 2
        assert "negative_control" in capsys.readouterr().err

    def test_thm32_hypothesis_gate(self, capsys):
        # the harness is the one gate: same exit and hint as thm31
        code = run_cli("theorem", "thm32", "--a", "2", "--b", "1", "--order", "3")
        assert code == 2
        assert "negative_control" in capsys.readouterr().err

    def test_thm32_exit_zero(self, tmp_path):
        out = tmp_path / "t32.csv"
        code = run_cli(
            "theorem", "thm32", "--a", "1,2", "--b", "2,3",
            "--q", "0.7", "--order", "5", "--out", str(out),
        )
        assert code == 0

    def test_bernstein_iff_identity_passes(self, capsys):
        code = run_cli("theorem", "bernstein_iff", "--fn", "identity", "--format", "json")
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["agree"] is True

    def test_bernstein_iff_square_reports_violation(self, capsys):
        code = run_cli("theorem", "bernstein_iff", "--fn", "square", "--format", "json")
        assert code == 1
        tree = json.loads(capsys.readouterr().out)
        assert tree["flagged"]

    def test_difference_reciprocal_passes(self, tmp_path):
        out = tmp_path / "diff.csv"
        code = run_cli(
            "theorem", "difference", "--fn", "reciprocal_shift",
            "--offset", "1.0", "--order", "4", "--out", str(out),
        )
        assert code == 0

    def test_difference_identity_fails(self, tmp_path):
        out = tmp_path / "diff_bad.csv"
        code = run_cli(
            "theorem", "difference", "--fn", "identity", "--order", "3", "--out", str(out),
        )
        assert code == 1

    def test_closure_passes(self, capsys):
        code = run_cli("theorem", "closure", "--order", "4", "--format", "json")
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["all_ok"] is True

    @pytest.mark.parametrize("ts", ["-1", "0", "1,-1"])
    def test_closure_refuses_nonpositive_t(self, ts, capsys):
        code = run_cli("theorem", "closure", "--ts", ts, "--order", "3", "--grid-count", "4")
        assert code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_missing_fn_is_usage_error(self, capsys):
        for name in FN_HARNESSES:
            assert run_cli("theorem", name, "--grid-count", "2") == 2
            assert "the following arguments are required: --fn" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag", [
        ("thm31", "--ts"),
        ("thm32", "--fn"),
        ("bernstein_iff", "--offset"),
        ("difference", "--negative-control"),
        ("closure", "--alpha"),
    ])
    def test_harness_refuses_a_flag_it_does_not_read(self, capsys, name, flag):
        fn = ["--fn", "identity"] if name in FN_HARNESSES else []
        value = [] if flag == "--negative-control" else ["1"]
        assert run_cli("theorem", name, *fn, flag, *value, "--grid-count", "2") == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(HARNESS_FLAGS))
    def test_harness_takes_exactly_its_own_flags(self, capsys, name):
        # every flag some harness takes: accepted by this one iff it is its own
        own = CERT_FLAGS + HARNESS_FLAGS[name]
        lead = ["theorem", name] + (["--fn", "identity"] if name in FN_HARNESSES else [])
        for flag in sorted(set(CERT_FLAGS).union(*HARNESS_FLAGS.values())):
            value = [] if flag == "--negative-control" else [FLAG_VALUES.get(flag, "2")]
            if flag not in own:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(lead + [flag, *value])
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
                continue
            ns = build_parser().parse_args(lead + [flag, *value])
            default = build_parser().parse_args(lead)
            dest = flag[2:].replace("-", "_")
            dest = {"format": "fmt"}.get(dest, dest)
            assert getattr(ns, dest) != getattr(default, dest), flag

    def test_accepted_flag_count(self):
        assert sum(len(CERT_FLAGS) + len(own) for own in HARNESS_FLAGS.values()) == 81

    def test_harness_name_comes_first(self, capsys):
        assert run_cli("theorem", "--q", "0.5", "thm31") == 2
        assert "invalid choice" in capsys.readouterr().err


class TestLaplace:
    def test_atoms_table(self, tmp_path):
        out = tmp_path / "lap.csv"
        code = run_cli(
            "laplace", "--atoms", "0:0.5,1:0.5", "--kernel", "power",
            "--grid-min", "0", "--grid-max", "2", "--grid-count", "5",
            "--grid-spacing", "linear", "--out", str(out),
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["lambda", "value"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)  # mass at lambda=0

    def test_measure_file(self, tmp_path):
        mfile = tmp_path / "m.txt"
        mfile.write_text("0 0.5\n1 0.5\n", encoding="utf-8")
        out = tmp_path / "lap.csv"
        code = run_cli(
            "laplace", "--measure", str(mfile), "--kernel", "jackson",
            "--grid-min", "0", "--grid-max", "1", "--grid-count", "3",
            "--grid-spacing", "linear", "--out", str(out),
        )
        assert code == 0

    def test_jackson_kernel_far_out(self, tmp_path):
        # E_0.9(-60): the alternating series returned 2.1e-4
        out = tmp_path / "lap.json"
        code = run_cli(
            "laplace", "--kernel", "jackson", "--q", "0.9", "--atoms", "1:1",
            "--grid-min", "60", "--grid-max", "60", "--grid-count", "1",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        [row] = json.loads(out.read_text(encoding="utf-8"))["rows"]
        assert row["value"] == pytest.approx(5.0484082037937963e-8, rel=1e-12)

    def test_bad_atoms_usage_error(self):
        assert run_cli("laplace", "--atoms", "nonsense") == 2

    @pytest.mark.parametrize("atoms", ["a:1", "1:x", "0:0.5,1:x"])
    def test_unparsable_atom_is_named(self, capsys, atoms):
        assert run_cli("laplace", "--atoms", atoms) == 2
        bad = atoms.split(",")[-1]
        assert f"error: unparsable number in atom {bad!r}" in capsys.readouterr().err

    def test_overflowing_merged_atoms_are_named(self, capsys):
        code = run_cli("laplace", "--atoms", "1:1.7e308,1:1.7e308", "--grid-count", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: merged atom weight at t = 1.0 overflows" in err
        assert "refusing to serialize" not in err

    def test_log_grid_from_zero_is_usage_error(self, capsys):
        code = run_cli(
            "laplace", "--atoms", "1:1", "--grid-spacing", "log",
            "--grid-min", "0", "--grid-max", "2", "--grid-count", "3",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSemigroup:
    def test_delta_family_passes(self, capsys):
        code = run_cli(
            "semigroup", "--family", "delta", "--speed", "1.0",
            "--ts", "1,2,3", "--format", "json",
        )
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["passed"] is True

    def test_broken_family_fails(self, capsys):
        code = run_cli("semigroup", "--family", "broken-delta", "--ts", "1,2,3", "--format", "json")
        assert code == 1
        tree = json.loads(capsys.readouterr().out)
        assert tree["max_deviation"] > 0.0

    def test_conv_family(self, tmp_path):
        mfile = tmp_path / "p.txt"
        mfile.write_text("0 0.5\n1 0.5\n", encoding="utf-8")
        code = run_cli(
            "semigroup", "--family", "conv", "--measure", str(mfile), "--ts", "1,2,3",
        )
        assert code == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, tol, fmt):
        out = tmp_path / f"out.{fmt}"
        assert run_cli("semigroup", "--tol", tol, "--format", fmt, "--out", str(out)) == 2
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "ts, message",
        [
            ("", "semigroup check needs at least one (t, s) pair"),
            ("1e300", f"pairwise sums <= {_MAX_CONV_TIME}, got 1e+300"),
            ("inf", f"pairwise sums <= {_MAX_CONV_TIME}, got inf"),
            # each time is in range, but the sum 1200 is a needed time too
            ("600", f"pairwise sums <= {_MAX_CONV_TIME}, got 1200.0"),
        ],
    )
    def test_conv_bad_times_are_usage_errors(self, tmp_path, capsys, ts, message, fmt):
        out = tmp_path / f"out.{fmt}"
        code = run_cli(
            "semigroup", "--family", "conv", "--measure", str(MEASURE), "--ts", ts,
            "--format", fmt, "--out", str(out),
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_conv_pair_limit_stops_incommensurate_atoms(self, tmp_path, capsys, fmt):
        # atoms {0, 1, sqrt 2}: the m-fold power has (m+1)(m+2)/2 atoms
        mfile = tmp_path / "three.txt"
        mfile.write_text("0 0.3\n1 0.3\n1.4142135623730951 0.4\n", encoding="utf-8")
        out = tmp_path / f"out.{fmt}"
        start = time.perf_counter()
        code = run_cli(
            "semigroup", "--family", "conv", "--measure", str(mfile), "--ts", "64",
            "--format", fmt, "--out", str(out),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"at most {_MAX_CONV_PAIRS} atom pairs per convolution" in capsys.readouterr().err
        assert not out.exists()

    def test_conv_two_atom_measure_runs_at_the_time_cap(self):
        # --ts 512 needs the 1024-fold power: 1024 atoms times 2 per step
        code = run_cli(
            "semigroup", "--family", "conv", "--measure", str(MEASURE), "--ts", "512",
            "--grid-count", "1", "--format", "json",
        )
        assert code == 0

    @pytest.mark.parametrize("family", ["delta", "broken-delta"])
    def test_measure_needs_conv_family(self, tmp_path, capsys, family):
        # the file is neither read nor needed: the flag itself is refused
        out = tmp_path / "out.csv"
        code = run_cli("semigroup", "--family", family, "--measure", str(tmp_path / "missing.txt"),
                       "--grid-count", "2", "--out", str(out))
        assert code == 2
        assert "--measure acts only with --family conv" in capsys.readouterr().err
        assert not out.exists()

    def test_speed_needs_a_delta_family(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run_cli("semigroup", "--family", "conv", "--measure", str(MEASURE), "--speed", "99",
                       "--grid-count", "2", "--out", str(out))
        assert code == 2
        assert "--speed acts only with --family delta or broken-delta" in capsys.readouterr().err
        assert not out.exists()

    def test_conv_needs_integer_times(self, tmp_path):
        mfile = tmp_path / "p.txt"
        mfile.write_text("0 1\n", encoding="utf-8")
        code = run_cli(
            "semigroup", "--family", "conv", "--measure", str(mfile), "--ts", "1.5",
        )
        assert code == 2


class TestSeriesBuiltins:
    """`polylog_qx` is polylog itself at z = q^x, whose 400,000-term cap
    reaches x = 1e-2 at q = 0.9 (~35k terms).  The other five series
    builtins agree with 50-digit mpmath down to x = 1e-8; the three
    q-digamma builtins also at x = 5 with q = 0.999, and `eval` reaches
    x = 50 at q = 0.99999."""

    Q9 = QParam(0.9)
    X = 1e-2

    @pytest.mark.parametrize("name", ["polylog_qx"])
    def test_builtin_reaches_below_the_default_cap(self, name):
        got = build_function(name, self.Q9, {})(self.X)
        assert got == polylog(2.0, math.exp(self.X * math.log(self.Q9.q)))
        with mp.workdps(50):
            want = float(mp.polylog(2, mp.mpf(self.Q9.q) ** mp.mpf(self.X)))
        assert got == pytest.approx(want, rel=1e-12)

    ORACLES = {  # name: (builtin parameters, 50-digit value at (x, q))
        "q_psi": ({}, lambda x, q: mp_q_psi(x, q)[0]),
        "q_psi_prime": ({}, lambda x, q: mp_q_psi(x, q, 1)[0]),
        "q_psi_k": ({"k": 3}, lambda x, q: mp_q_psi(x, q, 3)[0]),
        "h_aux": ({}, lambda x, q: mp_h_aux(x, q)[0]),
        "f_abq": ({"alpha": 0.5, "beta": 1.0}, lambda x, q: mp_f_abq(x, 0.5, 1.0, q)),
    }

    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_builtin_matches_mpmath_near_zero(self, name):
        params, oracle = self.ORACLES[name]
        f = build_function(name, self.Q9, params)
        for x in (1e-2, 1e-8):
            assert f(x) == pytest.approx(oracle(x, self.Q9), rel=1e-13)

    @pytest.mark.parametrize("name", ["q_psi", "q_psi_prime", "q_psi_k"])
    def test_psi_builtin_matches_mpmath_near_one(self, name):
        params, oracle = self.ORACLES[name]
        q = QParam(0.999)
        assert build_function(name, q, params)(5.0) == pytest.approx(oracle(5.0, q), rel=1e-13)

    def test_psi_eval_reaches_large_x_near_one(self, tmp_path):
        # a loop over n would need ~37 / (x |log q|) = 3.7e6 terms at x = 1
        out = tmp_path / "psi.csv"
        code = run_cli(
            "eval", "q_psi_k", "--k", "2", "--q", "0.99999", "--grid-min", "1",
            "--grid-max", "50", "--grid-count", "3", "--out", str(out),
        )
        assert code == 0
        _, rows, _ = read_csv(out)
        # near the classical psi''(1) = -2 zeta(3); the two differ by 3.5e-12 relative
        assert float(rows[0][1]) == pytest.approx(-2.0 * 1.2020569031595942, rel=1e-9)


class TestTable:
    def test_two_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(
            "table", "q_gamma", "q_psi",
            "--grid-min", "1", "--grid-max", "3", "--grid-count", "3",
            "--grid-spacing", "linear", "--out", str(out),
        )
        assert code == 0
        header, rows, _ = read_csv(out)
        assert header == ["x", "q_gamma", "q_psi"]
        assert float(rows[0][1]) == pytest.approx(q_gamma(1.0, Q5), rel=1e-12)


class TestPlumbing:
    @pytest.mark.parametrize("command", ["eval", "certify", "theorem", "table"])
    def test_builtin_params_parse_with_their_spec_type(self, command):
        parser = build_parser()
        # a --fn harness takes every parameter flag; thm31 only --alpha, --beta
        lead = (["theorem", "bernstein_iff", "--fn", "identity"] if command == "theorem"
                else [command, "identity"])
        for b in BUILTINS.values():
            for ps in b.params:
                ns = parser.parse_args(lead + [f"--{ps.name}", "2"])
                value = getattr(ns, ps.name.replace("-", "_"))
                assert value == ps.type("2")
                assert type(value) is type(ps.default)

    @pytest.mark.parametrize("argv, names", [
        (("eval", "identity"), "identity"),
        (("certify", "identity"), "identity"),
        (("table", "identity", "square"), "identity or square"),
        (("theorem", "bernstein_iff", "--fn", "identity"), "identity"),
        (("theorem", "difference", "--fn", "reciprocal_shift"), "reciprocal_shift"),
    ])
    def test_builtin_param_needs_a_builtin_that_takes_it(self, tmp_path, capsys, argv, names):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--rate", "2", "--grid-count", "2", "--out", str(out)) == 2
        assert f"error: --rate is not a parameter of {names}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_table_param_acts_when_one_column_takes_it(self, capsys):
        assert run_cli("table", "identity", "exp_decay", "--rate", "2", "--grid-count", "2") == 0
        x, _, value = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(value) == math.exp(-2.0 * float(x))

    def test_unknown_function_is_named_before_its_params(self, capsys):
        assert run_cli("eval", "nosuch", "--rate", "2") == 2
        assert "error: unknown function 'nosuch'" in capsys.readouterr().err

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QMONO_OUT_DIR", str(tmp_path))
        code = run_cli(
            "eval", "identity", "--grid-min", "1", "--grid-max", "2",
            "--grid-count", "2", "--grid-spacing", "linear", "--out", "sub/rel.csv",
        )
        assert code == 0
        assert (tmp_path / "sub" / "rel.csv").exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir", encoding="utf-8")
        code = run_cli(
            "eval", "identity", "--grid-min", "1", "--grid-max", "2",
            "--grid-count", "2", "--out", str(blocker / "x.csv"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_q_is_usage_error(self):
        assert run_cli("eval", "identity", "--q", "1.0") == 2
        assert run_cli("eval", "identity", "--q", "-2.0") == 2

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 2

    def test_missing_command_is_usage_error(self):
        assert run_cli() == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "identity"),
            ("table", "identity"),
            ("certify", "identity"),
            ("laplace", "--atoms", "1:1"),
            ("semigroup",),
        ],
    )
    def test_negative_control_is_theorem_only(self, capsys, argv):
        assert run_cli(*argv, "--negative-control") == 2
        assert "unrecognized arguments: --negative-control" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "identity", "--grid-count", "3"),
            ("table", "identity", "constant"),
            ("certify", "identity"),
            ("theorem", "closure"),
            ("laplace", "--atoms", "1:1"),
            ("semigroup",),
        ],
    )
    def test_bad_tol_rel_is_refused_up_front(self, tmp_path, capsys, argv, tol):
        # only certify and theorem take --tol-rel; their CertSpec refuses a
        # value that is not positive and finite before any work or output
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--tol-rel", tol, "--out", str(out)) == 2
        captured = capsys.readouterr()
        if argv[0] in ("certify", "theorem"):
            assert "error: tol_rel must be positive and finite" in captured.err
        else:
            assert "unrecognized arguments: --tol-rel" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("eval", "identity", "--grid-count", "2"),
        ("table", "identity", "constant", "--grid-count", "2"),
        ("laplace", "--atoms", "1:1", "--grid-count", "2"),
        ("semigroup", "--grid-count", "2"),
    ])
    def test_order_is_certification_only(self, capsys, argv):
        assert run_cli(*argv, "--order", "3") == 2
        assert "unrecognized arguments: --order 3" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, keys", [
        (("eval", "identity"), ("q", "grid", "version")),
        (("table", "identity", "constant"), ("q", "grid", "version")),
        (("laplace", "--atoms", "1:1"), ("q", "grid", "version")),
        (("semigroup",), ("q", "grid", "version")),
        (("certify", "identity", "--order", "1"), ("q", "order", "grid", "tol_rel", "version")),
        (("theorem", "closure", "--order", "1"), ("q", "order", "grid", "tol_rel", "version")),
    ])
    def test_provenance_keys(self, tmp_path, argv, keys, fmt):
        # order and tol_rel are recorded only where they act
        out = tmp_path / f"out.{fmt}"
        assert run_cli(*argv, "--grid-count", "2", "--format", fmt, "--out", str(out)) in (0, 1)
        if fmt == "json":
            got = tuple(json.loads(out.read_text(encoding="utf-8"))["provenance"])
        else:
            *_, footer = read_csv(out)
            assert len(footer) == 1
            got = tuple(item.split("=", 1)[0] for item in footer[0][2:].split(" "))
        assert got == keys

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert "qmono" in capsys.readouterr().out

    def test_csv_uses_lf_and_17_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        run_cli(
            "eval", "identity", "--grid-min", "0.1", "--grid-max", "0.1",
            "--grid-count", "1", "--out", str(out),
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"0.10000000000000001" in raw  # 17 significant digits of 0.1


class TestArithmeticErrors:
    """Overflow and division by zero inside a builtin are domain errors."""

    def test_overflow_is_usage_error(self, capsys):
        assert run_cli("eval", "exp_decay", "--rate", "-1000") == 2
        assert "error: exp(-rate x) overflows a float at x = 0.729" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            ("eval eq_decay --rate -1000 --grid-count 2", "E_q(1)^x overflows a float at x = 5000.0 (q = 0.5)"),
            ("eval exp_decay --rate -1000 --grid-count 2", "exp(-rate x) overflows a float at x = 5.0 (rate = -1000.0)"),
            # the decay target E_q(1)^(-t psi_q(x)) of the bernstein_iff side
            ("theorem bernstein_iff --fn q_psi --q 0.5 --ts 1000 --grid-min 0.001 --grid-max 0.01 "
             "--grid-count 3", "E_q(1)^x overflows a float at x = 1000072.6782835121 (q = 0.5)"),
        ],
    )
    def test_overflow_names_its_argument(self, capsys, argv, named):
        assert run_cli(*argv.split()) == 2
        err = capsys.readouterr().err
        assert f"error: {named}" in err
        assert "math range error" not in err

    def test_zero_division_is_usage_error(self, capsys):
        code = run_cli(
            "eval", "reciprocal_shift", "--shift", "-0.1",
            "--grid-min", "0.1", "--grid-max", "0.1", "--grid-count", "1",
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGridCount:
    @pytest.mark.parametrize("count", ["0", "-5"])
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("command", [["eval", "identity"], ["laplace", "--atoms", "1:1"]])
    def test_nonpositive_count_is_usage_error(self, capsys, command, spacing, count):
        code = run_cli(
            *command, "--grid-min", "0.1", "--grid-max", "5",
            "--grid-count", count, "--grid-spacing", spacing,
        )
        assert code == 2
        assert "at least one point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["laplace", "--atoms", "1:1", "--grid-min", "2", "--grid-max", "0"],
            ["laplace", "--atoms", "1:1", "--grid-min", "1", "--grid-max", "1"],
            ["semigroup", "--grid-min", "1", "--grid-max", "1"],
            ["semigroup", "--grid-min", "2", "--grid-max", "0.5"],
        ],
    )
    def test_non_increasing_lambda_grid_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_cli(*argv, "--grid-count", "3", "--out", str(out)) == 2
        assert "grid points must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteInput:
    """A non-finite grid end or shift is named where it is read, before
    any work."""

    def test_nan_lambda_grid_end_is_named(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = run_cli("laplace", "--atoms", "1:1", "--grid-min", "nan", "--grid-max", "1",
                       "--grid-count", "2", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: grid points must be finite, got nan\n"
        assert not out.exists()

    def test_infinite_difference_shift_is_named(self, capsys):
        code = run_cli("theorem", "difference", "--fn", "reciprocal_shift", "--offset", "inf",
                       "--grid-count", "2", "--order", "2")
        assert code == 2
        assert "error: difference shift must be finite and > 0, got a = inf" in capsys.readouterr().err


class TestNonFinite:
    """A non-finite value is a usage error in both formats, and nothing is
    written."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, value, fmt):
        out = tmp_path / f"out.{fmt}"
        code = run_cli("eval", "constant", "--value", value, "--format", fmt, "--out", str(out))
        assert code == 2
        assert "refusing to serialize non-finite value" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """main keeps one parser per process: no call may see another's state."""

    @staticmethod
    def fresh(argv, capsys):
        code = run(build_parser().parse_args(argv))
        return code, capsys.readouterr().out

    def test_no_state_carries_between_calls(self, capsys):
        assert run_cli("eval", "identity", "--grid-spacing", "cubic") == 2
        assert "invalid choice" in capsys.readouterr().err

        assert run_cli("--version") == 0
        assert capsys.readouterr().out.startswith("qmono ")

        assert run_cli("semigroup", "--ts", "1,2", "--format", "json") == 0
        capsys.readouterr()
        argv = ["semigroup", "--format", "json"]
        assert run_cli(*argv) == 0
        out = capsys.readouterr().out
        assert {e["t"] for e in json.loads(out)["entries"]} == {1, 2, 3}  # default --ts
        assert self.fresh(argv, capsys) == (0, out)

        for argv in (
            ["eval", "q_gamma", "--grid-count", "5"],
            ["laplace", "--atoms", "0:0.5,1:0.5", "--kernel", "jackson"],
        ):
            assert run_cli(*argv) == 0
            out = capsys.readouterr().out
            assert self.fresh(argv, capsys) == (0, out)


class TestGoldenOutputs:
    """Every subcommand, in both formats, written byte for byte as a
    reference version wrote them, with the same exit code."""

    #: runs that find a violation: exit 1, the report is still written
    VIOLATED = {"certify_violated.csv", "certify_violated.json", "bernstein_iff.csv",
                "difference.csv", "semigroup_power.json", "thm32_negative_control.csv",
                "difference_precondition.csv"}

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("laplace_jackson.csv",
             ["laplace", "--atoms", "0:0.25,0.5:0.25,1.5:0.5", "--kernel", "jackson",
              "--q", "0.7", "--grid-min", "0", "--grid-max", "2", "--grid-count", "9",
              "--grid-spacing", "linear"]),
            ("laplace_jackson.json",
             ["laplace", "--atoms", "0.25:1,1:2", "--kernel", "jackson",
              "--q", "1.5", "--grid-min", "0", "--grid-max", "1", "--grid-count", "5",
              "--grid-spacing", "linear", "--format", "json"]),
            ("semigroup_jackson.json",
             ["semigroup", "--family", "delta", "--speed", "0.5", "--ts", "1,2,3",
              "--kernel", "jackson", "--q", "0.5", "--format", "json"]),
            ("eval.csv", ["eval", "q_gamma", "--q", "0.7", "--grid-count", "5"]),
            ("eval.json",
             ["eval", "reciprocal_shift", "--shift", "0.5", "--grid-min", "0.5", "--grid-max", "2",
              "--grid-count", "4", "--grid-spacing", "linear", "--format", "json"]),
            ("table.csv",
             ["table", "identity", "square", "exp_decay", "--rate", "2", "--grid-count", "4"]),
            ("table.json",
             ["table", "q_psi", "eq_decay", "--q", "1.5", "--grid-count", "3", "--format", "json"]),
            ("certify_violated.csv",
             ["certify", "identity", "--property", "qcm", "--order", "3", "--grid-count", "4"]),
            ("certify_violated.json",
             ["certify", "square", "--property", "qlogcm", "--order", "3", "--grid-count", "4",
              "--format", "json"]),
            ("thm31.csv",
             ["theorem", "thm31", "--alpha", "0.5", "--beta", "1", "--order", "3",
              "--grid-count", "4"]),
            ("thm31.json",
             ["theorem", "thm31", "--alpha", "0.25", "--beta", "1.5", "--q", "0.7", "--order", "3",
              "--grid-count", "4", "--format", "json"]),
            ("bernstein_iff.csv",
             ["theorem", "bernstein_iff", "--fn", "square", "--ts", "0.5,1", "--order", "3",
              "--grid-count", "4"]),
            ("bernstein_iff.json",
             ["theorem", "bernstein_iff", "--fn", "identity", "--ts", "0.5,1", "--order", "3",
              "--grid-count", "4", "--format", "json"]),
            ("difference.csv",
             ["theorem", "difference", "--fn", "identity", "--offset", "0.5", "--order", "3",
              "--grid-count", "4"]),
            ("difference.json",
             ["theorem", "difference", "--fn", "reciprocal_shift", "--order", "3",
              "--grid-count", "4", "--format", "json"]),
            ("closure.csv",
             ["theorem", "closure", "--ts", "0.5,1", "--order", "3", "--grid-count", "4"]),
            ("closure.json",
             ["theorem", "closure", "--ts", "0.5,1", "--order", "3", "--grid-count", "4",
              "--format", "json"]),
            ("semigroup_power.csv",
             ["semigroup", "--family", "delta", "--speed", "0.5", "--ts", "1,2", "--q", "0.5"]),
            ("semigroup_power.json",
             ["semigroup", "--family", "broken-delta", "--ts", "1,2", "--q", "0.7",
              "--format", "json"]),
            ("laplace_power.csv",
             ["laplace", "--atoms", "0:0.25,0.5:0.25,1.5:0.5", "--q", "0.7", "--grid-count", "5"]),
            ("laplace_power.json",
             ["laplace", "--atoms", "0.25:1,1:2", "--q", "1.5", "--grid-min", "0",
              "--grid-max", "1", "--grid-count", "5", "--format", "json"]),
            ("thm32.csv",
             ["theorem", "thm32", "--a", "1,2", "--b", "2,3", "--q", "0.7", "--order", "3",
              "--grid-count", "4"]),
            ("thm32.json",
             ["theorem", "thm32", "--a", "1,2", "--b", "2,3", "--q", "0.7", "--order", "3",
              "--grid-count", "4", "--format", "json"]),
            ("thm32_negative_control.csv",
             ["theorem", "thm32", "--a", "2", "--b", "1", "--negative-control", "--q", "0.7",
              "--order", "3", "--grid-count", "4"]),
            ("thm31_negative_control.json",
             ["theorem", "thm31", "--alpha", "0.75", "--beta", "1", "--negative-control",
              "--order", "3", "--grid-count", "4", "--format", "json"]),
            # exit 1 from the violated precondition only: the difference is Consistent
            ("difference_precondition.csv",
             ["theorem", "difference", "--fn", "constant", "--value", "-1", "--order", "3",
              "--grid-count", "4"]),
            ("certify_reciprocal.csv",
             ["certify", "reciprocal_shift", "--property", "qcm", "--order", "3",
              "--grid-count", "4"]),
            ("semigroup_conv.csv",
             ["semigroup", "--family", "conv", "--measure", str(MEASURE), "--ts", "1,2",
              "--q", "0.7"]),
            ("semigroup_conv.json",
             ["semigroup", "--family", "conv", "--measure", str(MEASURE), "--ts", "1,2,3",
              "--kernel", "jackson", "--q", "0.5", "--format", "json"]),
            ("laplace_measure.csv",
             ["laplace", "--measure", str(MEASURE), "--q", "0.7", "--grid-count", "5"]),
            ("laplace_measure.json",
             ["laplace", "--measure", str(MEASURE), "--kernel", "jackson", "--q", "1.5",
              "--grid-max", "1", "--grid-count", "5", "--format", "json"]),
        ],
    )
    def test_matches_golden(self, tmp_path, name, argv):
        out = tmp_path / name
        assert run_cli(*argv, "--out", str(out)) == (1 if name in self.VIOLATED else 0)
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


class TestReadmeExamples:
    """Every command in the README's CLI block runs, and exits 1 exactly
    where the README says so."""

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_line_runs_with_documented_exit(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.setenv("QMONO_OUT_DIR", str(tmp_path))
        argv = shlex.split(line, comments=True)
        assert argv[0] == "qmono"
        expected = 1 if re.search(r"#\s*exit 1\b", line) else 0
        assert main(argv[1:]) == expected, capsys.readouterr().err
