"""Command-line interface: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from opa import cli
from opa.cli import (
    EXIT_OK,
    EXIT_ORTHOGONAL,
    EXIT_SOLVER,
    EXIT_USAGE,
    JobSpec,
    main,
    parse_coeffs,
    parse_space,
)
from opa.engine import approximant_sweep, cyclicity_diagnostic, detect_stabilization, taylor_residuals
from opa.projection import project_unity
from opa.series import CPoly
from opa.spaces import WeightSequence

H2_DESC = '{"kind":"dirichlet","alpha":0}'
D1_DESC = '{"kind":"dirichlet","alpha":1}'
D2_DESC = '{"kind":"dirichlet","alpha":2}'


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_approximate_csv_hand_values(capsys):
    code, out, err = run(
        capsys,
        [
            "approximate",
            "--space",
            H2_DESC,
            "--f",
            "[[1,0],[-1,0]]",
            "--n-max",
            "2",
            "--format",
            "csv",
        ],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,dist_sq,coeff_0_re")
    dists = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(dists, [0.5, 1 / 3, 0.25], atol=1e-12)


def test_approximate_constant_f_zero_distances(capsys):
    code, out, _ = run(
        capsys,
        ["approximate", "--space", D1_DESC, "--f", "[[1,0]]", "--n-max", "3", "--format", "csv"],
    )
    assert code == EXIT_OK
    dists = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert np.allclose(dists, 0.0, atol=1e-14)


def test_approximate_taylor_column_dominates(capsys):
    code, out, _ = run(
        capsys,
        [
            "approximate",
            "--space",
            D1_DESC,
            "--f",
            "[[1,0],[-1,0]]",
            "--n-max",
            "6",
            "--taylor",
            "--format",
            "csv",
        ],
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for n, row in enumerate(rows):
        dist_sq, taylor = float(row[1]), float(row[2])
        assert taylor == pytest.approx(np.sqrt(n + 2), abs=1e-12)
        assert taylor > np.sqrt(dist_sq)


def test_json_output_deterministic(capsys):
    argv = [
        "approximate",
        "--space",
        H2_DESC,
        "--f",
        "[[1,0],[-1,0]]",
        "--n-max",
        "4",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical

    # the byte contract: JSON is json.dumps(payload, indent=2) plus a newline
    # and every CSV float cell is %.17g
    def json_out(argv):
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        return json.loads(out)

    def csv_out(argv):
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == EXIT_OK
        for line in out.splitlines()[1:]:
            for cell in line.split(",")[1:]:
                assert cell == format(float(cell), ".17g")

    taylor = ["approximate", "--space", D1_DESC, "--f", "[[1,0],[-0.5,0.25]]", "--n-max", "6", "--taylor"]
    assert "taylor_residual" in json_out(taylor)["rows"][0]
    csv_out(taylor)
    stabilize = json_out(["stabilize", "--space", H2_DESC, "--f", "[[2,0]]", "--n-max", "4"])
    assert math.inf in [c["value"] for c in stabilize["dossier"]["checks"]]
    json_out(["project", "--space", H2_DESC, "--f", "[[-0.5,0],[1,0]]", "--n-max", "10"])
    diagnose = ["diagnose", "--space", H2_DESC, "--f", "[[-0.5,0],[1,0]]", "--n-max", "10"]
    json_out(diagnose)
    csv_out(diagnose)
    kernel = ["kernel", "--space", D2_DESC, "--beta", "[0.3,0.4]", "--order", "1"]
    json_out(kernel)
    csv_out(kernel)


def test_json_writer_matches_json_module(monkeypatch):
    monkeypatch.setattr(cli.textfmt, "WARMUP", 0)  # the bulk batch takes the arrays
    def as_lists(obj):
        if isinstance(obj, np.ndarray):
            return [[float(c.real), float(c.imag)] for c in obj]
        if isinstance(obj, dict):
            return {k: as_lists(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [as_lists(v) for v in obj]
        return obj

    payload = {
        "floats": [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, 0.1, np.float64(1 / 3)],
        "ints": [0, -7, 10**40],
        "literals": [True, False, None],
        "empty": [[], {}, ()],
        "nested": (1, (2.5, ("x", {"k": ()})), [[[]]]),
        "strings": ["é", 'a"b\n', ""],
        "é": {"a\"b\n": 1},
        "complex": [
            np.zeros(0, dtype=complex),
            np.array([1.5 - 0.0j]),
            np.array([0.1 + 0.2j, complex(math.inf, -0.0), complex(math.nan, -math.inf)]),
        ],
        "coeffs": CPoly([1, -0.5j, 1e-300]).coeffs,
        # enough values for the bulk formatter, non-finite ones among them
        "bulk": [
            np.arange(400) * (0.1 - 0.3j),
            np.array([complex(0.5, math.inf), complex(-math.inf, 1e-310), complex(math.nan, -0.0)] * 100),
        ],
    }
    assert cli._json_dump(payload) == json.dumps(as_lists(payload), indent=2) + "\n"
    assert cli._json_dump([]) == "[]\n"


def test_project_report(capsys):
    code, out, _ = run(
        capsys,
        ["project", "--space", H2_DESC, "--f", "[[-0.5,0],[1,0]]", "--n-max", "30"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    report = payload["report"]
    assert not report["cyclic"]
    assert abs(report["phi0"] - 0.25) < 1e-9
    assert abs(report["dist_sq"] - 0.75) < 1e-9
    oracle = payload["oracle"]
    assert oracle["plateau_delta"] < 1e-6
    assert oracle["recurrence_residual"] < 1e-9
    assert oracle["approximant_distance"] < 1e-6


def test_project_boundary_zero(capsys):
    code, out, _ = run(
        capsys,
        ["project", "--space", D2_DESC, "--f", "[[1,0],[-1,0]]", "--n-max", "20"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["report"]["dist_sq"] - 6 / np.pi**2) < 1e-6


def test_project_cyclic_case(capsys):
    code, out, _ = run(
        capsys,
        ["project", "--space", H2_DESC, "--f", "[[1,0],[-0.3333333333333333,0]]"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["cyclic"] is True
    assert payload["report"]["phi0"] == 1.0


def test_diagnose_plateau_csv(capsys):
    code, out, _ = run(
        capsys,
        [
            "diagnose",
            "--space",
            H2_DESC,
            "--f",
            "[[-0.5,0],[1,0]]",
            "--n-max",
            "25",
            "--format",
            "csv",
        ],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,dist_sq"
    final = float(lines[-1].split(",")[1])
    assert abs(final - 0.75) < 1e-6


def test_diagnose_json_verdict(capsys):
    code, out, _ = run(
        capsys,
        ["diagnose", "--space", H2_DESC, "--f", "[[-0.5,0],[1,0]]", "--n-max", "25"],
    )
    payload = json.loads(out)
    assert payload["verdict"] == "non_cyclic"
    assert abs(payload["reference_dist_sq"] - 0.75) < 1e-9


def test_kernel_csv(capsys):
    code, out, _ = run(
        capsys,
        ["kernel", "--space", D2_DESC, "--beta", "[1,0]", "--format", "csv"],
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:5]]
    values = [float(r[1]) for r in rows]
    assert np.allclose(values, [1, 0.25, 1 / 9, 1 / 16])


def test_exit_code_orthogonal_data(capsys):
    code, out, err = run(
        capsys,
        ["approximate", "--space", H2_DESC, "--f", "[[0,0],[1,0]]", "--n-max", "2"],
    )
    assert code == EXIT_ORTHOGONAL
    assert out == ""
    assert "orthogonal" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--space", H2_DESC, "--f", "[[1,0]]", "--n-max", "abc"],
        ["approximate", "--f", "[[1,0]]"],  # no --space
        ["approximate", "--space", H2_DESC, "--f", "[[1,0]]", "--format", "xml"],
        ["bogus"],
        [],
    ],
)
def test_command_line_error_is_a_usage_error_not_orthogonal_data(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, ["project", "--help"])
    assert code == EXIT_OK
    assert out.startswith("usage: opa project")
    assert err == ""


# z - (1 - 2^-20): its kernel sums need more than 10^7 terms (ROADMAP item 11)
UNCERTIFIABLE_F = "[[-0.9999990463256836,0],[1,0]]"


def test_one_parser_serves_many_jobs(capsys):
    good = ["project", "--space", D2_DESC, "--f", "[[1,0],[-0.5,0]]", "--n-max", "6"]
    first = run(capsys, good)
    assert run(capsys, ["approximate", "--n-max", "abc"])[0] == EXIT_USAGE
    assert run(capsys, ["--help"])[0] == EXIT_OK
    failing = run(capsys, ["project", "--space", H2_DESC, "--f", UNCERTIFIABLE_F])
    assert failing[0] == EXIT_SOLVER and "required series length exceeds 1e7" in failing[2]
    assert run(capsys, good) == first
    assert first[0] == EXIT_OK and first[1]
    assert cli.build_parser() is not cli.build_parser()


def test_exit_code_usage_on_bad_json(capsys):
    code, _, err = run(capsys, ["approximate", "--space", "{bad", "--f", "[[1,0]]"])
    assert code == EXIT_USAGE
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--space", H2_DESC, "--beta", "5"],
        ["kernel", "--space", H2_DESC, "--beta", "[1,2,3]"],
        ["approximate", "--space", H2_DESC, "--f", "[[1,null]]"],
        ["approximate", "--space", H2_DESC, "--f", '[[1,"x"]]'],
        ["approximate", "--space", '{"kind":"dirichlet"}', "--f", "[[1,0]]"],
        # non-finite data would give NaN rows under exit code 0
        ["approximate", "--space", H2_DESC, "--f", "[[1,0],[NaN,0]]"],
        ["approximate", "--space", H2_DESC, "--f", "[1, 1e400]"],
        ["approximate", "--space", '{"kind":"custom","weights":[1,null]}', "--f", "[[1,0]]"],
        # mistyped or non-finite space fields
        ["approximate", "--space", '{"kind":"dirichlet","alpha":[1]}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"multiplier","m":[[1,null]]}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"multiplier","m":[1]}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"multiplier","m":[[1,0],[-0.5,"x"]]}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"dirichlet","alpha":NaN}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"dirichlet","alpha":1e400}', "--f", "[[1,0]]"],
        ["approximate", "--space", '{"kind":"dirichlet","alpha":true}', "--f", "[[1,0]]"],
        # an eps that is not a positive finite number certifies nothing: NaN
        # fails every comparison, so no window or truncation would ever pass
        ["stabilize", "--space", H2_DESC, "--f", "[1]", "--n-max", "4", "--eps", "nan"],
        ["stabilize", "--space", H2_DESC, "--f", "[1]", "--eps", "0"],
        ["approximate", "--space", H2_DESC, "--f", "[1]", "--eps=-1e-9"],
        ["project", "--space", H2_DESC, "--f", "[[1,0],[-0.5,0]]", "--eps", "nan"],
        ["kernel", "--space", H2_DESC, "--beta", "[0.5,0]", "--eps", "nan"],
        ["kernel", "--space", H2_DESC, "--beta", "[0.5,0]", "--eps", "inf"],
    ],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("opa: bad job:")
    assert "Traceback" not in err


def test_exit_code_solver_failure(capsys):
    # f so small the Gram pivot collapses below threshold
    code, out, err = run(
        capsys,
        ["approximate", "--space", H2_DESC, "--f", "[[1e-8,0]]", "--n-max", "1"],
    )
    assert code == EXIT_SOLVER
    assert out == ""
    assert "solver" in err


def test_diagnose_constant_f_all_zero(capsys):
    code, out, _ = run(
        capsys,
        ["diagnose", "--space", H2_DESC, "--f", "[[1,0]]", "--n-max", "4", "--format", "csv"],
    )
    assert code == EXIT_OK
    dists = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert np.allclose(dists, 0.0, atol=1e-13)


def test_csv_unsupported_for_project(capsys):
    code, _, err = run(
        capsys,
        ["project", "--space", H2_DESC, "--f", "[[-0.5,0],[1,0]]", "--format", "csv"],
    )
    assert code == EXIT_USAGE
    assert "json" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys,
        [
            "approximate",
            "--space",
            H2_DESC,
            "--f",
            "[[1,0],[-1,0]]",
            "--n-max",
            "1",
            "--format",
            "csv",
            "--out",
            str(target),
        ],
    )
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("n,dist_sq")


def test_parse_round_trip_is_stable():
    # serialize(parse(x)) is a normal form: parsing it again is the identity
    space = parse_space('{"kind": "dirichlet", "alpha": 1.0}')
    f = parse_coeffs("[1, -1]")  # bare reals accepted
    job = JobSpec("approximate", space, f, CPoly([1]), 5, 1e-9, "json")
    once = job.to_dict()
    job2 = JobSpec(
        "approximate",
        WeightSequence.from_descriptor(once["space"]),
        parse_coeffs(json.dumps(once["f"])),
        parse_coeffs(json.dumps(once["g"])),
        once["n_max"],
        once["eps"],
        once["format"],
    )
    assert job2.to_dict() == once


def test_space_descriptor_from_file(tmp_path, capsys):
    desc = tmp_path / "space.json"
    desc.write_text(D1_DESC)
    code, out, _ = run(
        capsys,
        ["approximate", "--space", str(desc), "--f", "[[1,0],[-1,0]]", "--n-max", "0", "--format", "csv"],
    )
    assert code == EXIT_OK
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(2 / 3)


def test_stabilize_report(capsys):
    code, out, _ = run(
        capsys,
        ["stabilize", "--space", H2_DESC, "--f", "[[1,0],[-1,0]]", "--n-max", "8"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["stabilized"] is False
    code, out, _ = run(
        capsys,
        ["stabilize", "--space", H2_DESC, "--f", "[[2,0]]", "--n-max", "4"],
    )
    payload = json.loads(out)
    assert payload["stabilized"] is True and payload["M"] == 0
    assert payload["certificate"] == "exact_orthogonality"
    assert payload["dossier"]["all_passed"] is True


def test_stabilize_in_a_quotient_space_has_no_dossier(capsys):
    # p_0* = 1 is optimal for f = 1 in {h/m}, but the dossier's identities
    # need orthogonal monomials, so the report comes without one
    space = '{"kind":"multiplier","m":[[1,0],[-0.5,0]]}'
    code, out, _ = run(capsys, ["stabilize", "--space", space, "--f", "[[1,0]]", "--n-max", "4"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["stabilized"] is True and payload["M"] == 0
    assert "dossier" not in payload


def test_full_size_outputs_keep_the_byte_contract(capsys, monkeypatch):
    # every coefficient goes through the bulk formatter: JSON must still be
    # json.dumps(..., indent=2) and every CSV cell %.17g, at full size
    monkeypatch.setattr(cli.textfmt, "WARMUP", 0)
    argv = ["approximate", "--space", D1_DESC, "--f", "[[1,0],[-0.5,0.2],[0.3,-0.1]]", "--n-max", "200"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    code, out, _ = run(capsys, argv + ["--format", "csv", "--taylor"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 202 and all(line.count(",") == 404 for line in lines)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == str(int(cells[0]))
        assert all(cell == format(float(cell), ".17g") for cell in cells[1:])
    # p_M and rows[M].coeffs are one array, printed at two indents; g = f q
    # with q of degree 25 makes p_n* = q from n = 25 on
    q = [0.5 * 0.9**k * (-1 if k % 3 == 0 else 1) for k in range(26)]
    g = json.dumps([[c, 0] for c in np.convolve([1, -0.5], q).tolist()])
    argv = ["stabilize", "--space", H2_DESC, "--f", "[[1,0],[-0.5,0]]", "--g", g, "--n-max", "40"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    payload = json.loads(out)
    assert payload["M"] == 25 and payload["p_M"] == payload["rows"][25]["coeffs"]
    assert 2 * sum(len(r["coeffs"]) for r in payload["rows"]) > cli.textfmt.BULK_MIN


def test_kernel_at_a_point_that_is_not_reproducible_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["kernel", "--space", H2_DESC, "--beta", "[1.5,0]"])
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: kernel: ") and "not reproducible" in err


def test_kernel_takes_no_f(capsys):
    code, out, _ = run(capsys, ["kernel", "--space", H2_DESC, "--beta", "[0.5,0]", "--f", "[[1,0]]"])
    assert code == EXIT_USAGE and out == ""


def test_kernel_whose_coefficients_grow_is_a_usage_error(capsys):
    # the point is reproducible (0.97^2 / (1.45 / 1.5) < 1), but no stored
    # series with an envelope ratio below 1 holds its growing coefficients
    space = '{"kind":"custom","weights":[1,1.4,1.5,1.45]}'
    code, out, err = run(capsys, ["kernel", "--space", space, "--beta", "[0.97,0]"])
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: kernel: ") and "grow under decaying weights" in err


def test_kernel_in_a_multiplier_space_is_a_usage_error(capsys):
    space = '{"kind":"multiplier","m":[[1,0],[-0.5,0]]}'
    code, out, err = run(capsys, ["kernel", "--space", space, "--beta", "[0.5,0]"])
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: kernel: ") and err.count("\n") == 1
    assert "non-orthogonal monomials" in err


@pytest.mark.parametrize("command", ["approximate", "diagnose", "stabilize", "project"])
def test_a_negative_degree_is_a_usage_error(capsys, command):
    argv = [command, "--space", H2_DESC, "--f", "[[1,0],[-0.5,0]]", "--n-max", "-1"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == "" and err == f"opa: {command}: degree must be non-negative\n"


@pytest.mark.parametrize("target", ["missing/rows.json", "."])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, target):
    argv = ["approximate", "--space", H2_DESC, "--f", "[[1,0],[-1,0]]", "--n-max", "2"]
    code, out, err = run(capsys, argv + ["--out", str(tmp_path / target)])
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: approximate: ")


def test_a_failing_stdout_keeps_its_own_exception(monkeypatch):
    # only an --out path is reported as unwritable; a closed pipe on stdout
    # (opa ... | head) is not a usage error
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["approximate", "--space", H2_DESC, "--f", "[[1,0],[-1,0]]", "--n-max", "2"])


@pytest.mark.parametrize(
    "weights",
    ["[true,2,3]", '[1,"2",3]', "[1,%d,3]" % 10**400, '{"w1":2}', "3"],
    ids=["bool", "string", "huge_int", "object", "scalar"],
)
def test_descriptor_weights_must_be_numbers(capsys, weights):
    # true and "2" used to run as the weights [1, 2, 3]; a weight is read as
    # strictly as alpha and the entries of m
    space = '{"kind":"custom","weights":%s}' % weights
    argv = ["approximate", "--space", space, "--f", "[[1,0],[-0.5,0]]", "--n-max", "1"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: bad job: ") and err.count("\n") == 1


def test_unknown_extension_rule_is_a_usage_error(capsys):
    space = '{"kind":"custom","weights":[1,2,3],"extension":"geometric"}'
    code, out, err = run(capsys, ["approximate", "--space", space, "--f", "[[1,0]]"])
    assert code == EXIT_USAGE
    assert out == "" and err == "opa: bad job: unknown extension rule: geometric\n"


@pytest.mark.parametrize(
    "space, f, g, what",
    [
        ('{"kind":"custom","weights":[1,1e307,1.5e307]}', "[[1,0],[-0.5,0]]", "[[1,0]]", "weights"),
        (H2_DESC, "[[1e300,0],[-1e300,0]]", "[[1,0]]", "inner products"),
        (H2_DESC, "[[1e160,0],[-1e160,0]]", "[[1,0]]", "inner products"),
        (H2_DESC, "[[1,0],[-0.5,0]]", "[[1e300,0],[1e300,0]]", "distance"),
    ],
    ids=["weights", "f_1e300", "f_1e160", "g_1e300"],
)
def test_overflow_is_an_unsupported_request(capsys, space, f, g, what):
    # the suite turns RuntimeWarnings into errors, so an overflow that leaks
    # inf or NaN into the output (or into the factor) fails here as well
    argv = ["approximate", "--space", space, "--f", f, "--g", g, "--n-max", "10"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("opa: approximate: ") and err.count("\n") == 1
    assert what in err and "overflow" in err


def test_infinite_dirichlet_weights_write_no_warning(capsys):
    # (k + 1)^2000 overflows from k = 1: the Gram build refuses the infinite
    # weight with one line, and a kernel coefficient divided by it is 0, its
    # correctly rounded value (below 1e-600); no RuntimeWarning reaches stderr
    space = '{"kind":"dirichlet","alpha":2000}'
    for cmd, f in (("approximate", "[[1,0],[-1,0]]"), ("project", "[[1,0],[-2,0]]")):
        argv = [cmd, "--space", space, "--f", f] + (["--n-max", "3"] if cmd == "approximate" else [])
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"opa: {cmd}: inner products overflow the double range\n"
    code, out, err = run(capsys, ["kernel", "--space", space, "--beta", "[0.5,0]"])
    assert code == EXIT_OK and err == ""
    coeffs = json.loads(out)["coeffs"]
    assert coeffs[0] == [1.0, 0.0] and len(coeffs) > 1
    assert all(c == [0.0, 0.0] for c in coeffs[1:])


MULT_DESC = '{"kind":"multiplier","m":[[1,0],[-0.5,0.25]]}'


def _bits(values) -> bytes:
    """The float64 bytes of numbers, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


def _output(capsys, argv) -> str:
    code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    return out


@pytest.mark.parametrize("bulk", [False, True])
def test_approximate_rows_are_the_library_objects_bit_for_bit(capsys, monkeypatch, bulk):
    # the CLI prints from engine.sweep_arrays, the library builds its objects
    # from the same arrays: every number agrees, with --taylor, --g, a
    # multiplier space, and a constant f whose p_n* drop trailing zeros
    monkeypatch.setattr(cli.textfmt, "WARMUP", 0)
    monkeypatch.setattr(cli.textfmt, "BULK_MIN", 0 if bulk else 10**9)
    cases = [
        (D1_DESC, "[[1,0],[-0.5,0.2],[0.3,-0.1]]", None, 40),
        (H2_DESC, "[[1,0],[-0.5,0]]", "[[0.5,0],[0.25,-0.5],[0,1]]", 30),
        (MULT_DESC, "[[1,0],[0.5,-0.5]]", None, 30),
        (D2_DESC, "[[2,0]]", None, 6),
    ]
    for space_desc, f_text, g_text, n in cases:
        space, f = parse_space(space_desc), parse_coeffs(f_text)
        g = parse_coeffs(g_text) if g_text else CPoly([1])
        sweep = approximant_sweep(space, f, g, n)
        taylor = taylor_residuals(space, f, n)
        argv = ["approximate", "--space", space_desc, "--f", f_text, "--n-max", str(n), "--taylor"]
        argv += ["--g", g_text] if g_text else []
        rows = json.loads(_output(capsys, argv))["rows"]
        assert len(rows) == len(sweep) == n + 1
        for row, r, t in zip(rows, sweep, taylor):
            assert row["n"] == r.n
            assert _bits([row["dist_sq"], row["taylor_residual"]]) == _bits([r.distance_sq, t])
            assert _bits(row["coeffs"]) == r.p_star.coeffs.tobytes()
        lines = _output(capsys, argv + ["--format", "csv"]).splitlines()
        assert len(lines) == n + 2
        for line, r, t in zip(lines[1:], sweep, taylor):
            cells = line.split(",")
            coeffs = r.p_star.coeffs.view(float).tolist()
            assert cells[:3] == [str(r.n), "%.17g" % r.distance_sq, "%.17g" % t]
            assert cells[3 : 3 + len(coeffs)] == ["%.17g" % c for c in coeffs]
            assert cells[3 + len(coeffs) :] == ["0"] * (2 * (n + 1) - len(coeffs))


def test_stabilize_rows_are_the_report_bit_for_bit(capsys, monkeypatch):
    monkeypatch.setattr(cli.textfmt, "WARMUP", 0)
    q = [0.5 * 0.9**k * (-1 if k % 3 == 0 else 1) for k in range(12)]
    g_text = json.dumps([[c, 0] for c in np.convolve([1, -0.5], q).tolist()])
    f_text = "[[1,0],[-0.5,0]]"
    argv = ["stabilize", "--space", H2_DESC, "--f", f_text, "--g", g_text, "--n-max", "30"]
    payload = json.loads(_output(capsys, argv))
    report = detect_stabilization(parse_space(H2_DESC), parse_coeffs(f_text), parse_coeffs(g_text), n_max=30, eps=1e-9)
    assert (payload["stabilized"], payload["M"]) == (report.stabilized, report.M) == (True, 11)
    assert _bits(payload["p_M"]) == report.p_M.coeffs.tobytes()
    assert len(payload["rows"]) == len(report.sweep)
    for row, r in zip(payload["rows"], report.sweep):
        assert row["n"] == r.n and _bits(row["dist_sq"]) == _bits(r.distance_sq)
        assert _bits(row["coeffs"]) == r.p_star.coeffs.tobytes()


def test_diagnose_rows_are_the_library_table_bit_for_bit(capsys):
    for f_text in ("[[-0.5,0],[1,0]]", "[[1,0],[-0.5,0.25],[0.1,0]]"):
        diag = cyclicity_diagnostic(parse_space(D1_DESC), parse_coeffs(f_text), 50)
        argv = ["diagnose", "--space", D1_DESC, "--f", f_text, "--n-max", "50"]
        rows = json.loads(_output(capsys, argv))["rows"]
        assert [row["n"] for row in rows] == list(range(51))
        assert _bits([[row["dist_sq"], row["one_minus_pf0"]] for row in rows]) == _bits([r[1:] for r in diag.rows])
        lines = _output(capsys, argv + ["--format", "csv"]).splitlines()
        assert lines == ["n,dist_sq"] + ["%d,%.17g" % (n, d) for n, d, _ in diag.rows]


def test_diagnose_json_is_json_dumps_of_its_payload(capsys):
    # the rows come from one template now; the text is still exactly
    # json.dumps of the payload of one dict per row
    f_text = "[[1,0],[-0.5,0],[0.25,0],[-0.125,0]]"
    argv = ["diagnose", "--space", D2_DESC, "--f", f_text, "--n-max", "2000", "--format", "json"]
    out = _output(capsys, argv)
    job = cli.parse_job(cli.build_parser().parse_args(argv))
    reference = project_unity(job.space, job.f, eps=1e-9).dist_sq
    diag = cyclicity_diagnostic(job.space, job.f, n_max=2000, reference_dist_sq=reference)
    payload = {
        "job": job.to_dict(),
        "rows": [{"n": n, "dist_sq": d, "one_minus_pf0": alt} for n, d, alt in diag.rows],
        "identity_max_dev": diag.identity_max_dev,
        "verdict": diag.verdict,
        "plateau": diag.plateau,
        "reference_dist_sq": diag.reference_dist_sq,
    }
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bulk", [False, True])
def test_table_writer_matches_json_module(monkeypatch, bulk):
    # a _Table is its list of dicts, non-finite floats and a row whose array
    # is one pair included, wherever it sits in the payload
    monkeypatch.setattr(cli.textfmt, "WARMUP", 0)
    monkeypatch.setattr(cli.textfmt, "BULK_MIN", 0 if bulk else 10**9)
    rng = np.random.default_rng(5)
    lengths = np.array([2, 6, 400, 2])
    values = rng.standard_normal(2 * lengths.sum()) * 10.0 ** rng.integers(-20, 20, 2 * lengths.sum())
    values[[0, 9]] = [math.inf, -0.0]
    dist = [0.5, math.nan, -math.inf, 1e-300]
    table = cli._Table({"n": range(4), "dist_sq": dist, "coeffs": (values, 2 * lengths), "x": np.arange(4.0)})
    pairs = np.split(values.reshape(-1, 2).tolist(), np.cumsum(lengths)[:-1])
    rows = [
        {"n": n, "dist_sq": d, "coeffs": [list(p) for p in c], "x": float(n)}
        for n, d, c in zip(range(4), dist, pairs)
    ]
    payload = {"before": np.array([1.5 - 2j]), "rows": [table, []], "empty": cli._Table({"n": range(0)})}
    want = {"before": [[1.5, -2.0]], "rows": [rows, []], "empty": []}
    assert cli._json_dump(payload) == json.dumps(want, indent=2) + "\n"
