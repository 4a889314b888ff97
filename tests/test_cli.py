"""Command-line interface: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from opa import cli
from opa.cli import (
    EXIT_OK,
    EXIT_ORTHOGONAL,
    EXIT_UNDECIDABLE,
    EXIT_USAGE,
    JobSpec,
    cmd_project,
    main,
    parse_coeffs,
    parse_space,
)
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


def test_json_writer_matches_json_module():
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
    from opa.cli import EXIT_SOLVER

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


def test_exit_code_undecidable_classification(capsys):
    # callable weight extensions (API-level spaces) can defeat the ratio
    # certificate; project must then refuse with the dedicated exit code
    wobble = WeightSequence.custom(
        [1, 1.5, 1.5], extension=lambda k: 1.5 + 0.4 * (-1) ** k
    )
    job = JobSpec(
        command="project",
        space=wobble,
        f=CPoly([-0.5, 1]),
        g=CPoly([1]),
        n_max=10,
        eps=1e-9,
        fmt="json",
    )
    from opa.cli import _COMMANDS
    from opa.errors import UndecidableError

    with pytest.raises(UndecidableError):
        cmd_project(job)
    # and through the dispatcher path used by main():
    try:
        _COMMANDS["project"](job)
        code = EXIT_OK
    except UndecidableError:
        code = EXIT_UNDECIDABLE
    assert code == EXIT_UNDECIDABLE


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
