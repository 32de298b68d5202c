import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from invmetrics.cli import main
from invmetrics.domains import grid_save, grid_annulus


@pytest.fixture(scope="module")
def annulus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("grids") / "annulus.json"
    path.write_bytes(grid_save(grid_annulus(0.25, 0.02)))
    return str(path)


@pytest.fixture(scope="module")
def pants_file(tmp_path_factory, pants_grid):
    path = tmp_path_factory.mktemp("grids") / "pants.json"
    path.write_bytes(grid_save(pants_grid))
    return str(path)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_annulus_kobayashi(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", "annulus:0.1",
                           "--metric", "kobayashi",
                           "--p", "0.3162,0", "--q", "-0.3162,0")
        assert code == 0
        upper = float(out.splitlines()[2].split(": ")[1])
        assert upper == pytest.approx(2.1431573649805785, abs=1e-3)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", "disk",
                           "--p", "0,0", "--q", "0.5,0", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "metric,lower,upper,certified"
        assert "0.549306144" in out

    def test_deterministic_output(self, capsys):
        args = ("dist", "--domain", "annulus:0.1", "--metric", "caratheodory",
                "--p", "0.3162,0", "--q", "-0.3162,0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "dist", "--domain", "disk",
                           "--p", "2,0", "--q", "0,0")
        assert code == 1
        assert "OutOfDomain" in err


class TestBall:
    def test_disk_connectivity(self, capsys):
        code, out, _ = run(capsys, "ball", "--domain", "disk",
                           "--center", "0,0", "--radius", "0.5493",
                           "--spacing", "0.01")
        assert code == 0
        assert "connectivity_number: 0" in out

    def test_wrapping_annulus_ball(self, capsys):
        code, out, _ = run(capsys, "ball", "--domain", "annulus:0.1",
                           "--center", "0.3162,0", "--radius", "2.5",
                           "--spacing", "0.02")
        assert code == 0
        assert "connectivity_number: 1" in out

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "ball.svg"
        code, out, _ = run(capsys, "ball", "--domain", "annulus:0.1",
                           "--center", "0.3162,0", "--radius", "2.5",
                           "--spacing", "0.04", "--format", "svg",
                           "--out", str(target))
        assert code == 0
        body = target.read_text()
        assert body.startswith('<?xml version="1.0"')
        assert "<svg" in body and "</svg>" in body
        # byte determinism of the rendering
        again = tmp_path / "ball2.svg"
        run(capsys, "ball", "--domain", "annulus:0.1",
            "--center", "0.3162,0", "--radius", "2.5",
            "--spacing", "0.04", "--format", "svg", "--out", str(again))
        assert again.read_bytes() == target.read_bytes()
        assert sha256(target.read_bytes()) == (
            "4cd380d46c65807dc2e6883f949e3d4d45415860b7dc29f6cda398f1ac09c7e0")

    def test_pinned_caratheodory_pants(self, capsys, tmp_path, pants_file):
        # two holes, so the SVG pins the order of the hole palette
        args = ("ball", "--domain", f"grid:{pants_file}", "--metric", "caratheodory",
                "--center", "0,0.6", "--radius", "1.5", "--spacing", "0.02")
        text = ("metric: caratheodory-approximant\n"
                "cells: 4508\n"
                "connectivity_number: 2\n")
        assert run(capsys, *args) == (0, text, "")
        target = tmp_path / "pants.svg"
        assert run(capsys, *args, "--format", "svg", "--out", str(target)) == (0, text, "")
        assert sha256(target.read_bytes()) == (
            "4c4deb85521ecde738047c20c99f0ce630b214fd9b6c7c4cad8d8ef1777b1d2d")

    def test_grid_export(self, capsys, tmp_path):
        target = tmp_path / "ball.json"
        code, out, _ = run(capsys, "ball", "--domain", "disk",
                           "--center", "0,0", "--radius", "0.5",
                           "--spacing", "0.05", "--format", "grid",
                           "--out", str(target))
        assert code == 0
        assert '"metric": "kobayashi"' in target.read_text()


class TestSeparate:
    # the full stdout is pinned: the table literally, the polygon by digest
    def test_annulus_table(self, capsys, annulus_file):
        code, out, _ = run(capsys, "separate", "--grid", f"grid:{annulus_file}")
        assert code == 0
        assert out.startswith("k1: 2\nk2: 1\nvertices: 340\n"
                              "winding_k1: 1\nwinding_k2: 0\nvertices: 340\n")
        assert sha256(out.encode()) == (
            "a75591c15f75e6552378be9ca6494ba134c4b164a02fd37fc037c0c4786a7dc1")

    def test_pants_explicit_labels(self, capsys, pants_file):
        code, out, _ = run(capsys, "separate", "--grid", f"grid:{pants_file}")
        assert code == 0
        assert out.startswith("k1: 2\nk2: 3\nvertices: 160\n"
                              "winding_k1: 1\nwinding_k2: 0\nvertices: 160\n")
        assert sha256(out.encode()) == (
            "d0bcc7b5f4037d8365957ac815b3c97f7506eb5a57397e16d9e8f2893d68bf86")


class TestNerve:
    def test_wrapping_ball_matches(self, capsys):
        code, out, _ = run(capsys, "nerve", "--domain", "annulus:0.1",
                           "--center", "0.3162,0", "--radius", "2.5",
                           "--spacing", "0.01", "--cover-radius", "0.7")
        assert code == 0
        assert "match: true" in out
        assert "cycle_rank: 1" in out


class TestModulus:
    def test_catalog_annulus(self, capsys):
        code, out, _ = run(capsys, "modulus", "--domain", "annulus:0.25",
                           "--spacing", "0.02")
        assert code == 0
        radius = float(out.splitlines()[1].split(": ")[1])
        assert radius == pytest.approx(0.25, rel=0.05)

    def test_pinned_output(self, capsys):
        # the exact stdout of the earlier plain-CG solver; the solver may
        # change, the printed digits may not
        code, out, _ = run(capsys, "modulus", "--domain", "annulus:0.25",
                           "--spacing", "0.01")
        assert code == 0
        assert out == ("modulus: 0.220535723\n"
                       "canonical_inner_radius: 0.250156936\n")

    def test_grid_file(self, capsys, annulus_file):
        code, out, _ = run(capsys, "modulus", "--domain", f"grid:{annulus_file}")
        assert code == 0
        assert out.startswith("modulus: ")


class TestSelfMapCommands:
    def test_isotropy(self, capsys):
        code, out, _ = run(capsys, "isotropy", "--r", "0.1",
                           "--p", "0.316227766,0")
        assert code == 0
        assert "order: 2" in out

    def test_watt(self, capsys):
        code, out, _ = run(capsys, "watt", "--domain", "disk", "--map", "square",
                           "--a", "0,0", "--b", "0.5,0")
        assert code == 0
        assert "verdict: contraction_witness" in out
        assert "gap: 0.293893332" in out

    def test_cartan(self, capsys):
        code, out, _ = run(capsys, "cartan", "--domain", "disk",
                           "--map", "blaschke:0.3,0", "--a", "0,0")
        assert code == 0
        assert "deriv_modulus: 0.3" in out

    def test_not_fixed_is_domain_error(self, capsys):
        code, _, err = run(capsys, "cartan", "--domain", "disk",
                           "--map", "square", "--a", "0.5,0")
        assert code == 1
        assert "NotFixed" in err


class TestUsage:
    def test_unknown_domain(self, capsys):
        code, _, err = run(capsys, "dist", "--domain", "torus",
                           "--p", "0,0", "--q", "0.1,0")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1


@pytest.fixture(scope="module")
def bad_grid_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bad-grids")
    mask = np.zeros((7, 7), dtype=bool)
    mask[1, 1] = mask[3, 3] = True  # two components: fails validation
    files = {"malformed": b"{\"format_version\": 1,",
             "not-utf8": b"\xff\xfe",
             "disconnected": grid_save(SimpleNamespace(origin=0j, spacing=0.1, mask=mask))}
    for name, data in files.items():
        (folder / f"{name}.json").write_bytes(data)
    return folder


class TestBadDomainArguments:
    @pytest.mark.parametrize("domain", ["annulus:1.5", "annulus:nan", "annulus:0"])
    def test_invalid_annulus(self, capsys, domain):
        code, _, err = run(capsys, "dist", "--domain", domain,
                           "--p", "0.5,0", "--q", "0.6,0")
        assert code == 1
        assert "annulus" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["malformed", "not-utf8", "disconnected"])
    def test_bad_grid_file(self, capsys, bad_grid_files, name):
        path = bad_grid_files / f"{name}.json"
        for argv in (("dist", "--domain", f"grid:{path}", "--p", "0,0", "--q", "0.1,0"),
                     ("separate", "--grid", f"grid:{path}")):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert "cannot load grid file" in err and "Traceback" not in err

    def test_separate_rejects_catalog_domain(self, capsys):
        code, _, err = run(capsys, "separate", "--grid", "annulus:0.3")
        assert code == 1
        assert "grid:PATH" in err and "Traceback" not in err


class TestBadSelfMapAndTolerance:
    @pytest.mark.parametrize("argv", [
        ("watt", "--domain", "disk", "--map", "annulus-rot:1", "--a", "0,0", "--b", "0.1,0"),
        ("cartan", "--domain", "disk", "--map", "rot:abc", "--a", "0,0"),
        ("cartan", "--domain", "disk", "--map", "foo", "--a", "0,0"),
        ("cartan", "--domain", "annulus:0.5", "--map", "annulus-inv:", "--a", "0.7,0"),
    ])
    def test_malformed_map_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "argument --map: " in err and repr(argv[4]) in err
        assert "Traceback" not in err

    # every float option, last in its command line; the rest of the line is valid
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    @pytest.mark.parametrize("argv", [
        ("dist", "--domain", "disk", "--p", "0,0", "--q", "0.5,0", "--tol"),
        ("watt", "--domain", "disk", "--map", "rot:1", "--a", "0,0", "--b", "0.5,0", "--tol"),
        ("cartan", "--domain", "disk", "--map", "square", "--a", "0,0", "--tol"),
        ("ball", "--domain", "disk", "--center", "0,0", "--spacing", "0.05", "--radius"),
        ("ball", "--domain", "disk", "--center", "0,0", "--radius", "1", "--spacing"),
        ("nerve", "--domain", "annulus:0.1", "--center", "0.5,0", "--spacing", "0.05",
         "--cover-radius", "0.5", "--radius"),
        ("nerve", "--domain", "annulus:0.1", "--center", "0.5,0", "--radius", "1",
         "--cover-radius", "0.5", "--spacing"),
        ("nerve", "--domain", "annulus:0.1", "--center", "0.5,0", "--radius", "1",
         "--spacing", "0.05", "--cover-radius"),
        ("modulus", "--domain", "annulus:0.25", "--spacing"),
        ("isotropy", "--p", "0.5,0", "--r"),
    ])
    def test_tolerance_must_be_positive_and_finite(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, value)
        assert code == 1 and out == ""
        assert f"argument {argv[-1]}" in err and "Traceback" not in err

    def test_spacing_past_the_frame_budget(self, capsys):
        code, out, err = run(capsys, "ball", "--domain", "disk", "--center", "0,0",
                             "--radius", "1", "--spacing", "1e-300")
        assert code == 1 and out == ""
        assert err.startswith("ValidationError: ") and "budget" in err


class TestVerifyAll:
    def test_quick_suite_is_green(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--quick")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("C")]
        assert len(lines) == 11
        assert all(" PASS " in l for l in lines)
