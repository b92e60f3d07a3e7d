import hashlib
import json
import math

import numpy as np
import pytest

from stepwell.cli import main

PI = math.pi


def write_spec(tmp_path, obj, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def box_file(tmp_path):
    return write_spec(
        tmp_path,
        {
            "breakpoints": [0, PI],
            "heights": [0],
            "perturbation": {"global_poly": [0.3]},
        },
    )


@pytest.fixture
def double_well_file(tmp_path):
    return write_spec(
        tmp_path,
        {"breakpoints": [0, 1, 2, PI], "heights": [0, 10, 0]},
        name="double_well.json",
    )


class TestScan:
    def test_box_sign_changes(self, tmp_path, box_file):
        out = tmp_path / "scan.csv"
        rc = main(
            ["scan", "--spec", box_file, "--k-lo", "0.5", "--k-hi", "3.5",
             "--points", "400", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,determinant"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:] if not ln.startswith("#")]
        ks = np.array([r[0] for r in rows])
        vals = np.array([r[1] for r in rows])
        crossings = []
        for i in range(len(vals) - 1):
            if vals[i] == 0 or vals[i] * vals[i + 1] < 0:
                crossings.append(0.5 * (ks[i] + ks[i + 1]))
        assert len(crossings) == 3
        np.testing.assert_allclose(crossings, [1.0, 2.0, 3.0], atol=0.02)

    def test_deterministic_output(self, tmp_path, double_well_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main(
                ["scan", "--spec", double_well_file, "--k-lo", "1.8", "--k-hi", "2.6",
                 "--points", "200", "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_doublet_region_has_two_crossings(self, tmp_path, double_well_file):
        out = tmp_path / "double_well.csv"
        main(
            ["scan", "--spec", double_well_file, "--k-lo", "2.0", "--k-hi", "2.4",
             "--points", "400", "--out", str(out)]
        )
        rows = [
            tuple(map(float, ln.split(",")))
            for ln in out.read_text().strip().splitlines()[1:]
            if not ln.startswith("#")
        ]
        vals = [r[1] for r in rows]
        signs = sum(
            1 for i in range(len(vals) - 1) if vals[i] * vals[i + 1] < 0
        )
        assert signs == 2  # the two closely spaced low-k crossings

    def test_json_format(self, tmp_path, box_file):
        out = tmp_path / "scan.json"
        rc = main(
            ["scan", "--spec", box_file, "--k-lo", "0.5", "--k-hi", "1.5",
             "--points", "11", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        assert len(doc["rows"]) == 11
        assert doc["rows"][0][0] == 0.5
        assert doc["skipped_k"] == [] and "skipped_reasons" not in doc

    @pytest.mark.parametrize(
        "heights, k_hi, points, skipped, reason",
        [
            # k = 1 puts E exactly on the barrier height
            ([0, 1, 0], 1.5, 3, [1.0], "degenerate"),
            # cosh(1000) overflows at every grid energy
            ([0, 1e6, 0], 3.5, 4, [0.5, 1.5, 2.5, 3.5], "non-finite"),
        ],
    )
    def test_skipped_points_name_their_reason(
        self, tmp_path, heights, k_hi, points, skipped, reason
    ):
        spec = write_spec(tmp_path, {"breakpoints": [0, 1, 2, 3], "heights": heights})
        flags = ["--k-lo", "0.5", "--k-hi", str(k_hi), "--points", str(points)]
        csv, js = tmp_path / "scan.csv", tmp_path / "scan.json"
        assert main(["scan", "--spec", spec, *flags, "--out", str(csv)]) == 0
        flags += ["--format", "json"]
        assert main(["scan", "--spec", spec, *flags, "--out", str(js)]) == 0
        comments = [ln for ln in csv.read_text().splitlines() if ln.startswith("#")]
        assert comments == [f"# skipped {reason} k={k:.17g}" for k in skipped]
        doc = json.loads(js.read_text())
        assert doc["skipped_k"] == skipped
        assert doc["skipped_reasons"] == [reason] * len(skipped)
        assert len(doc["rows"]) == points - len(skipped)

    def test_polynomial_zero_order(self, tmp_path):
        # the table reads extrapolated boundary values: its sign changes
        # bracket the extrapolated levels of V = 2x on (0, pi)
        from stepwell import PotentialSpec, find_eigenvalues

        obj = {"breakpoints": [0, 1.5, PI], "heights": [0, 0], "zero_order_polys": [[0, 2], [0, 2]]}
        out = tmp_path / "scan.csv"
        argv = ["scan", "--spec", write_spec(tmp_path, obj), "--k-lo", "1", "--k-hi", "5", "--points", "200"]
        assert main(argv + ["--out", str(out)]) == 0
        k, det = np.array([ln.split(",") for ln in out.read_text().splitlines()[1:]], dtype=float).T
        cells = np.flatnonzero(np.sign(det[1:]) != np.sign(det[:-1]))
        spec = PotentialSpec(tuple(obj["breakpoints"]), (0.0, 0.0), ((0.0, 2.0), (0.0, 2.0)))
        levels = np.sqrt(find_eigenvalues(spec, 1.0, 25.0).energies)
        assert len(cells) == len(levels) == 4
        assert np.all((k[cells] < levels) & (levels < k[cells + 1]))

    def test_resolution_validation(self, box_file):
        assert main(["scan", "--spec", box_file, "--k-lo", "0.5", "--k-hi", "3.5",
                     "--points", "1"]) == 2

    def test_missing_window(self, box_file):
        assert main(["scan", "--spec", box_file]) == 2


class TestSpectrum:
    def test_box_levels(self, tmp_path):
        spec = write_spec(tmp_path, {"breakpoints": [0, 1], "heights": [0]})
        out = tmp_path / "spec.json.out"
        rc = main(
            ["spectrum", "--spec", spec, "--e-lo", "0.5", "--e-hi", "100",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["format_version"] == 1
        got = [s["energy"] for s in doc["eigenvalues"]]
        np.testing.assert_allclose(got, [PI**2, 4 * PI**2, 9 * PI**2], atol=1e-9)

    def test_long_well_levels_all_have_coefficients(self, tmp_path):
        # N = 16: states tiny in some domain have c(j) + d(j) = 0 there,
        # which no longer stops their match
        spec = write_spec(
            tmp_path,
            {
                "breakpoints": [
                    0.0, 0.53, 2.27, 3.87, 4.6, 5.74, 6.8, 8.21, 9.85, 10.31,
                    10.66, 12.38, 13.42, 15.02, 15.32, 16.38, 17.91, 18.6,
                ],
                "heights": [
                    47.3, 45.1, 1.5, 1.3, 27.1, 47.0, 19.1, 10.8, 21.1, 1.5,
                    11.1, 21.9, 24.8, 11.7, 11.5, 10.9, 23.0,
                ],
            },
        )
        out = tmp_path / "long.json"
        assert main(["spectrum", "--spec", spec, "--count", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["eigenvalues"]) == 8
        assert "warnings" not in doc
        for level in doc["eigenvalues"]:
            assert len(level["coefficients"]) == 16
            assert level["residual"] < 1e-10

    def test_doublet_splitting_grows_with_barrier(self, tmp_path):
        # the asymmetric geometry pushes the two well levels apart as the
        # barrier decouples them, so the splitting grows toward its limit
        splittings = {}
        for h1 in (10, 25):
            spec = write_spec(
                tmp_path,
                {"breakpoints": [0, 1, 2, PI], "heights": [0, h1, 0]},
                name=f"dw{h1}.json",
            )
            out = tmp_path / f"dw{h1}.out"
            rc = main(
                ["spectrum", "--spec", spec, "--e-lo", "0.1", "--e-hi", "12",
                 "--out", str(out)]
            )
            assert rc == 0
            splittings[h1] = json.loads(out.read_text())["doublet_splitting"]
        assert splittings[25] > splittings[10]

    def test_numbers_roundtrip_17_digits(self, tmp_path):
        spec = write_spec(tmp_path, {"breakpoints": [0, PI], "heights": [0]})
        out = tmp_path / "o.json"
        main(["spectrum", "--spec", spec, "--e-lo", "0.5", "--e-hi", "5",
              "--out", str(out)])
        doc = json.loads(out.read_text())
        e = doc["eigenvalues"][0]["energy"]
        assert float(repr(e)) == e

    def test_spurious_roots_reported(self, tmp_path, double_well_file):
        # the barrier interval's own resonance at E = 10 + pi^2 is a
        # determinant zero without an eigenfunction; it must be listed
        # separately, not among the eigenvalues
        out = tmp_path / "s.json"
        rc = main(
            ["spectrum", "--spec", double_well_file, "--e-lo", "18", "--e-hi", "22",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert any(abs(s - (10 + PI**2)) < 1e-6 for s in doc["spurious"])
        energies = [s["energy"] for s in doc["eigenvalues"]]
        assert all(abs(e - (10 + PI**2)) > 1e-3 for e in energies)

    @pytest.mark.parametrize("barrier, count", [(1.6e5, 2), (1e6, None)])
    def test_overflowing_barrier_keeps_its_levels(self, tmp_path, barrier, count):
        # cosh overflows behind this barrier, so the matching system, its
        # coefficients and its residual do; the levels come from the angle
        # and are printed, the overflow named in a warning per level
        spec = write_spec(tmp_path, {"breakpoints": [0, 1, 2, 3], "heights": [0, barrier, 0]})
        out = tmp_path / "s.json"
        argv = ["spectrum", "--spec", spec, "--e-lo", "0.05", "--e-hi", "40", "--out", str(out)]
        assert main(argv + (["--count", str(count)] if count else [])) == 0
        doc = json.loads(out.read_text())
        levels = doc["eigenvalues"]
        assert len(levels) == (count or 2)
        # a well of width 1 between a hard wall and the barrier's tail
        assert (PI / 2) ** 2 < levels[0]["energy"] < PI**2
        assert all(s["coefficients"] is None and s["residual"] is None for s in levels)
        assert len(doc["warnings"]) == len(levels)
        assert all("not finite" in w and "interval 1 " in w for w in doc["warnings"])


class TestPerturb:
    def test_box_constant_shift(self, tmp_path, box_file):
        out = tmp_path / "p.json"
        rc = main(
            ["perturb", "--spec", box_file, "--e-lo", "0.2", "--e-hi", "2",
             "--orders", "2", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        energies = doc["states"][0]["energies"]
        assert energies[0] == pytest.approx(1.0, abs=1e-10)
        assert energies[1] == pytest.approx(0.3, abs=1e-10)
        assert abs(energies[2]) < 1e-8

    def test_box_linear_first_order(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "breakpoints": [0, PI],
                "heights": [0],
                "perturbation": {"global_poly": [0, 1]},
            },
        )
        out = tmp_path / "p.json"
        rc = main(
            ["perturb", "--spec", spec, "--e-lo", "0.2", "--e-hi", "2",
             "--orders", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["states"][0]["energies"][1] == pytest.approx(PI / 2, abs=1e-10)

    def test_order_zero(self, tmp_path, box_file):
        out = tmp_path / "p0.json"
        rc = main(
            ["perturb", "--spec", box_file, "--e-lo", "0.2", "--e-hi", "2",
             "--orders", "0", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["states"][0]["energies"] == [1]

    def test_perturbation_required(self, tmp_path):
        spec = write_spec(tmp_path, {"breakpoints": [0, PI], "heights": [0]})
        assert main(["perturb", "--spec", spec, "--e-lo", "0.2", "--e-hi", "2"]) == 2


class TestValidate:
    def test_box_constant_all_green(self, tmp_path, box_file):
        out = tmp_path / "v.json"
        rc = main(
            ["validate", "--spec", box_file, "--e-lo", "0.2", "--e-hi", "11",
             "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        assert rc == 0, doc
        assert doc["passed"]
        names = {c["name"] for c in doc["checks"]}
        assert "fd-oracle-agreement" in names
        assert "series-consistency-slope" in names

    def test_step_linear_slope_reported(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "breakpoints": [0, 1, 2],
                "heights": [0, 5],
                "perturbation": {"global_poly": [0, 1]},
            },
        )
        out = tmp_path / "v.json"
        rc = main(
            ["validate", "--spec", spec, "--e-lo", "0.1", "--e-hi", "10",
             "--out", str(out)]
        )
        doc = json.loads(out.read_text())
        assert rc == 0, doc
        slope = next(
            c for c in doc["checks"] if c["name"] == "series-consistency-slope"
        )
        assert slope["measured"] >= 2.7

    @pytest.mark.parametrize("geometry", ["box", "double_well"])
    def test_zero_order_checks_scan_three_times(self, geometry, monkeypatch):
        # the window, its gauge-shifted copy and the fictitious-breakpoint
        # copy; psi0-smoothness matches the ground level found already
        from stepwell import PotentialSpec, cli

        spec = {
            "box": PotentialSpec((0.0, math.pi), (0.0,)),
            "double_well": PotentialSpec((0.0, 1.0, 2.0, math.pi), (0.0, 10.0, 0.0)),
        }[geometry]
        scans = []
        original = cli.find_eigenvalues

        def counted(*args, **kwargs):
            scans.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "find_eigenvalues", counted)
        checks = cli._validate_checks(spec, None, 0.2, 20.0, 0)
        assert len(scans) == 3
        assert all(c["passed"] for c in checks)
        assert "psi0-smoothness" in {c["name"] for c in checks}

    @pytest.mark.parametrize("geometry", [
        {"breakpoints": [0, 1.5, PI], "heights": [0, 0], "zero_order_polys": [[0, 2], [0, 2]]},
        # a barrier: every cell of its staircase lies above the ground state
        {"breakpoints": [0, 1, 2, PI], "heights": [0, 10, 0], "zero_order_polys": [[0, 1]] * 3},
    ])
    def test_polynomial_zero_order_runs_every_check(self, tmp_path, geometry):
        # the piece checks read the finest staircase, and say so
        spec = write_spec(tmp_path, geometry)
        out = tmp_path / "v.json"
        rc = main(["validate", "--spec", spec, "--e-lo", "0.5", "--e-hi", "20", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == 0, doc
        checks = {c["name"]: c for c in doc["checks"]}
        assert set(checks) == {
            "fd-oracle-agreement", "gauge-shift-invariance", "fictitious-breakpoint-invariance",
            "psi0-smoothness", "wronskian-constancy",
        }
        for name in ("psi0-smoothness", "wronskian-constancy"):
            assert checks[name]["detail"].startswith("on the finest staircase (")

    def test_corrupted_spec_exits_2(self, tmp_path):
        bad = write_spec(tmp_path, {"breakpoints": [0, 1, 2], "heights": [0]})
        assert main(["validate", "--spec", bad]) == 2

    def test_missing_file_exits_2(self):
        assert main(["validate", "--spec", "/nonexistent/x.json"]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


# sha256 of each command's output on the fixtures, tilted by V1 = x.  A
# change that moves these bytes on purpose updates the hash here and says
# so in CHANGES.md.  Another libm or LAPACK build may move the last digits.
GOLDEN_FIXTURES = {
    "box": {"breakpoints": [0, PI], "heights": [0]},
    "step": {"breakpoints": [0, 1, 2], "heights": [0, 5]},
    "double_well": {"breakpoints": [0, 1, 2, PI], "heights": [0, 10, 0]},
}
GOLDEN_COMMANDS = {
    "scan": ["--k-lo", "0.5", "--k-hi", "3.5"],
    "spectrum": [],
    "perturb": ["--orders", "4"],
    "validate": [],
}
GOLDEN_SHA256 = {
    "box_scan": "a6c2f954ea1f144621f700b5e319bdfa53501e7b8fcc736cf36d630c51beb2d8",
    "box_spectrum": "49298a30c96eb59aea85d0dc07a21bd5a92f7804b37bbe78d57e2e7655b6e011",
    "box_perturb": "7b8c339728e6b29e965e8f7193bc75ef2ddfdef8861c0681e7af840e212e9f8a",
    "box_validate": "be974bff10e4efc70e7fbc95ceb46e6f00361a0d743ad0bc94e1275ac63daa8f",
    "step_scan": "ce782efd078d10ca1e8639bd068e943daa3852b62c55bb9f01fc8b8a8ee7533e",
    "step_spectrum": "cca9e22c3d2ea4609254605085967ee696084f7d38881c6296d9db8d859e66a7",
    "step_perturb": "a8ef8474cdc24d3fbac544cf33b71ee1e62ec060f5f4c0fa84893f62f62d9498",
    "step_validate": "668bf9752c9755edfe197b4745e2d0aad07438b0768056fc89111905fa08801b",
    "double_well_scan": "2fe9d1882a0be2b0f2a860307c9c3fdbc6672c9a75e1a5772e1acddebbf3197a",
    "double_well_spectrum": "3f62b64436b5c56c40e8a5f0ca47e126e94e601a43256e6e23de12df27743c37",
    "double_well_perturb": "7a727ca06b36e94e2042f191f06ec97ec57d8e5229e9e168d847629ebfd6eda9",
    "double_well_validate": "e21c773c833ebc0f1eded46e3d50ef40dd9c523f9519bf179ebe29d88e510a56",
}


def test_output_bytes_on_the_fixtures(tmp_path):
    moved = []
    for geometry, obj in GOLDEN_FIXTURES.items():
        spec = write_spec(tmp_path, {**obj, "perturbation": {"global_poly": [0, 1]}}, f"{geometry}.json")
        for command, extra in GOLDEN_COMMANDS.items():
            out = tmp_path / f"{geometry}_{command}.out"
            assert main([command, "--spec", spec, *extra, "--out", str(out)]) == 0, out.name
            if hashlib.sha256(out.read_bytes()).hexdigest() != GOLDEN_SHA256[out.stem]:
                moved.append(out.name)
    assert not moved, f"output bytes moved: {moved}"
