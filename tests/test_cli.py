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

    def test_overflowing_barrier_exits_3(self, tmp_path, capsys):
        # cosh overflows behind this barrier; an empty spectrum with exit 0
        # would hide it
        spec = write_spec(tmp_path, {"breakpoints": [0, 1, 2, 3], "heights": [0, 1e6, 0]})
        out = tmp_path / "s.json"
        rc = main(["spectrum", "--spec", spec, "--e-lo", "0.05", "--e-hi", "40",
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "not finite" in capsys.readouterr().err


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

    def test_corrupted_spec_exits_2(self, tmp_path):
        bad = write_spec(tmp_path, {"breakpoints": [0, 1, 2], "heights": [0]})
        assert main(["validate", "--spec", bad]) == 2

    def test_missing_file_exits_2(self):
        assert main(["validate", "--spec", "/nonexistent/x.json"]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2
