import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepwell import (
    DegenerateEnergyError,
    PerturbationSpec,
    PotentialSpec,
    SchemaError,
    local_frequency,
    parse_spec,
    spec_document,
)
from stepwell.potential import local_frequencies, potential_value

PI = math.pi

# magnitudes from 1e-12 to 1e9, of either sign
SIGNED_MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((-1.0, 1.0)), st.floats(-12.0, 9.0)
)


def test_parse_box():
    spec, pert = parse_spec('{"breakpoints": [0, 3.14159265358979], "heights": [0]}')
    assert spec.n_interior == 0
    assert spec.heights == (0.0,)
    assert pert is None


def test_parse_double_well():
    doc = '{"breakpoints": [0, 1, 2, 3.14159265358979], "heights": [0, 10, 0]}'
    spec, _ = parse_spec(doc)
    assert spec.n_interior == 2
    assert spec.heights == (0.0, 10.0, 0.0)


def test_heights_length_mismatch():
    with pytest.raises(SchemaError, match="heights"):
        parse_spec('{"breakpoints": [0, 1, 2], "heights": [0]}')


def test_non_increasing_breakpoints():
    with pytest.raises(SchemaError, match="breakpoints\\[2\\]"):
        parse_spec('{"breakpoints": [0, 1, 1], "heights": [0, 5]}')


def test_malformed_number():
    with pytest.raises(SchemaError, match="heights\\[0\\]"):
        parse_spec('{"breakpoints": [0, 1], "heights": ["tall"]}')


def test_malformed_json():
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_spec("{not json")


def test_unknown_key_rejected():
    with pytest.raises(SchemaError, match="unknown"):
        parse_spec('{"breakpoints": [0, 1], "heights": [0], "color": "red"}')


def test_boundary_field_must_be_dirichlet():
    with pytest.raises(SchemaError, match="boundary"):
        parse_spec('{"breakpoints": [0, 1], "heights": [0], "boundary": "neumann"}')
    spec, _ = parse_spec(
        '{"breakpoints": [0, 1], "heights": [0], "boundary": "dirichlet"}'
    )
    assert spec.n_intervals == 1


def test_perturbation_variants():
    doc = {
        "breakpoints": [0, 1, 2],
        "heights": [0, 5],
        "perturbation": {"global_poly": [0, 1]},
    }
    _, pert = parse_spec(json.dumps(doc))
    assert pert.interval_polys == ((0.0, 1.0), (0.0, 1.0))
    doc["perturbation"] = {"interval_polys": [[1], [0, 2]], "coupling": 0.25}
    _, pert = parse_spec(json.dumps(doc))
    assert pert.interval_polys == ((1.0,), (0.0, 2.0))
    assert pert.coupling == 0.25
    doc["perturbation"] = {"global_poly": [0, 1], "interval_polys": [[1], [1]]}
    with pytest.raises(SchemaError, match="exactly one"):
        parse_spec(json.dumps(doc))
    doc["perturbation"] = {"interval_polys": [[0], [0]]}
    with pytest.raises(SchemaError, match="nonzero"):
        parse_spec(json.dumps(doc))


def test_all_zero_global_poly_rejected():
    with pytest.raises(SchemaError):
        PerturbationSpec(((0.0, 0.0),))


def test_negative_left_wall_accepted():
    spec = PotentialSpec((-2.0, -1.0, 1.5), (0.0, 3.0))
    assert spec.x_min == -2.0
    assert spec.interval_index(-1.5) == 0
    assert spec.interval_index(-1.0) == 1  # breakpoints go right


def specs_strategy():
    @st.composite
    def build(draw):
        n = draw(st.integers(0, 3))
        start = draw(st.floats(-3, 3))
        widths = [draw(st.floats(0.2, 2.0)) for _ in range(n + 1)]
        bps = [start]
        for w in widths:
            bps.append(bps[-1] + w)
        heights = [draw(st.floats(-5, 20)) for _ in range(n + 1)]
        with_pert = draw(st.booleans())
        pert = None
        if with_pert:
            polys = tuple(
                tuple(draw(st.floats(-2, 2)) for _ in range(draw(st.integers(1, 3))))
                for _ in range(n + 1)
            )
            if any(any(c != 0 for c in p) for p in polys):
                pert = PerturbationSpec(polys, coupling=draw(st.floats(0.1, 2.0)))
        return PotentialSpec(tuple(bps), tuple(heights)), pert

    return build()


@given(specs_strategy())
def test_serialize_parse_roundtrip(pair):
    spec, pert = pair
    spec2, pert2 = parse_spec(spec_document(spec, pert))
    assert spec2.breakpoints == spec.breakpoints
    assert spec2.heights == spec.heights
    if pert is None:
        assert pert2 is None
    else:
        assert pert2.interval_polys == pert.interval_polys
        assert pert2.coupling == pert.coupling


def test_serialize_roundtrip_with_interval_polys():
    spec = PotentialSpec(
        (0.0, 1.25, 3.0), (0.5, -2.0), zero_order_polys=((0.0, 1.0), (0.25, 0.0, -0.125))
    )
    spec2, _ = parse_spec(spec_document(spec))
    assert spec2.zero_order_polys == spec.zero_order_polys
    assert spec2.breakpoints == spec.breakpoints


class TestLocalFrequency:
    def test_oscillatory(self):
        spec = PotentialSpec((0.0, 1.0), (0.0,))
        assert local_frequency(spec, 0, 4.0) == pytest.approx(2.0)

    def test_hyperbolic_branch(self):
        spec = PotentialSpec((0.0, 1.0), (10.0,))
        beta = local_frequency(spec, 0, 9.0)
        assert beta == pytest.approx(1j)
        assert beta.imag > 0

    def test_degenerate_energy(self):
        spec = PotentialSpec((0.0, 1.0), (10.0,))
        with pytest.raises(DegenerateEnergyError, match="gauge"):
            local_frequency(spec, 0, 10.0)

    def test_square_consistency(self):
        spec = PotentialSpec((0.0, 1.0, 2.0), (1.5, 7.25))
        for i, e in ((0, 3.7), (1, 3.7), (1, 20.0)):
            beta = local_frequency(spec, i, e)
            assert beta * beta == pytest.approx(e - spec.heights[i], rel=1e-15)

    @given(
        st.floats(-5, 20),
        st.floats(0.1, 30),
        st.floats(-10, 10),
    )
    def test_gauge_invariance(self, h, de, shift):
        spec = PotentialSpec((0.0, 1.0), (h,))
        beta = local_frequency(spec, 0, h + de)
        beta_shifted = local_frequency(spec.gauge_shifted(shift), 0, h + de + shift)
        assert beta_shifted == pytest.approx(beta, rel=1e-12)

    @settings(max_examples=300)
    @given(
        st.lists(SIGNED_MAGNITUDES, min_size=1, max_size=4),
        st.lists(SIGNED_MAGNITUDES, min_size=1, max_size=8),
        st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
    )
    @example([1e9], [1e-12], [6.0])
    def test_unit_solutions_are_real_without_a_check(self, heights, energies, offsets):
        # the theorem that lets trigbasis.unit_solutions return real parts
        # unchecked: beta = b + 0j or 0 + i k from local_frequencies makes the
        # imaginary parts of cos(beta t) and sin(beta t) / beta exactly +-0,
        # or NaN where cosh and sinh overflow (every spec has a barrier of
        # 1e9, which overflows from kappa t of about 710 on)
        heights = heights + [1e9]
        energies = energies + [
            e for h in heights for e in (math.nextafter(h, -math.inf), h, math.nextafter(h, math.inf))
        ]
        spec = PotentialSpec(tuple(float(i) for i in range(len(heights) + 1)), tuple(heights))
        beta, degenerate = local_frequencies(spec, np.array(energies))
        assert not np.any((beta.real < 0) | ((beta.real == 0) & (beta.imag < 0)))
        t = np.array(offsets)[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            arg = beta * t
            values = np.cos(arg), np.sin(arg) * (1.0 / beta)
        for v in values:
            assert np.all((v.imag == 0) | np.isnan(v.imag))
        # the scalar rule gives the same beta without a sign flip
        for (k, i), b in np.ndenumerate(beta):
            if not degenerate[k, i]:
                assert local_frequency(spec, i, energies[k]) == b


def test_potential_value_piecewise():
    spec = PotentialSpec((0.0, 1.0, 2.0), (1.0, 4.0))
    assert potential_value(spec, 0.5) == 1.0
    assert potential_value(spec, 1.0) == 4.0  # right-continuous
    spec_poly = PotentialSpec(
        (0.0, 1.0, 2.0), (1.0, 4.0), zero_order_polys=((0.0, 2.0), (1.0,))
    )
    assert potential_value(spec_poly, 0.5) == pytest.approx(2.0)
    assert potential_value(spec_poly, 1.5) == pytest.approx(5.0)


def test_fictitious_breakpoint_splits_interval():
    spec = PotentialSpec((0.0, 2.0), (3.0,))
    aug = spec.with_fictitious_breakpoint(0.8)
    assert aug.breakpoints == (0.0, 0.8, 2.0)
    assert aug.heights == (3.0, 3.0)
    with pytest.raises(ValueError):
        spec.with_fictitious_breakpoint(2.0)
    pert = PerturbationSpec(((1.0, 0.5),))
    assert pert.split_interval(0).interval_polys == ((1.0, 0.5), (1.0, 0.5))
