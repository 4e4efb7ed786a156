import contextlib
import json
import multiprocessing
import warnings

import numpy as np
import pytest

from ldnkit import bases, formats, lti, reencode, sim
from ldnkit.errors import FormatError, NonUniformSignalError

from helpers import csv_text, render_block_recursive, render_svg_per_point


class TestSystemDocument:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(43)
        sys = lti.LtiSystem(
            a=rng.standard_normal((4, 4)) * np.pi,
            b=rng.standard_normal(4) / 3.0,
            theta=0.3,
        )
        doc = formats.document_from_system(sys, "custom", {"note": "round trip"})
        parsed = formats.parse_system_document(doc.to_text())
        assert np.array_equal(parsed.a, sys.a)
        assert np.array_equal(parsed.b, sys.b)
        assert parsed.theta == sys.theta
        assert parsed.metadata["note"] == "round trip"

    def test_seventeen_significant_digits(self):
        assert formats.render_block({"x": 1.0 / 3.0}) == '{\n  "x": 0.33333333333333331\n}\n'
        assert json.loads(formats.render_block({"x": np.pi}))["x"] == np.pi

    def test_file_round_trip(self, tmp_path):
        doc = formats.document_from_system(lti.mk_ldn(3, 2.0), "ldn")
        path = tmp_path / "sys.json"
        path.write_text(doc.to_text(), encoding="utf-8")
        again = formats.read_system_document(path)
        assert np.array_equal(again.a, doc.a)
        assert again.kind == "ldn"

    def test_solver_condition_recorded(self):
        sys = lti.mk_poly_basis_lti(bases.shifted_legendre(4, 1.0))
        doc = formats.document_from_system(sys, "custom")
        assert doc.metadata["solver_condition"] >= 1.0

    def test_rejects_bad_version(self):
        with pytest.raises(FormatError):
            formats.parse_system_document('{"format_version": 99}')

    def test_rejects_inconsistent_shape(self):
        text = (
            '{"format_version": 1, "kind": "ldn", "q": 2, "theta": 1.0,'
            ' "a": [[1.0]], "b": [1.0, 2.0], "metadata": {}}'
        )
        with pytest.raises(FormatError):
            formats.parse_system_document(text)

    def test_rejects_junk(self):
        with pytest.raises(FormatError):
            formats.parse_system_document("not json at all {")


def _reencode_body():
    """The body the CLI's reencode writes for a q = 6 Chebyshev system."""
    system, basis = lti.mk_chebyshev(6, 1.0), bases.shifted_chebyshev(6, 1.0)
    decoder = reencode.decoder_bank(basis, [1.0], reencode.METHOD_HILBERT)[0]
    e = basis.values(1.0)[:, 0]
    gamma = reencode.delay_reencoder(e, decoder)
    return {
        "format_version": formats.DOCUMENT_FORMAT_VERSION, "kind": "chebyshev",
        "q": 6, "theta": 1.0, "e": e, "d": decoder.d, "gamma": gamma.gamma,
        "a_dampened": reencode.dampen(system, gamma).a, "b": system.b,
        "metadata": {"method": reencode.METHOD_HILBERT,
                     "decoder_condition": decoder.condition,
                     "reference_match": reencode.match_report(decoder.d).split("\n")},
    }


class TestRenderBlock:
    @pytest.mark.parametrize("body", [
        _reencode_body(),
        {"metadata": {"none": None, "flags": [True, False], "ok": True, "note": "a \"b\""}},
        {"ints": [np.int64(3), 2, -7], "one": np.int64(-5), "mixed": [1, 2.5, True, np.int64(4)]},
        {"zeros": [-0.0, 0.0], "neg": -0.0, "f32": np.float32(0.1), "f64": [np.float64(1 / 3)]},
        {"special": [np.nan, np.inf, -np.inf], "tiny": 5e-324, "huge": 1.7976931348623157e308},
        {"empty_list": [], "empty_dict": {}, "empty_array": np.zeros(0),
         "empty_rows": np.zeros((2, 0)), "nested": [[], {}, [[]]]},
        {"matrix": np.arange(6.0).reshape(2, 3), "deep": {"a": [{"b": [1.5, "x"]}]},
         "tuple": (1, 2.0), "strings": ["s", 1.0]},
    ])
    def test_matches_recursive_renderer(self, body):
        assert formats.render_block(body) == render_block_recursive(body)

    def test_bools_in_a_number_list(self):
        assert formats.render_block({"v": [1.0, True, np.int64(2)]}) == (
            '{\n  "v": [1, true, 2]\n}\n')

    @pytest.mark.parametrize("value", [object(), np.bool_(True), {1.0: set()}])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            formats.render_block({"x": value})
        with pytest.raises(TypeError):
            render_block_recursive({"x": value})


class TestDocumentBasis:
    """A document's basis is the one its generator carries, bit for bit."""

    @pytest.mark.parametrize("theta", [1.0, 2.5])
    @pytest.mark.parametrize("q", [1, 6, 32])
    @pytest.mark.parametrize("kind", formats.SYSTEM_KINDS)
    def test_is_the_generators_basis(self, kind, q, theta):
        if kind == "custom":
            # a custom basis comes from its monomial coefficients, as gen reads them
            source = bases.random_basis(q, theta, seed=q)
            system = lti.mk_poly_basis_lti(formats.parse_basis_file(formats.basis_to_text(source)))
        else:
            make = {"ldn": lti.mk_ldn, "legendre": lti.mk_legendre,
                    "chebyshev": lti.mk_chebyshev}[kind]
            system = make(q, theta)
        expected = bases.shifted_legendre(q, theta) if kind == "ldn" else system.basis
        text = formats.document_from_system(system, kind).to_text()
        basis = formats.parse_system_document(text).basis
        assert basis.theta == expected.theta
        assert basis.mixture.tobytes() == expected.mixture.tobytes()
        assert len(basis.polys) == len(expected.polys)
        for got, want in zip(basis.polys, expected.polys):
            assert got.tobytes() == want.tobytes()

    def test_custom_document_writes_basis_then_condition(self):
        basis = bases.random_basis(6, 2.0, seed=3)
        doc = formats.document_from_system(lti.mk_poly_basis_lti(basis), "custom")
        assert list(doc.metadata) == ["basis", "solver_condition"]
        assert doc.metadata["basis"] == {"theta": 2.0, "polys": [p.tolist() for p in basis.polys]}
        assert doc.metadata["solver_condition"] == basis.inverse[1]

    def test_custom_system_without_basis_writes_none(self):
        system = lti.LtiSystem(a=-np.eye(2), b=np.ones(2), theta=1.0)
        doc = formats.document_from_system(system, "custom")
        assert doc.metadata == {}
        assert doc.to_system().basis is None
        with pytest.raises(FormatError, match="lacks basis coefficients"):
            doc.basis

    def test_empty_basis(self):
        system = lti.LtiSystem(a=-np.eye(2), b=np.ones(2), theta=1.0)
        doc = formats.document_from_system(system, "custom", {"basis": {"polys": []}})
        with pytest.raises(FormatError, match="empty basis"):
            doc.basis


class TestBasisFile:
    @pytest.mark.parametrize("theta", [1e-300, 1e-320])
    def test_writers_refuse_coefficients_past_the_float_range(self, theta):
        basis = bases.shifted_legendre(6, theta)
        assert not all(np.isfinite(p).all() for p in basis.polys)
        with pytest.raises(ValueError, match="past the float range"):
            formats.basis_to_text(basis)
        with pytest.raises(ValueError, match="past the float range"):
            formats.document_from_system(lti.mk_poly_basis_lti(basis), "custom")

    def test_custom_document_reads_basis_like_a_basis_file(self):
        system = lti.LtiSystem(a=-np.eye(2), b=np.ones(2), theta=1.0)
        for raw, message in (({"theta": [1.0], "polys": [[1.0]]}, "malformed basis file"),
                             ({"theta": 1.0, "polys": [[]]}, "empty basis or polynomial"),
                             ({"theta": 1.0, "polys": [[0.0, 1.0]]}, "exceeds degree bound 0")):
            doc = formats.document_from_system(system, "custom", {"basis": raw})
            with pytest.raises(FormatError, match=message):
                doc.basis
            with pytest.raises(FormatError, match=message):
                formats.parse_basis_file(json.dumps(raw))

    def test_round_trip(self):
        basis = bases.random_basis(4, 1.5, seed=2)
        parsed = formats.parse_basis_file(formats.basis_to_text(basis))
        assert parsed.theta == basis.theta
        for a, b in zip(parsed.polys, basis.polys):
            assert np.array_equal(a, b)

    def test_requires_fields(self):
        with pytest.raises(FormatError):
            formats.parse_basis_file('{"theta": 1.0}')

    def test_rejects_empty_polys(self):
        with pytest.raises(FormatError):
            formats.parse_basis_file('{"theta": 1.0, "polys": []}')


class TestCsv:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = [[0.1, -2.5e-17], [0.2, 3.0]]
        formats.write_csv(path, ["t", "x"], rows)
        header, back = formats.read_csv(path)
        assert header == ["t", "x"]
        assert np.array_equal(back, rows)

    def test_signal_round_trip(self, tmp_path):
        path = tmp_path / "sig.csv"
        t0 = 0.5
        sig = sim.Signal(samples=np.array([1.0, -1.0, 0.25]), dt=0.125)
        rows = [[t0 + k * sig.dt, sig.samples[k]] for k in range(3)]
        formats.write_csv(path, ["t", "u"], rows)
        t0_back, back = formats.read_signal_csv(path)
        assert t0_back == t0
        assert back.dt == sig.dt
        assert np.array_equal(back.samples, sig.samples)

    def test_signal_rejects_jitter(self, tmp_path):
        path = tmp_path / "sig.csv"
        formats.write_csv(path, ["t", "u"], [[0.0, 1.0], [0.1, 1.0], [0.3, 1.0]])
        with pytest.raises(NonUniformSignalError):
            formats.read_signal_csv(path)

    def test_signal_requires_t_u_header(self, tmp_path):
        path = tmp_path / "sig.csv"
        formats.write_csv(path, ["time", "value"], [[0.0, 1.0], [0.1, 1.0]])
        with pytest.raises(FormatError):
            formats.read_signal_csv(path)

    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = sim.StateTrajectory(states=np.arange(8.0).reshape(4, 2), dt=0.25)
        formats.write_trajectory_csv(path, traj, t0=1.0)
        t0, back = formats.read_trajectory_csv(path)
        assert t0 == 1.0
        assert back.dt == 0.25
        assert np.array_equal(back.states, traj.states)

    def test_empty_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,u\n", encoding="utf-8")
        with pytest.raises(FormatError):
            formats.read_csv(path)


def _awkward_table(n_rows):
    """Rows spanning several write blocks: edge doubles plus ±300 decades."""
    rng = np.random.default_rng(5)
    mantissa = rng.uniform(1.0, 10.0, (n_rows, 4)) * rng.choice([-1.0, 1.0], (n_rows, 4))
    table = mantissa * 10.0 ** rng.integers(-300, 300, (n_rows, 4))
    edge = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
    table[: len(edge), 0] = edge
    table[-len(edge):, 3] = edge
    return table


class TestCsvBlocks:
    """write_csv formats in blocks, on a pool when the process has the CPUs."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_per_cell_repr(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(formats, "_usable_cpus", lambda: cpus)
        pools = []
        make_pool = formats._format_pool
        monkeypatch.setattr(formats, "_format_pool",
                            lambda n: pools.append(make_pool(n)) or pools[-1])
        table = _awkward_table(3 * formats._BLOCK_ROWS + 17)
        path = tmp_path / "blocks.csv"
        formats.write_csv(path, ["a", "b", "c", "d"], table)
        assert path.read_bytes() == csv_text(["a", "b", "c", "d"], table).encode()
        pooled = cpus > 1 and "fork" in multiprocessing.get_all_start_methods()
        assert isinstance(pools[0], contextlib.nullcontext) != pooled

    def test_generator_of_rows_writes_same_bytes(self, tmp_path):
        table = _awkward_table(2 * formats._BLOCK_ROWS + 1)
        formats.write_csv(tmp_path / "table.csv", ["a", "b", "c", "d"], table)
        formats.write_csv(tmp_path / "gen.csv", ["a", "b", "c", "d"], (row for row in table))
        formats.write_csv(tmp_path / "lists.csv", ["a", "b", "c", "d"], table.tolist())
        want = (tmp_path / "table.csv").read_bytes()
        assert (tmp_path / "gen.csv").read_bytes() == want
        assert (tmp_path / "lists.csv").read_bytes() == want

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_inside_a_pool_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_usable_cpus", lambda: 2)
        table = _awkward_table(2 * formats._BLOCK_ROWS + 1)
        path = tmp_path / "worker.csv"
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pool.apply(formats.write_csv, (path, ["a", "b", "c", "d"], table))
        assert path.read_bytes() == csv_text(["a", "b", "c", "d"], table).encode()

    def test_trajectory_time_column_is_t0_plus_k_dt(self, tmp_path):
        n = formats._BLOCK_ROWS + 5
        traj = sim.StateTrajectory(states=np.full((n, 1), 0.1), dt=0.1)
        path = tmp_path / "traj.csv"
        formats.write_trajectory_csv(path, traj, t0=0.3)
        rows = [[0.3 + k * 0.1, 0.1] for k in range(n)]
        assert path.read_text(encoding="utf-8") == csv_text(["t", "m_0"], rows)


class TestCsvReader:
    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    def test_crlf_and_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "\r\nt,u\r\n\r\n0.0,1.5\r\n\n0.1,-2e-300\r\n\n")
        header, rows = formats.read_csv(path)
        assert header == ["t", "u"]
        assert np.array_equal(rows, [[0.0, 1.5], [0.1, -2e-300]])

    @pytest.mark.parametrize("text, message", [
        ("t,u\n0.0\n0.1\n", "2: expected 2 cells"),
        ("t,u\n0.0,1.0\n0.1\n", "3: expected 2 cells"),
        ("t,u\n0.0,1.0\n0.1,2.0,\n", "3: expected 2 cells"),
        ("t,u\n\n0.0,1.0\n\nabc,2.0\n", "3: could not convert string to float: 'abc'"),
        ("t,u\n0.0,1.0\n   \n", "3: expected 2 cells"),
        ("t\n0.0\n\t\n", "3: could not convert string to float: '\\t'"),
        ("t,u\n0.0,\x1c1.0\n", "2: could not convert string to float: '\\x1c1.0'"),
    ])
    def test_errors_name_the_line(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(FormatError) as excinfo:
            formats.read_csv(path)
        assert str(excinfo.value) == f"{path}:{message}"

    def test_accepts_what_float_accepts(self, tmp_path):
        path = self._write(tmp_path, "t,u\n1_5, \u0661\u0662 \n")
        assert formats.read_csv(path)[1].tolist() == [[15.0, 12.0]]

    def test_no_data_rows_without_warning(self, tmp_path):
        path = self._write(tmp_path, "t,u\n\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError) as excinfo:
                formats.read_csv(path)
        assert str(excinfo.value) == f"{path}: no data rows"


class TestSvg:
    def test_deterministic(self):
        rows = np.array([[0.0, 1.0, -1.0], [1.0, 0.5, 0.5], [2.0, -1.0, 1.0]])
        a = formats.render_svg(["t", "x", "y"], rows)
        b = formats.render_svg(["t", "x", "y"], rows)
        assert a == b
        assert "svg" in a and "polyline" in a
        assert a.count("<polyline") == 2

    def test_constant_column_single_line(self):
        rows = np.array([[0.0, 2.0], [1.0, 2.0]])
        out = formats.render_svg(["t", "c"], rows)
        assert out.count("<polyline") == 1

    def test_needs_two_columns(self):
        with pytest.raises(FormatError):
            formats.render_svg(["t"], np.zeros((3, 1)))


def _fixed2_texts(values):
    """The kernel's rows as text, NULs dropped, with warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = formats._fixed2(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _printf(values):
    return ["%.2f" % v for v in np.asarray(values, dtype=float).tolist()]


class TestFixed2:
    """formats._fixed2 against printf's %.2f, value by value."""

    def test_half_cents_and_their_neighbours(self):
        # every half-cent up to 800, then half-cents sampled up to 2^32 cents,
        # where the float product |x|·100 lands on the half itself or on
        # either side of it
        rng = np.random.default_rng(32)
        n = np.concatenate((rng.integers(0, 2**32, 100_000),
                            np.floor(2.0 ** rng.uniform(0, 32, 100_000))))
        half = np.concatenate((np.arange(160_001) / 200, (n + 0.5) / 100))
        products = half * 100
        assert np.count_nonzero(np.abs(products - np.rint(products)) == 0.5) > 10_000
        for values in (half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf), -half):
            assert _fixed2_texts(values) == _printf(values)

    @pytest.mark.parametrize("cents", [2.0**32, 2.0**52, 2.0**53, 2.0**63])
    def test_both_sides_of_a_power_of_two_cents(self, cents):
        # 128 consecutive doubles around cents / 100, and half-cents past it
        edge = np.array([cents / 100])
        ulps = (edge.view(np.int64) + np.arange(-64, 64)).view(np.float64)
        halves = (cents + np.arange(-64, 64) + 0.5) / 100
        for values in (ulps, halves, -ulps, -halves):
            assert _fixed2_texts(values) == _printf(values)

    def test_dyadic_ties(self):
        k = np.arange(1, 4096)
        values = np.concatenate([k / 2.0**j for j in range(1, 40)])
        assert _fixed2_texts(values) == _printf(values)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, -0.004, -0.005, -0.006, 0.005, 0.015, 0.025, 1.005, 2.675],
        [5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e-300],
        [9.995, 99.995, 999.995, -9.995, -99.995, -999.995, 9.994, 99.996, 0.995],
        [2.0**52 + 0.5, 2.0**53, 2.0**60 / 100, 2.0**62 / 100, -2.0**63 / 100],
        [1e15, 1e17, 1e20, -1e300, 1.7976931348623157e308, -1e22 / 3],
        [np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0],
    ])
    def test_edge_values(self, values):
        assert _fixed2_texts(values) == _printf(values)

    def test_all_doubles_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st
        from hypothesis.extra import numpy as hnp

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
        @hypothesis.given(hnp.arrays(np.float64, st.integers(1, 64),
                                     elements=st.floats(allow_nan=False, allow_infinity=False)))
        def check(values):
            assert _fixed2_texts(values) == _printf(values)

        check()


def _chart_rows(q, n, scale=1.0):
    """A time column k / 1000 and q random columns, all times scale."""
    rng = np.random.default_rng(1000 * q + n)
    return scale * np.column_stack((np.arange(n) / 1000, rng.standard_normal((n, q))))


def _with(rows, index, value):
    rows = rows.copy()
    rows[index] = value
    return rows


def _dyadic_rows():
    """33 rows x = k / 32 and three columns of j / 32, each axis spanning [0, 1]:
    the canvas maps x to 50 + 700 x and y to 430 - 380 y, multiples of 1 / 8."""
    ys = np.random.default_rng(32).integers(0, 33, size=(33, 3)) / 32
    ys[0, 0], ys[1, 1] = 0.0, 1.0
    return np.column_stack((np.arange(33) / 32, ys))


def _wide_rows():
    """perfect_window's 33 columns: x from 0 to 5, mapped from 50.00 across
    100.00 to 750.00, and 32 others, one constant and one all negative."""
    rows = _chart_rows(32, 5001)
    rows[:, 4] = 0.25
    rows[:, 9] = -1 - np.abs(rows[:, 9])
    return rows


def _render_outcome(render, chart):
    """The text (or exception type) and the warnings of one render of a chart,
    its rows or a (header, rows) pair; numpy names a scalar op's warning
    "scalar divide" where an array op's says "divide"."""
    header, rows = chart if isinstance(chart, tuple) else (None, chart)
    header = header or ["t"] + [f"m_{n}" for n in range(rows.shape[1] - 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = render(header, rows)
        except ArithmeticError as exc:
            out = type(exc)
    return out, {(w.category, str(w.message).replace("scalar ", "")) for w in caught}


_CHARTS = {
    **{
        f"q{q}-rows{n}-scale{scale:g}": _chart_rows(q, n, scale)
        for q in (1, 6, 16, 32) for n in (1, 2, 2001) for scale in (1e-12, 1.0, 1e300)
    },
    "constant-column": _with(_chart_rows(6, 2001), (slice(None), 2), 0.5),
    "all-constant": _with(_chart_rows(6, 50), (slice(None), slice(1, None)), -2.0),
    "constant-x": _with(_chart_rows(6, 50), (slice(None), 0), 3.0),
    "dyadic-ties": _dyadic_rows(),
    "percent-label": (["t", "u@0.5%", "%s", "m_%%d"], _chart_rows(3, 50)),
    "rows1-cols12": _chart_rows(11, 1),
    "rows5001-cols33": _wide_rows(),
    **{
        f"{where}-{value}": _with(_chart_rows(6, 50), index, value)
        for value in (np.nan, np.inf, -np.inf)
        for where, index in (("cell", (7, 3)), ("column", (slice(None), 2)),
                             ("x-cell", (7, 0)), ("x-column", (slice(None), 0)))
    },
}


@pytest.mark.parametrize("name", list(_CHARTS))
def test_svg_matches_per_point(name):
    # byte for byte and warning for warning: the goldens only hold finite q = 6 charts
    rows = _CHARTS[name]
    assert _render_outcome(formats.render_svg, rows) == _render_outcome(
        render_svg_per_point, rows)


def test_dyadic_chart_lands_on_ties():
    # a coordinate c is a tie at two decimals when 200 c is an odd integer
    rows = _CHARTS["dyadic-ties"]
    x, ys = rows[:, 0], rows[:, 1:]
    assert x.min() == ys.min() == 0.0 and x.max() == ys.max() == 1.0
    for coords in (50 + 700 * x, 430 - 380 * ys):
        assert np.any(200 * coords % 2 == 1)
    # x = 3 / 32 lands on 115.625, which rounds to even
    assert "115.62," in formats.render_svg(["t", "a", "b", "c"], rows)


def test_svg_matches_per_point_property():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    cells = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-300, 1e-300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
        st.integers(-2**20, 2**20).map(lambda k: k + 0.5),
    )
    shapes = st.tuples(st.integers(1, 40), st.integers(2, 12))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @hypothesis.given(hnp.arrays(np.float64, shapes, elements=cells))
    def check(rows):
        assert _render_outcome(formats.render_svg, rows) == _render_outcome(
            render_svg_per_point, rows)

    check()
