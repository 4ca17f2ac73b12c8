"""Property tests at the CLI boundary: any flag set ends with a documented exit code.

Hypothesis draws flag sets for ``simulate``, ``field`` and ``field-grid``,
mostly valid but with bad values, foreign flags, overflowing numbers and
unwritable ``--out`` paths mixed in, and every run must end with exit 0,
2, 3 or 4 and never raise. The runs are kept small (few steps, grid points
and quadrature intervals); how examples are drawn, stored and reported is
the suite's one policy in ``conftest.py``. The CSV row formatter must write
any finite floats as it writes each one alone, each set within 200 ms.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mechfield.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, METHODS, main
from mechfield.scenarios import SCENARIOS
from mechfield.vectors import format_row

EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_IO}

bounded = settings(max_examples=50)

# Flag values as text: mostly small finite numbers, sometimes any float
# (nan, inf and 1e308 included) or text that is not a finite number.
BEYOND_FLOAT = "1" + "0" * 399  # 400 digits, an int flag float() cannot hold: refused before anything is allocated
small = st.floats(-10.0, 10.0).map(repr)
positive = st.floats(0.01, 10.0).map(repr)
number = st.one_of(positive, positive, small, st.floats().map(repr), st.sampled_from(["1e400", "nan", "x", ""]))
count = st.one_of(st.integers(0, 3).map(str), st.integers(0, 3).map(str),
                  st.sampled_from(["-1", "1.5", "x", BEYOND_FLOAT]))
point = st.one_of(st.tuples(small, small, small).map(",".join), st.sampled_from(["0,0,0", "1,2", "1,nan,0"]))

# Where --out points, in a fresh directory: nowhere (stdout), a new file,
# an existing file, a file in a missing directory, or the directory itself.
OUT_KINDS = (None, "new.csv", "existing.csv", "missing/x.csv", ".")

PARAMETERS = {name: scenario.params for name, scenario in SCENARIOS.items()}
SOURCE_FLAGS = {"lambda": number, "length": number, "current": number, "radius": number,
                "intervals": st.one_of(st.integers(-1, 40).map(str), st.just(BEYOND_FLOAT))}
GRID_FLAGS = {
    **SOURCE_FLAGS,
    **{f"{axis}-{end}": number for axis in "xyz" for end in ("min", "max")},
    **{f"{axis}-count": count for axis in "xyz"},
}


def draw_flags(data, flags: dict) -> list[str]:
    """Any subset of the flags, in any order, each with a value drawn from its strategy."""
    names = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    return [f"--{name}={data.draw(flags[name])}" for name in names]


def run(argv: list[str], out_kind: str | None) -> int:
    """Run the CLI with its output captured and --out as chosen; no partial file may stay."""
    with tempfile.TemporaryDirectory() as tmp:
        if out_kind is not None:
            (Path(tmp) / "existing.csv").write_text("earlier\n")
            argv = [*argv, "--out", str(Path(tmp) / out_kind)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert not list(Path(tmp).rglob("*.partial"))
    return code


@bounded
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    method=st.sampled_from(sorted(METHODS)),
    steps=st.integers(-1, 12),
    foreign=st.one_of(st.none(), st.none(), st.none(), st.sampled_from(sorted(n for p in PARAMETERS.values() for n in p))),
    out_kind=st.sampled_from(OUT_KINDS),
    data=st.data(),
)
def test_simulate_ends_with_a_documented_exit_code(scenario, method, steps, foreign, out_kind, data):
    own = {name: count if isinstance(p.default, int) else number for name, p in PARAMETERS[scenario].items()}
    flags = draw_flags(data, {"dt": number, **own}) + ([f"--{foreign}=1"] if foreign else [])
    assert run(["simulate", scenario, "--method", method, "--steps", str(steps), *flags], out_kind) in EXIT_CODES


@bounded
@given(kind=st.sampled_from(["e-line", "b-loop"]), at=point, data=st.data())
def test_field_ends_with_a_documented_exit_code(kind, at, data):
    assert run(["field", kind, f"--at={at}", "--intervals=20", *draw_flags(data, SOURCE_FLAGS)], None) in EXIT_CODES


@bounded
@given(kind=st.sampled_from(["e-line", "b-loop"]), out_kind=st.sampled_from(OUT_KINDS), data=st.data())
def test_field_grid_ends_with_a_documented_exit_code(kind, out_kind, data):
    assert run(["field-grid", kind, "--intervals=20", *draw_flags(data, GRID_FLAGS)], out_kind) in EXIT_CODES


@settings(max_examples=500, deadline=200)
@given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_row_writes_each_value_as_format_row_of_one_value(row):
    assert format_row(row) == ",".join(format_row((value,)) for value in row)
