"""scripts/month_digests.py: the byte-identity gate's comparison."""

import importlib.util
import os

import pytest

from lexpbs import llp

from conftest import FRACTIONAL_MONTHS

_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "month_digests.py")


def _script():
    """The script, loaded from its file."""
    spec = importlib.util.spec_from_file_location("month_digests", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digests(monkeypatch):
    """The script digesting the benchmark's warm-up month alone."""
    module = _script()
    monkeypatch.setattr(module, "months", lambda: {"s0-3x9": (0, 3, 9)})
    return module


def test_months_include_those_that_run_phase_one():
    # Only the fractional months' branch-and-bound children run phase 1.
    specs = list(_script().months().values())
    assert len(specs) == 65
    assert set(FRACTIONAL_MONTHS) <= set(specs)


@pytest.fixture
def own_line(digests, capsys):
    """The run's digest line of its one month; the pivot recorder puts
    back the names it wraps."""
    wrapped = llp._Simplex._pivot, llp.lu_factor
    assert digests.main([]) == 0
    assert (llp._Simplex._pivot, llp.lu_factor) == wrapped
    [line] = capsys.readouterr().out.splitlines()
    assert line.split()[4:] == ["s0-3x9"]
    return line


def _compare(digests, capsys, tmp_path, lines):
    """Exit code and stderr of a run compared with `lines`."""
    path = tmp_path / "parent.txt"
    path.write_text("".join(line + "\n" for line in lines))
    code = digests.main(["--compare", str(path)])
    return code, capsys.readouterr().err


def test_own_output_compares_equal(digests, own_line, capsys, tmp_path):
    assert _compare(digests, capsys, tmp_path, [own_line]) == (0, "")


def test_edited_pivot_digest_differs(digests, own_line, capsys, tmp_path):
    *fields, name = own_line.split()
    moved = "  ".join(fields[:3] + ["0" * 64, name])
    code, err = _compare(digests, capsys, tmp_path, [moved])
    assert code == 1
    assert "1 month(s), same files, pivot path differs: s0-3x9" in err


def test_month_missing_from_the_run_differs(digests, own_line, capsys,
                                            tmp_path):
    extra = "  ".join(own_line.split()[:4] + ["s999-9x99"])
    code, err = _compare(digests, capsys, tmp_path, [own_line, extra])
    assert code == 1
    assert "1 month(s), in the file but not digested: s999-9x99" in err


@pytest.mark.parametrize("count", [4, 6])
def test_line_of_another_field_count_is_an_error(digests, capsys, tmp_path,
                                                 count):
    # A short line would read as a month whose answers differ, and a
    # long one could compare equal on its first four digests.
    lines = ["  ".join(["0" * 64] * (n - 1) + ["s0-3x9"]) for n in (5, count)]
    code, err = _compare(digests, capsys, tmp_path, lines)
    assert code == 2
    assert f"line 2: {count} fields, not four digests and a name" in err
