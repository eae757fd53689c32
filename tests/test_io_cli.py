import csv
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import radwig
import radwig.checks
from radwig import Grid1D, TruncationWarning, WignerGrid, wigner_l0_grid
from radwig import io as rio
from radwig.cli import main, parse_axis
from radwig.io import (read_wigner_csv, read_wigner_json,
                       write_marginal_csv, write_wavefunction_csv,
                       write_wigner_csv, write_wigner_json)


@pytest.fixture(scope="module")
def small_grid():
    return wigner_l0_grid(1, Grid1D(-3.0, 2.0, 26), Grid1D(-4.0, 4.0, 17))


# -------------------------------------------------------------- formats

def test_wigner_csv_round_trip(tmp_path, small_grid):
    path = tmp_path / "w.csv"
    write_wigner_csv(path, small_grid)
    back = read_wigner_csv(path)
    assert back == small_grid          # exact array equality


def test_wigner_json_round_trip(tmp_path, small_grid):
    path = tmp_path / "w.json"
    write_wigner_json(path, small_grid)
    back = read_wigner_json(path)
    assert back == small_grid
    assert back.meta == small_grid.meta


def test_wigner_json_null_meta_loads(tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"meta": null, "gamma": [0.0, 1.0], "delta": [0.0, 1.0], '
                    '"w": [[1.0, 2.0], [3.0, 4.0]]}')
    grid = read_wigner_json(path)
    assert grid.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_wavefunction_csv_format(tmp_path):
    path = tmp_path / "psi.csv"
    write_wavefunction_csv(path, [0.0, 0.5], np.array([1 + 2j, 3 - 4j]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "coordinate,re,im"
    assert lines[1].split(",") == ["0.0", "1.0", "2.0"]
    assert lines[2].split(",") == ["0.5", "3.0", "-4.0"]


def _csv_reference(header, rows) -> bytes:
    """The same rows through the stdlib writer, floats as ``repr``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def test_csv_bytes_match_stdlib_writer(tmp_path):
    # -0.0, a subnormal and 17 significant digits pin the repr contract;
    # the stdlib writer pins the \r\n line ends
    awkward = [-0.0, 5e-324, 2.2250738585072014e-309, 0.30000000000000004,
               -1.2345678901234567e-300, 1e16, 1 / 3, 0.0]
    gamma = Grid1D(-1.0, 1.0, 2)
    delta = Grid1D(-0.5, 0.7, 4)
    grid = WignerGrid(gamma, delta, np.reshape(awkward, (2, 4)))
    path = tmp_path / "w.csv"
    write_wigner_csv(path, grid)
    rows = [(g, d, grid.values[i, j]) for i, g in enumerate(gamma.points)
            for j, d in enumerate(delta.points)]
    assert path.read_bytes() == _csv_reference(["gamma", "delta", "w"], rows)
    assert read_wigner_csv(path) == grid

    coords = np.linspace(-0.5, 0.7, 8)
    samples = np.array(awkward) + 1j * np.array(awkward[::-1])
    write_wavefunction_csv(path, coords, samples)
    assert path.read_bytes() == _csv_reference(
        ["coordinate", "re", "im"], zip(coords, samples.real, samples.imag))
    write_marginal_csv(path, "delta", coords, awkward)
    assert path.read_bytes() == _csv_reference(
        ["delta", "density"], zip(coords, awkward))


def _json_reference(grid) -> bytes:
    doc = {"meta": grid.meta, "gamma": grid.gamma_grid.points.tolist(),
           "delta": grid.delta_grid.points.tolist(),
           "w": grid.values.tolist()}
    return (json.dumps(doc) + "\n").encode("utf-8")


@pytest.mark.parametrize("shape", [(2, 3), (1, 6), (6, 1)])
def test_json_bytes_match_json_dumps(tmp_path, shape):
    # the awkward values of the repr contract, on one-point axes too, and a
    # meta that needs every kind of JSON value and an ASCII escape
    awkward = [-0.0, 5e-324, 1e-05, 1e16, 0.30000000000000004, 1 / 3]
    n_g, n_d = shape
    gamma = Grid1D(-1.0, 1e16, n_g) if n_g > 1 else Grid1D(1e-05, 1e-05, 1)
    delta = Grid1D(-0.5, 0.7, n_d) if n_d > 1 else Grid1D(-0.0, -0.0, 1)
    meta = {"label": "W(\u03b3, \u03b4) \u2014 caf\u00e9",
            "nested": [1, [2.5, None]], "flag": True, "none": None, "count": 3}
    grid = WignerGrid(gamma, delta, np.reshape(awkward, shape), meta=meta)
    path, plot = tmp_path / "w.json", tmp_path / "w.plot.csv"
    write_wigner_json(path, grid)
    assert path.read_bytes() == _json_reference(grid)
    write_wigner_json(path, grid, plot_csv=plot)
    assert path.read_bytes() == _json_reference(grid)
    write_wigner_csv(tmp_path / "w.csv", grid)
    assert plot.read_bytes() == (tmp_path / "w.csv").read_bytes()
    back = read_wigner_json(path)
    assert back == grid and back.meta == grid.meta


def _run_python(*args, check=True):
    """Run a fresh interpreter that imports this radwig checkout."""
    src = os.path.dirname(os.path.dirname(radwig.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def test_import_loads_no_scipy(tmp_path):
    listing = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = _run_python("-c", "import sys, radwig, radwig.cli; " + listing).stdout
    assert out.strip() == "[]"
    # nor does a wl run, which evaluates the closed form
    out_csv = tmp_path / "w3.csv"
    argv = ["wl", "--l", "3", "--out", str(out_csv)]
    run_wl = (f"import sys, radwig.cli; assert radwig.cli.main({argv!r}) == 0; "
              + listing)
    out = _run_python("-c", run_wl).stdout
    assert out.strip() == "[]"
    assert out_csv.exists()
    # nor does smoothing, nor the change of basis
    smooth = ("import sys, radwig; g = radwig.Grid1D(-3.0, 2.0, 51); "
              "d = radwig.Grid1D(-4.0, 4.0, 41); "
              "w = radwig.wigner_l0_grid(0, g, d); "
              "radwig.s_smooth(w, -1.0); "
              "radwig.to_vbar(lambda r: radwig.radial_wavefunction("
              "radwig.SchwingerLabel(0, 0), r), radwig.default_vbar_grid()); "
              + listing)
    out = _run_python("-c", smooth).stdout
    assert out.strip() == "[]"


# ------------------------------------------------------------ axis spec

def test_parse_axis():
    assert parse_axis("-3:2:251") == Grid1D(-3.0, 2.0, 251)
    assert parse_axis("0:0:1").n_points == 1
    from radwig.cli import CliInputError
    with pytest.raises(CliInputError):
        parse_axis("1:2")
    with pytest.raises(CliInputError):
        parse_axis("2:1:5")
    with pytest.raises(CliInputError):
        parse_axis("0:1:1")
    with pytest.raises(CliInputError):
        parse_axis("a:b:3")


# ------------------------------------------------------------------- wl

def test_wl_writes_grid_and_script(tmp_path):
    out = tmp_path / "w1.csv"
    rc = main(["wl", "--l", "1", "--gamma", "-3:2:51", "--delta", "-4:4:41",
               "--out", str(out)])
    assert rc == 0
    grid = read_wigner_csv(out)
    assert grid.values.shape == (51, 41)
    assert grid.values.min() < -1e-3          # negativity present for l = 1
    script = tmp_path / "w1.gp"
    assert "with image" in script.read_text()


def test_wl_degenerate_single_cell(tmp_path):
    out = tmp_path / "w0.csv"
    rc = main(["wl", "--l", "0", "--gamma", "0:0:1", "--delta", "0:0:1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "gamma,delta,w"
    assert len(lines) == 2
    value = float(lines[1].split(",")[2])
    assert value == pytest.approx(0.268032, abs=1e-6)


def test_wl_deterministic_across_runs_and_threads(tmp_path):
    args = ["wl", "--l", "2", "--gamma", "-2:1:61", "--delta", "-3:3:49"]
    paths = [tmp_path / f"w{i}.csv" for i in range(2)]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert paths[1].read_bytes() == paths[0].read_bytes()


def test_wl_single_cell_axis_json(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["wl", "--l", "0", "--gamma", "0:0:1", "--delta", "-4:4:5",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    grid = read_wigner_json(out)
    assert grid.values.shape == (1, 5)
    assert grid.meta["l"] == 0
    assert grid.values[0, 2] == pytest.approx(0.268032, abs=1e-6)
    plot_data = tmp_path / "c.plot.csv"
    assert read_wigner_csv(plot_data) == grid
    assert str(plot_data) in (tmp_path / "c.gp").read_text()


def test_wl_single_cell_axis_csv_round_trip(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["wl", "--l", "1", "--gamma", "-1:1:5", "--delta", "0:0:1",
               "--out", str(out)])
    assert rc == 0
    grid = read_wigner_csv(out)
    assert grid.values.shape == (5, 1)
    assert grid == wigner_l0_grid(1, Grid1D(-1.0, 1.0, 5), Grid1D(0.0, 0.0, 1))


def test_wl_single_cell_matches_grid_cell(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["wl", "--l", "2", "--gamma", "0.5:0.5:1", "--delta",
                 "-3:3:49", "--out", str(out)]) == 0
    cell = read_wigner_csv(out).values[0]
    full = wigner_l0_grid(2, Grid1D(-2.0, 1.0, 61), Grid1D(-3.0, 3.0, 49))
    assert np.abs(cell - full.values[50]).max() < 1e-13


def test_wl_json_output(tmp_path, monkeypatch):
    calls = []

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    # every number of the grid is formatted once for both files
    monkeypatch.setattr(rio, "repr", counting_repr, raising=False)
    out = tmp_path / "w.json"
    rc = main(["wl", "--l", "2", "--gamma", "-2:1:31", "--delta", "-2:2:21",
               "--out", str(out), "--format", "json"])
    assert rc == 0
    assert len(calls) == 31 * 21 + 31 + 21
    grid = wigner_l0_grid(2, Grid1D(-2.0, 1.0, 31), Grid1D(-2.0, 2.0, 21))
    assert out.read_bytes() == _json_reference(grid)
    assert read_wigner_json(out).meta["l"] == 2
    write_wigner_csv(tmp_path / "ref.csv", grid)
    assert ((tmp_path / "w.plot.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_wl_gamma_guard(tmp_path, capsys):
    rc = main(["wl", "--l", "0", "--gamma", "-8:2:11", "--delta", "-1:1:5",
               "--out", str(tmp_path / "w.csv")])
    assert rc == 2
    assert "--allow-wide-gamma" in capsys.readouterr().err
    rc = main(["wl", "--l", "0", "--gamma", "-8:2:11", "--delta", "-1:1:5",
               "--out", str(tmp_path / "w.csv"), "--allow-wide-gamma"])
    assert rc == 0
    # the guard has one bound, the library's lower one
    rc = main(["wl", "--l", "0", "--gamma", "0:6:13", "--delta", "-1:1:5",
               "--out", str(tmp_path / "w.csv")])
    assert rc == 0


def test_wl_bad_l(tmp_path):
    rc = main(["wl", "--l", "99", "--gamma", "0:0:1", "--delta", "0:0:1",
               "--out", str(tmp_path / "w.csv")])
    assert rc == 2


# ------------------------------------------------------- state commands

def test_vacuum_command(tmp_path):
    out = tmp_path / "vac.csv"
    assert main(["vacuum", "--basis", "vbar", "--grid", "-6:6:121",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "coordinate,re,im"
    assert len(lines) == 122
    mid = lines[61].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(np.pi ** -0.25, rel=1e-12)


def test_coherent_command_json(tmp_path):
    out = tmp_path / "coh.json"
    assert main(["coherent", "--alpha", "0.5+0.3j", "--grid", "-10:10:801",
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["alpha_re"] == 0.5
    assert len(doc["re"]) == 801


def test_coherent_one_point_grid_rejected_without_warning(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["coherent", "--grid", "0:0:1",
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, TruncationWarning)]


def test_coherent_bad_alpha(tmp_path):
    assert main(["coherent", "--alpha", "nope", "--grid", "-5:5:11",
                 "--out", str(tmp_path / "c.csv")]) == 2


@pytest.mark.parametrize("alpha, code, prefix", [
    ("1e200", 1, "numerical error: grid"),  # the grid holds none of the state
    ("nan", 2, "error: alpha"),
    ("inf", 2, "error: alpha"),
])
def test_coherent_unusable_alpha_is_one_error_line(tmp_path, alpha, code,
                                                   prefix):
    proc = _run_python("-m", "radwig.cli", "coherent", "--alpha", alpha,
                       "--grid", "-3:3:101", "--out", str(tmp_path / "c.csv"),
                       check=False)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert os.listdir(tmp_path) == []


def test_library_warning_prints_one_warning_line(tmp_path):
    proc = _run_python("-m", "radwig.cli", "coherent", "--alpha",
                       "-0.5+0.3j", "--grid", "-3:3:101",
                       "--out", str(tmp_path / "c.csv"))
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: grid [-3.0, 3.0] holds only")
    assert ".py:" not in proc.stderr


# ---------------------------------------------------------- input errors

@pytest.mark.parametrize("argv", [
    ["wl", "--gamma", "1:2"],
    ["wl", "--delta", "1:2"],
    ["fock", "--input", "rho.json", "--gamma", "1:2"],
    ["fock", "--input", "rho.json", "--delta", "1:2"],
    # past the band pi/(2h) ~ 157 that the default grid (h = 0.01) resolves
    ["fock", "--input", "rho.json", "--delta", "-320:320:11"],
    ["vacuum", "--grid", "1:2"],
    ["vacuum", "--basis", "r", "--grid", "-1:2:11"],
    ["coherent", "--grid", "1:2"],
    ["wl", "--l", "99"],
    ["coherent", "--alpha", "nope"],
], ids=" ".join)
def test_input_error_is_one_error_line(tmp_path, argv):
    (tmp_path / "rho.json").write_text(json.dumps(vacuum_doc()))
    argv = [str(tmp_path / a) if a == "rho.json" else a for a in argv]
    proc = _run_python("-m", "radwig.cli", *argv,
                       "--out", str(tmp_path / "out.csv"), check=False)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["rho.json"]


def test_overflowing_axis_span_names_the_spec(tmp_path):
    # finite bounds whose difference overflows: refused before any numpy
    # arithmetic could warn
    proc = _run_python("-m", "radwig.cli", "wl", "--gamma=-1:1:3",
                       "--delta=-1e308:1e308:3",
                       "--out", str(tmp_path / "out.csv"), check=False)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'-1e308:1e308:3'" in lines[0] and "overflows" in lines[0]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [
    ["wl", "--gamma", "-1:1:3", "--delta", "-1:1:3"],
    ["wl", "--gamma", "-1:1:3", "--delta", "-1:1:3", "--format", "json"],
    ["fock", "--input", "rho.json", "--gamma", "-1:1:3", "--delta", "-1:1:3"],
], ids=" ".join)
def test_out_named_as_plot_script(tmp_path, capsys, command):
    # the script <stem>.gp would overwrite the grid written to --out
    (tmp_path / "rho.json").write_text(json.dumps(vacuum_doc()))
    argv = [str(tmp_path / a) if a == "rho.json" else a for a in command]
    out = tmp_path / "grid.gp"
    assert main(argv + ["--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == ["rho.json"]
    assert main(argv + ["--out", str(out), "--no-plot-script"]) == 0
    grid = (read_wigner_json if "json" in command else read_wigner_csv)(out)
    assert grid.values.shape == (3, 3)


def _readme_block(after, lang):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return text.split(after, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    # each radwig line of README's command-line block, in order, on the
    # README's own Fock input
    monkeypatch.chdir(tmp_path)
    Path("rho.json").write_text(_readme_block("Fock input format:", "json"))
    runs = [shlex.split(line)[1:] for line in
            _readme_block("## Command line", "sh").splitlines()
            if line.startswith("radwig ")]
    assert ["marginals", "--input", "wide.json", "--out-stem", "wide"] in runs
    for argv in runs:
        assert main(argv) == 0, argv


# ------------------------------------------------------------------ fock

def vacuum_doc():
    return {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0}]}


def test_fock_command_matches_wl(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(vacuum_doc()))
    out = tmp_path / "wf.csv"
    rc = main(["fock", "--input", str(rho_path), "--gamma", "-3:2:51",
               "--delta", "-4:4:41", "--out", str(out)])
    assert rc == 0
    from_fock = read_wigner_csv(out)

    ref = tmp_path / "w0.csv"
    assert main(["wl", "--l", "0", "--gamma", "-3:2:51", "--delta", "-4:4:41",
                 "--out", str(ref)]) == 0
    closed = read_wigner_csv(ref)
    assert np.abs(from_fock.values - closed.values).max() < 1e-5
    # the map window is too narrow for faithful marginals: skipped, warned
    assert not (tmp_path / "wf_marginal_gamma.csv").exists()
    assert "skipping" in capsys.readouterr().err


def test_fock_command_single_gamma_cell(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(vacuum_doc()))
    out = tmp_path / "wf.csv"
    rc = main(["fock", "--input", str(rho_path), "--gamma", "0:0:1",
               "--delta", "-4:4:41", "--out", str(out)])
    assert rc == 0
    grid = read_wigner_csv(out)
    assert grid.values.shape == (1, 41)
    assert grid.values[0, 20] == pytest.approx(0.268032, abs=1e-5)
    assert not (tmp_path / "wf_marginal_delta.csv").exists()
    assert "skipping delta marginal" in capsys.readouterr().err


def test_fock_command_wide_window_emits_marginals(tmp_path):
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(vacuum_doc()))
    out = tmp_path / "wf.csv"
    rc = main(["fock", "--input", str(rho_path), "--gamma", "-9:2:221",
               "--delta", "-26:26:521", "--out", str(out),
               "--no-plot-script"])
    assert rc == 0
    gpath = tmp_path / "wf_marginal_gamma.csv"
    dpath = tmp_path / "wf_marginal_delta.csv"
    assert gpath.exists() and dpath.exists()
    lines = gpath.read_text().strip().splitlines()
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    from radwig import vbar_schwinger_l0
    oracle = vbar_schwinger_l0(0, data[:, 0]) ** 2
    assert np.abs(data[:, 1] - oracle).max() < 1e-5


def test_fock_command_schema_error(tmp_path):
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0}]}
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(doc))
    rc = main(["fock", "--input", str(rho_path), "--gamma", "-3:2:11",
               "--delta", "-4:4:9", "--out", str(tmp_path / "w.csv")])
    assert rc == 2


_ENTRY = {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0}

_FOCK_SCHEMA_BREAKS = {
    "top-level-list": ([_ENTRY], "top level must be a JSON object"),
    "no-n_max": ({"entries": [_ENTRY]}, "missing required field 'n_max'"),
    "entries-object": ({"n_max": 1, "entries": _ENTRY},
                       "'entries' must be a list"),
    "entry-number": ({"n_max": 1, "entries": [1.0]},
                     "entries[0]: expected an object, got float"),
    "entry-without-nx": ({"n_max": 1, "entries": [
        {k: v for k, v in _ENTRY.items() if k != "nx"}]},
        "entries[0]: missing field 'nx'"),
    "float-ny": ({"n_max": 1, "entries": [{**_ENTRY, "ny": 0.5}]},
                 "entries[0]: field 'ny' must be an integer"),
    "string-re": ({"n_max": 1, "entries": [{**_ENTRY, "re": "1.0"}]},
                  "entries[0]: field 're' must be a number"),
    "bool-im": ({"n_max": 1, "entries": [{**_ENTRY, "im": False}]},
                "entries[0]: field 'im' must be a number"),
}


@pytest.mark.parametrize("name", list(_FOCK_SCHEMA_BREAKS))
def test_fock_command_names_schema_break(tmp_path, capsys, name):
    doc, message = _FOCK_SCHEMA_BREAKS[name]
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(doc))
    rc = main(["fock", "--input", str(rho_path), "--gamma", "-3:2:11",
               "--delta", "-4:4:9", "--out", str(tmp_path / "w.csv")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert os.listdir(tmp_path) == ["rho.json"]


def test_fock_command_hermiticity_error(tmp_path, capsys):
    doc = {"n_max": 1, "entries": [
        {"nx": 0, "ny": 0, "nxp": 0, "nyp": 0, "re": 1.0, "im": 0.0},
        {"nx": 1, "ny": 0, "nxp": 0, "nyp": 0, "re": 0.3, "im": 0.1}]}
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(json.dumps(doc))
    rc = main(["fock", "--input", str(rho_path), "--gamma", "-3:2:11",
               "--delta", "-4:4:9", "--out", str(tmp_path / "w.csv")])
    assert rc == 2
    assert "Hermiticity" in capsys.readouterr().err


def test_fock_command_missing_file(tmp_path):
    rc = main(["fock", "--input", str(tmp_path / "absent.json"),
               "--gamma", "-3:2:11", "--delta", "-4:4:9",
               "--out", str(tmp_path / "w.csv")])
    assert rc == 2


# ------------------------------------------------------------- marginals

def test_marginals_command(tmp_path):
    out = tmp_path / "w0.json"
    assert main(["wl", "--l", "0", "--gamma", "-9:2:221", "--delta",
                 "-13:13:261", "--out", str(out), "--format", "json",
                 "--no-plot-script", "--allow-wide-gamma"]) == 0
    stem = tmp_path / "m"
    assert main(["marginals", "--input", str(out), "--out-stem",
                 str(stem)]) == 0
    gpath = tmp_path / "m_marginal_gamma.csv"
    lines = gpath.read_text().strip().splitlines()
    assert lines[0] == "gamma,density"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    from radwig import vbar_schwinger_l0
    oracle = vbar_schwinger_l0(0, data[:, 0]) ** 2
    assert np.abs(data[:, 1] - oracle).max() < 1e-5


def test_marginals_command_single_cell_axis(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["wl", "--l", "0", "--gamma", "0:0:1", "--delta", "-4:4:41",
                 "--out", str(out), "--no-plot-script"]) == 0
    assert main(["marginals", "--input", str(out), "--out-stem",
                 str(tmp_path / "m")]) == 1
    assert "numerical error" in capsys.readouterr().err


_MALFORMED = {
    "non-numeric.csv": ("gamma,delta,w\r\n0.0,0.0,1.0\r\n0.0,1.0,abc\r\n",
                        "malformed Wigner CSV"),
    "short-row.csv": ("gamma,delta,w\r\n0.0,0.0,1.0\r\n0.0,1\r\n",
                      "malformed Wigner CSV"),
    "only-short-rows.csv": ("gamma,delta,w\r\n0,1\r\n",
                            "rows have 2 fields, expected 3"),
    "extra-field.csv": ("gamma,delta,w\r\n0.0,0.0,1.0\r\n0.0,1.0,2.0,3.0\r\n",
                        "malformed Wigner CSV"),
    "header-only.csv": ("gamma,delta,w\r\n", "empty Wigner CSV"),
    "bad-header.csv": ("gamma,delta,W\r\n0.0,0.0,1.0\r\n",
                       "unexpected CSV header"),
    "incomplete-grid.csv": ("gamma,delta,w\r\n0.0,0.0,1.0\r\n"
                            "0.0,1.0,2.0\r\n1.0,0.0,3.0\r\n",
                            "do not form a complete gamma x delta grid"),
    "non-uniform-axis.csv": ("gamma,delta,w\r\n" + "".join(
        f"{g},{d},1.0\r\n" for g in (0.0, 1.0, 3.0) for d in (0.0, 1.0)),
        "gamma axis values are not a uniform grid"),
    "ragged.json": ('{"gamma": [0.0, 1.0], "delta": [0.0, 1.0], '
                    '"w": [[1.0, 2.0], [3.0]]}', "malformed Wigner JSON"),
    "empty-axis.json": ('{"gamma": [], "delta": [0.0, 1.0], "w": []}',
                        "gamma axis must be a non-empty list"),
    "meta-list.json": ('{"meta": [1], "gamma": [0.0, 1.0], "delta": [0.0, 1.0], '
                       '"w": [[1.0, 2.0], [3.0, 4.0]]}',
                       "'meta' in Wigner JSON must be an object"),
    "meta-string.json": ('{"meta": "x", "gamma": [0.0, 1.0], "delta": [0.0, 1.0], '
                         '"w": [[1.0, 2.0], [3.0, 4.0]]}',
                         "'meta' in Wigner JSON must be an object"),
    "missing-w.json": ('{"gamma": [0.0, 1.0], "delta": [0.0, 1.0]}',
                       "missing field 'w' in Wigner JSON"),
    "top-level-number.json": ("5", "top level must be an object"),
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_marginals_malformed_input_is_input_error(tmp_path, capsys, name):
    text, message = _MALFORMED[name]
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    rc = main(["marginals", "--input", str(path), "--out-stem",
               str(tmp_path / "m")])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert os.listdir(tmp_path) == [name]


# ----------------------------------------------------------------- check

def test_check_single_invariant(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main(["check", "--only", "laguerre-recurrence", "--json",
               str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS laguerre-recurrence" in out
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is True
    assert doc["results"][0]["invariant"] == "laguerre-recurrence"
    assert doc["results"][0]["measured"] <= doc["results"][0]["tolerance"]
    assert doc["results"][0]["seconds"] > 0.0


def test_check_forced_failure(capsys, monkeypatch):
    monkeypatch.setattr(radwig.checks, "_REGISTRY", [
        (name, description, 0.0 if name == "laguerre-derivative" else tol, fn)
        for name, description, tol, fn in radwig.checks._REGISTRY])
    rc = main(["check", "--only", "laguerre-derivative"])
    assert rc == 1
    assert "FAIL laguerre-derivative" in capsys.readouterr().out


def test_check_unknown_invariant():
    assert main(["check", "--only", "no-such-invariant"]) == 2
