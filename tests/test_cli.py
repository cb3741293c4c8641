from __future__ import annotations

import importlib
import json
import os
import pkgutil
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_rootsys import TABLE_TYPES

import rootneg
from rootneg.cli import run
from rootneg.rootsys import build_root_system, dual

REPO_ROOT = Path(__file__).resolve().parents[1]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_known_system(capsys):
    code, out, _ = invoke(capsys, "build", "--type", "BC1")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "BC1"
    assert doc["positive_roots"] == [[1], [2]]
    assert doc["weyl_order"] == "2"
    assert doc["gram"] == [["1"]]
    assert doc["dual_type"] == "BC1"


@pytest.mark.parametrize("type_name", ["B12", "C8"])
def test_build_constructs_one_root_system(capsys, monkeypatch, type_name):
    # dual_type comes from the spec, not from a second system
    from rootneg import rootsys

    built = []
    init = rootsys.RootSystem.__init__

    def counting(self, spec):
        built.append(str(spec))
        init(self, spec)

    monkeypatch.setattr(rootsys, "_build_cache", {})
    monkeypatch.setattr(rootsys.RootSystem, "__init__", counting)
    code, out, err = invoke(capsys, "build", "--type", type_name)
    assert (code, err) == (0, "")
    assert built == [type_name]


@pytest.mark.parametrize("type_name", TABLE_TYPES)
def test_build_dual_type_names_the_dual_system(capsys, type_name):
    code, out, _ = invoke(capsys, "build", "--type", type_name)
    assert code == 0
    assert json.loads(out)["dual_type"] == str(dual(build_root_system(type_name)).spec)


def test_build_rejects_unknown_family(capsys):
    code, out, err = invoke(capsys, "build", "--type", "Z9")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_command_and_flag():
    assert run(["frobnicate"]) == 2
    assert run(["build", "--type", "A2", "--sideways"]) == 2
    assert run([]) == 2


def test_nsigma_type_a(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, "nsigma", "--type", "A3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out.strip() == (
        '{"type":"A3","n_sigma":"1","subsystems":[{"label":"A3","n":"1"}]}'
    )


def test_nsigma_cache_is_idempotent(tmp_path, capsys):
    first = invoke(capsys, "nsigma", "--type", "B2", "--cache-dir", str(tmp_path))
    cache_file = tmp_path / "nsigma.json"
    assert cache_file.exists()
    stamp = cache_file.read_text()
    second = invoke(capsys, "nsigma", "--type", "B2", "--cache-dir", str(tmp_path))
    assert first == second
    assert cache_file.read_text() == stamp
    doc = json.loads(first[1])
    assert doc["n_sigma"] == "2"
    assert sorted(s["n"] for s in doc["subsystems"]) == ["1", "1", "2"]


def test_nsigma_cache_is_keyed_by_method(tmp_path, capsys):
    cache_file = tmp_path / "nsigma.json"
    planted = {"n_sigma": "99", "subsystems": [{"label": "B2", "n": "99"}]}
    cache_file.write_text(json.dumps({"B2/bds": planted}), encoding="utf-8")
    code, out, _ = invoke(
        capsys, "nsigma", "--type", "B2", "--method", "brute_force",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["n_sigma"] == "2"
    # the bds entry is read back as it stands, so the lookup did happen
    code, out, _ = invoke(capsys, "nsigma", "--type", "B2", "--cache-dir", str(tmp_path))
    assert json.loads(out)["n_sigma"] == "99"
    assert sorted(json.loads(cache_file.read_text())) == ["B2/bds", "B2/brute_force"]


def test_nsigma_cache_write_is_atomic(tmp_path, capsys, monkeypatch):
    invoke(capsys, "nsigma", "--type", "B2", "--cache-dir", str(tmp_path))
    cache_file = tmp_path / "nsigma.json"
    before = cache_file.read_bytes()

    def dump_then_fail(obj, handle, **kwargs):
        handle.write('{"A2/bds": {')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    code, out, err = invoke(capsys, "nsigma", "--type", "A2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["n_sigma"] == "1"
    assert "could not write cache" in err and "disk full" in err
    # the half-written file never replaced the old one, and was removed
    assert cache_file.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nsigma.json"]


@pytest.mark.parametrize("content", [
    "{not json", "[1, 2]", "\xff\xfe",
    # malformed entries under the key that is asked for
    '{"G2/bds": "x"}',
    '{"G2/bds": {"n_sigma": "6"}}',
    '{"G2/bds": {"n_sigma": 6, "subsystems": []}}',
    '{"G2/bds": {"n_sigma": "6", "subsystems": "G2"}}',
    '{"G2/bds": {"n_sigma": "6", "subsystems": [{"label": "G2"}]}}',
    '{"G2/bds": {"n_sigma": "6", "subsystems": [{"label": "G2", "n": 6}]}}',
])
def test_nsigma_unreadable_cache_is_a_miss(tmp_path, capsys, content):
    cache_file = tmp_path / "nsigma.json"
    cache_file.write_bytes(content.encode("latin-1"))
    code, out, err = invoke(capsys, "nsigma", "--type", "G2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["n_sigma"] == "6"
    assert err.startswith("rootneg: ignoring")
    assert "nsigma.json" in err
    # the recomputed entry replaces the unreadable file
    assert list(json.loads(cache_file.read_text())) == ["G2/bds"]


def test_nsigma_malformed_entry_keeps_the_other_entries(tmp_path, capsys):
    cache_file = tmp_path / "nsigma.json"
    kept = {"n_sigma": "1", "subsystems": [{"label": "A2", "n": "1"}]}
    cache_file.write_text(json.dumps({"A2/bds": kept, "G2/bds": "x"}))
    code, out, err = invoke(capsys, "nsigma", "--type", "G2", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["n_sigma"] == "6"
    assert err.startswith("rootneg: ignoring malformed cache entry G2/bds")
    cache = json.loads(cache_file.read_text())
    assert cache["A2/bds"] == kept
    assert cache["G2/bds"]["n_sigma"] == "6"


def test_subsystems_b2(capsys):
    code, out, _ = invoke(capsys, "subsystems", "--type", "B2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    labels = [(s["label"], s["n"]) for s in doc["subsystems"]]
    assert labels == [("A1xA1", "1"), ("A1xA1", "2"), ("B2", "1")]
    assert doc["subsystems"][1]["divisors"] == ["1", "2"]


def test_subsystems_brute_force_rank_guard(capsys):
    code, _, err = invoke(
        capsys, "subsystems", "--type", "D4", "--method", "brute_force"
    )
    assert code == 2 and "rank" in err


def test_class_output_shape(capsys):
    code, out, _ = invoke(capsys, "class", "--type", "A2", "--re", "1/2,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["re"] == ["1/2", "1/2"] and doc["im"] == ["0", "0"]
    assert doc["gallery_size"] == 3 and doc["chamber_count"] == 3
    assert doc["edge_dim"] == 1 and doc["edge_basis"] == [["-1", "1"]]
    words = sorted(tuple(m["word"]) for m in doc["members"])
    assert words == [(), (1,), (2,)]


def test_negative_coordinate_values_parse(capsys):
    # argparse needs help with values that begin with a dash
    code, out, _ = invoke(
        capsys,
        "negativity", "--type", "A2", "--re", "-1,-1", "--im", "0,0",
        "--mode", "strict",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["class_ok"] is True
    assert doc["witness"] == ["0", "0"]
    assert doc["span_basis"] == [[0, 1], [1, 0]]


def test_negativity_strict_rejects_subspace(capsys):
    code, _, err = invoke(
        capsys,
        "negativity", "--type", "A2", "--re", "-1,-1", "--mode", "strict",
        "--subspace", "1,0;0,1",
    )
    assert code == 2 and "strict" in err


def test_coordinate_count_mismatch(capsys):
    code, _, err = invoke(capsys, "class", "--type", "A2", "--re", "1/2")
    assert code == 2 and "coordinate" in err


def test_fundamental_report(capsys):
    code, out, _ = invoke(
        capsys, "fundamental", "--type", "A2", "--re", "-1,-1", "--mode", "strict"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_lattice"] == "3"
    assert doc["edge_trivial"] is True and doc["integrality_ok"] is True
    assert doc["parabolic_type"] == "A2"
    assert doc["containing_member_word"] == []


def test_exponent_certificate(capsys):
    code, out, _ = invoke(
        capsys,
        "exponent", "--spherical", "1,0;0,1", "--mu", "1/3,1/2",
        "--rhoq", "0,0", "--nu", "0,0", "--n", "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solvable"] and doc["lattice_ok"] and doc["ds1_ok"] and doc["ds2_ok"]
    assert doc["coefficients"] == ["1/3", "1/2"]


def test_exponent_dimension_error(capsys):
    code, _, err = invoke(
        capsys,
        "exponent", "--spherical", "1,0", "--mu", "1", "--rhoq", "0", "--nu", "0",
    )
    assert code == 2 and "error:" in err


def test_rank_one_bound(capsys):
    assert invoke(capsys, "rank-one-bound", "--type", "A2")[1].strip() == (
        '{"bound":"162"}'
    )
    assert invoke(capsys, "rank-one-bound")[1].strip() == '{"bound":"18"}'


def test_snf_example(capsys):
    code, out, _ = invoke(capsys, "snf", "--matrix", "2,1;0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["divisors"] == ["1", "4"]
    u, d, v = doc["u"], doc["d"], doc["v"]
    a = [[2, 1], [0, 2]]
    prod = [
        [
            sum(u[i][k] * a[k][j] for k in range(2))
            for j in range(2)
        ]
        for i in range(2)
    ]
    prod = [
        [
            sum(prod[i][k] * v[k][j] for k in range(2))
            for j in range(2)
        ]
        for i in range(2)
    ]
    assert prod == d


def test_snf_ragged_matrix(capsys):
    code, _, err = invoke(capsys, "snf", "--matrix", "2,1;0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("matrix", [";", ";;", "1,2;", ";1,2"])
def test_snf_refuses_rows_without_entries(capsys, matrix):
    code, out, err = invoke(capsys, "snf", "--matrix", matrix)
    assert (code, out) == (2, "")
    assert "has a row with no entries" in err


def test_capacity_guard_names_limit(capsys):
    # no integral roots: the gallery is all of W(E8)
    code, _, err = invoke(capsys, "gallery", "--type", "E8", "--re", ",".join(["1/97"] * 8))
    assert code == 2 and "1000000" in err
    assert "696729600" in err


def _forbid(monkeypatch, *names):
    """Make every binding of each name in the rootneg modules raise when called.

    The cli imports library modules when a command runs, so every module is
    loaded first: one loaded under the patch would keep the refusing binding.
    """
    for info in pkgutil.iter_modules(rootneg.__path__):
        importlib.import_module(f"rootneg.{info.name}")
    for module in [m for n, m in sys.modules.items() if n == "rootneg" or n.startswith("rootneg.")]:
        for name in names:
            if hasattr(module, name):

                def refuse(*args, _name=name, **kwargs):
                    raise RuntimeError(f"{_name} called")

                monkeypatch.setattr(module, name, refuse)


_F4_OPS = (
    ("class", "--type", "F4", "--re", "1/2,1,1/3,1/2"),
    ("gallery", "--type", "F4", "--re", "1/2,1,1/3,1/2"),
    ("negativity", "--type", "F4", "--re", "-1,-1,-1,-1", "--mode", "strict"),
    ("fundamental", "--type", "F4", "--re", "1/2,1,1/3,1/2", "--mode", "weak"),
)


@pytest.mark.parametrize("argv", _F4_OPS, ids=[a[0] for a in _F4_OPS])
def test_parameter_commands_scan_no_weyl_group(capsys, monkeypatch, argv):
    _forbid(monkeypatch, "weyl_group", "c_lambda")
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == "F4"


@pytest.mark.parametrize("argv", _F4_OPS[1:3], ids=[a[0] for a in _F4_OPS[1:3]])
def test_chamber_count_only_above_the_weyl_order_limit(capsys, monkeypatch, argv):
    # |W(F4)| = 1152 is within the limit, so the guard computes no index
    _forbid(monkeypatch, "subsystem_spec", "chamber_count")
    code, _, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")


_TABLELESS_OPS = (
    ("build", "--type", "E8"),
    ("edge", "--type", "E8", "--re", "1/2,0,0,0,0,0,0,0"),
    ("class", "--type", "F4", "--re", "1/2,1,1/3,1/2"),
    ("gallery", "--type", "F4", "--re", "1/2,1,1/3,1/2"),
    ("negativity", "--type", "F4", "--re", "-1,-1,-1,-1", "--mode", "strict"),
    ("fundamental", "--type", "F4", "--re", "1/2,1/3,1,-1", "--mode", "weak",
     "--subspace", "0,0,1,0"),
)


@pytest.mark.parametrize("argv", _TABLELESS_OPS, ids=[a[0] for a in _TABLELESS_OPS])
def test_session_and_cold_commands_build_no_root_table(capsys, monkeypatch, argv):
    # the reflection table serves the census; a class property that raises
    # shadows any table an earlier test cached on the shared instances
    from rootneg import rootsys

    def refuse(rs):
        raise RuntimeError("root table built")

    monkeypatch.setattr(rootsys.RootSystem, "table", property(refuse))
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == argv[2]
    with pytest.raises(RuntimeError, match="root table built"):
        run(["subsystems", "--type", "G2"])


_MOVE_CLASS_OPS = (
    ("class", "--type", "F4", "--re", "1/2,1/3,1,1/4", "--denominator", "2"),
    ("negativity", "--type", "F4", "--re", "1,1/2,1/2,-1", "--mode", "strict", "--denominator", "2"),
    ("fundamental", "--type", "F4", "--re", "1/2,1,1/3,1/2", "--mode", "weak"),
    ("class", "--type", "BC3", "--re", "1/2,1/3,1", "--im", "0,1/2,0"),
    ("negativity", "--type", "BC3", "--re", "1/2,-1,1/3", "--mode", "weak"),
    ("fundamental", "--type", "BC3", "--re", "1/3,-1/2,1", "--mode", "integral", "--denominator", "3"),
)


@pytest.mark.parametrize("argv", _MOVE_CLASS_OPS,
                         ids=[f"{a[0]}-{a[2]}" for a in _MOVE_CLASS_OPS])
def test_parameter_commands_use_no_oracle(capsys, monkeypatch, argv):
    # the move class comes from the gallery walk, never from the move search
    # or the Weyl group scan that verify checks it against
    _forbid(monkeypatch, "move_class", "c_lambda", "weyl_group")
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["type"] == argv[2]


_WALKING_COMMANDS = ("class", "gallery", "negativity", "fundamental")
_WALKING_CASES = [
    case for case in (json.loads(p.read_text(encoding="utf-8"))
                      for p in sorted((REPO_ROOT / "tests" / "golden").glob("*.json")))
    if case["argv"][0] in _WALKING_COMMANDS
]


def test_golden_commands_walk_each_parameter_once(capsys, monkeypatch):
    # every module that calls chamber_walk by name sees the counting wrapper;
    # the cli handlers import it from params when they run
    from rootneg import negativity, params

    original = params.chamber_walk
    calls = []

    def counting(rs, lam, denominator=1):
        calls.append((lam, denominator))
        return original(rs, lam, denominator)

    for module in (params, negativity):
        monkeypatch.setattr(module, "chamber_walk", counting)
    assert {case["argv"][0] for case in _WALKING_CASES} == set(_WALKING_COMMANDS)
    for case in _WALKING_CASES:
        calls.clear()
        assert run(case["argv"]) == case["exit_code"]
        assert capsys.readouterr().out == case["stdout"]
        assert len(calls) == len(set(calls)), case["argv"]
        assert calls or case["exit_code"] != 0, case["argv"]


@pytest.mark.parametrize(
    "type_name, re, count",
    [
        ("E7", "0,0,0,0,0,0,0", 1),
        ("E7", "1/2,0,0,0,0,0,0", 63),
        ("E8", "0,0,0,0,0,0,0,0", 1),
        ("E8", "1/2,0,0,0,0,0,0,0", 135),
    ],
)
def test_e7_e8_within_the_limit_are_answered(capsys, type_name, re, count):
    from rootneg.params import chamber_count

    code, out, _ = invoke(capsys, "class", "--type", type_name, "--re", re)
    assert code == 0
    doc = json.loads(out)
    # the coset index and the class walked at denominator 1 agree
    rs = build_root_system(type_name)
    index = chamber_count(rs, rootneg.Parameter.of(re.split(",")))
    assert doc["chamber_count"] == doc["gallery_size"] == len(doc["members"]) == index == count


def test_pretty_only_changes_whitespace(capsys):
    plain = invoke(capsys, "edge", "--type", "A2", "--re", "1/2,1/2")
    pretty = invoke(
        capsys, "edge", "--type", "A2", "--re", "1/2,1/2", "--pretty"
    )
    assert plain[0] == pretty[0] == 0
    assert json.loads(plain[1]) == json.loads(pretty[1])
    assert "\n  " in pretty[1] and "\n  " not in plain[1]


def test_no_float_literals_in_output(capsys):
    for argv in (
        ("build", "--type", "G2"),
        ("class", "--type", "B2", "--re", "1/2,1"),
        ("negativity", "--type", "B2", "--re", "-1,-1", "--mode", "weak"),
    ):
        _, out, _ = invoke(capsys, *argv)
        for token in json.loads(out).values():
            assert not isinstance(token, float)
        assert "." not in out


def test_cli_byte_determinism_subprocess():
    argv = [
        sys.executable, "-m", "rootneg.cli",
        "class", "--type", "G2", "--re", "1/5,1/7",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


_HUGE_EXPONENT_ARGVS = {
    "edge": ("edge", "--type", "A2", "--re", "1e999999999,1"),
    "negative": ("edge", "--type", "A2", "--re", "1/2,-3.5E-1_000_000_000"),
    "snf": ("snf", "--matrix", "1,2;3,4e+999999999"),
    "exponent": ("exponent", "--spherical", "1,0;0,1", "--mu", "1,2", "--rhoq", "0,0",
                 "--nu", "0,1e999999999"),
    "least": ("negativity", "--type", "A2", "--re", "1e4300,1", "--mode", "weak"),
}


@pytest.mark.parametrize("argv", _HUGE_EXPONENT_ARGVS.values(), ids=_HUGE_EXPONENT_ARGVS.keys())
def test_an_exponent_beyond_the_digit_limit_is_refused_at_once(argv):
    # Fraction would build 10**exponent first: hours and hundreds of MB
    done = subprocess.run([sys.executable, "-m", "rootneg.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error:") and "longer than 4300 digits" in done.stderr


def test_console_entry_point():
    # Run the console script declared in pyproject.toml the way the wrapper
    # that pip generates runs it, against the checkout's src/, so the test
    # needs no install step.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["rootneg"]
    module, attr = spec.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'rootneg'\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )

    def script(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=env,
        )

    result = script("rank-one-bound", "--type", "B2")
    assert result.returncode == 0
    assert result.stdout.strip() == '{"bound":"72"}'
    # A refusal's exit code must reach the shell, not only a success's 0.
    refused = script("rank-one-bound", "--type", "Z9")
    assert refused.returncode == 2
    assert refused.stdout == ""


@pytest.mark.skipif(
    shutil.which("rootneg") is None, reason="rootneg console script not installed"
)
def test_installed_console_script():
    result = subprocess.run(
        ["rootneg", "rank-one-bound", "--type", "B2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == '{"bound":"72"}'


_REIMPORT_SCRIPT = """
import contextlib, gc, importlib, io, sys, weakref
cli = importlib.import_module("rootneg.cli")
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(["negativity", "--type", "B2", "--re", "-1,-1", "--mode", "weak", "--subspace", "1,0"])
old = weakref.ref(sys.modules["rootneg.rootsys"].Parameter)
del cli
for name in [n for n in sys.modules if n == "rootneg" or n.startswith("rootneg.")]:
    del sys.modules[name]
importlib.import_module("rootneg.cli")
gc.collect()
print("dead" if old() is None else "alive")
"""


def test_reimport_releases_the_old_modules():
    # a fresh interpreter, since this process's test modules hold the classes
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT_SCRIPT],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "dead"


_LOADED_SCRIPT = """
import contextlib, io, json, sys
own = set(sys.modules)
import rootneg.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = rootneg.cli.run(sys.argv[1:])
loaded = sorted(n for n in sys.modules if n == "rootneg" or n.startswith("rootneg."))
added = sorted(set(sys.modules) - own)
print(json.dumps({"exit_code": code, "stdout": out.getvalue(), "loaded": loaded,
                  "added": added}))
"""

_CORE = {"rootneg", "rootneg.rootsys", "rootneg.linalg", "rootneg.cli"}
_CENSUS = _CORE | {"rootneg.subsystems", "rootneg.lattice"}
_PARAMS = _CORE | {"rootneg.params"}
_NEGATIVITY = _PARAMS | {"rootneg.negativity", "rootneg.simplex"}
#: per command, one golden case and the rootneg modules a fresh process loads
_LOADED = {
    "build": ("build_a2", _CORE),
    "rank-one-bound": ("rank_one_bound_a1", _CORE),
    "exponent": ("exponent_rational_solvable", _CORE | {"rootneg.exponent"}),
    "snf": ("snf_3x3", _CORE | {"rootneg.lattice"}),
    "nsigma": ("nsigma_a2", _CENSUS),
    "subsystems": ("subsystems_a2", _CENSUS),
    "class": ("class_a2", _PARAMS),
    "gallery": ("gallery_a2", _PARAMS),
    "edge": ("edge_b2", _PARAMS),
    "negativity": ("negativity_a2_strict", _NEGATIVITY),
    "fundamental": ("fundamental_b2_strict", _NEGATIVITY | _CENSUS),
    "verify": ("verify", _NEGATIVITY | _CENSUS | {"rootneg.verification"}),
}
#: further golden cases: above WEYL_ORDER_LIMIT the chamber guard computes the
#: coset index, which loads the census modules, and this one it refuses
_LOADED_MORE = (("class_e7_generic_refused", _PARAMS | _CENSUS),)


def _fresh_process(argv) -> dict:
    done = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def test_each_command_loads_only_the_modules_it_runs():
    # a fresh interpreter per command; a top-level import in cli.py would add
    # its module to every command's set
    assert set(_LOADED) == set(_HELP_COMMANDS)
    for stem, expected in [*_LOADED.values(), *_LOADED_MORE]:
        case = json.loads((REPO_ROOT / "tests" / "golden" / f"{stem}.json")
                          .read_text(encoding="utf-8"))
        doc = _fresh_process(case["argv"])
        assert (doc["exit_code"], doc["stdout"]) == (case["exit_code"], case["stdout"]), stem
        assert set(doc["loaded"]) == expected, stem
        # dataclasses costs a cold process about 10 ms, most of it inspect
        assert not {"dataclasses", "inspect"} & set(doc["added"]), stem


def test_a_cached_nsigma_loads_no_census(tmp_path):
    argv = ["nsigma", "--type", "B3", "--cache-dir", str(tmp_path)]
    miss, hit = _fresh_process(argv), _fresh_process(argv)
    assert miss["exit_code"] == hit["exit_code"] == 0
    assert hit["stdout"] == miss["stdout"]
    assert set(miss["loaded"]) == _CENSUS
    assert set(hit["loaded"]) == _CORE


_BARE_DASH_ARGVS = (
    ("snf", "--matrix", "--"),
    ("class", "--type", "A2", "--re", "--"),
    ("edge", "--type", "A2", "--re", "1,1", "--im", "--"),
    ("negativity", "--type", "A2", "--re", "1,1", "--mode", "weak", "--subspace", "--"),
    ("exponent", "--spherical", "--", "--mu", "1", "--rhoq", "0", "--nu", "0"),
)


@pytest.mark.parametrize("argv", _BARE_DASH_ARGVS, ids=[a[0] for a in _BARE_DASH_ARGVS])
def test_a_bare_double_dash_value_is_refused(capsys, argv):
    # argparse drops a value of exactly "--" and hands the command an empty list
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


_ABBREVIATED_ARGVS = {
    "re-positive": ("class", "--type", "A2", "--r", "1/2,1/2"),
    "re-negative": ("class", "--type", "A2", "--r", "-1/2,1/2"),
    "subspace-positive": ("negativity", "--type", "A2", "--re", "1,1", "--mode", "weak",
                          "--sub", "1,0"),
    "subspace-negative": ("negativity", "--type", "A2", "--re", "1,1", "--mode", "weak",
                          "--sub", "-1,0"),
    "denominator": ("edge", "--type", "A2", "--re", "1/2,1/2", "--den", "2"),
    "type": ("rank-one-bound", "--ty", "A2"),
}


@pytest.mark.parametrize("argv", _ABBREVIATED_ARGVS.values(), ids=_ABBREVIATED_ARGVS.keys())
def test_abbreviated_flags_are_refused(capsys, argv):
    # prefix matching would take a positive value and refuse a negative one
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert "usage:" in err and "Traceback" not in err


_REPEATED_ARGVS = {
    "re": ("--re", ("class", "--type", "A2", "--re", "1/2,1/2", "--re", "1,1")),
    "re-negative": ("--re", ("class", "--type", "A2", "--re", "-1/2,1/2", "--re", "-1,1")),
    "re-joined": ("--re", ("class", "--type", "A2", "--re=1/2,1/2", "--re", "1,1")),
    "type": ("--type", ("build", "--type", "A2", "--type", "B2")),
    "type-joined": ("--type", ("build", "--type=A2", "--type=A2")),
    "method": ("--method", ("subsystems", "--type", "B2", "--method", "bds",
                            "--method", "brute_force")),
    "subspace": ("--subspace", ("negativity", "--type", "A2", "--re", "1,1", "--mode", "weak",
                                "--subspace", "1,0", "--subspace=-1,0")),
    "pretty": ("--pretty", ("snf", "--matrix", "2", "--pretty", "--pretty")),
}


@pytest.mark.parametrize("flag,argv", _REPEATED_ARGVS.values(), ids=_REPEATED_ARGVS.keys())
def test_a_flag_given_twice_is_refused(capsys, flag, argv):
    # argparse would keep the last value without a word
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag} is given twice\n")


@pytest.mark.parametrize("value", ["-1/2", "1/2"])
def test_a_flag_of_another_command_is_quoted_as_typed(capsys, value):
    # only the command's own signed flags are joined to their values
    code, out, err = invoke(capsys, "build", "--type", "A2", "--re", value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --re {value}\n" in err


_HELP_COMMANDS = ("build", "nsigma", "subsystems", "class", "gallery", "edge", "negativity",
                  "fundamental", "exponent", "rank-one-bound", "snf", "verify")


def test_help_text_is_pinned(capsys, monkeypatch):
    # argparse wraps help to the terminal width, so the width is fixed here
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for argv in [["--help"]] + [[name, "--help"] for name in _HELP_COMMANDS]:
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        pages.append(f"$ rootneg {' '.join(argv)}\n{out}")
    expected = (REPO_ROOT / "tests" / "cli_help.txt").read_text(encoding="utf-8")
    assert "".join(pages) == expected


def test_an_invariant_violation_exits_3(capsys, monkeypatch):
    from rootneg import params

    def planted(*args, **kwargs):
        raise AssertionError("planted")

    monkeypatch.setattr(params, "edge", planted)
    code, out, err = invoke(capsys, "edge", "--type", "A2", "--re", "1/2,1/2")
    assert (code, out, err) == (3, "", "internal invariant violation: planted\n")


# rank <= 3 types, each with its rank, and names that must be refused
_FUZZ_TYPES = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C3": 3, "D3": 3, "G2": 2,
               "BC1": 1, "BC2": 2, "BC3": 3, "A1xA1": 2, "A1xG2": 3, "BC1xA2": 3}
_FUZZ_BAD_TYPES = ("BC0", "G3", "Z9", "E5", "A0", "A2x", "", "--", "x")
_FUZZ_BAD_VALUES = ("--", "", " ", "-", ",", ";", "1/0", "a", "1,,2", "1;2", "1,2;3",
                    "--x", "-1/2,", "0x1", "1e3", "nan", "1/2/3")
_FUZZ_FLAGS = {
    "build": ("--type",),
    "nsigma": ("--type", "--method", "--cache-dir"),
    "subsystems": ("--type", "--method"),
    "class": ("--type", "--re", "--im", "--denominator"),
    "gallery": ("--type", "--re", "--im"),
    "edge": ("--type", "--re", "--im", "--denominator"),
    "negativity": ("--type", "--re", "--im", "--mode", "--subspace", "--denominator"),
    "fundamental": ("--type", "--re", "--im", "--mode", "--subspace", "--denominator"),
    "exponent": ("--spherical", "--mu", "--rhoq", "--nu", "--n"),
    "rank-one-bound": ("--type",),
    "snf": ("--matrix",),
    "verify": (),
}
_FUZZ_VALUE_FLAGS = sorted({f for flags in _FUZZ_FLAGS.values() for f in flags})


def _fuzz_argv(rng, cache_dir):
    command = rng.choice(sorted(_FUZZ_FLAGS))
    type_name = rng.choice(sorted(_FUZZ_TYPES))
    rank = _FUZZ_TYPES[type_name]
    width = rng.choice([rank] * 4 + [rank + 1, max(rank - 1, 1)])
    noise = rng.choice([0.0, 0.1, 0.3])  # the chance that a flag loses or spoils its value

    def row():
        return ",".join(rng.choice(["0", "1", "-1", "2", "1/2", "-1/2", "1/3", "-2/3", "1/6"])
                        for _ in range(width))

    def matrix():
        return ";".join(row() for _ in range(rng.randint(0, 3)))

    good = {
        "--type": lambda: type_name, "--re": row, "--im": row, "--mu": row, "--rhoq": row,
        "--nu": row, "--subspace": matrix, "--spherical": matrix,
        "--matrix": lambda: ";".join(",".join(str(rng.randint(-4, 4)) for _ in range(width))
                                     for _ in range(rng.randint(1, 3))),
        "--denominator": lambda: rng.choice(["1", "2", "3", "6", "0", "-2"]),
        "--n": lambda: rng.choice(["1", "2", "6", "0", "-1"]),
        "--mode": lambda: rng.choice(["strict", "weak", "integral", "loose"]),
        "--method": lambda: rng.choice(["bds", "brute_force", "fast"]),
        "--cache-dir": lambda: cache_dir,
    }
    flags = [f for f in _FUZZ_FLAGS[command] if rng.random() >= noise / 2]
    if command == "verify" or rng.random() < 0.1:
        # verify runs the whole property suite, so it only ever gets a stray flag
        flags.append(rng.choice(_FUZZ_VALUE_FLAGS))
    if rng.random() < 0.2:
        flags.append("--pretty")
    argv = [command]
    for flag in flags:
        argv.append(flag)
        roll = rng.random()
        if flag == "--pretty" or roll < noise / 6:
            continue  # the value is missing
        if roll < noise:
            argv.append(rng.choice(_FUZZ_BAD_TYPES if flag == "--type" else _FUZZ_BAD_VALUES))
        else:
            argv.append(good[flag]())
    if rng.random() < 0.2:
        tail = argv[1:]
        rng.shuffle(tail)
        argv = argv[:1] + tail
    return argv


def test_seeded_argv_fuzz_exits_0_2_or_3(capsys, monkeypatch, tmp_path):
    # a malformed --cache-dir value is a relative path that nsigma writes to
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20261019)
    codes = []
    for _ in range(2000):
        argv = _fuzz_argv(rng, str(tmp_path))
        try:
            code = run(argv)
        except BaseException as exc:  # SystemExit too: run returns its code
            pytest.fail(f"{argv!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        codes.append(code)
    # the draw reaches both the computations and the refusals
    assert codes.count(0) > 200 and codes.count(2) > 200
