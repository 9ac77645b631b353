import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from yoklab import NilAlgebra, cli, modrep
from yoklab.algebra import SparseAlgebra
from yoklab.exactla import Subspace

import _helpers as H


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--r", "2", "--n", "3")
    assert code == 0
    assert "dimension = 48" in out
    code, out, _ = run(capsys, "dim", "--r", "2", "--n", "3", "--nil")
    assert code == 0 and "48" in out
    code, out, _ = run(capsys, "dim", "--r", "2", "--n", "2", "--json")
    assert json.loads(out)["dimension"] == 8


def test_dim_builds_no_algebra(monkeypatch, capsys):
    # r^n n! from the formula alone, so a size past the guard answers at
    # once; every payload as before
    def refused(self, *args, **kwargs):
        raise AssertionError("dim built an algebra")

    monkeypatch.setattr(SparseAlgebra, "__init__", refused)
    for r, n, nil, field, dim in [(2, 3, [], "cyclotomic", 48), (2, 3, ["--nil"], "fp:13", 48),
                                  (3, 4, [], "fp:13", 1944), (1, 1, ["--nil"], "cyclotomic", 1),
                                  (2, 9, [], "fp:13", 185794560)]:
        args = ["dim", "--r", str(r), "--n", str(n), "--field", field, "--allow-large", *nil]
        code, out, _ = run(capsys, *args)
        assert (code, out) == (0, f"dimension = {dim}\n")
        code, out, _ = run(capsys, *args, "--json")
        assert code == 0
        assert json.loads(out) == {"schema": "yoklab/1", "r": r, "n": n, "dimension": dim}


def test_limits_guard(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--r", "9", "--n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the guard lifts with the explicit flag
    code, out, _ = run(capsys, "dim", "--r", "5", "--n", "2", "--allow-large")
    assert code == 0 and "50" in out


def test_verify(capsys):
    for pres in ("1", "2"):
        code, out, _ = run(capsys, "verify", "--r", "2", "--n", "2",
                           "--presentation", pres)
        assert code == 0, out
    code, out, _ = run(capsys, "verify", "--r", "2", "--n", "2",
                       "--presentation", "4", "--q", "5", "--field", "fp:13")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--r", "2", "--n", "2",
                       "--presentation", "nil", "--json")
    assert code == 0
    assert json.loads(out)["all_zero"] is True


def test_simples(capsys):
    code, out, _ = run(capsys, "simples", "--r", "2", "--n", "2")
    assert code == 0
    assert "6" in out
    code, out, _ = run(capsys, "simples", "--r", "2", "--n", "2",
                       "--bruteforce", "--list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6 and payload["bruteforce"] == 6
    assert len(payload["labels"]) == 6


Q0_COMMANDS = [
    ["report", "--r", "1", "--n", "2"],
    ["aks-compare", "--r", "1", "--n", "2"],
    ["simples", "--r", "2", "--n", "2"],
    ["radical", "--nil", "--r", "2", "--n", "2"],
    ["radical", "--r", "2", "--n", "2"],
    ["gram", "--r", "2", "--n", "2"],
    ["nakayama", "--r", "2", "--n", "2"],
    ["cells", "--r", "2", "--n", "2"],
]


@pytest.mark.parametrize("argv", [[*cmd, "--q", q] for cmd in Q0_COMMANDS for q in ("5", "0")]
                         + [["simples", "--count", "--r", "2", "--n", "2"]])
def test_removed_flags_exit_2(capsys, argv):
    # only verify and mult take --q; the other commands compute at q = 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


NIL_BLOB = json.dumps({"basis": "NIL", "r": 2, "n": 2,
                       "terms": [{"a": [1, 0], "w": [2, 1], "coeff": "1"}]})


@pytest.mark.parametrize("argv", [
    [*cmd, "--q", q]
    for cmd in (["verify", "--r", "2", "--n", "2", "--presentation", "nil", "--json"],
                ["mult", "--r", "2", "--n", "2", "--nil", "--lhs", NIL_BLOB, "--rhs", NIL_BLOB])
    for q in ("5", "0")])
def test_nil_rejects_q(capsys, argv):
    # the nil algebra has no q; an explicit --q used to be echoed and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_nil_without_q_unchanged(capsys):
    code, out, err = run(capsys, "verify", "--r", "2", "--n", "2",
                         "--presentation", "nil", "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": "yoklab/1", "r": 2, "n": 2, "q": "0",
                               "presentation": "nil", "all_zero": True, "failed": []}
    code, out, _ = run(capsys, "mult", "--r", "2", "--n", "2", "--nil",
                       "--lhs", NIL_BLOB, "--rhs", NIL_BLOB)
    assert code == 0 and json.loads(out)["terms"] == []


def test_mult_roundtrip(capsys):
    alg = H.yalg(2, 2)
    x = alg.gen_g(1)
    blob = json.dumps(alg.element_to_json(x))
    code, out, _ = run(capsys, "mult", "--r", "2", "--n", "2",
                       "--lhs", blob, "--rhs", blob)
    assert code == 0
    parsed = alg.element_from_json(json.loads(out))
    assert parsed == x * x


def test_mult_bad_input(capsys):
    code, _, err = run(capsys, "mult", "--r", "2", "--n", "2",
                       "--lhs", "{not json", "--rhs", "{}")
    assert code == 2
    # well-formed JSON for the wrong algebra counts as bad input
    wrong = json.dumps({"basis": "T", "r": 3, "n": 2,
                        "terms": [{"a": [0, 0], "w": [1, 2], "coeff": "1"}]})
    code, _, err = run(capsys, "mult", "--r", "2", "--n", "2",
                       "--lhs", wrong, "--rhs", wrong)
    assert code == 2
    assert "error" in err


def test_gram_and_export(tmp_path, capsys):
    out_file = tmp_path / "gram.json"
    code, out, _ = run(capsys, "gram", "--r", "1", "--n", "2",
                       "--export", str(out_file))
    assert code == 0
    blob = json.loads(out_file.read_text())
    assert blob["entries"] == [["0", "1"], ["1", "-1"]]
    code, _, _ = run(capsys, "gram", "--r", "2", "--n", "2", "--nil")
    assert code == 0


# sha256 of gram --export files written before the Gram verdict moved to
# the E-basis blocks; the T-basis matrix behind them must not change
EXPORT_SHA256 = {
    ("2", "3", False): "ac882db34a65e869bcb3e99eeeea7a15fa057813fa79dbcdee48784427c88587",
    ("3", "3", False): "4aba869627cac3631a34aaaf3d93ef70f99d7750d8ba18770ce15909eb4082fc",
    ("2", "4", True): "358576a4f4f4d419638d3d8966a2f79b45fc66f2931d1c0521ce64526d5ceab5",
}


@pytest.mark.parametrize("r,n,nil", sorted(EXPORT_SHA256))
def test_gram_export_pinned(tmp_path, capsys, r, n, nil):
    out_file = tmp_path / "gram.json"
    code, _, _ = run(capsys, "gram", "--r", r, "--n", n, "--field", "fp:13",
                     *(["--nil"] if nil else []), "--export", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == EXPORT_SHA256[r, n, nil]


def test_gram_export_unwritable(tmp_path, capsys):
    # the empty path too is a path that cannot be written, not an absent one
    for path in (str(tmp_path / "missing" / "x.json"), ""):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gram", "--r", "2", "--n", "2", "--export", path])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_gram_names_the_singular_block(monkeypatch, capsys):
    # the line names the first color of the singular class: (2, 1, 2) has
    # the pattern of (1, 2, 1), and on the nil algebra every color shares
    # one block
    for mutated, named, nil in [((1, 2, 1), (1, 2, 1), []), ((2, 1, 2), (1, 2, 1), []),
                                ((2, 2, 1), (1, 1, 1), ["--nil"])]:
        monkeypatch.undo()
        H.singular_block_mutant(monkeypatch, mutated)
        args = ["gram", "--r", "2", "--n", "3", "--field", "fp:13", *nil]
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert out.splitlines()[0] == f"gram matrix 48x48: SINGULAR (block c = {named})"
        code, out, _ = run(capsys, *args, "--json")
        assert code == 1
        payload = json.loads(out)
        assert sorted(payload) == ["dimension", "gram_invertible", "n", "r", "schema",
                                   "witness_ok"]
        assert payload["gram_invertible"] is False


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_nakayama_rejects_samples_below_1(capsys, samples):
    # zero pairs would be a vacuous "ok"
    with pytest.raises(SystemExit) as exc:
        cli.main(["nakayama", "--r", "2", "--n", "2", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_nakayama(capsys):
    code, out, _ = run(capsys, "nakayama", "--r", "2", "--n", "2", "--exhaustive")
    assert code == 0
    code, out, _ = run(capsys, "nakayama", "--r", "2", "--n", "2",
                       "--samples", "20", "--nil", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cells_json_frozen():
    # also pins the example shape: two cells at (1,2), classification matches
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["cells", "--r", "1", "--n", "2", "--json"])
    assert code == 0
    payload = json.loads(buf.getvalue())
    assert payload["count"] == 2
    assert payload["match"] is True
    assert payload["triangular"] is True


def test_radical(capsys):
    code, out, _ = run(capsys, "radical", "--r", "2", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["power_dims"] == [2, 0]
    code, out, _ = run(capsys, "radical", "--r", "2", "--n", "3", "--nil", "--json")
    assert code == 0
    assert json.loads(out)["power_dims"] == [40, 24, 8, 0]


def test_aks_compare(capsys):
    code, out, _ = run(capsys, "aks-compare", "--r", "2", "--n", "2")
    assert code == 0
    assert "ok" in out and "MISMATCH" not in out


def test_report_deterministic(capsys):
    code, out1, _ = run(capsys, "report", "--r", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out1)
    assert payload["all_ok"] is True
    assert payload["schema"] == "yoklab/1"
    code, out2, _ = run(capsys, "report", "--r", "1", "--n", "2")
    assert out1 == out2


def _drop_a_nil_simple(monkeypatch):
    sweep = modrep.enumerate_one_dim_bruteforce
    monkeypatch.setattr(modrep, "enumerate_one_dim_bruteforce",
                        lambda alg: sweep(alg)[1:] if isinstance(alg, NilAlgebra) else sweep(alg))
    return ["simples", "--nil"]


def _drop_a_nil_radical_row(monkeypatch):
    radical = NilAlgebra.radical

    def dropped(self):
        rows = dict(radical(self).rows)
        del rows[next(iter(rows))]
        return Subspace(self.field, rows)

    monkeypatch.setattr(NilAlgebra, "radical", dropped)
    return ["radical", "--nil"]


@pytest.mark.parametrize("plant", [_drop_a_nil_simple, _drop_a_nil_radical_row])
def test_report_judges_the_nil_values_it_prints(monkeypatch, capsys, plant):
    # one nil simple too few, or a radical one row short (codimension
    # r^n + 1): report prints the wrong value and fails on it, as the
    # subcommand that shares its verdict does
    size = ["--r", "2", "--n", "2", "--field", "fp:13"]
    code, out, _ = run(capsys, "report", *size)
    assert code == 0
    good = json.loads(out)["nil"]
    subcommand = plant(monkeypatch)
    code, out, _ = run(capsys, "report", *size)
    payload = json.loads(out)
    assert code == 1 and payload["all_ok"] is False
    assert payload["nil"] != good
    assert run(capsys, *subcommand, *size)[0] == 1


def test_field_argument(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3", "--n", "2",
                       "--presentation", "1", "--field", "fp:13")
    assert code == 0
    # 14 is composite, F_5 lacks cube roots of unity: both are config errors
    for bad in ("fp:14", "fp:5", "fp:x", "gf:13"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--r", "3", "--n", "2",
                      "--presentation", "1", "--field", bad])
        assert exc.value.code == 2
        capsys.readouterr()


GOOD_T = {"basis": "T", "r": 2, "n": 3,
          "terms": [{"a": [0, 1, 0], "w": [2, 1, 3], "coeff": "1"}]}


def mult_rejects(capsys, lhs, *extra):
    """mult exits 2 with a one-line message and no product on stdout."""
    code, out, err = run(capsys, "mult", "--r", "2", "--n", "3", *extra,
                         "--lhs", json.dumps(lhs), "--rhs", json.dumps(GOOD_T))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mult_rejects_short_color_vector(capsys):
    mult_rejects(capsys, {"basis": "E", "r": 2, "n": 3,
                          "terms": [{"chi": [1, 2], "w": [1, 2, 3], "coeff": "1"}]})


def test_mult_rejects_non_string_coeff(capsys):
    mult_rejects(capsys, {**GOOD_T, "terms": [{"a": [0, 1, 0], "w": [2, 1, 3],
                                               "coeff": 1}]})


def test_mult_rejects_non_object_element(capsys):
    mult_rejects(capsys, [GOOD_T])
    mult_rejects(capsys, {**GOOD_T, "terms": [["a", [0, 1, 0]]]})
    mult_rejects(capsys, {**GOOD_T, "terms": {"a": [0, 1, 0]}})
    mult_rejects(capsys, {**GOOD_T, "basis": ["T"]})


def test_mult_rejects_wrong_length_exponents(capsys):
    # these used to be truncated by zip and multiplied as if well formed
    for a in ([0, 1, 0, 1], [1]):
        bad = {**GOOD_T, "terms": [{"a": a, "w": [2, 1, 3], "coeff": "1"}]}
        mult_rejects(capsys, bad)
        mult_rejects(capsys, {**bad, "basis": "NIL"}, "--nil")
    mult_rejects(capsys, {**GOOD_T, "terms": [{"a": [0, 1, True], "w": [2, 1, 3],
                                               "coeff": "1"}]})
    mult_rejects(capsys, {**GOOD_T, "terms": [{"a": [0, 1, 0], "w": [2, 1],
                                               "coeff": "1"}]})


def test_mult_rejects_non_integer_parameters(capsys):
    # r and n of an element follow the vector rule: 2.0 and true are no
    # integers, though they compare equal to 2 and 1
    for r, n, bad in [(2, 3, {"r": 2.0}), (2, 3, {"n": 3.0}), (1, 3, {"r": True}),
                      (2, 1, {"n": True}), (2, 3, {"n": "3"})]:
        good = {"basis": "T", "terms": [{"a": [0] * n, "w": list(range(1, n + 1)),
                                         "coeff": "1"}]}
        code, out, err = run(capsys, "mult", "--r", str(r), "--n", str(n),
                             "--lhs", json.dumps({**good, **bad}), "--rhs", json.dumps(good))
        assert code == 2
        assert out == ""
        assert err == "error: element parameters do not match this algebra\n"
        # the same element with integer parameters multiplies
        code, _, _ = run(capsys, "mult", "--r", str(r), "--n", str(n),
                         "--lhs", json.dumps({**good, "r": r, "n": n}), "--rhs", json.dumps(good))
        assert code == 0


@pytest.mark.parametrize("r,field", [("2", "bogus"), ("4", "fp:7"), ("2", "fp:x"),
                                     ("2", "fp:1000000000000000000000000000057")])
def test_dim_validates_field(capsys, r, field):
    # dim used to build its algebra over the default field and exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--r", r, "--n", "2", "--field", field])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--list", "--bruteforce"])
def test_nil_simples_rejects_y_flags(capsys, flag):
    # both flags used to be ignored under --nil
    with pytest.raises(SystemExit) as exc:
        cli.main(["simples", "--nil", "--r", "2", "--n", "2", flag])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: simples --nil takes no {flag}\n"


def test_nil_simples_are_computed(monkeypatch, capsys):
    # the nil count comes from the relation sweep, so a sweep that keeps
    # nothing must fail the verdict
    code, out, _ = run(capsys, "simples", "--nil", "--r", "2", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": "yoklab/1", "r": 2, "n": 3, "nil": True,
                               "count": 8, "expected": 8, "ok": True}
    monkeypatch.setattr(modrep, "check_one_dim", lambda alg, rep: False)
    code, out, _ = run(capsys, "simples", "--nil", "--r", "2", "--n", "3")
    assert code == 1
    assert out == "one-dimensional simples: 0 (expected 8)\n"


def test_usage_error_then_verdict_in_one_process(capsys):
    # the parser is built once and reused, so a failed parse must leave it
    # fit for the next call
    with pytest.raises(SystemExit) as exc:
        cli.main(["gram", "--r", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err
    code, out, _ = run(capsys, "gram", "--r", "2", "--n", "3", "--field", "fp:13", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": "yoklab/1", "r": 2, "n": 3, "dimension": 48,
                               "gram_invertible": True, "witness_ok": True}
    assert cli.build_parser() is cli.build_parser()


def test_cli_import_leaves_dataclasses_out():
    # pytest itself imports dataclasses, so only a fresh interpreter can tell
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, yoklab.cli; sys.exit('dataclasses' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_closed_pipe_gives_no_traceback():
    # the output is larger than a pipe buffer, so the write that follows
    # the reader's exit is sure to fail
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "yoklab.cli", "simples", "--r", "4", "--n", "4",
         "--field", "fp:13", "--list", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
