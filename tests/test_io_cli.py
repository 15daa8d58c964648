"""Module/report file formats and the command-line surface."""

import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expfilt
from expfilt import coalgebras, linalg
from expfilt.cli import main
from expfilt.comodule import conjugate, restrict_frobenius, trivial_comodule
from expfilt.expdeg import frobenius_twist
from expfilt.fpcomb import PrimeField
from expfilt.ga import (
    GaUFamily,
    family_to_comodule,
    regular_comodule,
    regular_trunc_comodule,
    y_r_family,
)
from expfilt.io import (
    U_INDEX_BOUND,
    ModuleFileError,
    canonical_dumps,
    load_module,
    module_to_doc,
    parse_module,
    save_module,
)
from expfilt.polyring import parse_poly, parse_terms
from expfilt.samplers import random_invertible
from expfilt.un import UNContext, natural_rep, sym_square_rep
from expfilt.verify import SUITES
from test_comodule import matrix_comodule

F3 = PrimeField(3)


def natural_u3_doc():
    return module_to_doc(natural_rep(UNContext(F3, 3)))


def _golden_modules() -> dict:
    """One module from every builder that writes the action table, by label."""
    from expfilt.comodule import conjugate, direct_sum, quotient_by_subspace, restrict_to_subspace
    from expfilt.expdeg import frobenius_twist
    from expfilt.ga import family_to_comodule
    from expfilt.samplers import random_invertible
    from expfilt.un import (
        degree_filtration_un,
        degree_piece_comodule,
        restrict_mat_to_un,
        sym_square_rep_gl,
    )

    F5 = PrimeField(5)
    ctx = UNContext(F3, 3)
    pieces = [natural_rep(ctx), sym_square_rep(ctx), trivial_comodule(F3, ctx.coalgebra, 1)]
    summed = direct_sum(pieces)
    C = conjugate(summed, random_invertible(F3, summed.dim, random.Random(2017)))
    S = degree_filtration_un(C, 2)  # dim 7 of 10
    return {
        "natural U_3 p=3": natural_rep(ctx),
        "sym square U_3 p=3": sym_square_rep(ctx),
        "degree piece U_4 p=5 d=4": degree_piece_comodule(UNContext(F5, 4), 4),
        "regular F_3 D=27": regular_comodule(F3, 27),
        "conjugated sum": C,
        "restricted": restrict_to_subspace(C, S),
        "quotient": quotient_by_subspace(C, S),
        "y_3 family F_5": family_to_comodule(y_r_family(F5, 3)),
        "frobenius kernel of sym square": restrict_frobenius(sym_square_rep(ctx), 1),
        "frobenius twist of natural": frobenius_twist(natural_rep(ctx)),
        "regular F_3 D=27 mod T^9": restrict_frobenius(regular_comodule(F3, 27), 2),
        "sym square GL_3 on U_3": restrict_mat_to_un(sym_square_rep_gl(F3, 3)),
    }


# sha256 of canonical_dumps(module_to_doc(M)), taken when every comodule still
# stored a polynomial matrix: the action-table builders write the same bytes
GOLDEN_SHA256 = {
    "natural U_3 p=3": "07d49721e8ee1e350322cbb7677c4f7a9b4f5c02cac30e5bc108429d16e6a587",
    "sym square U_3 p=3": "940d2f8559465661cd7c52c3bd757aea3a5750b55b7050223df61e199a5e92f9",
    "degree piece U_4 p=5 d=4": "d84d349de1c5c86e3b0e78c9366fa05d608e2da8f53cffe25e057d6ad0b6d9c9",
    "regular F_3 D=27": "ed90acfdab65afd7c0d70239231e3caa03add97aec4b9dd67c51677f5b08b119",
    "conjugated sum": "7374883324ac80dc56ff2a54f6f0bccce42feeadb991e018888e45a80eb1975d",
    "restricted": "d1d79bd1e853d3cf7bcd7fb676c8ed300e874a2d1961e563b3785f8092803b70",
    "quotient": "7a3fd0bfb9c1f692b09fe866e12a70b83eca783dbf8646f5b68ac98d4ce197bf",
    "y_3 family F_5": "e4eaea848b44923c55ce47299dc2a29f8a5c05574e06ef878711e5750a85474d",
    "frobenius kernel of sym square": "856f7459a2d2cd35ddb61abe249826aead3e78dab448c6041ec95d494eaff50a",
    "frobenius twist of natural": "00bb3b7d69c70bfff999e8ea2cb709803259625e63441c6c50dc87012ac3c259",
    "regular F_3 D=27 mod T^9": "c72b08aa6ac963c0f619d31c8bbbd545ddf0e6e6052a54fcdd90e6665019bf5a",
    "sym square GL_3 on U_3": "940d2f8559465661cd7c52c3bd757aea3a5750b55b7050223df61e199a5e92f9",
}


class TestModuleFile:
    def test_roundtrip_comodule(self):
        doc = natural_u3_doc()
        M = parse_module(doc)
        assert module_to_doc(M) == doc

    def test_roundtrip_family(self):
        fam = y_r_family(F3, 2)
        doc = module_to_doc(fam)
        back = parse_module(doc)
        assert module_to_doc(back) == doc

    def test_canonical_serialization_is_byte_stable(self):
        doc = natural_u3_doc()
        text = canonical_dumps(doc)
        again = canonical_dumps(module_to_doc(parse_module(json.loads(text))))
        assert text == again

    def test_golden_serialization(self):
        modules = _golden_modules()
        assert modules.keys() == GOLDEN_SHA256.keys()
        for label, M in modules.items():
            text = canonical_dumps(module_to_doc(M))
            assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[label], label

    def test_load_files_the_table_the_matrix_oracle_reads(self):
        """parse_module's acts, key order and entry order included, against
        the matrix oracle on the parsed strings, for the golden modules and
        the fuzz bases in three bases each."""
        modules = dict(_golden_modules())
        for base, build in _FUZZ_BASES.items():
            obj = build()
            for seed in range(3):
                changed = _base_changed(obj, seed) if seed else obj
                if isinstance(changed, GaUFamily):
                    changed = family_to_comodule(changed)
                modules[f"{base}, base {seed}"] = changed
        for label, M in modules.items():
            doc = module_to_doc(M)
            rows = doc["module"]["coaction"]
            matrix = [[parse_poly(t, M.field) for t in row] for row in rows]
            want = matrix_comodule(M.field, M.coalgebra, M.dim, matrix)
            got = parse_module(doc)
            assert list(got.acts.items()) == list(want.acts.items()), label
            assert got == M, label
            assert module_to_doc(got) == doc, label

    def test_one_memo_parses_like_parse_poly(self):
        """One term-body memo shared over every string of the golden modules,
        the fuzz bases and the fuzz terms gives each string's ``parse_poly``
        terms, in order, or its ValueError text."""
        texts = [(F3, t) for t in _TERMS + _JUNK]
        for M in (*_golden_modules().values(), *(build() for build in _FUZZ_BASES.values())):
            if isinstance(M, GaUFamily):
                M = family_to_comodule(M)
            texts.extend((M.field, t) for row in module_to_doc(M)["module"]["coaction"] for t in row)
        memo = {}
        for field, text in texts:
            try:
                want = list(parse_poly(text, field).terms.items())
            except ValueError as exc:
                want = str(exc)
            try:
                got = list(parse_terms(text, field.p, memo).items())
            except ValueError as exc:
                got = str(exc)
            assert got == want, text
        assert len(memo) > 100

    def test_validation_failures_rejected(self):
        doc = natural_u3_doc()
        doc["module"]["coaction"][0][1] = "x1_2 + 1"  # counit violation
        with pytest.raises(ModuleFileError):
            parse_module(doc)

    def test_nesting_past_the_recursion_limit_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        with pytest.raises(ModuleFileError, match="nested too deeply"):
            load_module(str(path))

    def test_trunc_group_kinds(self):
        from expfilt.ga import regular_comodule

        M = restrict_frobenius(regular_comodule(F3, 3), 1)
        doc = module_to_doc(M)
        assert doc["group"] == {"kind": "GaTrunc", "r": 1}
        back = parse_module(doc)
        assert back.coalgebra == coalgebras.ga_trunc(1)

    def test_u_mats_need_ga_kind(self):
        doc = module_to_doc(y_r_family(F3, 1))
        doc["group"] = {"kind": "UN", "N": 2}
        with pytest.raises(ModuleFileError):
            parse_module(doc)


E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]


def run_cli_process(args, timeout):
    """(CompletedProcess, seconds) of the CLI in a fresh interpreter.

    The interpreter is killed after ``timeout`` seconds, which raises
    ``subprocess.TimeoutExpired``.
    """
    src = str(pathlib.Path(expfilt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys; from expfilt.cli import main; sys.exit(main(sys.argv[1:]))"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)
    return done, time.perf_counter() - start


@pytest.fixture()
def module_file(tmp_path):
    def write(obj, name="module.json"):
        path = tmp_path / name
        path.write_text(canonical_dumps(module_to_doc(obj)), encoding="utf-8")
        return str(path)

    return write


class TestCli:
    def test_carries_plain(self, capsys):
        assert main(["carries", "4", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["basis"] == [0, 4]

    def test_carries_zero(self, capsys):
        assert main(["carries", "0", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["basis"] == [0]

    def test_carries_oracle(self, capsys):
        assert main(["carries", "10", "3", "--oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["basis"] == [0, 1, 9, 10]
        assert out["agrees"]

    def test_carries_oracle_past_desk_guard_exits_2_fast(self):
        # the oracle's regular comodule of dimension n + 1 has (n+1)(n+2)/2
        # coaction entries: 50,015,001 at n = 10^4
        done, elapsed = run_cli_process(["carries", "10000", "3", "--oracle"], timeout=10)
        assert done.returncode == 2, done.stderr
        assert elapsed < 1.0
        assert done.stdout == "" and done.stderr.count("\n") == 1
        assert done.stderr.startswith("error: --oracle: the 50015001 coaction entries")

    def test_carries_oracle_agrees_below_the_guard(self, capsys):
        assert main(["carries", "1000", "3", "--oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["agrees"] and out["oracle"] == out["basis"]

    def test_filt_exp_natural_u3(self, module_file, capsys):
        path = module_file(natural_rep(UNContext(F3, 3)))
        assert main(["filt", path, "--kind", "exp", "--d", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "dim 2 of 3"
        assert lines[1:] == ["1 0 0", "0 1 0"]

    def test_filt_trivial_full(self, module_file, capsys):
        path = module_file(trivial_comodule(F3, coalgebras.un_poly(3), 2))
        assert main(["filt", path, "--kind", "degree", "--d", "1"]) == 0
        assert capsys.readouterr().out.startswith("dim 2 of 2")

    def test_filt_corrupted_counit_exits_2(self, tmp_path, capsys):
        doc = natural_u3_doc()
        doc["module"]["coaction"][0][1] = "x1_2 + 1"
        path = tmp_path / "bad.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        assert main(["filt", str(path), "--kind", "degree", "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert "counit" in err

    def test_expdeg_trivial(self, module_file, capsys):
        path = module_file(trivial_comodule(F3, coalgebras.un_poly(3), 2))
        assert main(["expdeg", path]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_expdeg_natural_u3(self, module_file, capsys):
        path = module_file(natural_rep(UNContext(F3, 3)))
        assert main(["expdeg", path]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_expdeg_y3_raw_and_height(self, module_file, capsys):
        path = module_file(y_r_family(PrimeField(5), 3))
        assert main(["expdeg", path]) == 0
        assert capsys.readouterr().out.strip() == "125"
        assert main(["expdeg", path, "--scale", "height"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_support_deterministic(self, module_file, capsys):
        path = module_file(y_r_family(F3, 2))
        assert main(["support", path, "--samples", "10", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["support", path, "--samples", "10", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert len(doc["checks"]) == 10
        assert all(rec["verdict"] for rec in doc["checks"])
        assert all(rec["law"] == "support-not-free" for rec in doc["checks"])

    def test_support_exhaustive_un(self, module_file, capsys):
        M = natural_rep(UNContext(PrimeField(2), 3))
        path = module_file(M)
        assert main(["support", path, "--exhaustive", "--height", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["checks"]) == 6  # the F_2 points with B^2 = 0
        # dim 3 is odd, so every sample lies in the support
        assert all(rec["verdict"] for rec in doc["checks"])

    def test_support_not_in_support_for_free_module(self, module_file, capsys):
        from expfilt.ga import regular_comodule

        path = module_file(regular_comodule(F3, 3))
        assert main(["support", path, "--samples", "8", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for rec in doc["checks"]:
            if rec["inputs"]["lambdas"][0] != 0 and not any(
                rec["inputs"]["lambdas"][1:]
            ):
                assert not rec["verdict"]

    def test_pullback(self, module_file, capsys):
        path = module_file(natural_rep(UNContext(F3, 2)))
        psi = json.dumps({"kind": "UN", "mats": [[[0, 1], [0, 0]]]})
        assert main(["pullback", path, "--psi", psi]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["module"]["u_mats"] == {"0": [[0, 1], [0, 0]]}

    def test_pullback_empty_psi_is_trivial(self, module_file, capsys):
        # N comes from the module, so a height-0 subgroup needs no matrix
        path = module_file(natural_rep(UNContext(F3, 2)))
        assert main(["pullback", path, "--psi", '{"kind": "UN", "mats": []}']) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["module"]["u_mats"] == {}

    @pytest.mark.parametrize(
        "mats, u_mats",
        [
            ([], {}),
            ([[[0, 1], [0, 0]]], {"19": [[0, 1], [0, 0]]}),
            ([[[0, 1], [0, 0]], [[0, 2], [0, 0]]], {"19": [[0, 1], [0, 0]], "20": [[0, 2], [0, 0]]}),
        ],
        ids=["trivial", "height-1", "height-2"],
    )
    def test_pullback_of_a_high_frobenius_twist_is_fast(self, tmp_path, capsys, mats, u_mats):
        # x1_2 -> x1_2^(3^19) is the 19th Frobenius twist of the natural module;
        # along psi it pulls back to a sum of T^(3^(19+s)), one term per level
        path = tmp_path / "twist.json"
        doc = {"p": 3, "group": {"kind": "UN", "N": 2},
               "module": {"dim": 2, "coaction": [["1", f"x1_2^{3**19}"], ["0", "1"]]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main(["pullback", str(path), "--psi", json.dumps({"kind": "UN", "mats": mats})]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["module"]["u_mats"] == u_mats

    def test_tall_subgroup_pullback_finishes(self, module_file, capsys):
        # psi = prod_s exp_J(T^{3^s}) over 16 places, J = E12 + E23: of the
        # 3^16 digit vectors only the 153 with digit sum <= 2 give a nonzero
        # coefficient, and the natural module pulls back to u_s = J
        from expfilt.support import pullback_module, un_psg

        J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        M = natural_rep(UNContext(F3, 3))
        start = time.perf_counter()
        fam = pullback_module(M, un_psg(F3, 3, [J] * 16))
        assert time.perf_counter() - start < 1.0
        assert fam.u_mats == {s: J for s in range(16)}
        path = module_file(M)
        start = time.perf_counter()
        assert main(["pullback", path, "--psi", json.dumps({"kind": "UN", "mats": [J] * 16})]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out)["module"]["u_mats"] == {str(s): J for s in range(16)}

    @pytest.mark.parametrize(
        "module, lambdas, code, want",
        [
            ({"dim": 2, "u_mats": {"19": E21}}, [1, 1], 0, {"19": E21, "20": E21}),
            ({"dim": 2, "coaction": [["1", f"T^{3**19}"], ["0", "1"]]}, [1, 1, 1], 0,
             {"19": E12, "20": E12, "21": E12}),
            ({"dim": 2, "coaction": [["1", f"T^{3**19 - 1}"], ["0", "1"]]}, [1, 1, 1], 2, "guard"),
        ],
        ids=["u19-family", "twist-coaction", "over-guard"],
    )
    def test_ga_pullback_of_a_high_power_finishes(self, tmp_path, module, lambdas, code, want):
        # T^(3^19) pulls back along (lambda_s) to sum_s lambda_s T^(3^(19+s)),
        # one u per level; T^(3^19 - 1) has nineteen digits 2 and is
        # rejected by the desk-scale guard.  A fresh interpreter, killed at
        # 10 s, runs each case, so a hang fails the test instead of stalling it.
        path = tmp_path / "ga.json"
        path.write_text(json.dumps({"p": 3, "group": {"kind": "Ga"}, "module": module}),
                        encoding="utf-8")
        psi = json.dumps({"kind": "Ga", "lambdas": lambdas})
        done, elapsed = run_cli_process(["pullback", str(path), "--psi", psi], timeout=10)
        assert done.returncode == code, done.stderr
        assert elapsed < 2.0
        if code == 0:
            assert json.loads(done.stdout)["module"]["u_mats"] == want
        else:
            assert done.stderr.startswith("error:") and want in done.stderr

    @pytest.mark.parametrize(
        "psi, reason",
        [
            ("[1]", "JSON object"),
            ('{"kind": "UN", "mats": 5}', "'mats'"),
            ('{"kind": "UN", "mats": [[[0, 1.5], [0, 0]]]}', "'mats'"),
            ('{"kind": "UN", "mats": [[[0, true], [0, 0]]]}', "'mats'"),
            ('{"kind": "UN", "mats": [[0, 1]]}', "'mats'"),
            ('{"kind": "Ga", "lambdas": "1"}', "'lambdas'"),
            ('{"kind": "UN", "mats": [[[0, 0], [1, 0]]]}', "strictly upper triangular"),
            ('{"kind": "UN", "mats": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]]}', "not N x N"),
            ('{"kind": "XY"}', "kind"),
            ("[" * 5000, "nested too deeply"),
        ],
        ids=["not-object", "mats-int", "float-entry", "bool-entry", "flat-mats", "lambdas-str",
             "lower", "3x3-for-N=2", "bad-kind", "deep"],
    )
    def test_pullback_bad_psi_exits_2(self, module_file, capsys, psi, reason):
        path = module_file(natural_rep(UNContext(F3, 2)))
        assert main(["pullback", path, "--psi", psi]) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and reason in line for line in err.splitlines())

    def test_pullback_un_psi_on_ga_module_exits_2(self, module_file, capsys):
        from expfilt.ga import regular_comodule

        path = module_file(regular_comodule(F3, 3))
        assert main(["pullback", path, "--psi", '{"kind": "UN", "mats": []}']) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_frobcheck(self, module_file, capsys):
        from expfilt.ga import regular_comodule

        path = module_file(regular_comodule(F3, 3))
        assert main(["frobcheck", path, "--r", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["free"] is True
        assert main(["frobcheck", path, "--r", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["free"] is False

    def test_dims(self, capsys):
        assert main(["dims", "--N", "3", "--p", "2", "--r", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_kernel"] == 8
        assert doc["dim_piece_strict"] == 4
        assert doc["formula_discrepancy"] is True

    def test_verify_suite_pass(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["verify", "--suite", "retract", "--output", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["suite"] == "retract"
        assert all(rec["verdict"] for rec in doc["checks"])
        assert all("law" in rec for rec in doc["checks"])

    def test_verify_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "no-such-suite"]) == 2

    def test_verify_deterministic(self, capsys):
        assert main(["verify", "--suite", "dims", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "dims", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_primed_variable_exits_2(self, tmp_path):
        """x1_2' is not in the polynomial grammar: exit 2, an error line, no traceback."""
        doc = natural_u3_doc()
        doc["module"]["coaction"][0][1] = "x1_2'"
        path = tmp_path / "primed.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        done, _ = run_cli_process(["expdeg", str(path)], timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr

    def test_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["expdeg", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["expdeg", "{tmp}/missing.json"], "No such file"),
            (["expdeg", "{tmp}"], "directory"),
            (["expdeg", "{tmp}/deep.json"], "nested too deeply"),
            (["expdeg", "{tmp}/module.json", "--output", "{tmp}/no-dir/out.txt"], "No such file"),
            (["expdeg", "{tmp}/module.json", "--output", "{tmp}"], "directory"),
        ],
        ids=["missing", "directory", "deep", "output-in-missing-dir", "output-is-directory"],
    )
    def test_unreadable_input_or_output_exits_2(self, tmp_path, capsys, argv, reason):
        """One error line on stderr and exit 2, where the file calls raised
        an OSError or a RecursionError traceback before."""
        (tmp_path / "module.json").write_text(canonical_dumps(natural_u3_doc()), encoding="utf-8")
        (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert reason in captured.err

    def test_missing_file_exits_2_without_traceback(self, tmp_path):
        done, _ = run_cli_process(["expdeg", str(tmp_path / "missing.json")], timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("height", [0, -1])
    @pytest.mark.parametrize("kind", ["UN", "Ga"])
    def test_support_exhaustive_height_below_1_exits_2(self, module_file, capsys, kind, height):
        M = natural_rep(UNContext(F3, 3)) if kind == "UN" else regular_comodule(F3, 3)
        path = module_file(M)
        assert main(["support", path, "--exhaustive", "--height", str(height)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --height must be at least 1, got {height}\n"

    @pytest.mark.parametrize(
        "argv, group",
        [
            (["frobcheck", "{regular}", "--r", "300000000"], None),
            (["dims", "--N", "3", "--p", "3", "--r", "300000000"], None),
            (["support", "{regular}", "--exhaustive", "--height", "1000000000"], None),
            (["expdeg", "{group}"], {"kind": "GaTrunc", "r": 10**9}),
            (["expdeg", "{group}"], {"kind": "UNTrunc", "N": 3, "r": 10**9}),
            (["expdeg", "{group}"], {"kind": "UN", "N": 10**9}),
            (["carries", str(3**20 - 1), "3"], None),
        ],
        ids=["frobcheck-r", "dims-r", "ga-support-height", "GaTrunc-r", "UNTrunc-r", "UN-N",
             "carries"],
    )
    def test_past_desk_guard_exits_2_fast(self, tmp_path, argv, group):
        # each size is checked before anything of that size is formed: p^r,
        # p^(r*m), the p^h Ga subgroups, the (N-1)N(N+4)/6 generator
        # coproduct terms of k[U_N] or the 3^20 carries-basis elements
        regular = tmp_path / "regular.json"
        save_module(regular_comodule(F3, 5), str(regular))
        if group is not None:
            doc = {"p": 3, "group": group, "module": {"dim": 1, "coaction": [["1"]]}}
            (tmp_path / "group.json").write_text(json.dumps(doc), encoding="utf-8")
        args = [a.format(regular=regular, group=tmp_path / "group.json") for a in argv]
        done, elapsed = run_cli_process(args, timeout=10)
        assert done.returncode == 2, done.stderr
        assert elapsed < 2.0
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error:")
        assert "desk-scale guard" in done.stderr and "Traceback" not in done.stderr

    def test_un_group_size_limit_is_n_180(self):
        # (N-1)N(N+4)/6 generator coproduct terms: 988,080 at N = 180,
        # 1,004,550 at N = 181
        from expfilt.io import _coalgebra_from_group

        assert _coalgebra_from_group({"kind": "UN", "N": 180}, F3) == coalgebras.un_poly(180)
        with pytest.raises(ModuleFileError, match="1004550 generator coproduct terms"):
            _coalgebra_from_group({"kind": "UN", "N": 181}, F3)

    @pytest.mark.parametrize("index", [10**4, 10**7])
    def test_u_mats_index_past_the_bound_exits_2(self, tmp_path, index):
        # every Ga command works with T^(p^s): at s = 10^4 and 10^5 expdeg
        # failed on Python's int-to-str digit limit, after 7 s at 10^5
        path = tmp_path / "family.json"
        doc = {"p": 3, "group": {"kind": "Ga"}, "module": {"dim": 2, "u_mats": {str(index): E21}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        done, _ = run_cli_process(["expdeg", str(path)], timeout=10)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == f"error: u_mats index {index} is outside [0, {U_INDEX_BOUND}]\n"

    def test_u_mats_index_bound_admits_64(self):
        assert U_INDEX_BOUND == 64
        doc = {"p": 3, "group": {"kind": "Ga"}, "module": {"dim": 2, "u_mats": {"64": E21}}}
        assert sorted(parse_module(doc).u_mats) == [64]

    def test_pullback_past_the_u_mats_index_bound_exits_2(self, module_file, capsys):
        # a height-70 subgroup gives u_0 .. u_69, which no module file holds
        path = module_file(natural_rep(UNContext(F3, 3)))
        psi = json.dumps({"kind": "UN", "mats": [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]] * 70})
        assert main(["pullback", path, "--psi", psi]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: u_mats index 65 is outside [0, 64]\n"

    @pytest.mark.parametrize(
        "module",
        [
            {"dim": 1, "coaction": [[5]]},  # entry is not a polynomial string
            {"dim": 1, "coaction": 7},  # coaction is not a list of rows
        ],
        ids=["int-entry", "int-coaction"],
    )
    def test_malformed_coaction_exits_2(self, tmp_path, capsys, module):
        path = tmp_path / "malformed.json"
        doc = {"p": 3, "group": {"kind": "Ga"}, "module": module}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["expdeg", str(path)]) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())

    _COACTION = '"module": {"dim": 1, "coaction": [["1"]]}'

    @pytest.mark.parametrize(
        "text, message",
        [
            ("null", "module file must be a JSON object"),
            ("3", "module file must be a JSON object"),
            ("[]", "module file must be a JSON object"),
            ('{"group": {"kind": "Ga"}, ' + _COACTION + "}", "missing field 'p'"),
            ('{"p": null, "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": "x", "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": Infinity, "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"dim": null, "coaction": [["1"]]}}',
             "field 'dim' must be an integer"),
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"coaction": [["1"]]}}',
             "missing field 'dim'"),
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"dim": null, "u_mats": {"0": [[0]]}}}',
             "field 'dim' must be an integer"),
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"u_mats": {"a": [[0]]}}}',
             "u_mats index 'a' must be an integer"),
            ('{"p": 3, "group": {"kind": "GaTrunc", "r": null}, ' + _COACTION + "}",
             "group 'GaTrunc' field 'r' must be an integer"),
            ('{"p": 3, "group": {"kind": "UN"}, ' + _COACTION + "}",
             "missing group 'UN' field 'N'"),
            ('{"p": 3.7, "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": 3.0, "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": 3, "group": {"kind": "UN", "N": 2.9}, ' + _COACTION + "}",
             "group 'UN' field 'N' must be an integer"),
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"dim": 2.5, "coaction": [["1"]]}}',
             "field 'dim' must be an integer"),
            ('{"p": true, "group": {"kind": "Ga"}, ' + _COACTION + "}",
             "field 'p' must be an integer"),
            ('{"p": 3, "group": {"kind": "GaTrunc", "r": false}, ' + _COACTION + "}",
             "group 'GaTrunc' field 'r' must be an integer"),
            ('{"p": 3, "group": {"kind": "Ga"}, '
             '"module": {"u_mats": {"0": [[false, false], [true, false]]}}}',
             "u_mats matrix entries must be int"),
            # every entry's type is checked before any string is parsed
            ('{"p": 3, "group": {"kind": "Ga"}, '
             '"module": {"dim": 2, "coaction": [["T^", "0"], ["0", 5]]}}',
             "coaction entries must be str"),
            # and before the shape
            ('{"p": 3, "group": {"kind": "Ga"}, "module": {"dim": 2, "coaction": [["1", "0"], [null]]}}',
             "coaction entries must be str"),
            ('{"p": 3, "group": {"kind": "Ga"}, '
             '"module": {"dim": 2, "coaction": [["1", true], ["0", "1"]]}}',
             "coaction entries must be str"),
            ('{"p": 3, "group": {"kind": "Ga"}, '
             '"module": {"dim": 2, "coaction": [["1", "0"], "0 1"]}}',
             "coaction must be a list of lists"),
        ],
        ids=["null", "int", "list", "no-p", "p-null", "p-word", "p-infinity", "dim-null",
             "no-dim", "u-dim-null", "u-index-word", "r-null", "no-N", "p-float",
             "p-float-integral", "N-float", "dim-float", "p-bool", "r-bool", "u-mats-bool",
             "int-after-malformed-string", "null-in-non-square", "entry-bool", "row-string"],
    )
    def test_malformed_document_names_the_field(self, tmp_path, capsys, text, message):
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        assert main(["expdeg", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_numeric_strings_are_accepted_as_integers(self, tmp_path, capsys):
        path = tmp_path / "strings.json"
        path.write_text('{"p": "3", "group": {"kind": "Ga"}, '
                        '"module": {"dim": "1", "coaction": [["1"]]}}', encoding="utf-8")
        assert main(["expdeg", str(path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["expdeg"],
            ["filt", "--kind", "exp", "--d", "1"],
            ["filt", "--kind", "degree", "--d", "1"],
            ["frobcheck", "--r", "1"],
            ["pullback", "--psi", '{"kind": "Ga", "lambdas": [1]}'],
        ],
        ids=["expdeg", "filt-exp", "filt-degree", "frobcheck", "pullback"],
    )
    def test_ga_family_over_desk_guard_exits_2_fast(self, module_file, capsys, argv):
        # 13 nonzero u_s at p = 3: 3^13 digit vectors, past the desk-scale guard
        path = module_file(y_r_family(F3, 12))
        start = time.perf_counter()
        assert main([argv[0], path] + argv[1:]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and "guard" in line for line in err.splitlines())

    @pytest.mark.parametrize(
        "p, exponent, reason",
        [
            (3, 10**9, "comodule law violation"),  # 3,888 coproduct terms
            (5, 10**9, "comodule law violation"),  # 45 coproduct terms
            (3, 3**19 - 1, "guard"),  # nineteen digits 2: 3^19 coproduct terms
        ],
        ids=["T^1e9-p3", "T^1e9-p5", "T^(3^19-1)-p3"],
    )
    def test_huge_exponent_exits_2_fast(self, tmp_path, capsys, p, exponent, reason):
        path = tmp_path / "huge.json"
        doc = {"p": p, "group": {"kind": "Ga"}, "module": {"dim": 1, "coaction": [[f"1 + T^{exponent}"]]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main(["expdeg", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and reason in line for line in err.splitlines())

    def test_huge_un_exponent_exits_2_fast(self, tmp_path, capsys):
        # Delta(x1_5)^96 at p = 97: C(5 + 95, 96) = C(100, 4) terms, over the
        # guard, which counts them before anything is expanded
        path = tmp_path / "huge.json"
        doc = {"p": 97, "group": {"kind": "UN", "N": 5},
               "module": {"dim": 2, "coaction": [["1", "x1_5^96"], ["0", "1"]]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main(["expdeg", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert any(line.startswith("error:") and "guard" in line for line in err.splitlines())

    @pytest.mark.parametrize("d", [50, 10**9], ids=["d=50", "d=1e9"])
    @pytest.mark.parametrize("kind", ["natural U_3", "regular Ga dim 2"])
    def test_high_degree_filtration_fast(self, module_file, capsys, kind, d):
        # the degree piece k[G]_{<d} is a membership test, never a monomial list
        from expfilt.ga import regular_comodule

        M = natural_rep(UNContext(F3, 3)) if kind == "natural U_3" else regular_comodule(F3, 2)
        path = module_file(M)
        start = time.perf_counter()
        assert main(["filt", path, "--kind", "degree", "--d", str(d)]) == 0
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().out.startswith(f"dim {M.dim} of {M.dim}\n")

    def test_truncated_kind_rejected_for_support(self, module_file, capsys):
        from expfilt.ga import regular_comodule

        path = module_file(restrict_frobenius(regular_comodule(F3, 3), 1))
        assert main(["support", path, "--samples", "3"]) == 2
        assert "non-truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("filt", ["degree", "exp"])
    @pytest.mark.parametrize("group", ["GaTrunc", "UNTrunc"])
    def test_truncated_kind_rejected_for_filt(self, module_file, capsys, group, filt):
        # the library's own kind check answers; both filtrations name the
        # kinds they take and the kind they were given
        M = regular_comodule(F3, 9) if group == "GaTrunc" else natural_rep(UNContext(F3, 3))
        path = module_file(restrict_frobenius(M, 1))
        assert main(["filt", path, "--kind", filt, "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "degree" if filt == "degree" else "exponential"
        want = f"error: {name} filtration needs a comodule over k[Ga] or k[U_N], not {group}\n"
        assert captured.err == want

    @pytest.mark.parametrize("form", ["u_mats", "coaction"])
    @pytest.mark.parametrize("dim", [10**9, -1], ids=["1e9", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [["filt", "--kind", "degree", "--d", "1"], ["frobcheck", "--r", "1"], ["support"]],
        ids=["filt", "frobcheck", "support"],
    )
    def test_dim_outside_the_bound_exits_2_fast(self, tmp_path, argv, dim, form):
        # an action matrix has dim^2 entries: dim 10^9 with no u_s ended in
        # a MemoryError traceback, and dim -1 answered "dim 0 of -1"
        body = {"u_mats": {}} if form == "u_mats" else {"coaction": []}
        doc = {"p": 3, "group": {"kind": "Ga"}, "module": {"dim": dim, **body}}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        done, elapsed = run_cli_process([argv[0], str(path)] + argv[1:], timeout=10)
        assert done.returncode == 2, done.stderr
        assert elapsed < 2.0
        assert done.stdout == ""
        assert done.stderr == (f"error: dim {dim} is outside [0, 1000]: an action matrix has "
                               f"dim^2 entries, at most the desk-scale guard 1000000\n")

    @pytest.mark.parametrize("dim, code", [(1000, 0), (1001, 2)])
    def test_empty_family_at_the_dim_bound(self, tmp_path, capsys, dim, code):
        path = tmp_path / "empty.json"
        doc = {"p": 3, "group": {"kind": "Ga"}, "module": {"dim": dim, "u_mats": {}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["filt", str(path), "--kind", "degree", "--d", "1"]) == code
        out = capsys.readouterr().out
        assert out.startswith("dim 1000 of 1000\n") if code == 0 else out == ""

    @pytest.mark.parametrize(
        "module, argv, reason",
        [
            # 10^9 x (25 + 3), 3^10 x (25 + 10), 3^11 x (1 + 11) and 3^12 x (1 + 12)
            (regular_comodule(F3, 5), ["--samples", "1000000000"],
             "28000000000 entries exceed the desk-scale guard"),
            (regular_comodule(F3, 5), ["--samples", "0"], "--samples must be at least 1, got 0"),
            (regular_comodule(F3, 5), ["--samples", "-5"], "--samples must be at least 1, got -5"),
            (regular_comodule(F3, 5), ["--exhaustive", "--height", "10"],
             "2066715 entries exceed the desk-scale guard"),
            (trivial_comodule(F3, coalgebras.ga_poly(), 1), ["--exhaustive", "--height", "11"],
             "177147 support records, each a 1 x 1 Theta and up to 11 subgroup entries: "
             "2125764 entries exceed the desk-scale guard"),
            (trivial_comodule(F3, coalgebras.ga_poly(), 1), ["--exhaustive", "--height", "12"],
             "6908733 entries exceed the desk-scale guard"),
        ],
        ids=["samples-1e9", "samples-0", "samples-negative", "height-10", "dim-1-height-11",
             "dim-1-height-12"],
    )
    def test_support_report_past_the_bound_exits_2_fast(self, module_file, capsys, module, argv,
                                                        reason):
        # each record holds an n x n Theta and up to h subgroup scalars; on the
        # 5-dim module 10^9 samples ended in a MemoryError traceback, 0 and -5
        # in an empty report, and height 10 wrote 24 MB in 16 s; on the 1-dim
        # one height 12 was admitted, 531,441 records and about 200 MB
        path = module_file(module)
        start = time.perf_counter()
        assert main(["support", path] + argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert reason in captured.err

    @pytest.mark.parametrize(
        "module, argv, admitted",
        [
            # the default 50 samples: 50 x (141^2 + 3) = 994,200 entries
            (GaUFamily(F3, 141, {}), [], True),
            (GaUFamily(F3, 142, {}), [], False),
            (regular_comodule(F3, 5), ["--exhaustive", "--height", "9"], True),
            (GaUFamily(F3, 1, {}), ["--exhaustive", "--height", "10"], True),  # 3^10 x 11
            (GaUFamily(F3, 1, {}), ["--exhaustive", "--height", "11"], False),
            (frobenius_twist(sym_square_rep(UNContext(F3, 3))), ["--exhaustive", "--height", "2"],
             True),  # the CI pin: 297 records x (36 + 2 x 9) entries
        ],
        ids=["dim-141", "dim-142", "height-9", "dim-1-height-10", "dim-1-height-11", "u3-pool"],
    )
    def test_support_report_bound_edges(self, module, argv, admitted):
        from expfilt.cli import _parser, _sample_psis

        args = _parser().parse_args(["support", "module.json"] + argv)
        if admitted:
            _sample_psis(module, args)
        else:
            with pytest.raises(ValueError, match="desk-scale guard"):
                _sample_psis(module, args)


# -- fuzzing mutated canonical module files through the CLI ------------------

_FUZZ_BASES = {
    "natural U_3": lambda: natural_rep(UNContext(F3, 3)),
    "Sym^2 U_3": lambda: sym_square_rep(UNContext(F3, 3)),
    "Sym^2 U_3 at level 1": lambda: restrict_frobenius(sym_square_rep(UNContext(F3, 3)), 1),
    "regular Ga dim 5": lambda: regular_comodule(F3, 5),
    "regular Ga_(1) p=2": lambda: regular_trunc_comodule(PrimeField(2), 1),
    "Y_1 family": lambda: y_r_family(F3, 1),
}

# non-constant terms (adding them keeps the counit law; the generator
# p-powers break coassociativity off the primitive places), and strings that
# are constants, foreign or primed variables, malformed, or past the guard
_TERMS = [
    "T", "T^3", "T^9", "2*T^2", "x1_2", "x1_2^3", "x2_3", "x2_3^9", "x1_3", "x1_3^3",
    "x1_2*x2_3", "2*x1_2^2",
]
_JUNK = [
    "0", "1", "2", "b1_2", "T'", "x9_9", "x1_1", "", "+", "x1_2^", "T^-1", "2*", "((",
    "T^99999999999999999999",
]
_ADD = st.tuples(st.just("add"), st.integers(0, 6), st.integers(0, 6),
                 st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3))
# a seeded base change of the base module, applied before the other edits:
# the file stays a valid comodule, so the commands reach their success paths
_BASE = st.tuples(st.just("base"), st.integers(0, 2**16))
# the untruncated U_3 bases, the only ones on which `support` runs Theta on a
# k[U_N]-comodule and `pullback` pulls back along a U_N subgroup
_UN_BASES = ("natural U_3", "Sym^2 U_3")

_EDITS = st.one_of(
    _BASE,
    _BASE,
    _BASE,
    _ADD,
    _ADD,
    _ADD,
    st.tuples(st.just("entry"), st.integers(0, 6), st.integers(0, 6),
              st.lists(st.sampled_from(_TERMS + _JUNK), min_size=1, max_size=3)),
    st.tuples(st.just("swap"), *[st.integers(0, 6)] * 4),
    st.tuples(st.just("p"), st.sampled_from(
        [2, 3, 4, 5, 0, -3, 1, "3", "three", None, 2.5, [3], True, False, 3.0])),
    st.tuples(st.just("dim"), st.sampled_from([0, 1, 2, 3, 9, -1, "2", None, True, False, 3.0])),
    st.tuples(st.sampled_from(["N", "r"]), st.sampled_from([1, 2, 3, 0, True, False, 3.0])),
    st.tuples(st.just("group"), st.sampled_from([
        {"kind": "Ga"}, {"kind": "GaTrunc", "r": 1}, {"kind": "GaTrunc", "r": 0},
        {"kind": "UN", "N": 3}, {"kind": "UN", "N": 1}, {"kind": "UNTrunc", "N": 3, "r": 1},
        {"kind": "UN"}, {"kind": "Mat", "N": 2}, {"kind": 5}, "Ga", None,
    ])),
    st.tuples(st.just("drop"),
              st.sampled_from(["p", "group", "module", "dim", "coaction", "u_mats"])),
    st.tuples(st.just("row"), st.integers(0, 6), st.sampled_from(["drop", "extend", "scalar"])),
    st.tuples(st.just("u"), st.sampled_from(["0", "1", "7", "-1", "x"]), st.integers(-1, 3)),
    st.tuples(st.just("u-entry"), st.integers(0, 6), st.integers(0, 6), st.booleans()),
    st.tuples(st.just("raw"),
              st.sampled_from(["", "{not json", "[]", "null", "{}", '"module"', "3"])),
)

# (base, edits): one draw in four is an untruncated U_3 base under base
# changes only, a valid comodule on which every command takes its success path
_MUTATED = st.tuples(st.sampled_from(sorted(_FUZZ_BASES)), st.lists(_EDITS, min_size=1, max_size=3))
_UN_BASE_CHANGED = st.tuples(st.sampled_from(_UN_BASES), st.lists(_BASE, min_size=1, max_size=2))

_COMMANDS = [
    ["expdeg"],
    ["filt", "--kind", "degree", "--d", "1"],
    ["filt", "--kind", "exp", "--d", "1"],
    ["frobcheck", "--r", "1"],
    ["pullback", "--psi", '{"kind": "Ga", "lambdas": [1, 2]}'],
    ["pullback", "--psi", '{"kind": "UN", "mats": [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]]}'],
    ["support", "--samples", "2"],
]


def _base_changed(obj, seed: int):
    """obj in a seeded random basis: g A_mu g^-1 for a coaction, g u_s g^-1 for u_mats."""
    fld = obj.field
    g = random_invertible(fld, obj.dim, random.Random(seed))
    if isinstance(obj, GaUFamily):
        ginv = linalg.mat_inverse(g, fld)
        return GaUFamily(fld, obj.dim, {
            s: linalg.mat_mul(linalg.mat_mul(g, u, fld), ginv, fld) for s, u in obj.u_mats.items()
        })
    return conjugate(obj, g)


def _fuzz_file(path, base, edits):
    """Write the base module, base-changed and then edited, to ``path``."""
    obj = _FUZZ_BASES[base]()
    for edit in edits:
        if edit[0] == "base":
            obj = _base_changed(obj, edit[1])
    doc = module_to_doc(obj)
    text = None
    for edit in edits:
        doc, text = _apply_edit(doc, text, edit)
    path.write_text(canonical_dumps(doc) if text is None else text, encoding="utf-8")


def _apply_edit(doc, text, edit):
    """One edit of a module document; returns (doc, raw text or None).

    Base changes were applied to the module before it became a document.
    """
    kind = edit[0]
    module = doc.get("module") if isinstance(doc, dict) else None
    rows = module.get("coaction") if isinstance(module, dict) else None
    if kind == "raw":
        return doc, edit[1]
    if not isinstance(doc, dict):
        return doc, text
    if kind in ("add", "entry") and isinstance(rows, list) and rows:
        _, j, i, terms = edit
        row = rows[j % len(rows)]
        if isinstance(row, list) and row:
            old = row[i % len(row)]
            keep = [old] if kind == "add" and isinstance(old, str) else []
            row[i % len(row)] = " + ".join(keep + terms)
    elif kind == "swap" and isinstance(rows, list) and rows:
        _, j, i, k, l = edit
        a, b = rows[j % len(rows)], rows[k % len(rows)]
        if isinstance(a, list) and isinstance(b, list) and a and b:
            a[i % len(a)], b[l % len(b)] = b[l % len(b)], a[i % len(a)]
    elif kind in ("p", "group"):
        doc[kind] = edit[1]
    elif kind == "dim" and isinstance(module, dict):
        module["dim"] = edit[1]
    elif kind in ("N", "r") and isinstance(doc.get("group"), dict):
        doc["group"][kind] = edit[1]
    elif kind == "drop":
        for holder in (doc, module):
            if isinstance(holder, dict):
                holder.pop(edit[1], None)
    elif kind == "row" and isinstance(rows, list) and rows:
        k = edit[1] % len(rows)
        if edit[2] == "drop":
            del rows[k]
        elif edit[2] == "extend" and isinstance(rows[k], list):
            rows[k].append("0")
        else:
            rows[k] = "1"
    elif kind == "u" and isinstance(module, dict) and isinstance(module.get("u_mats"), dict):
        mats = module["u_mats"]
        if edit[2] < 0 or not mats:
            mats[edit[1]] = [[0]]
        else:
            mat = mats[sorted(mats)[0]]
            mat[edit[2] % len(mat)] = [edit[2]] * (len(mat) + edit[2] % 2)
    elif kind == "u-entry" and isinstance(module, dict) and isinstance(module.get("u_mats"), dict):
        for mat in module["u_mats"].values():  # the first matrix with a row, if any
            if isinstance(mat, list) and mat and isinstance(mat[edit[1] % len(mat)], list):
                row = mat[edit[1] % len(mat)]
                if row:
                    row[edit[2] % len(row)] = edit[3]
                break
    return doc, text


class TestCliFuzz:
    @given(
        case=st.one_of(_MUTATED, _MUTATED, _MUTATED, _UN_BASE_CHANGED),
        command=st.sampled_from(_COMMANDS),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_module_files_never_trace_back(self, tmp_path_factory, case, command):
        base, edits = case
        path = tmp_path_factory.mktemp("fuzz") / "module.json"
        _fuzz_file(path, base, edits)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command[0], str(path)] + command[1:])
        assert code in (0, 2, 3), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error:") or "usage" in err.getvalue()
        for internal in ("NoneType", "not subscriptable", "int() argument"):
            assert internal not in err.getvalue()
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("command", _COMMANDS, ids=lambda c: " ".join(c[:2]))
    def test_every_command_answers_on_the_unmutated_bases(self, tmp_path, command):
        """Each fuzzed command succeeds on some base file and fails cleanly on the rest."""
        codes = {}
        for base, build in _FUZZ_BASES.items():
            path = tmp_path / "module.json"
            path.write_text(canonical_dumps(module_to_doc(build())), encoding="utf-8")
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                codes[base] = main([command[0], str(path)] + command[1:])
            assert codes[base] == 0 or err.getvalue().startswith("error:"), (base, err.getvalue())
        assert set(codes.values()) <= {0, 2} and 0 in codes.values(), codes

    @pytest.mark.parametrize("base", sorted(_FUZZ_BASES))
    def test_base_change_keeps_every_exit_code(self, tmp_path, base):
        """A base-changed file answers every command with the base file's exit code."""

        def codes(edits):
            path = tmp_path / "module.json"
            _fuzz_file(path, base, edits)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return [main([command[0], str(path)] + command[1:]) for command in _COMMANDS]

        want = codes([])
        for seed in range(3):
            assert codes([("base", seed)]) == want, seed

    @pytest.mark.parametrize(
        "entry, summary",
        [
            # x1_3^3 is not primitive: components (0,1) and (0,2) disagree
            ("x1_2 + x1_3^3", "coassociativity violation at basis e_2; "
                              "coassociativity violation at basis e_3"),
            # x2_3 is primitive, but x2_3 (x) x2_3 is left over in (0,2)
            ("x1_2 + x2_3", "coassociativity violation at basis e_3"),
        ],
    )
    def test_coassociativity_violations_are_listed(self, tmp_path, capsys, entry, summary):
        doc = natural_u3_doc()
        doc["module"]["coaction"][0][1] = entry
        path = tmp_path / "broken.json"
        path.write_text(canonical_dumps(doc), encoding="utf-8")
        assert main(["expdeg", str(path)]) == 2
        assert capsys.readouterr().err == f"error: comodule law violation: {summary}\n"


# -- no polynomial arithmetic on the library's paths ---------------------------

README_COMMANDS = [
    ["filt", "--kind", "degree", "--d", "2"],
    ["filt", "--kind", "exp", "--d", "1"],
    ["expdeg"],
    ["expdeg", "--scale", "height"],
    ["support", "--samples", "100", "--seed", "1"],
    ["support", "--exhaustive", "--height", "1"],
    ["pullback", "--psi", '{"kind": "UN", "mats": [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]]}'],
    ["frobcheck", "--r", "1"],
]


def _golden_load_and_save(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for label, M in _golden_modules().items():
        save_module(M, first)
        save_module(load_module(first), second)
        assert second.read_bytes() == first.read_bytes(), label


def _readme_commands(tmp_path):
    path = tmp_path / "module.json"  # the README's module file, natural U_3
    path.write_text(json.dumps(natural_u3_doc()), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["carries", "10", "3", "--oracle"]) == 0
        assert main(["dims", "--N", "3", "--p", "2", "--r", "1"]) == 0
        for command in README_COMMANDS:
            assert main([command[0], str(path)] + command[1:]) == 0, command


_LIBRARY_PATHS = {
    "golden load and save": _golden_load_and_save,
    "README commands": _readme_commands,
}


@pytest.mark.parametrize("path", [f"verify {name}" for name in SUITES] + list(_LIBRARY_PATHS))
def test_library_paths_use_no_multipoly_arithmetic(no_multipoly_arithmetic, suite_run, tmp_path,
                                                    path):
    """Every verify suite at seed 0 (the session's one run of it, which the
    acceptance criteria read too), load and save of the golden modules and
    each CLI command on the README module file run with the arithmetic of
    ``MultiPoly`` patched to raise."""
    if path in _LIBRARY_PATHS:
        _LIBRARY_PATHS[path](tmp_path)
    else:
        records, _ = suite_run(path.removeprefix("verify "))
        assert all(r["verdict"] for r in records), records
