import argparse
import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from compasscoh import (AnalyticFamilySource, __version__, _kernels, build_code, decoder, exact,
                        experiments, families, family_rotated_surface, family_x_shor,
                        family_z_shor, family_z_stacked, find_crossings, load_coloring,
                        random_coloring, read_csv, save_coloring)
from compasscoh import cli
from compasscoh.cli import UsageError, _parse_thetas, main
from compasscoh.exact import TooLargeError
from compasscoh.families import (repetition_exact, z_shor_channel,
                                 z_stacked_channel)
from oracles import decode_bruteforce


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodeGen:
    def test_gen_and_validate(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        rc, _, _ = run(capsys, "code", "gen", "--family", "rsc", "--dx", "3",
                       "--out", str(out))
        assert rc == 0
        rc, stdout, _ = run(capsys, "code", "validate", str(out))
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["n"] == 9
        assert payload["config"]["version"] == __version__

    def test_gen_random_byte_identical(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            rc, _, _ = run(capsys, "code", "gen", "--family", "random",
                           "--dx", "3", "--dz", "3", "--q-shor", "0.5",
                           "--seed", "7", "--out", str(f))
            assert rc == 0
        a, b = f1.read_bytes(), f2.read_bytes()
        assert a.replace(b"a.json", b"") == b.replace(b"b.json", b"")

    def test_gen_meta_echoes_config(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "3",
            "--dz", "5", "--out", str(out))
        data = json.loads(out.read_text())
        assert data["meta"]["family"] == "zshor"
        assert data["meta"]["seed"] == 0  # defaulted value echoed
        assert load_coloring(out) == family_z_shor(3, 5)

    @pytest.mark.parametrize("flags,expect", [
        (("--family", "zshor", "--dx", "3", "--dz", "5"), family_z_shor(3, 5)),
        (("--family", "xshor", "--dx", "3", "--dz", "5"), family_x_shor(3, 5)),
        (("--family", "rsc", "--dx", "3"), family_rotated_surface(3)),
        (("--family", "zstacked", "--dx", "5", "--h", "2"), family_z_stacked(5, 2)),
        (("--family", "random", "--dx", "3", "--dz", "5", "--q-shor", "0.5",
          "--seed", "2"), random_coloring(3, 5, 0.5, 2)),
    ])
    def test_gen_every_family(self, tmp_path, capsys, flags, expect):
        out = tmp_path / "c.json"
        rc, _, _ = run(capsys, "code", "gen", *flags, "--out", str(out))
        assert rc == 0
        assert load_coloring(out) == expect

    @pytest.mark.parametrize("flags,message", [
        (("--family", "zshor"), "--dx is required here"),
        # a square family takes no --dz
        (("--family", "rsc", "--dx", "3", "--dz", "5"), "--family rsc takes no --dz"),
        (("--family", "zstacked", "--dx", "5", "--dz", "3", "--h", "2"),
         "--family zstacked takes no --dz"),
        (("--family", "zstacked", "--dx", "5"), "--h is required here"),
        (("--family", "random", "--dx", "3", "--dz", "3"), "--q-shor is required here"),
        ((), "--family is required here"),
        # a flag the family does not take, which meta would otherwise carry
        (("--family", "xshor", "--dx", "3", "--dz", "3", "--h", "2"),
         "--family xshor takes no --h"),
        (("--family", "xshor", "--dx", "3", "--dz", "3", "--q-shor", "0.3"),
         "--family xshor takes no --q-shor"),
        (("--family", "rsc", "--dx", "3", "--h", "2"), "--family rsc takes no --h"),
        (("--family", "zstacked", "--dx", "5", "--h", "2", "--q-shor", "0.3"),
         "--family zstacked takes no --q-shor"),
        (("--family", "random", "--dx", "3", "--dz", "3", "--q-shor", "0.3", "--h", "2"),
         "--family random takes no --h"),
    ])
    def test_usage_error_exit_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "x.json"
        rc, _, err = run(capsys, "code", "gen", *flags, "--out", str(out))
        assert rc == 1 and not out.exists()
        assert json.loads(err) == {"code": "usage", "message": message}

    # sizes must be JSON integers and rows lists: these used to validate,
    # read as d_x = 3, d_x = 1 and rows of letters
    @pytest.mark.parametrize("data", [
        {"d_x": 3.7, "d_z": 3, "cells": [["X", "Z"], ["Z", "X"]]},
        {"d_x": True, "d_z": 3, "cells": []},
        {"d_x": 3, "d_z": 3, "cells": ["XZ", "ZX"]}])
    def test_validate_refuses_a_malformed_file(self, tmp_path, capsys, data):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        rc, stdout, err = run(capsys, "code", "validate", str(path))
        assert (rc, stdout) == (1, "") and json.loads(err)["code"] == "invalid-input"

    def test_even_dz_exit_1(self, tmp_path, capsys):
        rc, _, err = run(capsys, "code", "gen", "--family", "zshor", "--dx", "3",
                         "--dz", "4", "--out", str(tmp_path / "x.json"))
        assert rc == 1
        assert json.loads(err)["code"] == "invalid-input"


class TestDecode:
    @pytest.fixture()
    def code_file(self, tmp_path, capsys):
        out = tmp_path / "rep5.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "1", "--dz", "5",
            "--out", str(out))
        return str(out)

    def test_decode_prints_bits(self, code_file, capsys):
        rc, stdout, _ = run(capsys, "decode", "--code", code_file,
                            "--syndrome", "1000")
        assert rc == 0
        assert stdout.strip() == "10000"

    # every syndrome, as a bit string with check 0 first
    @pytest.mark.parametrize("coloring", [family_rotated_surface(3), family_z_shor(1, 5)])
    def test_decode_equals_the_brute_force(self, tmp_path, capsys, coloring):
        path = tmp_path / "code.json"
        save_coloring(coloring, path)
        code = build_code(coloring)
        r = len(code.x_stabilizers)
        for s in range(1 << r):
            bits = format(s | 1 << r, "b")[:0:-1]
            rc, stdout, err = run(capsys, "decode", "--code", str(path), "--syndrome", bits)
            assert (rc, stdout) == (0, decode_bruteforce(code, s).to_bits() + "\n"), (s, err)

    # the brute force is a test oracle, no decoder of the command
    def test_oracle_flag_is_a_usage_error(self, code_file, tmp_path, capsys):
        argv = ("decode", "--code", code_file, "--syndrome", "0110")
        rc, stdout, err = run(capsys, *argv, "--oracle")
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {"code": "usage", "message": "unrecognized arguments: --oracle"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": True}))
        rc, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {
            "code": "usage", "message": "config key 'oracle' is not a flag of this command"}

    def test_bad_syndrome_exit_1(self, code_file, capsys):
        rc, _, err = run(capsys, "decode", "--code", code_file, "--syndrome", "10")
        assert rc == 1
        assert json.loads(err)["code"] == "invalid-value"

    def test_keys_over_budget_exit_2_before_the_dp(self, tmp_path, capsys, monkeypatch):
        def no_dp(*args):
            raise AssertionError("the subset DP ran")
        monkeypatch.setattr(decoder, "_min_weight_keys", no_dp)
        # the 1x25 grid with all 24 checks flagged: 2**24 int64 keys and half
        # as many again, far more than the code and its graph hold
        out = tmp_path / "grid.json"
        save_coloring(family_z_shor(1, 25), out)
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", (3 << 24) // 2 * 8 - 1)
        rc, stdout, err = run(capsys, "decode", "--code", str(out), "--syndrome", "1" * 24)
        assert rc == 2 and stdout == ""
        error = json.loads(err)
        assert error["code"] == "computational"
        assert error["message"].startswith(
            "decoding 24 flagged checks of n=25 qubits holds 201326592 bytes of 8-byte keys")


class TestChannel:
    def test_exact_single_qubit(self, tmp_path, capsys):
        out = tmp_path / "q1.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "1", "--dz", "1",
            "--out", str(out))
        rc, stdout, _ = run(capsys, "channel", "exact", "--code", str(out),
                            "--theta-over-pi", "0.3")
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["epsilon"] == pytest.approx(1 - math.cos(0.3 * math.pi))
        assert payload["config"]["recovery"] == "minweight"

    # check k's bit at position k; the 1x1 code has no checks, so its one
    # syndrome is the empty string
    @pytest.mark.parametrize("dz,syndromes", [("3", ["00", "10", "01", "11"]), ("1", [""])])
    def test_exact_distribution_dump(self, tmp_path, capsys, dz, syndromes):
        code_path = tmp_path / "rep.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "1", "--dz", dz,
            "--out", str(code_path))
        dump = tmp_path / "dist.json"
        rc, _, _ = run(capsys, "channel", "exact", "--code", str(code_path),
                       "--theta-over-pi", "0.3", "--dump-distribution", str(dump))
        assert rc == 0
        dist = json.loads(dump.read_text())
        assert isinstance(dist, list)
        assert set(dist[0]) == {"syndrome", "p", "theta_s"}
        assert [e["syndrome"] for e in dist] == syndromes
        assert sum(e["p"] for e in dist) == pytest.approx(1.0, abs=1e-12)

    # the dump is written one entry at a time; the 1x1 code has one entry
    @pytest.mark.parametrize("gen,recovery", [
        (("--family", "zshor", "--dx", "1", "--dz", "1"), "minweight"),
        (("--family", "zshor", "--dx", "1", "--dz", "3"), "minweight"),
        (("--family", "rsc", "--dx", "3"), "ml")])
    def test_exact_dump_bytes_equal_json_dump(self, tmp_path, capsys, gen, recovery):
        code_path, dump = tmp_path / "code.json", tmp_path / "dist.json"
        run(capsys, "code", "gen", *gen, "--out", str(code_path))
        rc, _, _ = run(capsys, "channel", "exact", "--code", str(code_path),
                       "--theta-over-pi", "0.37", "--recovery", recovery,
                       "--dump-distribution", str(dump))
        assert rc == 0
        dist = exact.syndrome_distribution(build_code(load_coloring(code_path)),
                                           0.37 * math.pi, recovery)
        r = len(dist).bit_length() - 1
        want = [{"syndrome": "".join(str(s >> k & 1) for k in range(r)), "p": p, "theta_s": t}
                for s, p, t in zip(dist.syndromes.tolist(), dist.p.tolist(),
                                   dist.theta_s.tolist())]
        assert len(want) == 1 << r
        assert dump.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()
        if r == 0:
            assert json.loads(dump.read_text()) == [
                {"syndrome": "", "p": 1.0, "theta_s": want[0]["theta_s"]}]

    # a syndrome of probability 0 is an entry of the distribution but not
    # of the dump: at theta = 0 all but syndrome 0; at pi none of these
    # codes' (p underflows there only on larger codes: X-Shor 5x5 lists
    # 948,576 of its 2**20)
    @pytest.mark.parametrize("theta_over_pi", ["0", "1"])
    @pytest.mark.parametrize("gen,recovery", [
        (("--family", "rsc", "--dx", "3"), "minweight"),
        (("--family", "rsc", "--dx", "3"), "ml"),
        (("--family", "xshor", "--dx", "3", "--dz", "3"), "minweight"),
        (("--family", "zstacked", "--dx", "3", "--h", "2"), "ml")])
    def test_exact_dump_lists_the_syndromes_of_nonzero_p(self, tmp_path, capsys, gen,
                                                        recovery, theta_over_pi):
        code_path, dump = tmp_path / "code.json", tmp_path / "dist.json"
        run(capsys, "code", "gen", *gen, "--out", str(code_path))
        rc, _, _ = run(capsys, "channel", "exact", "--code", str(code_path),
                       "--theta-over-pi", theta_over_pi, "--recovery", recovery,
                       "--dump-distribution", str(dump))
        assert rc == 0
        dist = exact.syndrome_distribution(build_code(load_coloring(code_path)),
                                           float(theta_over_pi) * math.pi, recovery)
        r = len(dist).bit_length() - 1
        want = [{"syndrome": "".join(str(s >> k & 1) for k in range(r)), "p": p, "theta_s": t}
                for s, p, t in zip(dist.syndromes.tolist(), dist.p.tolist(),
                                   dist.theta_s.tolist()) if p > 0.0]
        assert len(want) == (1 if theta_over_pi == "0" else len(dist))
        assert dump.read_bytes() == (json.dumps(want, indent=2) + "\n").encode()
        if theta_over_pi == "0" and gen[1] == "rsc":
            assert json.loads(dump.read_text()) == [
                {"syndrome": "0000", "p": 1.0, "theta_s": 0.0}]

    def test_exact_too_large_exit_2(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "3", "--dz", "9",
            "--out", str(out))
        rc, _, err = run(capsys, "channel", "exact", "--code", str(out),
                         "--theta-over-pi", "0.1")
        assert rc == 2
        assert json.loads(err)["code"] == "computational"

    def test_exact_table_over_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("count table built")
        monkeypatch.setattr(_kernels, "count_table", no_build)
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 64 << 20)  # the 1x25 grid holds 0.11 GB
        out = tmp_path / "zshor_1x25.json"
        run(capsys, "code", "gen", "--family", "zshor", "--dx", "1", "--dz", "25",
            "--out", str(out))
        rc, _, err = run(capsys, "channel", "exact", "--code", str(out),
                         "--theta-over-pi", "0.1")
        assert rc == 2
        error = json.loads(err)
        assert error["code"] == "computational"
        assert re.search(r"n=25, r=24 holds \d+ bytes", error["message"])

    def test_interpolate_samples_over_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("a code was built")
        monkeypatch.setattr(experiments, "build_code", no_build)
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 100 * experiments._SAMPLE_BYTES - 1)
        out = tmp_path / "curve.csv"
        rc, _, err = run(capsys, "interpolate", "--q-shors", "0.5", "--d", "3",
                         "--codes", "2", "--samples", "100", "--out", str(out))
        assert rc == 2 and not out.exists()
        error = json.loads(err)
        assert error["code"] == "computational"
        assert f"100 samples hold {100 * experiments._SAMPLE_BYTES} bytes" in error["message"]

    def test_interpolate_codes_over_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the ensemble was started")
        for name in ("ensemble_estimate", "build_code", "random_coloring"):
            monkeypatch.setattr(experiments, name, no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 100 * experiments._CODE_BYTES - 1)
        out = tmp_path / "curve.csv"
        rc, stdout, err = run(capsys, "interpolate", "--q-shors", "0.5", "--d", "3",
                              "--codes", "100", "--samples", "2", "--jobs", "2",
                              "--out", str(out))
        assert rc == 2 and stdout == "" and not out.exists()
        assert json.loads(err) == {
            "code": "computational",
            "message": f"100 codes hold {100 * experiments._CODE_BYTES} bytes "
                       f"({experiments._CODE_BYTES} a code), over the budget of "
                       f"{100 * experiments._CODE_BYTES - 1} bytes"}

    def test_interpolate_codes_at_the_budget_are_kept(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 100 * experiments._CODE_BYTES)
        experiments._check_ensemble_size(100, 2)
        with pytest.raises(TooLargeError, match="101 codes hold"):
            experiments._check_ensemble_size(101, 2)

    def test_analytic_rep_identity(self, capsys):
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "rep",
                            "--l", "3", "--theta-over-pi", "0")
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["epsilon"] == 0.0 and payload["delta"] == 0.0

    def test_analytic_matches_library(self, capsys):
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "zstacked",
                            "--l", "9", "--h", "2", "--theta-over-pi", "0.2")
        assert rc == 0
        payload = json.loads(stdout)
        expect = z_stacked_channel(9, 2, 0.2 * math.pi)
        assert payload["epsilon"] == pytest.approx(expect.epsilon, abs=1e-14)

    def test_zstacked_r1_decreases_below_threshold(self, capsys):
        # at 0.2pi the 9 -> 13 step wiggles (small-size oscillation), but the
        # suppression below pi/4 is clear across the size range
        vals = {}
        for l in ("9", "13", "21"):
            _, stdout, _ = run(capsys, "channel", "analytic", "--family",
                               "zstacked", "--l", l, "--h", "2",
                               "--theta-over-pi", "0.2")
            vals[l] = json.loads(stdout)["r1"]
        assert vals["21"] < vals["9"]
        # one step deeper below threshold the decrease is strict immediately
        deeper = []
        for l in ("9", "13"):
            _, stdout, _ = run(capsys, "channel", "analytic", "--family",
                               "zstacked", "--l", l, "--h", "2",
                               "--theta-over-pi", "0.15")
            deeper.append(json.loads(stdout)["r1"])
        assert deeper[1] < deeper[0]

    @pytest.mark.parametrize("family,flags", [
        ("xshor", ("--dx", "3", "--dz", "3")),
        ("zstacked", ("--l", "9", "--h", "2"))])
    def test_analytic_ml_rejected_without_ml_form(self, capsys, family, flags):
        # these families have only the min-weight closed form
        rc, stdout, err = run(capsys, "channel", "analytic", "--family", family,
                              *flags, "--theta-over-pi", "0.7", "--recovery", "ml")
        assert rc == 1 and stdout == ""
        assert json.loads(err)["code"] == "usage"

    # a flag the family does not take is refused, on the command line or
    # from --config, instead of being carried into the output's config
    @pytest.mark.parametrize("flags,message", [
        (("--family", "xshor", "--dx", "3", "--dz", "3", "--l", "7"), "--family xshor takes no --l"),
        (("--family", "xshor", "--dx", "3", "--dz", "3", "--h", "2"), "--family xshor takes no --h"),
        (("--family", "rep", "--l", "3", "--dx", "3"), "--family rep takes no --dx"),
        (("--family", "zshor", "--dx", "3", "--dz", "3", "--l", "3"),
         "--family zshor takes no --l"),
        (("--family", "zstacked", "--l", "5", "--h", "2", "--dz", "5"),
         "--family zstacked takes no --dz")])
    def test_analytic_flag_the_family_does_not_take(self, capsys, flags, message):
        rc, stdout, err = run(capsys, "channel", "analytic", *flags, "--theta-over-pi", "0.2")
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {"code": "usage", "message": message}

    def test_analytic_flag_the_family_does_not_take_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 2}))
        rc, stdout, err = run(capsys, "channel", "analytic", "--family", "rep", "--l", "3",
                              "--theta-over-pi", "0.2", "--config", str(cfg))
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {"code": "usage", "message": "--family rep takes no --h"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, tmp_path, capsys, value):
        code = tmp_path / "rsc3.json"
        run(capsys, "code", "gen", "--family", "rsc", "--dx", "3", "--out", str(code))
        for argv in (("channel", "exact", "--code", str(code)),
                     ("channel", "analytic", "--family", "zstacked", "--l", "5", "--h", "2")):
            rc, stdout, err = run(capsys, *argv, f"--theta-over-pi={value}")
            assert rc == 1 and stdout == ""
            assert json.loads(err) == {"code": "invalid-value",
                                       "message": f"angle must be finite, got {value}"}

    def test_analytic_ml_kept_for_zshor(self, capsys):
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "zshor",
                            "--dx", "3", "--dz", "3", "--theta-over-pi", "0.2",
                            "--recovery", "ml")
        assert rc == 0
        assert json.loads(stdout)["epsilon"] == pytest.approx(
            z_shor_channel(3, 3, 0.2 * math.pi, "ml").epsilon, abs=1e-14)


class TestSignOfZero:
    # At theta = -0.0 only syndrome 0 has nonzero p, so the dump lists it
    # alone.  Its theta_s is -0.0 on the 1x1 code, but 0.0 where n is even:
    # the odd half's zero-count slot for weight n + 1 adds a +0.0 term to
    # the n = 2 odd sum, and 2x3 and 4x1 keep that sign.  Any rewrite of the
    # per-theta evaluation must keep it
    @pytest.mark.parametrize("recovery", ["minweight", "ml"])
    @pytest.mark.parametrize("dx,dz,syndrome,theta_s", [
        (1, 1, "", "-0.0"), (2, 1, "", "0.0"), (4, 1, "", "0.0"), (2, 3, "00", "0.0")])
    def test_exact_at_minus_zero_bytes(self, tmp_path, capsys, monkeypatch, recovery,
                                       dx, dz, syndrome, theta_s):
        monkeypatch.chdir(tmp_path)
        run(capsys, "code", "gen", "--family", "zshor", "--dx", str(dx), "--dz", str(dz),
            "--out", "code.json")
        rc, stdout, err = run(capsys, "channel", "exact", "--code", "code.json",
                              "--theta-over-pi", "-0.0", "--recovery", recovery,
                              "--dump-distribution", "dist.json")
        assert (rc, err) == (0, "")
        assert stdout == (
            '{"config": {"code": "code.json", "command": "channel exact", '
            '"dump_distribution": "dist.json", "jobs": null, '
            f'"recovery": "{recovery}", "theta_over_pi": -0.0, "version": "{__version__}"}}, '
            '"delta": 0.0, "epsilon": 0.0, "kappa": 0.0, "r1": 0.0}\n')
        assert (tmp_path / "dist.json").read_text() == (
            f'[\n  {{\n    "syndrome": "{syndrome}",\n    "p": 1.0,\n'
            f'    "theta_s": {theta_s}\n  }}\n]\n')


def _classes_message(l):
    classes, b = (l + 1) // 2, families._REP_CLASS_BYTES
    return (f"{classes} classes of the length-{l} repetition code hold {classes * b} bytes "
            f"({b} a class), over the budget of {exact.MAX_HELD_BYTES} bytes")


class TestFailFast:
    """Every oversized size exits 2 with "computational", naming the size,
    before the work it would start."""

    @staticmethod
    def _fail(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return fail

    def _refused(self, capsys, *argv):
        rc, stdout, err = run(capsys, *argv)
        assert rc == 2 and stdout == "", err
        error = json.loads(err)
        assert error["code"] == "computational"
        return error["message"]

    # the rule n <= 25 comes first: no code is built and no byte count made
    @pytest.mark.parametrize("coloring,n,r", [
        (lambda: family_rotated_surface(101), 10201, 5100),
        (lambda: family_rotated_surface(171), 29241, 14620),
        (lambda: family_z_shor(501, 501), 251001, 500),
        (lambda: family_z_shor(3, 9), 27, 8)])
    def test_exact_n_refused_before_the_build(self, tmp_path, capsys, monkeypatch,
                                              coloring, n, r):
        path = tmp_path / "code.json"
        save_coloring(coloring(), path)
        monkeypatch.setattr(cli, "build_code", self._fail("build_code"))
        monkeypatch.setattr(exact, "_held_bytes", self._fail("_held_bytes"))
        message = self._refused(capsys, "channel", "exact", "--code", str(path),
                                "--theta-over-pi", "0.1")
        assert message == f"exact backend supports n <= 25, got n={n}, r={r}"

    def test_sweep_rsc_refuses_every_distance_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_code", self._fail("build_code"))
        out = tmp_path / "sweep.csv"
        message = self._refused(capsys, "sweep", "--family", "rsc", "--distances", "3,5,7",
                                "--thetas", "0.1:0.2:0.1", "--out", str(out))
        assert message == "exact backend supports n <= 25, got n=49 (d=7)"
        assert not out.exists()

    def test_interpolate_refuses_every_distance_first(self, tmp_path, capsys, monkeypatch):
        for name in ("ensemble_estimate", "build_code"):
            monkeypatch.setattr(experiments, name, self._fail(name))
        out = tmp_path / "curve.csv"
        message = self._refused(capsys, "interpolate", "--q-shors", "0,0.5,1", "--d", "3,7",
                                "--codes", "2", "--samples", "2", "--out", str(out))
        assert message == "exact backend supports n <= 25, got n=49 (d=7)"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("channel", "analytic", "--family", "rep", "--l", "21", "--theta-over-pi", "0.3"),
        ("channel", "analytic", "--family", "zshor", "--dx", "3", "--dz", "21",
         "--theta-over-pi", "0.3"),
        ("channel", "analytic", "--family", "zstacked", "--l", "21", "--h", "2",
         "--theta-over-pi", "0.3")])
    def test_analytic_length_over_budget(self, capsys, monkeypatch, argv):
        # l = 21 has 11 classes; the budget admits 10
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 10 * families._REP_CLASS_BYTES)
        monkeypatch.setattr(families.np, "arange", self._fail("np.arange"))
        b = families._REP_CLASS_BYTES
        assert self._refused(capsys, *argv) == (
            f"11 classes of the length-21 repetition code hold {11 * b} bytes ({b} a class), "
            f"over the budget of {10 * b} bytes")

    def test_analytic_length_at_the_budget_is_kept(self, capsys, monkeypatch):
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 11 * families._REP_CLASS_BYTES)
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "rep", "--l", "21",
                            "--theta-over-pi", "0.3")
        assert rc == 0
        assert json.loads(stdout)["epsilon"] == repetition_exact(21, 0.3 * math.pi).epsilon

    def test_analytic_sweep_and_refinement_over_budget(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sweep.csv"
        rc, _, _ = run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.6:0.1",
                       "--distances", "11,21", "--out", str(out))
        assert rc == 0
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", 10 * families._REP_CLASS_BYTES)
        monkeypatch.setattr(families.np, "arange", self._fail("np.arange"))
        assert self._refused(capsys, "threshold", "--in", str(out)).startswith(
            "11 classes of the length-21 repetition code hold")
        again = tmp_path / "again.csv"
        assert self._refused(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.6:0.1",
                             "--distances", "21", "--out", str(again)).startswith(
            "11 classes of the length-21 repetition code hold")
        assert not again.exists()

    # each distance's class budget is checked before any family parameter
    # and before any row, so a large valid distance runs nothing first; a
    # parameter fault alone still exits 1
    @pytest.mark.parametrize("flags", [("--family", "rep"), ("--family", "zshor"),
                                       ("--family", "xshor"),
                                       ("--family", "zstacked", "--h", "3")])
    def test_analytic_sweep_sizes_checked_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                         flags):
        for name in ("repetition_exact", "repetition_distribution"):
            monkeypatch.setattr(families, name, self._fail(name))
        out = tmp_path / "sweep.csv"
        argv = ("sweep", *flags, "--thetas", "0.1:0.4:0.005", "--out", str(out))
        for distances in ("2000001,2000000001", "2000000001,4"):
            assert self._refused(capsys, *argv, "--distances", distances) == _classes_message(
                2000000001)
        rc, stdout, err = run(capsys, *argv, "--distances", "2000001,4")
        assert (rc, stdout, out.exists()) == (1, "", False)
        assert json.loads(err) == {"code": "invalid-value",
                                   "message": "l must be an odd positive integer, got 4"}

    def test_analytic_channel_over_budget_message(self, capsys, monkeypatch):
        monkeypatch.setattr(families.np, "arange", self._fail("np.arange"))
        assert self._refused(capsys, "channel", "analytic", "--family", "rep",
                             "--l", "2000000001", "--theta-over-pi", "0.1") == _classes_message(
            2000000001)

    @pytest.mark.parametrize("gen,shape,cells", [
        (("--family", "zshor", "--dx", "5", "--dz", "7"), "5x7", 24),
        (("--family", "xshor", "--dx", "7", "--dz", "5"), "7x5", 24),
        (("--family", "rsc", "--dx", "7"), "7x7", 36),
        (("--family", "zstacked", "--dx", "7", "--h", "2"), "7x7", 36),
        (("--family", "random", "--dx", "5", "--dz", "7", "--q-shor", "0.5"), "5x7", 24)])
    def test_code_gen_grid_over_budget(self, tmp_path, capsys, monkeypatch, gen, shape, cells):
        for name in ("family_z_shor", "family_x_shor", "family_rotated_surface",
                     "family_z_stacked", "random_coloring", "save_coloring"):
            monkeypatch.setattr(cli, name, self._fail(name))
        each = cli._GEN_CELL_BYTES
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", cells * each - 1)
        out = tmp_path / "code.json"
        assert self._refused(capsys, "code", "gen", *gen, "--out", str(out)) == (
            f"a {shape} grid's {cells} cells hold {cells * each} bytes ({each} a cell), "
            f"over the budget of {cells * each - 1} bytes")
        assert not out.exists()
        monkeypatch.undo()
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", cells * each)
        rc, _, _ = run(capsys, "code", "gen", *gen, "--out", str(out))
        assert rc == 0 and load_coloring(out).num_cells == cells

    # a negative side counts no cells, so the grid check still reports it
    @pytest.mark.parametrize("dx,dz", [("-3", "5"), ("-30001", "-30001"), ("1", "-9")])
    def test_code_gen_bad_grid_stays_invalid_input(self, tmp_path, capsys, dx, dz):
        rc, _, err = run(capsys, "code", "gen", "--family", "zshor", "--dx", dx, "--dz", dz,
                         "--out", str(tmp_path / "code.json"))
        assert rc == 1 and json.loads(err)["code"] == "invalid-input"


    # code validate and decode: the code, and decode's matching keys, are
    # checked against the budget before build_code
    @pytest.mark.parametrize("argv,keys", [
        (("code", "validate", "{code}"), False),
        (("decode", "--code", "{code}", "--syndrome", "0000"), True)])
    def test_code_over_budget_refused_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                       argv, keys):
        path = tmp_path / "code.json"
        save_coloring(family_z_shor(3, 5), path)  # n=15, r=4: one 30-bit digit a mask
        argv = [arg.format(code=path) for arg in argv]
        per_qubit = 4 + cli._CODE_QUBIT_BYTES
        held = 15 * per_qubit + cli._CODE_FIXED_BYTES
        if keys:
            per_key = 4 + cli._GRAPH_KEY_BYTES
            held += 16 * per_key
            subject = "a code of n=15 qubits and its 4x4 matching keys hold"
            detail = f"{per_qubit} a qubit, {per_key} a key"
        else:
            subject, detail = "a code of n=15 qubits holds", f"{per_qubit} a qubit"
        monkeypatch.setattr(cli, "build_code", self._fail("build_code"))
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", held - 1)
        assert self._refused(capsys, *argv) == (
            f"{subject} {held} bytes ({detail}), over the budget of {held - 1} bytes")
        monkeypatch.undo()
        monkeypatch.setattr(exact, "MAX_HELD_BYTES", held)
        rc, stdout, err = run(capsys, *argv)
        assert rc == 0 and stdout, err

    def test_z_shor_501_validate_and_decode_refused(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "zs501.json"
        save_coloring(family_z_shor(501, 501), path)
        monkeypatch.setattr(cli, "build_code", self._fail("build_code"))
        assert self._refused(capsys, "code", "validate", str(path)) == (
            "a code of n=251001 qubits holds 8500922348 bytes (33868 a qubit), "
            "over the budget of 1073741824 bytes")
        assert self._refused(capsys, "decode", "--code", str(path), "--syndrome", "0" * 500) == (
            "a code of n=251001 qubits and its 500x500 matching keys hold 16884922348 bytes "
            "(33868 a qubit, 33536 a key), over the budget of 1073741824 bytes")

    # the estimate bounds what the command holds, by tracemalloc
    @pytest.mark.parametrize("coloring", [
        lambda: family_rotated_surface(13), lambda: family_x_shor(13, 13),
        lambda: family_z_shor(1, 169), lambda: random_coloring(13, 13, 0.5, 1)])
    @pytest.mark.parametrize("command", ["validate", "decode"])
    def test_code_bytes_bound_the_peak(self, tmp_path, capsys, monkeypatch, coloring, command):
        coloring = coloring()
        path = tmp_path / "code.json"
        save_coloring(coloring, path)
        r = coloring.num_x_checks
        if command == "validate":
            argv = ["code", "validate", str(path)]
        else:
            argv = ["decode", "--code", str(path), "--syndrome", "1" + "0" * (r - 2) + "1"]
        estimates = []

        def record(held, subject, detail=""):
            estimates.append(held)
        run(capsys, *argv)  # the parser and every import, outside the measurement
        monkeypatch.setattr(cli, "check_budget", record)
        build_code.cache_clear()
        tracemalloc.start()
        try:
            rc, _, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, err
        assert peak <= estimates[0]


class TestSweepThreshold:
    # theta = 0 is the identity: one class of probability 1 in every family
    @pytest.mark.parametrize("family", [("rep",), ("zshor",), ("xshor",),
                                        ("zstacked", "--h", "2")])
    def test_analytic_sweep_from_theta_zero(self, tmp_path, capsys, family):
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", "--family", *family, "--thetas", "0:0.1:0.05",
                         "--distances", "5,9", "--out", str(out))
        assert rc == 0, err
        rows = [row for row in read_csv(out).rows if row.theta_over_pi == 0.0]
        assert len(rows) == 2
        for row in rows:
            cells = (row.epsilon, row.delta, row.kappa, row.r1, row.diamond)
            assert [repr(cell) for cell in cells] == ["0.0"] * 5

    def test_sweep_threshold_pipeline(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc, _, _ = run(capsys, "sweep", "--family", "rep",
                       "--thetas", "0.3:0.6:0.025", "--distances", "11,21",
                       "--out", str(out))
        assert rc == 0
        first = out.read_text().splitlines()[0]
        assert first.startswith("# ")
        config = json.loads(first[2:])
        assert config["command"] == "sweep" and config["version"] == __version__

        rc, stdout, _ = run(capsys, "threshold", "--in", str(out),
                            "--metric", "r1")
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["lower_over_pi"] <= 0.5 <= payload["upper_over_pi"]
        assert not payload["one_sided"]

    # the Z-Shor curves tie at theta = 0 (the identity), which sets no bound:
    # the one crossing is the refined sign change near pi/(2 d_x)
    def test_threshold_from_theta_zero(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", "--family", "zshor", "--thetas", "0:0.1:0.02",
                         "--distances", "3,5", "--out", str(out))
        assert rc == 0, err
        rc, stdout, err = run(capsys, "threshold", "--in", str(out))
        assert rc == 0, err
        payload = json.loads(stdout)
        assert len(payload["crossings"]) == 1
        assert payload["lower_over_pi"] == pytest.approx(0.025625, abs=1e-12)
        assert payload["upper_over_pi"] == pytest.approx(0.02625, abs=1e-12)

    # two densities share each distance of an ensemble table, and threshold
    # says so; the RSC sweep's q_shor differs only across distances
    def test_threshold_on_several_curves_per_distance(self, tmp_path, capsys):
        out = tmp_path / "ens.csv"
        rc, _, err = run(capsys, "interpolate", "--q-shors", "0,1", "--d", "3,5",
                         "--codes", "2", "--samples", "4", "--thetas", "0.1:0.2:0.1",
                         "--out", str(out))
        assert rc == 0, err
        rc, stdout, err = run(capsys, "threshold", "--in", str(out))
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {
            "code": "invalid-value",
            "message": "distance 3 has two curves at theta/pi 0.1: q_shor 0.0 and 1.0"}
        rc, _, err = run(capsys, "sweep", "--family", "rsc", "--distances", "1,3",
                         "--thetas", "0.1:0.2:0.1", "--out", str(out))
        assert rc == 0, err
        rc, stdout, err = run(capsys, "threshold", "--in", str(out))
        assert rc == 0 and json.loads(stdout)["upper_over_pi"] == 0.1, err

    def test_sweep_json_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc, _, _ = run(capsys, "sweep", "--family", "xshor",
                       "--thetas", "0.2:0.3:0.05", "--distances", "3,5",
                       "--out", str(out), "--format", "json")
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 6

    # a sampled row has no delta or kappa: JSON writes null, as RFC 8259
    # has no NaN, and the CSV keeps its nan cells
    def test_interpolate_json_is_strict_json(self, tmp_path, capsys):
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")
        argv = ("interpolate", "--q-shors", "0.5", "--d", "3", "--codes", "2",
                "--samples", "4", "--thetas", "0.1:0.2:0.1")
        out = tmp_path / "ens.json"
        rc, _, err = run(capsys, *argv, "--out", str(out), "--format", "json")
        assert rc == 0, err
        rows = json.loads(out.read_text(), parse_constant=no_constant)["rows"]
        assert [(row["delta"], row["kappa"]) for row in rows] == [(None, None)] * 2
        assert all(math.isfinite(row["r1"]) for row in rows)
        csv_out = tmp_path / "ens.csv"
        assert run(capsys, *argv, "--out", str(csv_out))[0] == 0
        csv_rows = read_csv(csv_out).rows
        assert len(csv_rows) == 2
        assert all(math.isnan(row.delta) and math.isnan(row.kappa) for row in csv_rows)

    @pytest.mark.parametrize("flags", [("--family", "xshor"),
                                       ("--family", "zstacked", "--h", "2")])
    def test_sweep_ml_rejected_without_ml_form(self, tmp_path, capsys, flags):
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", *flags, "--recovery", "ml",
                         "--thetas", "0.2:0.3:0.05", "--distances", "3,5",
                         "--out", str(out))
        assert rc == 1 and not out.exists()
        assert json.loads(err)["code"] == "usage"

    @pytest.mark.parametrize("family", ["xshor", "rsc"])
    def test_sweep_h_refused_for_a_family_without_one(self, tmp_path, capsys, family):
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", "--family", family, "--h", "3",
                         "--thetas", "0.1:0.2:0.1", "--distances", "3,5", "--out", str(out))
        assert (rc, out.exists()) == (1, False)
        assert json.loads(err) == {"code": "usage",
                                   "message": f"--family {family} takes no --h"}

    # every distance's family parameters are checked before the first row,
    # so a bad last distance fails without evaluating the earlier ones
    @pytest.mark.parametrize("family,flags,distances,message", [
        ("rep", (), "21,4", "l must be an odd positive integer, got 4"),
        ("zshor", (), "21,4", "l must be an odd positive integer, got 4"),
        ("xshor", (), "21,4", "l must be an odd positive integer, got 4"),
        ("zstacked", ("--h", "3"), "21,1", "need 1 <= h <= l, got h=3"),
    ])
    def test_sweep_bad_later_distance_refused_before_any_row(
            self, tmp_path, capsys, monkeypatch, family, flags, distances, message):
        def no_row(*args):
            raise AssertionError("a row was evaluated before every distance was checked")
        monkeypatch.setattr(families, "repetition_exact", no_row)
        monkeypatch.setattr(families, "repetition_distribution", no_row)
        out = tmp_path / "sweep.csv"
        got = run(capsys, "sweep", "--family", family, *flags, "--thetas", "0.1:0.3:0.1",
                  "--distances", distances, "--out", str(out))
        assert (got[0], got[1], out.exists()) == (1, "", False)
        assert json.loads(got[2]) == {"code": "invalid-value", "message": message}

    def test_sweep_byte_stable(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
                "--distances", "3,5", "--out", str(path))
            outs.append(path.read_text().replace(name, ""))
        assert outs[0] == outs[1]

    def test_sweep_bytes_independent_of_cpu_count(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sweep.csv"
        outs = []
        for cpus in (2, 7):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            rc, _, _ = run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
                           "--distances", "3,5", "--out", str(path))
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
            "--distances", "3,5", "--out", str(path), "--jobs", "3")
        assert json.loads(path.read_text().splitlines()[0][2:])["jobs"] == 3

    def test_threshold_refines_with_the_sweep_recovery(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--family", "zshor", "--recovery", "ml",
            "--thetas", "0.05:0.45:0.05", "--distances", "3,5,7", "--out", str(path))
        _, *rows = path.read_text().splitlines(keepends=True)
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(rows))
        # the "# config" line names the recovery; without it min-weight is used
        for csv_path, recovery in ((path, "ml"), (bare, "minweight")):
            rc, stdout, _ = run(capsys, "threshold", "--in", str(csv_path))
            assert rc == 0
            payload = json.loads(stdout)
            ref = find_crossings(read_csv(path), "r1",
                                 AnalyticFamilySource("zshor", recovery))
            assert (payload["lower_over_pi"], payload["upper_over_pi"]) == (
                ref.lower_over_pi, ref.upper_over_pi)
            assert [(c["d_low"], c["lo_over_pi"], c["hi_over_pi"])
                    for c in payload["crossings"]] == [
                (c.d_low, c.lo_over_pi, c.hi_over_pi) for c in ref.crossings]

    @pytest.mark.parametrize("fmt,drop,missing", [("json", None, "family"),
                                                  ("csv", "dz", "dz")])
    def test_threshold_names_missing_column(self, tmp_path, capsys, fmt, drop, missing):
        path = tmp_path / f"sweep.{fmt}"
        run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
            "--distances", "3,5", "--out", str(path), "--format", fmt)
        if drop is not None:
            config, *lines = path.read_text().splitlines(keepends=True)
            rows = list(csv.reader(lines))
            col = rows[0].index(drop)
            with open(path, "w", newline="") as fh:
                fh.write(config)
                csv.writer(fh).writerows(row[:col] + row[col + 1:] for row in rows)
        rc, _, err = run(capsys, "threshold", "--in", str(path))
        assert rc == 1
        msg = json.loads(err)
        assert msg["code"] == "invalid-value" and repr(missing) in msg["message"]

    def test_threshold_rejects_short_row(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        run(capsys, "sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
            "--distances", "3,5", "--out", str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + ",".join(lines[-1].split(",")[:3]) + "\n")
        rc, _, err = run(capsys, "threshold", "--in", str(path))
        assert rc == 1
        assert json.loads(err)["code"] == "invalid-value"

    def test_interpolate_bytes_independent_of_jobs(self, tmp_path, capsys):
        lines = []
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.csv"
            rc, _, _ = run(capsys, "interpolate", "--q-shors", "0.5", "--d", "3",
                           "--codes", "4", "--samples", "50", "--jobs", jobs,
                           "--out", str(path))
            assert rc == 0
            lines.append(path.read_bytes().splitlines(keepends=True))
        # only the "# config" header may differ: it records the explicit --jobs
        assert [line.startswith(b"# ") for line in lines[0]].count(True) == 1
        assert lines[0][0].startswith(b"# ") and lines[1][0].startswith(b"# ")
        assert len(lines[0]) > 2
        assert lines[0][1:] == lines[1][1:]

    def test_interpolate_without_jobs_runs_in_process(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started without --jobs")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        outs = {}
        for jobs in (None, 1):
            path = tmp_path / "curve.csv"
            flags = () if jobs is None else ("--jobs", str(jobs))
            rc, _, _ = run(capsys, "interpolate", "--q-shors", "0.5", "--d", "3",
                           "--codes", "4", "--samples", "50", *flags, "--out", str(path))
            assert rc == 0
            config, *rows = path.read_text().splitlines()
            assert json.loads(config[2:])["jobs"] == jobs
            outs[jobs] = rows
        assert outs[None] == outs[1]

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, compasscoh.cli; "
             "print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_interpolate(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc, stdout, _ = run(capsys, "interpolate", "--q-shors", "0,1",
                            "--d", "3", "--codes", "3", "--samples", "32",
                            "--seed", "4", "--thetas", "0.1:0.2:0.1",
                            "--out", str(out))
        assert rc == 0
        payload = json.loads(stdout)
        assert set(payload["estimates"]) == set()  # single distance
        assert out.exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 3, "theta-over-pi": 0.3}))
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "rep",
                            "--config", str(cfg))
        assert rc == 0
        expect = repetition_exact(3, 0.3 * math.pi)
        assert json.loads(stdout)["epsilon"] == pytest.approx(expect.epsilon)

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 3, "theta_over_pi": 0.3}))
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "rep",
                            "--l", "5", "--config", str(cfg))
        assert rc == 0
        expect = repetition_exact(5, 0.3 * math.pi)
        assert json.loads(stdout)["epsilon"] == pytest.approx(expect.epsilon)

    @pytest.mark.parametrize("flags,config", [
        (("--l=5", "--theta-over-pi", "0.1"), {"l": 7}),
        (("--l", "5", "--theta", "0.1"), {"theta-over-pi": 0.3}),
    ])
    def test_cli_spellings_override_config(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc, stdout, _ = run(capsys, "channel", "analytic", "--family", "rep",
                            *flags, "--config", str(cfg))
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["config"]["l"] == 5 and payload["config"]["theta_over_pi"] == 0.1
        assert payload["epsilon"] == repetition_exact(5, 0.1 * math.pi).epsilon

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        rc, _, err = run(capsys, "channel", "analytic", "--family", "rep",
                         "--l", "3", "--theta-over-pi", "0.1",
                         "--config", str(cfg))
        assert rc == 1
        assert json.loads(err)["code"] == "usage"


    @pytest.mark.parametrize("key,value", [("format", "xml"), ("recovery", "bogus")])
    def test_config_values_checked_against_choices(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "sweep.csv"
        argv = ("sweep", "--family", "rep", "--thetas", "0.3:0.4:0.05",
                "--distances", "3,5", "--out", str(out))
        rc, _, err = run(capsys, *argv, "--config", str(cfg))
        assert rc == 1 and not out.exists()
        # exactly the error the flag itself gives
        flag_rc, _, flag_err = run(capsys, *argv, f"--{key}", value)
        assert flag_rc == 1 and json.loads(err) == json.loads(flag_err)
        assert json.loads(err)["code"] == "usage"

    # keys of the namespace that are no flag of the command
    @pytest.mark.parametrize("key", ["func", "parser", "command", "subcommand", "config",
                                     "file"])
    def test_namespace_keys_are_not_flags(self, tmp_path, capsys, monkeypatch, key):
        code = tmp_path / "code.json"
        save_coloring(family_z_shor(3, 3), code)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 3}))
        monkeypatch.setattr(cli, "build_code", TestFailFast._fail("build_code"))
        rc, stdout, err = run(capsys, "code", "validate", str(code), "--config", str(cfg))
        assert (rc, stdout) == (1, "")
        assert json.loads(err) == {
            "code": "usage", "message": f"config key {key!r} is not a flag of this command"}

    # a value is parsed as its command-line spelling: a list or a bare
    # number is no A:B:STEP grid and no list of distances
    @pytest.mark.parametrize("flags,config", [
        (("--thetas", "0.1:0.2:0.1"), {"distances": [3, 5]}),
        (("--thetas", "0.1:0.2:0.1"), {"distances": 2.5}),
        (("--distances", "3,5"), {"thetas": 5}),
        (("--distances", "3,5"), {"thetas": [0.1, 0.2, 0.1]})])
    def test_text_flag_values_take_their_spelling(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "sweep.csv"
        argv = ("sweep", "--family", "rep", *flags, "--out", str(out))
        rc, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert (rc, stdout, out.exists()) == (1, "", False)
        (key, value), = config.items()
        assert json.loads(err) == json.loads(run(capsys, *argv, f"--{key}", str(value))[2])
        assert json.loads(err)["code"] == "usage"

    # null adds no token: the flag keeps its own default, byte for byte
    @pytest.mark.parametrize("key,flags", [
        ("seed", ("--codes", "2", "--samples", "4")),
        ("codes", ("--samples", "4")),
        ("samples", ("--codes", "2"))])
    def test_null_leaves_the_flag_default(self, tmp_path, capsys, key, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        out = tmp_path / "curve.csv"
        argv = ("interpolate", "--q-shors", "0.5", "--d", "3", *flags,
                "--thetas", "0.1:0.1:0.1", "--out", str(out))
        plain = run(capsys, *argv), out.read_bytes()
        assert plain[0][0] == 0
        assert (run(capsys, *argv, "--config", str(cfg)), out.read_bytes()) == plain

    # the embedded config holds the parsed value, as the flag's does
    @pytest.mark.parametrize("value", [1, "1e0"])
    def test_config_number_gives_the_flag_bytes(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_over_pi": value}))
        argv = ("channel", "analytic", "--family", "rep", "--l", "3")
        flag = run(capsys, *argv, "--theta-over-pi", "1")
        assert flag[0] == 0
        assert run(capsys, *argv, "--config", str(cfg)) == flag


def _parser_state(parser):
    """Every default of every parser in the tree: each parser's own
    ``set_defaults`` and each action's ``default``."""
    state = [(dict(parser._defaults), [(a.dest, a.default) for a in parser._actions])]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                state.append((name, _parser_state(sub)))
    return state


class TestParserReuse:
    """One parser serves every main() call in a process, and a --config call
    leaves nothing in it for the next call."""

    @pytest.fixture()
    def rsc3(self, tmp_path):
        path = tmp_path / "rsc3.json"
        save_coloring(family_rotated_surface(3), path)
        return str(path)

    # the plain analytic call lacks --l, so it fails whatever the config held
    @pytest.mark.parametrize("argv,config", [
        (("channel", "exact", "--code", "{code}", "--theta-over-pi", "0.1"),
         {"recovery": "ml"}),
        (("channel", "analytic", "--family", "rep", "--theta-over-pi", "0.1"),
         {"l": 5, "recovery": "ml"}),
        (("code", "validate", "{code}"), {"jobs": 2})])
    def test_config_applies_to_its_own_call_only(self, tmp_path, capsys, rsc3, argv, config):
        argv = [arg.format(code=rsc3) for arg in argv]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        plain = run(capsys, *argv)
        rc, stdout, err = run(capsys, *argv, "--config", str(cfg))
        assert rc == 0, err
        payload = json.loads(stdout)["config"]
        assert {key: payload[key] for key in config} == config
        assert run(capsys, *argv) == plain

    def test_config_call_leaves_the_parser_tree_unchanged(self, tmp_path, capsys, rsc3):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recovery": "ml", "jobs": 2, "dump-distribution": None}))
        argv = ("channel", "exact", "--code", rsc3, "--theta-over-pi", "0.1")
        run(capsys, *argv)
        before = _parser_state(cli._build_parser())
        assert run(capsys, *argv, "--config", str(cfg))[0] == 0
        assert _parser_state(cli._build_parser()) == before

    # rejected by the flag's type, by its choices, or by an unknown key beside a valid one
    @pytest.mark.parametrize("config", [{"jobs": 0}, {"recovery": "bogus"},
                                        {"theta-over-pi": "x"}, {"jobs": 2, "nope": 1}])
    def test_rejected_config_leaves_the_next_call_intact(self, tmp_path, capsys, rsc3, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ("channel", "exact", "--code", rsc3, "--theta-over-pi", "0.1")
        plain = run(capsys, *argv)
        rc, stdout, _ = run(capsys, *argv, "--config", str(cfg))
        assert (rc, stdout) == (1, "")
        assert run(capsys, *argv) == plain

    # a config call sets no default on any tree: the shared tree's leaf
    # keeps the flags' own defaults while the config call parses (the type
    # of --jobs turns the config's string into an int during that parse)
    def test_config_call_never_sets_the_shared_tree(self, tmp_path, capsys, monkeypatch):
        def analytic_defaults():
            tree = cli._build_parser()
            for name in ("channel", "analytic"):
                tree = tree._subparsers._group_actions[0].choices[name]
            return {action.dest: action.default for action in tree._actions}
        seen = []

        def jobs(text):
            seen.append(analytic_defaults())
            return cli._int_at_least(1)(text)
        monkeypatch.setattr(cli, "positive_int", jobs)
        cli._build_parser.cache_clear()
        try:
            own = analytic_defaults()
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"jobs": "2", "l": 5, "recovery": "ml"}))
            rc, stdout, err = run(capsys, "channel", "analytic", "--family", "rep",
                                  "--theta-over-pi", "0.1", "--config", str(cfg))
        finally:
            cli._build_parser.cache_clear()
        assert rc == 0, err
        config = json.loads(stdout)["config"]
        assert (config["jobs"], config["l"], config["recovery"]) == (2, 5, "ml")
        assert seen and all(defaults == own for defaults in seen)

    # counted in a fresh process, by every ArgumentParser constructed: none
    # at import, the whole tree on the first call, none after it (the
    # analytic call is a usage error: --oracle is a flag of no command), a
    # --config call included
    def test_parser_tree_built_once_per_process(self, rsc3):
        cfg = Path(rsc3).with_name("cfg.json")
        cfg.write_text(json.dumps({"recovery": "ml", "jobs": 2}))
        script = f"""
import argparse, contextlib, io, json
built = 0
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from compasscoh.cli import main
counts = [built]
for argv in 2 * [["code", "validate", {rsc3!r}],
                 ["channel", "exact", "--code", {rsc3!r}, "--theta-over-pi", "0.1"],
                 ["channel", "analytic", "--family", "rep", "--l", "3", "--oracle"],
                 ["channel", "exact", "--code", {rsc3!r}, "--theta-over-pi", "0.1",
                  "--config", {str(cfg)!r}]]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    counts.append(built)
print(json.dumps(counts))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")))
        assert proc.returncode == 0, proc.stderr
        at_import, first, *rest = json.loads(proc.stdout)
        assert at_import == 0 and first > 0
        assert rest == [first] * 7


class TestThetaGrid:
    def test_grid_never_passes_end(self):
        assert _parse_thetas("0:0.1:0.035") == [0.0, 0.035, 0.07]

    # the default grid, the README grids and the benchmark workload grids
    @pytest.mark.parametrize("text,count", [
        ("0.05:0.45:0.05", 9), ("0.45:0.55:0.005", 21), ("0.01:0.49:0.01", 49),
        ("0.20:0.30:0.005", 21), ("0.13:0.21:0.004", 21), ("0.42:0.58:0.04", 5),
        ("0.3:0.6:0.025", 13)])
    def test_whole_step_grids_keep_every_point(self, text, count):
        a, b, step = (float(x) for x in text.split(":"))
        grid = _parse_thetas(text)
        assert grid == [round(a + k * step, 10) for k in range(count)]
        assert grid[-1] == b

    @pytest.mark.parametrize("text", ["0:inf:0.1", "nan:1:0.1", "-inf:1:0.1",
                                      "0:1:inf", "0:1:nan"])
    def test_non_finite_grid_is_a_usage_error(self, tmp_path, capsys, text):
        with pytest.raises(UsageError, match="finite A, B and STEP"):
            _parse_thetas(text)
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", "--family", "rep", "--distances", "3",
                         f"--thetas={text}", "--out", str(out))
        assert rc == 1 and not out.exists()
        assert json.loads(err) == {"code": "usage",
                                   "message": "--thetas needs finite A, B and STEP"}


    @pytest.mark.parametrize("text,count", [("0:1:1e-12", 1_000_000_000_001),
                                            ("-1e308:1e308:1", math.inf)])
    def test_oversized_grid_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   text, count):
        def no_work(*args):
            raise AssertionError("the grid was used")
        monkeypatch.setattr(cli, "sweep", no_work)
        out = tmp_path / "sweep.csv"
        rc, stdout, err = run(capsys, "sweep", "--family", "rep", "--distances", "3",
                              f"--thetas={text}", "--out", str(out))
        assert rc == 2 and stdout == "" and not out.exists()
        assert json.loads(err) == {
            "code": "computational",
            "message": f"--thetas {text} makes {count} points, over the limit of "
                       f"{cli.MAX_THETAS}"}

    # A has more than 10 decimals and rounds up: B, rounded as the points
    # are, still admits the one point
    def test_one_point_grid_with_a_long_decimal(self, tmp_path, capsys):
        text = "0.12345678905:0.12345678905:1"
        assert _parse_thetas(text) == [0.1234567891]
        out = tmp_path / "sweep.csv"
        rc, _, err = run(capsys, "sweep", "--family", "rep", "--thetas", text,
                         "--distances", "3", "--out", str(out))
        assert rc == 0, err
        assert [row.theta_over_pi for row in read_csv(out).rows] == [0.1234567891]

    def test_grid_at_the_limit_is_kept(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_THETAS", 21)
        assert len(_parse_thetas("0.45:0.55:0.005")) == 21
        with pytest.raises(TooLargeError, match="makes 22 points, over the limit of 21"):
            _parse_thetas("0.45:0.555:0.005")


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ("interpolate", "--q-shors", "1", "--d", "3", "--codes", "2", "--samples", "8",
         "--thetas", "0.1:0.1:0.1"),
        ("code", "gen", "--family", "rsc", "--dx", "3"),
        ("channel", "analytic", "--family", "rep", "--l", "3", "--theta-over-pi", "0.1"),
        ("sweep", "--family", "rep", "--distances", "3", "--thetas", "0.1:0.1:0.1"),
    ])
    def test_below_one_is_a_usage_error(self, tmp_path, capsys, argv, jobs):
        out = tmp_path / "out"
        rc, stdout, err = run(capsys, *argv, "--jobs", jobs, "--out", str(out))
        assert rc == 1 and stdout == "" and not out.exists()
        assert json.loads(err) == {"code": "usage",
                                   "message": f"argument --jobs: must be at least 1, got {jobs}"}

    @pytest.mark.parametrize("config,ok", [
        ({"jobs": 0}, False), ({"jobs": 2.5}, False), ({"seed": 2.5}, False),
        ({"codes": 0}, False), ({"samples": 1}, False), ({"samples": 0}, False),
        ({"jobs": None}, True), ({"jobs": 1}, True), ({"codes": 1}, True),
        ({"samples": 2}, True), ({"recovery": None}, True)])
    def test_config_values_get_the_flag_type(self, tmp_path, capsys, config, ok):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "curve.csv"
        argv = ("interpolate", "--q-shors", "1", "--d", "3", "--codes", "2",
                "--samples", "8", "--thetas", "0.1:0.1:0.1", "--out", str(out))
        rc, _, err = run(capsys, *argv, "--config", str(cfg))
        assert (rc, out.exists()) == ((0, True) if ok else (1, False)), err
        if not ok:  # exactly the error the flag itself gives
            (key, value), = config.items()
            assert json.loads(err) == json.loads(run(capsys, *argv, f"--{key}", str(value))[2])


class TestListAndCountFlags:
    @pytest.mark.parametrize("argv,message", [
        (("sweep", "--family", "rsc", "--distances", "3,3"), "--distances repeats the value '3'"),
        (("sweep", "--family", "rep", "--distances", "3,0"),
         "bad --distances value '0': must be at least 1, got 0"),
        (("interpolate", "--q-shors", "0.5,0.50", "--d", "3,5"),
         "--q-shors repeats the value '0.50'"),
        (("interpolate", "--q-shors", "0.5", "--d", "3,5,3"), "--d repeats the value '3'"),
        (("interpolate", "--q-shors", "0.5", "--d", "0"),
         "bad --d value '0': must be at least 1, got 0"),
        (("interpolate", "--q-shors", "0.5", "--d", "-3"),
         "bad --d value '-3': must be at least 1, got -3"),
        (("interpolate", "--q-shors", "0.5", "--d", "3", "--samples", "1"),
         "argument --samples: must be at least 2, got 1"),
        (("interpolate", "--q-shors", "0.5", "--d", "3", "--samples", "0"),
         "argument --samples: must be at least 2, got 0"),
        (("interpolate", "--q-shors", "0.5", "--d", "3", "--codes", "0"),
         "argument --codes: must be at least 1, got 0"),
    ])
    def test_usage_error_before_any_backend(self, tmp_path, capsys, monkeypatch,
                                            argv, message):
        def no_backend(code):
            raise AssertionError("a backend was built before the flags were checked")
        monkeypatch.setattr(experiments, "get_backend", no_backend)
        out = tmp_path / "out.csv"
        rc, stdout, err = run(capsys, *argv, "--thetas", "0.1:0.2:0.1", "--out", str(out))
        assert (rc, stdout, out.exists()) == (1, "", False)
        assert json.loads(err) == {"code": "usage", "message": message}

    # every distance's grid is checked before the first cell runs, and after
    # every distance's size, so an input with both faults still exits 2
    @pytest.mark.parametrize("argv,rc,code,message", [
        (("interpolate", "--q-shors", "0.5", "--d", "3,4", "--codes", "400"), 1,
         "invalid-input", "d_z must be odd, got 4"),
        (("sweep", "--family", "rsc", "--distances", "5,4"), 1,
         "invalid-input", "rotated surface size must be odd, got 4"),
        (("interpolate", "--q-shors", "0.5", "--d", "4,7"), 2,
         "computational", "exact backend supports n <= 25, got n=49 (d=7)"),
        (("sweep", "--family", "rsc", "--distances", "4,7"), 2,
         "computational", "exact backend supports n <= 25, got n=49 (d=7)"),
    ])
    def test_grid_checked_before_any_backend(self, tmp_path, capsys, monkeypatch,
                                             argv, rc, code, message):
        def no_backend(_):
            raise AssertionError("a backend was built before every grid was checked")
        monkeypatch.setattr(experiments, "get_backend", no_backend)
        out = tmp_path / "out.csv"
        got = run(capsys, *argv, "--thetas", "0.1:0.4:0.05", "--out", str(out))
        assert (got[0], got[1], out.exists()) == (rc, "", False)
        assert json.loads(got[2]) == {"code": code, "message": message}

    # every density and the seed are checked before the pool opens or the
    # first cell runs, with the messages random_coloring gives; an empty
    # density list is refused too, and writes no header-only table
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv,code,message", [
        (("--q-shors", "0.5,1.5"), "invalid-input", "q_shor must be in [0, 1], got 1.5"),
        (("--q-shors", "0.5", "--seed", "-1"), "invalid-value",
         "seed must be a non-negative integer, got -1"),
        (("--q-shors", ","), "invalid-value", "interpolation needs at least one q_shor"),
    ])
    def test_density_and_seed_checked_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                      argv, code, message, jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("a cell was started before every density was checked")
        monkeypatch.setattr(experiments, "ensemble_estimate", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        out = tmp_path / "curve.csv"
        got = run(capsys, "interpolate", *argv, "--d", "3", "--codes", "200",
                  "--samples", "200", "--jobs", jobs, "--out", str(out))
        assert (got[0], got[1], out.exists()) == (1, "", False)
        assert json.loads(got[2]) == {"code": code, "message": message}


    # an empty distance list is refused by interpolate itself, before the
    # pool opens, not by the first density's sweep
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_distances_refused_before_any_pool(self, tmp_path, capsys, monkeypatch,
                                                     jobs):
        def no_work(*args, **kwargs):
            raise AssertionError("a pool or a cell was started for an empty distance list")
        monkeypatch.setattr(experiments, "ensemble_estimate", no_work)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
        out = tmp_path / "x.csv"
        got = run(capsys, "interpolate", "--q-shors", "0.5", "--d", ",", "--jobs", jobs,
                  "--out", str(out))
        assert (got[0], got[1], out.exists()) == (1, "", False)
        assert json.loads(got[2]) == {"code": "invalid-value",
                                      "message": "interpolation needs at least one distance"}


# The family flags of each family command, and those each --family takes:
# every other one is refused unless it is at its parser default.
_COMMAND_FLAGS = {"code gen": ("dx", "dz", "h", "q_shor", "seed"),
                  "channel analytic": ("l", "dx", "dz", "h"),
                  "sweep": ("h",)}
_FAMILY_TAKES = {
    "code gen": {"zshor": ("dx", "dz"), "xshor": ("dx", "dz"), "rsc": ("dx",),
                 "zstacked": ("dx", "h"), "random": ("dx", "dz", "q_shor", "seed")},
    "channel analytic": {"rep": ("l",), "zshor": ("dx", "dz"), "xshor": ("dx", "dz"),
                         "zstacked": ("l", "h")},
    "sweep": {"rep": (), "zshor": (), "xshor": (), "rsc": (), "zstacked": ("h",)},
}
_FLAG_VALUES = {"l": 5, "dx": 5, "dz": 3, "h": 2, "q_shor": 0.5, "seed": 5}
_FLAG_DEFAULTS = {("code gen", "seed"): 0}
# the rest of each command's call; "OUT" is its output file
_CALL_REST = {"code gen": ("--out", "OUT"),
              "channel analytic": ("--theta-over-pi", "0.2"),
              "sweep": ("--thetas", "0.1:0.2:0.1", "--distances", "3", "--out", "OUT")}
_FOREIGN_FLAGS = [(command, family, flag)
                  for command, takes in _FAMILY_TAKES.items()
                  for family, taken in takes.items()
                  for flag in _COMMAND_FLAGS[command] if flag not in taken]


class TestFamilyFlags:
    @staticmethod
    def _call(tmp_path, command, family):
        out = tmp_path / "out"
        flags = [token for flag in _FAMILY_TAKES[command][family]
                 for token in (f"--{flag.replace('_', '-')}", str(_FLAG_VALUES[flag]))]
        rest = [str(out) if token == "OUT" else token for token in _CALL_REST[command]]
        return [*command.split(), "--family", family, *flags, *rest], out

    @pytest.mark.parametrize("via", ["argv", "config"])
    @pytest.mark.parametrize("command,family,flag", _FOREIGN_FLAGS)
    def test_flag_the_family_does_not_take_is_refused(self, tmp_path, capsys, command,
                                                       family, flag, via):
        argv, out = self._call(tmp_path, command, family)
        spelling = f"--{flag.replace('_', '-')}"
        if via == "argv":
            argv += [spelling, str(_FLAG_VALUES[flag])]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag: _FLAG_VALUES[flag]}))
            argv += ["--config", str(cfg)]
        rc, stdout, err = run(capsys, *argv)
        assert (rc, stdout, out.exists()) == (1, "", False)
        assert json.loads(err) == {"code": "usage",
                                   "message": f"--family {family} takes no {spelling}"}

    # at its parser default the flag counts as not given: the call keeps the
    # bytes of one that omits it
    @pytest.mark.parametrize("command,family,flag", _FOREIGN_FLAGS)
    def test_flag_at_its_default_is_accepted(self, tmp_path, capsys, command, family, flag):
        argv, out = self._call(tmp_path, command, family)

        def outputs(*extra):
            got = run(capsys, *argv, *extra)
            return got, out.read_bytes() if out.exists() else None

        plain = outputs()
        assert plain[0][0] == 0
        default = _FLAG_DEFAULTS.get((command, flag))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: default}))
        assert outputs("--config", str(cfg)) == plain
        if default is not None:
            assert outputs(f"--{flag.replace('_', '-')}", str(default)) == plain


# a directory where a file is read or written ends in one line of JSON
@pytest.mark.parametrize("argv", [
    ("code", "gen", "--family", "rsc", "--dx", "3", "--out", "DIR"),
    ("channel", "analytic", "--family", "rep", "--l", "3", "--theta-over-pi", "0.1",
     "--config", "DIR"),
    ("code", "validate", "DIR"),
    ("threshold", "--in", "DIR")])
def test_directory_for_a_file_exit_1(tmp_path, capsys, argv):
    rc, stdout, err = run(capsys, *(str(tmp_path) if token == "DIR" else token
                                    for token in argv))
    assert (rc, stdout, err.count("\n")) == (1, "", 1)
    error = json.loads(err)
    assert error["code"] == "os-error" and str(tmp_path) in error["message"]


def test_unknown_flag_exit_1(capsys):
    rc, _, err = run(capsys, "decode", "--nonsense")
    assert rc == 1
    assert json.loads(err)["code"] == "usage"


def test_missing_file_exit_1(capsys):
    rc, _, err = run(capsys, "code", "validate", "/nonexistent/path.json")
    assert rc == 1
    assert json.loads(err)["code"] == "missing-file"
