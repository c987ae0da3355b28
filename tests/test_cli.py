"""Scenario parsing, the named-codebook registry, and the command line."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmvlc import analysis, scenarios
from pmvlc.channel import build_channel, fixture_h06_blocked, square_grid_geometry
from pmvlc.cli import PRESETS, codebook_report, main, preset_scenarios
from pmvlc.codebook import combine_codebooks, enumerate_weight_w, permutation_table
from pmvlc.scenarios import (
    _GEOMETRY_KEYS,
    CB1_PERMS,
    CB2_PERMS,
    CODEBOOKS,
    ConfigError,
    named_codebook,
    parse_scenario,
    scheme_label,
)
from pmvlc.txcodec import PamConfig

MINIMAL = "detectors = ml\nebn0_db = 90,100\ncodebook = cb1\n"


def first_components(book):
    # each entry's first component as 1-based symbols, read from the table
    return tuple(map(tuple, (permutation_table(book.L)[0][book.components[:, 0]] + 1).tolist()))


class TestScenarioParsing:
    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL, source="run.ini")
        assert sc.name == "run"
        assert sc.detectors == ("ml",)
        assert sc.ebn0_grid == (90.0, 100.0)
        assert sc.errors_target == 200
        assert sc.block_cap == 10_000_000
        assert sc.seed == 0
        assert sc.scheme == "P(4,8,1,1)"

    def test_range_grid_includes_endpoint(self):
        sc = parse_scenario(MINIMAL.replace("90,100", "94:106:2"))
        assert sc.ebn0_grid == (94.0, 96.0, 98.0, 100.0, 102.0, 104.0, 106.0)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            parse_scenario("detectors = ml\nbogus = 1\n", source="x.ini")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_scenario(MINIMAL + "seed = 1\nseed = 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_scenario("detectors =\nebn0_db = 90\n")

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
            parse_scenario("just some words\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'detectors'"):
            parse_scenario("ebn0_db = 90\n")
        with pytest.raises(ConfigError, match="missing required key 'ebn0_db'"):
            parse_scenario("detectors = ml\ncodebook = cb1\n")

    def test_bad_grid_string(self):
        with pytest.raises(ConfigError, match="bad grid"):
            parse_scenario(MINIMAL.replace("90,100", "90:100"))
        with pytest.raises(ConfigError, match="bad grid"):
            parse_scenario(MINIMAL.replace("90,100", "100:90:2"))

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_scenario(MINIMAL.replace("90,100", "100,90"))

    @pytest.mark.parametrize("grid", ["100,100", "90,100,100"])
    def test_repeated_grid_point_rejected(self, grid):
        # one Eb/N0 point is one CSV row; a repeat would write two different
        # BERs for it, each from its own grid index's noise
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_scenario(MINIMAL.replace("90,100", grid))

    def test_repeated_detector_rejected(self):
        # a repeat would run the same sweep twice and write its rows twice
        with pytest.raises(ConfigError, match="detectors repeat: bf, ml, bf"):
            parse_scenario(MINIMAL.replace("ml", "bf, ml, BF"))

    def test_unknown_detector(self):
        with pytest.raises(ConfigError, match="unknown detector 'mle'"):
            parse_scenario(MINIMAL.replace("ml", "mle"))

    def test_coded_detector_needs_codebook(self):
        with pytest.raises(ConfigError, match="need a codebook"):
            parse_scenario("detectors = bf\nebn0_db = 90\n")

    def test_rc_sm_need_no_codebook(self):
        sc = parse_scenario("detectors = rc,sm\nebn0_db = 90\nrc_m = 4\n")
        assert sc.codebook is None
        assert sc.rc_m == 4

    def test_bb_rejects_multiweight_book(self):
        with pytest.raises(ConfigError, match="weight-1"):
            parse_scenario("detectors = bb\nebn0_db = 90\ncodebook = combined32\n")

    def test_fixture_conflicts_with_geometry_keys(self):
        with pytest.raises(ConfigError, match="conflicts with geometry keys"):
            parse_scenario(MINIMAL + "channel = h02\ntx_spacing = 0.6\n")

    def test_unknown_channel(self):
        with pytest.raises(ConfigError, match="channel must be one of"):
            parse_scenario(MINIMAL + "channel = h99\n")

    def test_bad_blockage_pair(self):
        with pytest.raises(ConfigError, match="not tx-rx"):
            parse_scenario(MINIMAL + "channel = geometry\nblockage = 1-2-3\n")

    @pytest.mark.parametrize("pair", ["5-1", "0-1", "1-5"])
    def test_out_of_range_blockage_pair(self, pair):
        with pytest.raises(ConfigError, match=r"bad blockage \(pair .* out of range\)"):
            parse_scenario(MINIMAL + f"channel = geometry\nblockage = {pair}\n")

    def test_geometry_blockage_zero_pattern_matches_fixture(self):
        sc = parse_scenario(
            "detectors = ml\nebn0_db = 90\ncodebook = cb1\n"
            "channel = geometry\ntx_spacing = 0.6\nblockage = 1-4,2-3,3-2,4-1\n")
        np.testing.assert_array_equal(sc.channel.H == 0.0,
                                      fixture_h06_blocked().H == 0.0)
        # off-blockage gains follow the generated geometry
        assert sc.channel.H[0, 0] == pytest.approx(6.888e-5, rel=1e-3)

    def test_geometry_description_names_every_key_set(self):
        base = MINIMAL + "channel = geometry\n"
        values = {"tx_spacing": "0.6", "rx_spacing": "0.2", "height": "2.0",
                  "phi_half": "20", "psi_fov": "30", "a_pd": "2e-4",
                  "rx_offset_x": "0.1", "rx_offset_y": "0.1", "blockage": "1-2"}
        assert set(values) == set(_GEOMETRY_KEYS)
        descs = {parse_scenario(base).channel_desc}
        for key, value in values.items():
            desc = parse_scenario(base + f"{key} = {value}\n").channel_desc
            assert f"{key}={value}" in desc.split()
            descs.add(desc)
        assert len(descs) == len(values) + 1
        every = parse_scenario(base + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert every.channel_desc == "geometry " + " ".join(
            f"{k}={values[k]}" for k in _GEOMETRY_KEYS)

    @pytest.mark.parametrize("grid", ["nan", "100,nan", "inf", "90,inf", "-inf,90",
                                      "nan:100:2", "90:100:nan"])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ConfigError, match="finite|bad grid"):
            parse_scenario(MINIMAL.replace("90,100", grid))

    def test_intensity_key_rejected(self):
        # transmit power is fixed at unit mean, so there is no power setting
        with pytest.raises(ConfigError, match=r":4: unknown key 'i'"):
            parse_scenario(MINIMAL + "i = 2\n", source="x.ini")

    def test_scheme_key_rejected(self, tmp_path, capsys):
        # the label is computed from the codebook and PAM size, and the noise
        # draws hash it, so a file cannot rename a curve
        scen = tmp_path / "x.ini"
        scen.write_text(MINIMAL + "scheme = x\n")
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert ":4: unknown key 'scheme'" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_readme_lists_every_key(self):
        rows = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        listed = {k.strip("` ") for r in rows if r.startswith("| `")
                  for k in r.split("|")[1].split(",")}
        assert listed == set(scenarios._KEYS)

    def test_comments_and_blanks_ignored(self):
        sc = parse_scenario("# comment\n\n; other comment\n" + MINIMAL)
        assert sc.detectors == ("ml",)


class TestRegistries:
    def test_codebook_sizes(self):
        sizes = {"full24": 24, "pm16": 16, "w2lex8": 8, "w2sel8": 8,
                 "combined32": 32, "cb1": 8, "cb2": 8}
        assert set(sizes) == set(CODEBOOKS)
        for name, size in sizes.items():
            assert named_codebook(name).size == size

    def test_w2sel8_separation(self):
        # what scenarios.W2SEL_IDX's comment states: every pair of the eight
        # weight-2 matrices differs in at least 8 of the 16 cells, and no
        # component codeword repeats across entries or slots
        book = named_codebook("w2sel8")
        S = book.matrix_stack
        d = np.abs(S[:, None] - S[None]).sum(axis=(2, 3))[~np.eye(8, dtype=bool)]
        distances, pairs = np.unique(d, return_counts=True)
        assert distances.tolist() == [8.0, 16.0] and pairs.tolist() == [52, 4]
        assert len(np.unique(book.components)) == book.components.size == 16

    def test_unknown_codebook(self):
        with pytest.raises(ConfigError, match="unknown codebook"):
            named_codebook("cb3")

    def test_cb1_cb2_permutations(self):
        for name, perms in (("cb1", CB1_PERMS), ("cb2", CB2_PERMS)):
            cb = named_codebook(name)
            assert first_components(cb) == perms

    def test_scheme_labels(self):
        assert scheme_label(named_codebook("combined32"), PamConfig()) == "P(4,32,1,{1,2})"
        assert scheme_label(named_codebook("cb1"), PamConfig(M=2)) == "P(4,8,2,1)"


class TestCodebookReport:
    def test_full_multiweight_counts(self):
        text = codebook_report(4, (1, 2, 3))
        assert "weight 1: 24 codewords" in text
        assert "weight 2: 90 codewords" in text
        assert "weight 3: 24 codewords" in text
        assert "combined Q = 138" in text
        assert "bits per block (M=1): 7" in text

    def test_single_weight(self):
        text = codebook_report(3, (1,))
        assert "weight 1: 6 codewords" in text
        assert "bits per block (M=1): 2" in text

    def test_bits_per_symbol_is_bits_per_block_over_length(self):
        text = codebook_report(4, (1,), M=2)
        # the 32-pair signalling set carries bits_per_block = 5 bits, 5 / 4
        # per symbol, not log2(24 * 2) / 4 over all 48 (entry, level) pairs
        assert "bits per block (M=2): 5" in text
        assert "bits per symbol: 1.25\n" in text

    @pytest.mark.parametrize("L,weights", [(3, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4))])
    def test_entry_lines_match_a_per_line_reference(self, L, weights):
        # each entry line against its per-entry f-string, built here from
        # the book's arrays, so a mismatch names the line
        parts = [enumerate_weight_w(L, w) for w in weights]
        book = combine_codebooks(parts) if len(parts) > 1 else parts[0]
        table = ["".join(map(str, p)) for p in permutation_table(L)[1]]
        want = [f"  {idx:4d}  w={sum(j >= 0 for j in row)}  {' + '.join(table[j] for j in row if j >= 0)}"
                for idx, row in enumerate(book.components.tolist(), 1)]
        text = codebook_report(L, weights)
        got = text.split("entries:\n", 1)[1].split("\n")
        assert len(got) == len(want) == book.size
        for idx, (g, w) in enumerate(zip(got, want), 1):
            assert g == w, f"entry {idx}"

    def test_length_guard(self):
        with pytest.raises(ConfigError):
            codebook_report(7, (1,))

    def test_bad_weight(self):
        with pytest.raises(ConfigError):
            codebook_report(4, (4,))

    # the report text is pinned, so a change to how entries are built,
    # ordered or printed cannot pass unnoticed
    @pytest.mark.parametrize("L,weights,digest", [
        (5, (1, 2, 3, 4), "5a230e4667b704cd80061e2ef35c142ee79de9cfb5b900bd9e34b7d92b943d94"),
        (6, (1, 2), "7f020aacdbeb819278c2f6e1411d34d25dca2739bb33b771c24676d46d29ef0a"),
    ])
    def test_report_text_is_pinned(self, L, weights, digest):
        text = codebook_report(L, weights)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


TINY = ("name = tiny\ncodebook = cb1\nchannel = h02\ndetectors = bf\n"
        "ebn0_db = 96,100\nerrors_target = 40\nblock_cap = 20000\n")


class TestCommandLine:
    def test_codebook_exit_zero(self, capsys):
        assert main(["codebook", "--length", "4", "--weights", "1"]) == 0
        assert "weight 1: 24 codewords" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["--length", "1"], "L must be in 2..6"),
        (["--length", "7"], "L must be in 2..6"),
        (["--length", "4", "--weights", "1,4"], "w must be in 1..3"),
    ])
    def test_codebook_out_of_range_exit_one(self, capsys, argv, message):
        # the library's own checks, reported as configuration errors
        assert main(["codebook", *argv]) == 1
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""

    def test_channel_fixture_prints_matrix(self, capsys):
        assert main(["channel", "--fixture", "h02"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 4
        assert rows[0].split()[0] == "1.070800e-04"

    def test_channel_unknown_fixture(self, capsys):
        assert main(["channel", "--fixture", "h03"]) == 1

    def test_channel_out_of_range_blockage_exit_one(self, capsys):
        assert main(["channel", "--blockage", "0-1"]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "pair (0, 1) out of range" in captured.err
        assert captured.out == ""

    def test_scenario_out_of_range_blockage_exit_one(self, tmp_path, capsys):
        scen = tmp_path / "blocked.ini"
        scen.write_text(MINIMAL + "channel = geometry\nblockage = 5-1\n")
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "pair (5, 1) out of range" in captured.err
        assert captured.out == ""

    def test_codebook_non_integer_weight_exit_one(self, capsys):
        assert main(["codebook", "--weights", "1,a"]) == 1
        captured = capsys.readouterr()
        assert "config error: --weights" in captured.err and "'1,a'" in captured.err
        assert captured.out == ""

    def test_channel_fixture_rejects_blockage(self, capsys):
        assert main(["channel", "--fixture", "h02", "--blockage", "1-4"]) == 1
        captured = capsys.readouterr()
        assert "conflicts with geometry keys ['blockage']" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--tx-spacing", "0.6"), ("--rx-spacing", "0.2"), ("--height", "2.0"),
        ("--phi-half", "20"), ("--psi-fov", "30"), ("--a-pd", "2e-4"),
        ("--rx-offset-x", "0.1"), ("--rx-offset-y", "0.1"),
    ])
    def test_channel_fixture_rejects_geometry_flags(self, capsys, flag, value):
        assert main(["channel", "--fixture", "h02", flag, value]) == 1
        captured = capsys.readouterr()
        key = flag[2:].replace("-", "_")
        assert f"conflicts with geometry keys ['{key}']" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,geometry", [
        ([], {}), (["--tx-spacing", "0.6"], {"tx_spacing": 0.6}),
        (["--rx-offset-x", "0.2"], {"rx_offset_x": 0.2}),
    ])
    def test_channel_geometry_flags(self, capsys, argv, geometry):
        assert main(["channel", *argv]) == 0
        H = build_channel(square_grid_geometry(**geometry)).H
        assert capsys.readouterr().out.splitlines() == [
            " ".join(f"{v:.6e}" for v in row) for row in H]

    def test_bad_cli_args(self):
        assert main(["simulate"]) == 1  # --scenario is required
        assert main(["no-such-command"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_simulate_writes_csvs(self, tmp_path, capsys):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        assert main(["simulate", "--scenario", str(scen),
                     "--out-dir", str(tmp_path), "--threads", "2"]) == 0
        ber = (tmp_path / "tiny_ber.csv").read_text().splitlines()
        assert ber[0] == "scheme,detector,ebn0_db,ber,bit_errors,bits,blocks,seed"
        assert len(ber) == 3
        bound = (tmp_path / "tiny_bound.csv").read_text().splitlines()
        assert bound[0] == "scheme,ebn0_db,bound"

    def test_bound_only(self, tmp_path):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        assert main(["bound", "--scenario", str(scen),
                     "--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / "tiny_bound.csv").exists()

    def test_seed_override_lands_in_csv(self, tmp_path):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        assert main(["simulate", "--scenario", str(scen),
                     "--out-dir", str(tmp_path), "--seed", "9"]) == 0
        rows = (tmp_path / "tiny_ber.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",9") for row in rows)

    def test_config_error_exit_one(self, tmp_path, capsys):
        scen = tmp_path / "bad.ini"
        scen.write_text("detectors = ml\n")
        assert main(["simulate", "--scenario", str(scen)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("detector,line", [
        ("bf", "m = 0"), ("iterative", "e_max = 0"),
        ("bf", "errors_target = 0"), ("bf", "block_cap = 0"), ("rc", "rc_m = 12"),
        ("sm", "sm_m = 3"), ("rc", "rc_m = 1"), ("bf", "weight_mode = energy"),
    ], ids=lambda v: v.replace(" ", ""))
    def test_bad_scenario_values_exit_one(self, tmp_path, capsys, detector, line):
        scen = tmp_path / "bad.ini"
        scen.write_text(f"codebook = cb1\nebn0_db = 96\ndetectors = {detector}\n{line}\n")
        with pytest.raises(ConfigError, match="bad.ini"):
            parse_scenario(scen.read_text(), source=str(scen))
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "100,nan", "inf"])
    def test_non_finite_ebn0_exit_one(self, tmp_path, capsys, grid):
        scen = tmp_path / "bad.ini"
        scen.write_text(f"codebook = cb1\ndetectors = ml\nebn0_db = {grid}\nblock_cap = 4096\n")
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bad_ber.csv").exists()

    @pytest.mark.parametrize("line", ["tx_spacing = nan", "height = inf", "a_pd = inf",
                                      "rx_offset_y = nan"])
    def test_non_finite_setting_exit_one(self, tmp_path, capsys, line):
        scen = tmp_path / "bad.ini"
        scen.write_text(f"codebook = cb1\ndetectors = ml\nebn0_db = 96\nblock_cap = 4096\n"
                        f"channel = geometry\n{line}\n")
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag,value,message", [
        ("--height", "-1.75", "height must be positive"),
        ("--height", "0", "height must be positive"),
        ("--tx-spacing", "-0.6", "spacings must be non-negative"),
        ("--rx-spacing", "-0.1", "spacings must be non-negative"),
        ("--a-pd", "abc", "could not convert"),
    ])
    def test_channel_impossible_room_exit_one(self, capsys, flag, value, message):
        assert main(["channel", flag, value]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("line", ["height = -1.75", "tx_spacing = -0.6"])
    def test_scenario_impossible_room_exit_one(self, tmp_path, capsys, line):
        scen = tmp_path / "room.ini"
        scen.write_text(MINIMAL + f"channel = geometry\n{line}\n")
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "bad geometry value" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [
        [command, flag, "1"]
        for command in ("codebook", "channel")
        for flag in ("--seed", "--out-dir", "--threads", "--errors-target", "--block-cap")
    ] + [
        ["bound", "--scenario", "{scen}", "--out-dir", "{out}", flag, "1"]
        for flag in ("--seed", "--threads", "--errors-target", "--block-cap")
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_read_exit_one(self, tmp_path, capsys, argv):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        assert main([a.format(scen=scen, out=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    def test_channel_non_finite_flag_exit_one(self, capsys):
        assert main(["channel", "--tx-spacing", "nan"]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_negative_seed_exit_one(self, tmp_path, capsys, where):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY + ("seed = -1\n" if where == "file" else ""))
        flags = ["--seed", "-3"] if where == "flag" else []
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path),
                     *flags]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "seed must be non-negative" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flag", ["--errors-target", "--block-cap"])
    def test_zero_stopping_override_exit_one(self, tmp_path, capsys, flag):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path),
                     flag, "0"]) == 1
        assert "must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "tiny_ber.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "{scen}", "--threads", "0"],
        ["preset", "fig3", "--threads", "0"],
        ["codebook", "--m", "0"],
    ], ids=["simulate-threads", "preset-threads", "codebook-m"])
    def test_zero_count_option_exit_one(self, tmp_path, capsys, argv):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        out_dir = tmp_path / "out"
        argv = [a.format(scen=scen) for a in argv]
        if argv[0] != "codebook":  # codebook writes no files
            argv += ["--out-dir", str(out_dir)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "must be at least 1, got 0" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", ".."])
    def test_name_outside_one_path_component_exit_one(self, tmp_path, capsys, name):
        # the name is the stem of the CSVs written into --out-dir: "../escaped"
        # wrote them one level above it, "a/b" failed only after the run
        scen = tmp_path / "named.ini"
        scen.write_text(TINY.replace("name = tiny", f"name = {name}"))
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "named.ini" in captured.err
        assert "single path component" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.rglob("*.csv"))

    def test_empty_name_rejected(self):
        # a file cannot give an empty value, but a caller can
        with pytest.raises(ConfigError, match="single path component"):
            dataclasses.replace(parse_scenario(MINIMAL), name="")

    def test_runtime_error_exit_two(self, tmp_path, capsys):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["simulate", "--scenario", str(scen),
                     "--out-dir", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_rerun_identical_across_threads(self, tmp_path, capsys):
        scen = tmp_path / "tiny.ini"
        scen.write_text(TINY)
        outs = []
        for threads, sub in (("1", "a"), ("3", "b")):
            assert main(["simulate", "--scenario", str(scen),
                         "--out-dir", str(tmp_path / sub),
                         "--threads", threads]) == 0
            outs.append((tmp_path / sub / "tiny_ber.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_console_script_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "pmvlc.cli",
                               "codebook", "--length", "3", "--weights", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "weight 1: 6 codewords" in proc.stdout


def _summary_ops(out: str) -> dict[str, str]:
    # summary rows: scheme, detector, points, blocks, bit_errors, elapsed_s, mean_ops
    rows = [line.split() for line in out.splitlines()]
    return {r[1]: r[6] for r in rows if len(r) == 7 and r[2].isdigit()}


class TestSummaryOps:
    """The summary's mean_ops is the mean op_count of the blocks the run
    decoded, collected here by wrapping the detectors the harness calls."""

    RUN = "channel = h02\nebn0_db = 96,100\nerrors_target = 30\nblock_cap = 8192\n"

    def _run(self, tmp_path, capsys, text):
        scen = tmp_path / "run.ini"
        scen.write_text(self.RUN + text)
        assert main(["simulate", "--scenario", str(scen), "--out-dir", str(tmp_path)]) == 0
        return _summary_ops(capsys.readouterr().out)

    @pytest.mark.parametrize("detector,book", [("iterative", "combined32"), ("bb", "cb1")])
    def test_per_block_detectors(self, tmp_path, capsys, monkeypatch, detector, book):
        name = f"{detector}_sd_detect" if detector == "iterative" else "bb_detect"
        inner, counts = getattr(analysis, name), []

        def counted(*args, **kwargs):
            r = inner(*args, **kwargs)
            counts.append(r.op_count)
            return r

        monkeypatch.setattr(analysis, name, counted)
        ops = self._run(tmp_path, capsys, f"codebook = {book}\ndetectors = {detector}\n")
        assert counts
        assert ops[detector] == f"{np.mean(counts):.1f}"

    def test_bf_joint(self, tmp_path, capsys, monkeypatch):
        inner, decided = analysis.bf_detect_batch, []

        def recorded(*args, **kwargs):
            decided.extend(np.asarray(args[2]).tolist())  # the weight class per block
            return inner(*args, **kwargs)

        monkeypatch.setattr(analysis, "bf_detect_batch", recorded)
        book = named_codebook("combined32")
        ops = self._run(tmp_path, capsys,
                        "codebook = combined32\ndetectors = bf\nweight_mode = joint\n")
        # exhaustive search adds w L values for each entry of the decided class
        per_block = [w * 4 * len(book.weight_class_indices(w)) for w in decided]
        assert len(set(per_block)) == 2
        assert ops["bf"] == f"{np.mean(per_block):.1f}"

    def test_baselines_and_guess_print_dash(self, tmp_path, capsys):
        ops = self._run(tmp_path, capsys, "codebook = cb1\ndetectors = ml,rc,sm,guess\n")
        assert ops == {"ml": f"{8 * 16:.1f}", "rc": "-", "sm": "-", "guess": "-"}

    def test_ml_counts_the_signaling_means_it_scores(self, tmp_path, capsys):
        # full24 signals 16 of its 24 entries; the harness scores only those
        ops = self._run(tmp_path, capsys, "codebook = full24\ndetectors = ml\n")
        assert ops == {"ml": f"{16 * 16:.1f}"}


class TestPresets:
    def test_registry_names(self):
        assert {"fig3", "fig4-cb1-cb2", "fig6-blockage"} <= set(PRESETS)

    def test_all_preset_files_parse(self):
        for name in PRESETS:
            scenarios = preset_scenarios(name)
            assert len(scenarios) == len(PRESETS[name])
            for sc in scenarios:
                assert sc.ebn0_grid[0] < sc.ebn0_grid[-1]
                assert sc.codebook is not None

    def test_fig4_preset_uses_pinned_books(self):
        sc1, sc2 = preset_scenarios("fig4-cb1-cb2")
        assert first_components(sc1.codebook) == CB1_PERMS
        assert first_components(sc2.codebook) == CB2_PERMS

    def test_fig6_preset_uses_blocked_fixture(self):
        (sc,) = preset_scenarios("fig6-blockage")
        np.testing.assert_array_equal(sc.channel.H == 0.0,
                                      fixture_h06_blocked().H == 0.0)
        assert set(sc.detectors) >= {"ml", "bf"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_scenarios("fig9")

    def test_preset_command_with_overrides(self, tmp_path, capsys):
        assert main(["preset", "fig4-cb1-cb2", "--out-dir", str(tmp_path),
                     "--errors-target", "20", "--block-cap", "8192",
                     "--threads", "2"]) == 0
        for stem in ("fig4-cb1", "fig4-cb2"):
            assert (tmp_path / f"{stem}_ber.csv").exists()
            assert (tmp_path / f"{stem}_bound.csv").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is slow to import and no package code needs it; only the
    # tests call its linear_sum_assignment.
    code = "import sys, pmvlc.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # Q comes from math.erfc, so the package runs on numpy alone; scipy is a
    # test dependency only.
    code = "import sys, pmvlc.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
