"""The output oracle: every pinned CSV and codebook report against
tests/oracle/SHA256SUMS.

Each case runs in process at two threads with CI's stopping flags.  The pins
were taken at one thread, so a match proves both the value and the thread
identity.  CI runs the same cases whole-process at one and four threads and
checks the same manifest with `sha256sum -c`.  A declared output change
re-takes the manifest in one directory (README, "Output oracle").
"""

import contextlib
import hashlib
import runpy
from pathlib import Path

import pytest

from pmvlc import cli

ORACLE = Path(__file__).resolve().parent / "oracle"
ROOT = ORACLE.parent.parent
INPUTS = ROOT / "perfbench" / "inputs"
THREADS = ("--threads", "2")
QUICK = ("--errors-target", "30", "--block-cap", "20000")


def manifest() -> dict[str, str]:
    """File name -> sha256, from the manifest's `sha256sum` lines."""
    lines = (ORACLE / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def simulate(ini: Path, *flags):
    def run(out):
        return cli.main(["simulate", "--scenario", str(ini), *flags, *THREADS, "--out-dir", str(out)])
    return run, (f"{ini.stem}_ber.csv", f"{ini.stem}_bound.csv")


def report(L: int, weights: str, *flags):
    name = f"report-l{L}.txt"

    def run(out):
        # the pin is the command's stdout: the report text and a newline
        with open(out / name, "w") as f, contextlib.redirect_stdout(f):
            return cli.main(["codebook", "--length", str(L), "--weights", weights, *flags])
    return run, (name,)


def presets(out):
    main = runpy.run_path(str(ROOT / "scripts" / "run_presets.py"))["main"]
    return main(["--quick", *THREADS, "--out-dir", str(out)])


# case -> (run writing into a directory and returning the exit code, the
# files it writes).  Beside the presets: full24 is a truncated alphabet,
# combined32-m3 a truncated M = 3 one beside SM with a dead LED, combined32-m4
# the joint weight rule under CSI, blind-joint the same rule blind (the level
# scale each batch's mean block sum, the reference the h02 profile), fallback
# the iterative decoder at e_max = 1, so that every block whose best
# assignment is no member falls back to exhaustive search.  Every union bound
# printed must stay that of the all-pairs sum, and the reports run at every L:
# the constructor derives every book's masks and combine_codebooks sorts
# every book, whatever its L.
CASES = {
    "presets": (presets, tuple(f"{Path(ini).stem}_{kind}.csv" for inis in cli.PRESETS.values()
                               for ini in inis for kind in ("ber", "bound"))),
    **{ini.stem: simulate(ini, *QUICK) for ini in sorted(ORACLE.glob("*.ini"))},
    "cb1-bb": simulate(INPUTS / "cb1-bb.ini", *QUICK),
    "coherent-m16": simulate(INPUTS / "coherent-m16.ini", "--block-cap", "16384"),
    "bound-fig3": (lambda out: cli.main(["bound", "--scenario", str(ROOT / "src/pmvlc/presets/fig3.ini"),
                                         "--out-dir", str(out)]), ("fig3_bound.csv",)),
    "report-l2": report(2, "1"),
    "report-l3": report(3, "1,2"),
    "report-l4": report(4, "1,2,3", "--m", "4"),
    "report-l5": report(5, "1,2,3,4"),
    "report-l6": report(6, "1,2"),
}


def coherent_floor(out):
    # blind 16-PAM level decisions must not floor again (0.102 with the
    # borrowed h02 gain); the scheme label holds commas, so split the other
    # seven fields off the right
    lines = (out / "coherent-m16_ber.csv").read_text().splitlines()[1:]
    rows = [f for f in (line.rsplit(",", 7) for line in lines)
            if f[1] == "bf" and float(f[2]) == 106.0]
    assert len(rows) == 1 and float(rows[0][3]) < 0.05, rows


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_their_pins(case, tmp_path):
    run, names = CASES[case]
    assert run(tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    if case == "coherent-m16":
        # before the digests, so that it outlives a re-take of the pins
        coherent_floor(tmp_path)
    pins = manifest()
    for name in names:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pins[name], name


def test_cases_write_every_pinned_file():
    assert {name for _, names in CASES.values() for name in names} == set(manifest())


def test_zero_gain_receiver_runs(tmp_path):
    # unpinned: the receiver outside every LED's field of view, sum(H) = 0,
    # carries no level and must still decode
    ini = tmp_path / "zero-gain.ini"
    ini.write_text("name = zero-gain\ncodebook = combined32\nm = 4\nchannel = geometry\n"
                   "tx_spacing = 0.6\nrx_offset_x = 3.0\ncalibration = csi\n"
                   "detectors = ml,bf,iterative\nebn0_db = 90,100\nerrors_target = 30\n"
                   "block_cap = 8192\n")
    assert cli.main(["simulate", "--scenario", str(ini), *THREADS,
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "zero-gain_ber.csv").stat().st_size > 0
