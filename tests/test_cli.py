import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from horseshoe import invariants
from horseshoe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_height(capsys):
    code, out, _ = run(capsys, "height", "10111100(11)")
    assert code == 0
    assert out.strip() == "2/5"


def test_height_json(capsys):
    code, out, _ = run(capsys, "height", "(10010)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["height"] == "1/3"


def test_cq(capsys):
    code, out, _ = run(capsys, "cq", "3/10")
    assert code == 0
    assert out.strip() == "10011011001"


def test_cq_domain_error(capsys):
    code, out, err = run(capsys, "cq", "2/3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["cq", "1/10000000"],
        ["star", "1/10000000"],
        ["disks", "10010110", "11", "1/10000000"],
        ["scan", "1", "1/10000000", "10"],
        ["scan", "1", "1/10000000", "64", "--sample", "10"],
    ],
    ids=["cq", "star", "disks", "scan", "scan-sample"],
)
def test_huge_denominator_exits_1(capsys, argv):
    # c_q costs time linear in the denominator, so it is refused, not built
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: c_q is limited to denominators up to 10000")


def test_scope(capsys):
    code, out, _ = run(capsys, "scope", "11")
    assert code == 0
    assert out.strip() == "2/5"
    code, out, _ = run(capsys, "scope", ".")
    assert out.strip() == "1/3"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "10010110")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "decorated"
    assert payload["height"] == "1/3"
    assert payload["decoration"] == "11"
    assert payload["period"] == 8


def test_classify_non_decorated(capsys):
    code, out, _ = run(capsys, "classify", "10110110")
    payload = json.loads(out)
    assert payload["kind"] == "finite-order"
    assert "decoration" not in payload or payload["decoration"] is None


def test_rinv(capsys):
    code, out, _ = run(capsys, "rinv", "100010111001010", "1")
    assert code == 0
    assert out.strip() == "mu=1/4 nu=1/3 lambda=1/3 r=1/3"


def test_rstar(capsys):
    code, out, _ = run(capsys, "rstar", "10000011")
    assert code == 0
    assert out.strip() == "r*=1/6"


def test_force(capsys):
    code, out, _ = run(capsys, "force", "100010111001010", "1", "2/5")
    assert code == 0
    assert out.strip() == "r=1/3 FORCED"
    code, out, _ = run(capsys, "force", "100010111001010", "1", "1/4")
    assert out.strip() == "r=1/3 NOT-FORCED"
    code, out, _ = run(capsys, "force", "100010111001010", "1", "1/3")
    assert out.strip() == "r=1/3 THRESHOLD"


def test_one_evaluator_per_command(monkeypatch, capsys):
    """force and rinv each read all their invariants from one scan."""
    built = []
    keys = invariants._keys

    def counted(code, plan):
        built.append(code)
        return keys(code, plan)

    monkeypatch.setattr(invariants, "_keys", counted)
    for argv, want in (
        (["force", "10010110", "11", "9/25"], "r=1/3 FORCED"),
        (["rinv", "100010111001010", "1"], "mu=1/4 nu=1/3 lambda=1/3 r=1/3"),
    ):
        built.clear()
        code, out, _ = run(capsys, *argv)
        assert (code, out.strip()) == (0, want)
        assert built == [argv[1]]


def test_disks(capsys):
    code, out, _ = run(capsys, "disks", "10010110", "11", "9/25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("A=")
    assert lines[1] in {"FORCED", "NOT-FORCED"}
    assert lines[1] == "FORCED"


def test_star(capsys):
    code, out, _ = run(capsys, "star", "3/10")
    assert code == 0
    assert out.strip() == "0110110"
    code, out, _ = run(capsys, "star", "1/3")
    assert out.strip() == "(empty)"


def test_family_r_seq(capsys):
    code, out, _ = run(capsys, "family", "r-seq", "10011010", "--imax", "2")
    assert code == 0
    assert "1/3" in out


def test_family_pa(capsys):
    code, out, _ = run(capsys, "family", "pa", "100111111")
    assert code == 0
    assert out.strip() == "Certified"


def test_entropy(capsys):
    code, out, _ = run(capsys, "entropy", "10011010")
    assert code == 0
    assert out.startswith("poly=")
    assert "root=1.521" in out


def test_entropy_trivial(capsys):
    code, out, _ = run(capsys, "entropy", "10")
    assert code == 0
    assert "root=1.000000000" in out
    assert "log=0.000000000" in out


def test_entropy_json_bracket(capsys):
    code, out, _ = run(capsys, "entropy", "10011010", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    a, b = (Fraction(end) for end in payload["bracket"])
    assert a == Fraction(payload["root"])
    assert 0 <= b - a <= Fraction(1, 2**30)
    code, out, _ = run(capsys, "entropy", "10", "--format", "json")
    assert json.loads(out)["bracket"] is None


def test_table_tsv(capsys):
    code, out, _ = run(capsys, "table", "--period", "8")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split("\t")
    assert header[0] == "orbit"
    assert header[1] == "*"
    assert header[2] == "."
    scope_row = lines[1].split("\t")
    assert scope_row[0] == "scope"
    assert scope_row[1] == "1/2"
    assert len(lines) == 13  # header, scope, 11 groups
    first = lines[2].split("\t")
    assert first[0] == "10111010"
    assert first[1] == "1/2"


# SHA-256 of the TSV output of "table --period N"
TABLE_DIGESTS = {
    12: "d4d80d04a1185dbd19eaa965feff03923a35acbbed6991be7111e32061cb921b",
    14: "2d729cc8c3eb45880e13e0a4940b363392a5cebc8d8c6866f2b1154a0a899c42",
}


def test_table_output_digests(capsys):
    for period, digest in TABLE_DIGESTS.items():
        code, out, _ = run(capsys, "table", "--period", str(period))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, period


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--period", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 7
    assert len(payload["rows"]) >= 1


def test_table_custom_decorations(capsys):
    code, out, _ = run(capsys, "table", "--period", "5", "--decorations", "*,,1")
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header == ["orbit", "*", ".", "1"]


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "1", "1/3", "8")
    assert code == 0
    assert "~" in out


def test_scan_sampled(capsys):
    code, out, _ = run(capsys, "scan", "1", "1/3", "40", "--sample", "50", "--seed", "3")
    assert code == 0
    assert "~" in out
    # the share comes with its z = 3 Wilson interval, in text and in JSON
    share, interval = out.splitlines()
    p = Fraction(share.split()[0])
    assert interval.startswith("z=3 Wilson interval [")
    lo, hi = (float(x) for x in interval.split("[")[1].rstrip("]").split(", "))
    assert lo < float(p) < hi
    code, out, _ = run(
        capsys, "scan", "1", "1/3", "40", "--sample", "50", "--seed", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert Fraction(payload["p"]) == p
    assert [round(x, 4) for x in payload["interval"]] == [lo, hi]
    # an exact scan has no interval
    code, out, _ = run(capsys, "scan", "1", "1/3", "8", "--format", "json")
    assert "interval" not in json.loads(out)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_scan_refuses_empty_sample(capsys, fmt):
    """--sample 0 asks for a sample of no orbits, which is refused, and not
    for the exact scan."""
    code, out, err = run(
        capsys, "scan", "1", "1/3", "5", "--sample", "0", "--format", fmt
    )
    assert code == 1
    assert out == ""
    assert err == "error: need a positive period and sample size\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_exits_without_traceback(unbuffered):
    """A reader that has gone before the answer is written, as `| head -n 1`
    may be, ends the command with status 141 and nothing on stderr, whether
    stdout writes each line or flushes its buffer at exit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "horseshoe.cli", "scan", "1", "2/5", "2",
             "--sample", "50", "--seed", "4"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == b""


def test_lone(capsys):
    code, out, _ = run(capsys, "lone", "--max-len", "1")
    assert code == 0
    assert out.splitlines() == ["(empty)", "0", "1"]


def test_bad_word_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "10,01"])
    assert exc.value.code == 2
    for argv, message in (
        (["cq", "1/0"], "not a rational"),
        (["cq", "x"], "not a rational"),
        (["scope", "12"], "not a binary word"),
        (["rstar", "10a"], "not a binary code"),
        (["rstar", ""], "not a binary code"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


# Each subcommand's positionals in usage order, a well-formed value of each
# kind, and a malformed one with the start of its usage error.
POSITIONALS = {
    "height": ["seq"],
    "cq": ["q"],
    "scope": ["w"],
    "classify": ["code"],
    "rinv": ["code", "w"],
    "rstar": ["code"],
    "force": ["code", "w", "q"],
    "disks": ["code", "w", "q"],
    "star": ["q"],
    "family": ["mode", "code"],
    "entropy": ["code"],
    "scan": ["w", "q", "n"],
}
WELL_FORMED = {
    "seq": "10(1)", "q": "1/5", "w": "1", "code": "1001", "n": "6", "mode": "pa"
}
MALFORMED = {
    "seq": ("10,01", "not a binary word"),
    "q": ("x", "not a rational"),
    "w": ("12", "not a binary word"),
    "code": ("10a", "not a binary code"),
    "n": ("x", "invalid int value"),
}


@pytest.mark.parametrize(
    "command, name",
    [(c, n) for c, names in POSITIONALS.items() for n in names if n in MALFORMED],
)
def test_malformed_positional_exits_2(capsys, command, name):
    bad, message = MALFORMED[name]
    argv = [bad if n == name else WELL_FORMED[n] for n in POSITIONALS[command]]
    with pytest.raises(SystemExit) as exc:
        main([command] + argv)
    assert exc.value.code == 2
    assert f"argument {name}: {message}: {bad!r}" in capsys.readouterr().err


def test_positionals_cover_every_subcommand(capsys):
    """POSITIONALS lists every subcommand's positionals, in order."""
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    commands = usage.split("{", 1)[1].split("}", 1)[0].split(",")
    assert set(commands) - set(POSITIONALS) == {"table", "lone"}
    for command, names in POSITIONALS.items():
        with pytest.raises(SystemExit):
            main([command])
        err = capsys.readouterr().err.strip()
        assert err.endswith("required: " + ", ".join(names)), command


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
