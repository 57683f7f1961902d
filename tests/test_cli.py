import json
from fractions import Fraction

import pytest

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


def test_lone(capsys):
    code, out, _ = run(capsys, "lone", "--max-len", "1")
    assert code == 0
    assert out.splitlines() == ["(empty)", "0", "1"]


def test_bad_word_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "10,01"])
    assert exc.value.code == 2


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
