import json

import pytest

from matchdescents import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_matching(capsys):
    code, out, _ = run(capsys, "stats", "--matching", "1-6,3-4,5-7", "--n", "8", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["MDes"] == [2, 3, 5, 6]
    assert record["Des"] == [1, 3, 5]
    assert record["cMDes"] == [2, 3, 5, 6, 8]
    assert record["cr"] == 2 and record["ne"] == 2 and record["um"] == 2


def test_stats_perm(capsys):
    code, out, _ = run(capsys, "stats", "--perm", "[1,2,3]")
    assert code == 0
    assert "Des={}" in out


def test_stats_syt(capsys):
    code, out, _ = run(capsys, "stats", "--syt", "1,3,5,9/2,4,6/7,8", "--format", "json")
    assert code == 0
    assert json.loads(out)["Des"] == [1, 3, 5, 6]


def test_map_iota_hat_cycles(capsys):
    code, out, _ = run(capsys, "map", "iota-hat", "(1,4)(3,6)", "--n", "6")
    assert code == 0
    assert out.strip() == "(2,6)(3,4)"


def test_map_roundtrip_preserves_codec(capsys):
    code, out, _ = run(capsys, "map", "iota-hat", "[4,2,6,1,5,3]")
    assert code == 0
    assert out.strip() == "[1,6,4,3,5,2]"
    code, out, _ = run(capsys, "map", "iota-hat-inv", "[1,6,4,3,5,2]")
    assert code == 0
    assert out.strip() == "[4,2,6,1,5,3]"


def test_map_sundaram(capsys):
    code, out, _ = run(capsys, "map", "sundaram", "(1,5)(2,4)(3,8)(6,7)", "--n", "8")
    assert code == 0
    assert out.strip() == "-;1;1,1;2,1;2;1;1,1;1;-"
    # a leading '-' in the codec needs the end-of-options marker
    code, out, _ = run(capsys, "map", "sundaram-inv", "--", out.strip())
    assert code == 0
    assert out.strip() == "(1,5)(2,4)(3,8)(6,7)"


def test_map_rotate(capsys):
    code, out, _ = run(capsys, "map", "rotate", "1-6,3-4,5-7", "--n", "8")
    assert code == 0
    assert out.strip() == "2-7,4-5,6-8"


def test_enum_matchings_csv(capsys):
    code, out, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matching,n,k,des,mdes,cmdes,cr,ne,um"
    assert len(lines) == 4  # header + 3 rows
    # byte-stable output
    code2, out2, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0", "--format", "csv")
    assert out2 == out


def test_enum_syt_count(capsys):
    code, out, _ = run(capsys, "enum", "syt", "--n", "4", "--k", "4", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 2  # header + the single row


def test_enum_involutions_filter(capsys):
    code, out, _ = run(capsys, "enum", "involutions", "--n", "6", "--k", "2", "--j", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    assert all(row["ne"] == 1 and row["um"] == 2 for row in rows)


def test_enum_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "enum", "matchings", "--n", "4", "--k", "0",
                       "--format", "csv", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[0].startswith("matching,")


def test_orbits(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "4", "--k", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert sum(1 for _ in rows) == 6
    assert all(4 % row["size"] == 0 for row in rows)
    code, out, _ = run(capsys, "orbits", "--n", "2", "--k", "2", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1 and rows[0]["size"] == 1
    code, out, _ = run(capsys, "orbits", "--n", "4", "--k", "0", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(row["cdes"] == "{1,2,3,4}" for row in rows)


def test_verify_main11(capsys):
    code, out, _ = run(capsys, "verify", "main11", "--n", "8", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["identity"] == "main11"
    assert "elapsed_ms" in report and "counts" in report


def test_verify_cdes_escherian(capsys):
    code, out, _ = run(capsys, "verify", "cdes", "--n", "6", "--k", "0", "--j", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["classification"] == "escherian"


def test_verify_gessel(capsys):
    code, out, _ = run(capsys, "verify", "gessel", "--max", "6")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "main0", "--n", "13")
    assert code == 2
    assert "force" in err


def test_verify_gessel_max_guard(capsys, monkeypatch):
    started = []

    def stand_in(max_total):
        started.append(max_total)
        return cli.symfun.VerifyResult("gessel", {"max": max_total}, True)

    monkeypatch.setattr(cli.symfun, "verify_gessel_all", stand_in)
    code, _, err = run(capsys, "verify", "gessel", "--max", "10")
    assert code == 2 and "force" in err
    assert started == []
    code, _, _ = run(capsys, "verify", "gessel", "--max", "10", "--force")
    assert code == 0 and started == [10]


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "stats", "--perm", "[1,2")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "map", "iota-hat", "(1,2)(2,3)", "--n", "3")
    assert code == 2
    code, _, err = run(capsys, "map", "iota-hat", "(1,2)")
    assert code == 2  # cycles without --n
    code, _, err = run(capsys, "stats", "--matching", "1-6", "--n", "3")
    assert code == 2  # endpoint out of range


@pytest.mark.parametrize("identity", ["main11", "main111"])
def test_verify_main11_all_k_counts_add_up(capsys, identity):
    # without --k every class M_{9,k} is checked; 2620 = |I_9|
    code, out, _ = run(capsys, "verify", identity, "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"matchings": 2620}


def test_verify_cdes_all_classes(capsys):
    code, out, _ = run(capsys, "verify", "cdes", "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"classes_checked": 10}
    code, _, err = run(capsys, "verify", "cdes", "--n", "6", "--k", "0", "--j", "4")
    assert code == 2 and "invalid" in err


@pytest.mark.slow
def test_verify_main11_exhaustive_n12(capsys):
    # 140,152 = |I_12|, summed over every class M_{12,k}
    code, out, _ = run(capsys, "verify", "main11", "--n", "12")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["counts"] == {"matchings": 140152}
