"""CLI commands, output formats, and exit-code contract."""

import concurrent.futures
import csv
import gc
import io
import json
import weakref

import pytest

import nacent.cli
from nacent import FiniteGroup, GroupSpec, build, save_group
from nacent.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, REPORT_FIELDS, _run_one, main
from nacent.corpus import _FLAT_BUILDERS, parse_spec_string
from test_corpus import nested_spec


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_analyze_s3_spec(capsys):
    code, out, _ = run_cli(["analyze", "symmetric(3)"], capsys)
    assert code == EXIT_OK
    (rec,) = parse_jsonl(out)
    assert rec["group_id"] == "symmetric(3)"
    assert rec["cent_count"] == 5
    assert rec["nacent_count"] == 1
    assert rec["category"] == "ca"


def test_analyze_abelian(capsys):
    code, out, _ = run_cli(["analyze", "cyclic(6)"], capsys)
    assert code == EXIT_OK
    (rec,) = parse_jsonl(out)
    assert rec["category"] == "abelian" and rec["nacent_count"] == 0


def test_analyze_flagship(capsys, flagship):
    code, out, _ = run_cli(["analyze", "heisenberg_frobenius(7,3)"], capsys)
    assert code == EXIT_OK
    (rec,) = parse_jsonl(out)
    assert rec["category"] == "two_nacent"
    assert rec["case"] == "C"
    assert rec["consequences"]["a"] is True
    counting = rec["case_data"]["counting"]
    assert rec["cent_count"] == counting["cent_ca"] + counting["ca_over_z"] + 1 == 353


def test_analyze_file(tmp_path, capsys, s3):
    p = tmp_path / "s3.json"
    save_group(s3, p)
    code, out, _ = run_cli(["analyze", str(p)], capsys)
    assert code == EXIT_OK
    (rec,) = parse_jsonl(out)
    assert rec["group_id"].startswith(str(p))
    assert "#" in rec["group_id"]
    assert rec["cent_count"] == 5


def test_analyze_bad_spec(capsys):
    code, _, err = run_cli(["analyze", "mystery(3)"], capsys)
    assert code == EXIT_INPUT
    assert "error" in err


def test_analyze_bad_file(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run_cli(["analyze", str(p)], capsys)
    assert code == EXIT_INPUT


def test_analyze_sorted_by_group_id(capsys):
    code, out, _ = run_cli(["analyze", "symmetric(3)", "cyclic(5)", "dihedral(4)"],
                           capsys)
    ids = [r["group_id"] for r in parse_jsonl(out)]
    assert ids == sorted(ids)


def test_verify_small_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "--max-order", "32"], capsys)
    assert code == EXIT_OK
    records = parse_jsonl(out)
    summary = records[-1]
    assert summary["group_id"] == "summary"
    assert summary["case_data"]["groups"] == len(records) - 1
    assert summary["case_data"]["groups_with_violations"] == 0


def test_verify_corrupted_corpus_file(tmp_path, capsys, s3):
    table = [[int(v) for v in row] for row in s3.table]
    table[1][2] = table[1][1]
    (tmp_path / "bad.json").write_text(json.dumps({"kind": "cayley", "table": table}))
    code, _, err = run_cli(
        ["verify", "--max-order", "4", "--corpus", str(tmp_path)], capsys)
    assert code == EXIT_INPUT


def test_verify_missing_corpus_is_input_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, out, err = run_cli(["verify", "--max-order", "4", "--corpus", str(missing)], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_verify_corpus_file_is_input_error(tmp_path, capsys, s3):
    path = tmp_path / "s3.json"
    save_group(s3, path)
    code, out, err = run_cli(["verify", "--max-order", "4", "--corpus", str(path)], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and str(path) in err


def test_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch):
    """--out is opened before the run: an unwritable path exits 2 having
    built no report."""
    calls = []
    monkeypatch.setattr(nacent.cli, "full_report", lambda *a, **k: calls.append(a))
    dest = tmp_path / "missing" / "x.jsonl"
    for argv in (["analyze", "--out", str(dest), "--parallelism", "1", "cyclic(3)"],
                 ["verify", "--max-order", "200", "--parallelism", "1", "--out", str(dest)]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: cannot write {dest}: ")
    assert calls == []


def test_zero_parameter_is_one_error_line(capsys):
    code, out, err = run_cli(["analyze", "dihedral(0)"], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == ["error: group order must be positive, got 0"]


def test_input_error_leaves_out_empty(tmp_path, capsys):
    dest = tmp_path / "x.jsonl"
    code, out, err = run_cli(["analyze", "--out", str(dest), "nosuchgroup(3)"], capsys)
    assert code == EXIT_INPUT and out == "" and err.startswith("error: ")
    assert dest.read_text() == ""


def test_deeply_nested_spec_is_input_error(tmp_path, capsys):
    # one nesting level per direct_product: past the parser's bound it is an
    # input error, on the command line and in a corpus file alike
    spec = nested_spec(1200)
    (tmp_path / "deep.json").write_text(json.dumps({"kind": "construction", "constructor": spec}))
    for argv in (["analyze", spec], ["verify", "--max-order", "2", "--corpus", str(tmp_path)]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and "nested more than" in err
        # the position and a short excerpt, not the 31209-character spec;
        # the corpus file's path comes on top
        line = err.replace(str(tmp_path), "")
        assert err.count("\n") == 1 and len(line.encode()) < 200, line


def test_unknown_constructor_is_a_short_input_error(tmp_path, monkeypatch, capsys):
    # a 30000-letter name gives one short line, on the command line and in
    # a construction file, with and without params
    name = "x" * 30000
    monkeypatch.chdir(tmp_path)
    for i, payload in enumerate([{"constructor": name}, {"constructor": name, "params": {"n": 3}}]):
        with open(f"g{i}.json", "w") as f:
            json.dump({"kind": "construction", **payload}, f)
    for ref in (name, "g0.json", "g1.json"):
        code, out, err = run_cli(["analyze", ref], capsys)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and "unknown constructor" in err
        assert err.count("\n") == 1 and len(err.encode()) < 200, err


def test_params_error_is_a_short_input_error(tmp_path, monkeypatch, capsys):
    # a 30000-letter parameter name is quoted to at most 40 characters, next
    # to the parameters the constructor expects
    monkeypatch.chdir(tmp_path)
    with open("g.json", "w") as f:
        json.dump({"kind": "construction", "constructor": "cyclic",
                   "params": {"n" * 30000: 3}}, f)
    code, out, err = run_cli(["analyze", "g.json"], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and "expects parameters ['n'], got 'nnn" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err


def test_direct_product_params_names_nested_specs(tmp_path, monkeypatch, capsys):
    # direct_product is a known constructor; its factors are nested specs,
    # which a params object cannot give
    monkeypatch.chdir(tmp_path)
    with open("g.json", "w") as f:
        json.dump({"kind": "construction", "constructor": "direct_product",
                   "params": {"n": 3}}, f)
    code, out, err = run_cli(["analyze", "g.json"], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and "unknown constructor" not in err
    assert "direct_product takes two nested specs in 'constructor', not 'params'" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err


# one non-canonical spelling (spaces, leading zeros) per constructor
SPELLINGS = {
    "cyclic( 06 )": "cyclic(6)",
    " dihedral(04)": "dihedral(4)",
    "dicyclic( 2 ) ": "dicyclic(2)",
    "symmetric(03)": "symmetric(3)",
    "alternating( 4)": "alternating(4)",
    "heisenberg(003)": "heisenberg(3)",
    "heisenberg_frobenius( 7 , 03 )": "heisenberg_frobenius(7,3)",
    "agl1(05)": "agl1(5)",
    "semidirect_cyclic( 05 ,2)": "semidirect_cyclic(5,2)",
    "sl23( )": "sl23",
    "direct_product( cyclic(02) , direct_product(dicyclic(2),symmetric( 3)))":
        "direct_product(cyclic(2),direct_product(dicyclic(2),symmetric(3)))",
}


def test_report_id_is_the_canonical_spec():
    # a construction's report id is the name its constructor gives the
    # group, so every constructor must name it by its canonical spec
    assert {parse_spec_string(s)[0] for s in SPELLINGS} == {*_FLAT_BUILDERS, "direct_product"}
    for spelling, canonical in SPELLINGS.items():
        assert _run_one(GroupSpec(spelling), None)["group_id"] == canonical


@pytest.mark.parametrize("spec", ["cyclic(\u00b2)", "cyclic(\u0663)"])
def test_non_ascii_digit_is_input_error(spec, capsys):
    # '²' passes str.isdigit and '٣' passes int(); neither is a spec digit
    code, out, err = run_cli(["analyze", spec], capsys)
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: expected a constructor name at position 7 in spec {spec!r}\n"


def test_verify_corpus_dir(tmp_path, capsys, s3, q8):
    save_group(s3, tmp_path / "a_s3.json")
    save_group(q8, tmp_path / "b_q8.json")
    code, out, _ = run_cli(["verify", "--max-order", "2", "--corpus", str(tmp_path)],
                           capsys)
    assert code == EXIT_OK
    records = parse_jsonl(out)
    assert any("a_s3" in r["group_id"] for r in records)


def test_verify_parallel_matches_serial(capsys):
    code1, out1, _ = run_cli(["verify", "--max-order", "24"], capsys)
    code2, out2, _ = run_cli(["verify", "--max-order", "24", "--parallelism", "2"],
                             capsys)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_catalog(capsys):
    code, out, _ = run_cli(["catalog", "--max-order", "10"], capsys)
    assert code == EXIT_OK
    names = out.splitlines()
    for expected in [f"cyclic({n})" for n in range(1, 11)]:
        assert expected in names
    code, out, _ = run_cli(["catalog", "--max-order", "1100"], capsys)
    assert "heisenberg_frobenius(7,3)" in out.splitlines()


def test_catalog_zero_is_input_error(capsys):
    code, _, err = run_cli(["catalog", "--max-order", "0"], capsys)
    assert code == EXIT_INPUT


def test_max_order_capped_by_guard(capsys, monkeypatch):
    code, _, err = run_cli(["verify", "--max-order", "6000"], capsys)
    assert code == EXIT_INPUT and "NACENT_MAX_ORDER" in err
    monkeypatch.setenv("NACENT_MAX_ORDER", "7000")
    code, out, _ = run_cli(["catalog", "--max-order", "7000"], capsys)
    assert code == EXIT_OK
    assert "heisenberg_frobenius(13,3)" in out.splitlines()


@pytest.mark.parametrize("raw", ["abc", "7000x", "0", "-5"])
def test_bad_order_guard_env_is_input_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("NACENT_MAX_ORDER", raw)
    for argv in (["verify", "--max-order", "4"], ["analyze", "cyclic(3)"]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_INPUT and out == ""
        assert "NACENT_MAX_ORDER must be a positive integer" in err and repr(raw) in err
        assert "exceeds the global order guard" not in err


@pytest.mark.parametrize("raw", ["9" * 5000, "\u0663"], ids=["5000-digits", "arabic-indic-3"])
def test_unreadable_order_guard_env_is_one_short_error(capsys, monkeypatch, raw):
    # past int()'s limit on digits, and an Arabic-Indic 3 that isdecimal()
    # takes but the ASCII-digit rule of specs does not
    monkeypatch.setenv("NACENT_MAX_ORDER", raw)
    code, out, err = run_cli(["catalog"], capsys)
    assert code == EXIT_INPUT and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: NACENT_MAX_ORDER must be a positive integer, got ")
    assert len(line) <= 120


@pytest.mark.parametrize("argv", [
    ["analyze", f"heisenberg({'9' * 1500})"],
    ["analyze", f"dicyclic({'9' * 4300})"],
    ["analyze", f"agl1({'9' * 4300})"],
    ["analyze", f"semidirect_cyclic({'9' * 4300},{'9' * 4300})"],
    ["analyze", f"symmetric({'9' * 4300})"],
    ["analyze", f"cyclic(1,{'9' * 4300})"],
    ["analyze", f"semidirect_cyclic(1,{'9' * 4300})"],
    ["verify", "--max-order", "9" * 4300],
    ["verify", "--max-order", "9" * 4301],
    ["analyze", "cyclic(3)", "--parallelism", "9" * 4301],
], ids=["heisenberg", "dicyclic", "agl1", "semidirect_cyclic", "symmetric", "cyclic-arity",
        "semidirect_cyclic-k", "max-order", "max-order-4301-digits", "parallelism-4301-digits"])
def test_huge_parameter_is_one_short_error(capsys, argv):
    # an order or parameter past the 4300 digits str() converts is quoted
    # by its leading digits, not in full and not through a traceback
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_INPUT and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and len(line) <= 120


@pytest.mark.parametrize("raw", ["\u0663", "1_0", "-5", "0"],
                         ids=["arabic-indic-3", "underscore", "negative", "zero"])
@pytest.mark.parametrize("argv", [
    ["catalog", "--max-order"], ["verify", "--max-order"], ["analyze", "cyclic(3)", "--max-order"],
    ["verify", "--parallelism"], ["analyze", "cyclic(3)", "--parallelism"],
], ids=["catalog-max-order", "verify-max-order", "analyze-max-order", "verify-parallelism",
        "analyze-parallelism"])
def test_integer_flags_follow_the_order_guard_rule(capsys, argv, raw):
    # int() reads all four as integers; the rule of NACENT_MAX_ORDER takes
    # positive integers in ASCII digits only
    code, out, err = run_cli(argv + [raw], capsys)
    assert code == EXIT_INPUT and out == ""
    (line,) = err.splitlines()
    assert line == f"error: {argv[-1]} must be a positive integer, got {raw!r}"


def test_parallelism_capped_by_specs(capsys, monkeypatch):
    # no process is started: the pool records its size and maps in this one
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, _ = run_cli(["analyze", "cyclic(2)", "cyclic(3)", "--parallelism", "1000000"],
                           capsys)
    assert code == EXIT_OK
    assert [r["group_id"] for r in parse_jsonl(out)] == ["cyclic(2)", "cyclic(3)"]
    assert len(sizes) == 1 and 1 <= sizes[0] <= 2


def test_parallelism_must_be_positive(capsys):
    code, _, err = run_cli(["verify", "--max-order", "4", "--parallelism", "0"],
                           capsys)
    assert code == EXIT_INPUT


def test_csv_json_schema_parity(capsys, tmp_path):
    code, out_json, _ = run_cli(["analyze", "symmetric(3)", "cyclic(4)"], capsys)
    json_records = parse_jsonl(out_json)
    code, out_csv, _ = run_cli(
        ["analyze", "--format", "csv", "symmetric(3)", "cyclic(4)"], capsys)
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert set(rows[0].keys()) == set(REPORT_FIELDS)
    for jrec, crow in zip(json_records, rows):
        assert set(jrec.keys()) == set(crow.keys())
        assert jrec["group_id"] == crow["group_id"]
        assert jrec["order"] == int(crow["order"])
        assert jrec["consequences"] == json.loads(crow["consequences"])
        assert jrec["case_data"] == json.loads(crow["case_data"])


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.jsonl"
    code, out, _ = run_cli(["analyze", "--out", str(dest), "cyclic(3)"], capsys)
    assert code == EXIT_OK
    assert out == ""
    assert parse_jsonl(dest.read_text())[0]["category"] == "abelian"


@pytest.mark.parametrize("spec", ["dihedral(5)", "dihedral(4)"])
def test_reported_groups_are_freed_by_reference_counting(spec, monkeypatch):
    # no memoized value holds its own group, so every group built for a
    # report, its center quotient included, is freed without the cyclic GC:
    # dihedral(5) has a trivial center (its center quotient is itself),
    # dihedral(4) has the quotient C2 x C2
    made = []
    init = FiniteGroup.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(FiniteGroup, "__init__", recording_init)
    gc.disable()
    try:
        record = _run_one(GroupSpec(spec), None)
        alive = [G for ref in made if (G := ref()) is not None]
    finally:
        gc.enable()
    assert record["category"] == "ca"
    assert made and alive == [], alive


# loaded by what a default run never calls: numpy.ma by some np.unique
# paths (1.6 MB), hashlib's OpenSSL by file ids (3.5 MB), the process pool
# by --parallelism above 1 (1.9 MB)
UNUSED_MODULES = ("numpy.ma", "hashlib", "_hashlib", "multiprocessing",
                  "concurrent.futures.process")


def test_runs_load_only_what_they_use(tmp_path, run_fresh):
    out = str(tmp_path / "out.jsonl")
    loaded = run_fresh(
        "import json, sys\n"
        "from nacent.cli import main\n"
        f"main(['verify', '--max-order', '60', '--out', {out!r}])\n"
        f"main(['analyze', 'heisenberg_frobenius(7,3)', '--out', {out!r}])\n"
        f"print(json.dumps([m for m in {UNUSED_MODULES!r} if m in sys.modules]))\n")
    assert loaded == []


def test_analyze_peak_rss_within_table_multiple(analyze_fresh):
    # a whole `analyze` run of the order-6591 flagship, less the floor of an
    # interpreter that has only imported nacent.cli, stays within 1.15 times
    # its table
    code, _, tables = analyze_fresh("heisenberg_frobenius(13,3)", 7000)
    assert code == EXIT_OK
    assert tables <= 1.15, tables
