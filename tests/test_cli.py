import io
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revca import cli, rules, sequences, verify
from revca.cli import (_GREATEST_TABLE_MAX, _sequence_rows, main,
                       state_from_text, state_to_text)
from revca.gf2poly import state_poly_at
from revca.grid import count_values, grid_to_text, single_seed
from revca.render import render
from revca.rules import LIFT_NAMES, Rule, evolve
from revca.verify import _GREATEST_RANGE


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_txt(capsys):
    code, out, _ = run(capsys, "simulate", "--rule", "R1", "--steps", "7")
    assert code == 0
    assert out == "n=7 R1=64 R2=21 R3=0 R=85\n"


def test_simulate_zero_steps(capsys):
    code, out, _ = run(capsys, "simulate", "--rule", "R1", "--steps", "0")
    assert code == 0
    assert out == "n=0 R1=1 R2=0 R3=0 R=1\n"


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "--rule", "R2", "--steps", "3",
                       "--format", "json")
    assert json.loads(out) == {"n": 3, "R1": 16, "R2": 5, "R3": 0, "R": 21}


def test_simulate_save_load_round_trip(tmp_path, capsys):
    st = tmp_path / "state.txt"
    code, _, _ = run(capsys, "simulate", "--rule", "R2", "--steps", "-3",
                     "--save", str(st))
    assert code == 0
    code, out, _ = run(capsys, "simulate", "--rule", "R2", "--steps", "3",
                       "--load", str(st))
    assert code == 0
    assert out == "n=3 R1=1 R2=0 R3=0 R=1\n"  # back at the seed


def test_save_past_int64_is_exact_and_load_refuses_it(tmp_path, capsys):
    # one R2 step from i = 2^63 - 1 reaches i = 2^63: --save writes it
    # exactly (not wrapped to -2^63), and the int64 parser refuses the file
    edge, out = tmp_path / "edge.txt", tmp_path / "out.txt"
    edge.write_text(f"#bgrid v1 count=1\n{2**63 - 1} 0\n#bgrid v1 count=0\n")
    code, _, _ = run(capsys, "simulate", "--rule", "R2", "--steps", "1",
                     "--load", str(edge), "--save", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert f"{2**63} 0" in lines and f"{-2**63} 0" not in lines
    code, out_, err = run(capsys, "simulate", "--rule", "R2", "--steps", "0",
                          "--load", str(out))
    assert code == 2 and out_ == ""
    assert err.startswith("error: malformed '#bgrid v1' block")


def test_state_text_round_trip():
    s = evolve(Rule.C1, single_seed(), 4)
    assert state_from_text(state_to_text(s)) == s


def test_sequence_csv_matches_table(capsys):
    code, out, _ = run(capsys, "sequence", "--which", "R", "--max", "15",
                       "--method", "recursive", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,R"
    assert len(lines) == 17
    assert lines[1] == "0,1" and lines[8] == "7,85" and lines[16] == "15,341"


def test_sequence_full_table(capsys):
    code, out, _ = run(capsys, "sequence", "--max", "2")
    assert out == "n,R,R1,R2\n0,1,1,0\n1,5,4,1\n2,9,5,4\n"


def test_sequence_r2_base(capsys):
    code, out, _ = run(capsys, "sequence", "--which", "R2", "--max", "1")
    assert out.strip().splitlines()[1:] == ["0,0", "1,1"]


def test_sequence_check_and_methods_agree(capsys):
    baseline = None
    for method in ("recursive", "alt", "sim", "poly"):
        code, out, _ = run(capsys, "sequence", "--max", "40",
                           "--method", method, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        baseline = baseline or rows
        assert rows == baseline
    code, _, _ = run(capsys, "sequence", "--which", "R", "--max", "40",
                     "--check")
    assert code == 0


def test_sequence_check_mismatch_exit_3(capsys, monkeypatch):
    # the alt column reads each sequence through one _alt_terms function
    good = sequences._alt_terms

    def off_by_one(which):
        term, wrong = good(which), which is sequences.SeqId.R1
        return lambda n: term(n) + (1 if wrong and n == 17 else 0)

    monkeypatch.setattr(sequences, "_alt_terms", off_by_one)
    code, out, err = run(capsys, "sequence", "--max", "40", "--check")
    assert code == 3
    assert out == ""
    assert err.startswith("mismatch: R1(17) recursive=")


def test_poly_columns_keep_one_pair_alive():
    pair = state_poly_at(Rule.C2, 200)
    pair_bytes = pair.first.window.nbytes + pair.second.window.nbytes
    del pair
    tracemalloc.start()
    try:
        rows = _sequence_rows("poly", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == _sequence_rows("recursive", 200)
    assert peak < 2 * pair_bytes


def test_sequence_check_matches_golden(capsys):
    code, out, err = run(capsys, "sequence", "--which", "R", "--max", "200",
                         "--check")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "sequence_R_200_check.txt").read_text()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max", "64")
    assert code == 0
    assert "counts" in out and "PASS" in out


def test_verify_env_default(capsys, monkeypatch):
    monkeypatch.setenv("CA_DEFAULT_MAX", "16")
    code, out, _ = run(capsys, "verify", "--suite", "sublattice")
    assert code == 0
    assert "n=0..16" in out
    monkeypatch.setenv("CA_DEFAULT_MAX", "x")
    assert run(capsys, "verify") == (
        2, "", "error: CA_DEFAULT_MAX must be an integer, got 'x'\n")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "diamond", "--max", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["passed"] is True


def test_render_txt(capsys):
    code, out, _ = run(capsys, "render", "--rule", "R1", "--step", "1",
                       "--format", "txt")
    assert code == 0
    assert out == "1.1\n.2.\n1.1\n"


def test_render_to_file(tmp_path, capsys):
    out_file = tmp_path / "img.ppm"
    code, _, _ = run(capsys, "render", "--rule", "R1", "--step", "7",
                     "--format", "ppm", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("P3\n15 15\n255")


def test_export(capsys):
    code, out, _ = run(capsys, "export", "--rule", "R1", "--steps", "1")
    assert code == 0
    assert out.count("#bgrid v1") == 2
    assert state_from_text(out) == evolve(Rule.C1, single_seed(), 1)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--steps", "3"])  # missing --rule
    assert e.value.code == 2
    assert main(["simulate", "--rule", "R9", "--steps", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "diamond", "--max", "-1"),
    ("verify", "--suite", "polynomial", "--max", "-5"),
    ("verify", "--suite", "all", "--max", "-1"),
    ("sequence", "--max", "-3"),
])
def test_empty_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "empty" in err


def test_verify_all_checks_every_range_first(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--max", "0")
    assert code == 2
    assert out == ""
    assert "backward_growth" in err


def seed_commands(lift, n, out):
    """simulate with --save, export and render in each format of the seed
    state at step n; each writes the file of its name under out."""
    common = ["--rule", lift, "--steps", str(n)]
    argvs = {"simulate": ["simulate", *common, "--out", str(out / "simulate"),
                          "--save", str(out / "save")],
             "export": ["export", *common, "--out", str(out / "export")]}
    for fmt in ("txt", "pbm", "ppm"):
        argvs[fmt] = ["render", "--rule", lift, "--step", str(n),
                      "--format", fmt, "--out", str(out / fmt)]
    return argvs


class _Walked(Exception):
    pass


def _no_walk(*args):
    raise _Walked


@pytest.mark.parametrize("lift", ["R1", "R2"])
@pytest.mark.parametrize("n", [-5, 0, 64])
def test_linear_seed_states_take_no_walk(tmp_path, monkeypatch, lift, n):
    monkeypatch.setattr(rules, "_walk", _no_walk)
    for argv in seed_commands(lift, n, tmp_path).values():
        assert main(argv) == 0


@pytest.mark.parametrize("lift", ["R3", "R3p"])
@pytest.mark.parametrize("n", [-5, 64])
def test_nonlinear_seed_states_walk(tmp_path, monkeypatch, lift, n):
    # R3 and R3p equal R2 from the seed only by the equivalence theorem
    monkeypatch.setattr(rules, "_walk", _no_walk)
    for argv in seed_commands(lift, n, tmp_path).values():
        with pytest.raises(_Walked):
            main(argv)


def test_loaded_states_walk(tmp_path, monkeypatch):
    st = tmp_path / "state.txt"
    assert main(["export", "--rule", "R1", "--steps", "4",
                 "--out", str(st)]) == 0
    monkeypatch.setattr(rules, "_walk", _no_walk)
    with pytest.raises(_Walked):
        main(["simulate", "--rule", "R1", "--steps", "3", "--load", str(st)])


@pytest.mark.parametrize("lift", ["R1", "R2"])
@pytest.mark.parametrize("n", [-300, -64, -1, 0, 1, 64, 257])
def test_linear_seed_states_write_the_walks_bytes(tmp_path, lift, n):
    s = evolve(LIFT_NAMES[lift], single_seed(), n)
    c = count_values(s, n)
    want = {"simulate": f"n={n} R1={c.r1} R2={c.r2} R3={c.r3} R={c.total}\n",
            "save": state_to_text(s), "export": state_to_text(s)}
    want.update((fmt, render(s, abs(n), fmt)) for fmt in ("txt", "pbm", "ppm"))
    for argv in seed_commands(lift, n, tmp_path).values():
        assert main(argv) == 0
    for name, text in want.items():
        assert (tmp_path / name).read_text() == text, name


@pytest.mark.parametrize("argv", [
    ("simulate", "--rule", "R1", "--steps", "100000"),
    ("render", "--rule", "R1", "--step", "100000"),
])
def test_walk_size_guard_exit_2(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "spans more than" in err


@pytest.mark.parametrize("argv", [
    ("sequence", "--method", "poly", "--max", "100000000"),
    ("sequence", "--check", "--max", "100000000"),
    ("sequence", "--method", "sim", "--max", "100000000"),
])
def test_sequence_size_guard_exit_2(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "8190" in err


class _RowsBuilt(Exception):
    pass


@pytest.mark.parametrize("method", ["recursive", "alt"])
def test_table_ceiling_exit_2(capsys, monkeypatch, method):
    def rows(*args):
        raise _RowsBuilt

    monkeypatch.setattr(cli, "_sequence_rows", rows)
    with pytest.raises(_RowsBuilt):  # the ceiling itself is allowed
        main(["sequence", "--method", method,
              "--max", str(_GREATEST_TABLE_MAX)])
    code, out, err = run(capsys, "sequence", "--method", method,
                         "--max", str(_GREATEST_TABLE_MAX + 1))
    assert code == 2 and out == ""
    assert err == (f"error: --max {_GREATEST_TABLE_MAX + 1} is above "
                   f"{_GREATEST_TABLE_MAX}, the ceiling of the recursive "
                   f"and alt tables\n")


@pytest.mark.parametrize("suite", ["counts", "diamond", "replication",
                                   "backward_growth", "all"])
def test_range_ceiling_exit_2(capsys, suite):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--max",
                         str(10**20))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "ceiling" in err


@pytest.mark.parametrize("suite", sorted(_GREATEST_RANGE))
def test_one_above_the_ceiling_exit_2(capsys, suite):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--max",
                         str(_GREATEST_RANGE[suite] + 1))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "ceiling" in err


def test_zero_steps_of_a_state_wider_than_a_plane(tmp_path, capsys):
    # no step runs, so no walk plane is built for the 20001^2-cell box
    st = tmp_path / "state.txt"
    st.write_text("#bgrid v1 count=1\n0 0\n#bgrid v1 count=1\n20000 20000\n")
    code, out, _ = run(capsys, "simulate", "--rule", "R1", "--steps", "0",
                       "--load", str(st))
    assert code == 0 and out == "n=0 R1=1 R2=1 R3=0 R=2\n"


def test_zero_steps_of_states_far_apart_make_no_union(tmp_path, capsys):
    # R3 counts the words the two boxes share, here none: no window over
    # their union, 2^62 columns wide, is made
    st = tmp_path / "state.txt"
    st.write_text(f"#bgrid v1 count=1\n0 0\n#bgrid v1 count=1\n0 {2**62}\n")
    code, out, _ = run(capsys, "simulate", "--rule", "R3", "--steps", "0",
                       "--load", str(st))
    assert code == 0 and out == "n=0 R1=1 R2=1 R3=0 R=2\n"


def test_state_files_with_blank_lines_load(tmp_path, capsys):
    # blank lines before, between and after the blocks start no block
    s = evolve(Rule.C2, single_seed(), 5)
    st = tmp_path / "state.txt"
    st.write_text(state_to_text(s))
    argv = ("simulate", "--rule", "R2", "--steps", "4", "--load", str(st))
    want = run(capsys, *argv)
    assert want[0] == 0 and want[2] == ""
    st.write_text("\n  \n" + grid_to_text(s.current) + "\n\n"
                  + grid_to_text(s.previous) + "\t\n\n")
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("text, err", [
    ("", "error: state file needs 2 grid blocks, found 0\n"),
    ("#bgrid v1 count=1\n0 0\n",
     "error: state file needs 2 grid blocks, found 1\n"),
    ("#bgrid v1 count=0\n" * 3,
     "error: state file needs 2 grid blocks, found 3\n"),
    ("\n0 0\n#bgrid v1 count=0\n", "error: missing '#bgrid v1' header\n"),
])
def test_malformed_state_files_keep_their_messages(tmp_path, capsys, text,
                                                   err):
    st = tmp_path / "state.txt"
    st.write_text(text)
    assert run(capsys, "simulate", "--rule", "R1", "--steps", "1", "--load",
               str(st)) == (2, "", err)


def test_load_header_without_count_exit_2(tmp_path, capsys):
    st = tmp_path / "state.txt"
    st.write_text("#bgrid v1\n0 0\n#bgrid v1 count=0\n")
    code, out, err = run(capsys, "simulate", "--rule", "R1", "--steps", "1",
                         "--load", str(st))
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_io_error_exit_1(capsys):
    code = main(["simulate", "--rule", "R1", "--steps", "1",
                 "--out", "/nonexistent-dir/x.txt"])
    assert code == 1


def test_deterministic_output(capsys):
    a = run(capsys, "verify", "--suite", "replication", "--max", "3")
    b = run(capsys, "verify", "--suite", "replication", "--max", "3")
    assert a == b


# --- cli.main fuzzing: whatever argparse accepts ends in exit 0 or exit 2 ---

rule_names = st.sampled_from(["R1", "R2", "R3", "R3p", "C1", "C2", "C3", "C3p",
                              "R4", "r1", ""])
argvs = st.one_of(
    st.builds(lambda r, n, f: ["simulate", "--rule", r, "--steps", str(n),
                               "--format", f],
              rule_names, st.integers(-12, 12), st.sampled_from(["txt", "json"])),
    st.builds(lambda r, n, f: ["render", "--rule", r, "--step", str(n),
                               "--format", f],
              rule_names, st.integers(-12, 12),
              st.sampled_from(["txt", "pbm", "ppm"])),
    st.builds(lambda r, n: ["export", "--rule", r, "--steps", str(n)],
              rule_names, st.integers(-12, 12)),
    st.builds(lambda w, n, m, f, c: ["sequence", "--which", w, "--max", str(n),
                                     "--method", m, "--format", f] + c,
              st.sampled_from(["R", "R1", "R2", "all"]), st.integers(-3, 40),
              st.sampled_from(["recursive", "alt", "sim", "poly"]),
              st.sampled_from(["csv", "json"]),
              st.sampled_from([[], ["--check"]])),
    st.builds(lambda v, n, f: ["verify", "--suite", v, "--max", str(n),
                               "--format", f],
              st.sampled_from([*verify.SUITES, "all"]), st.integers(-2, 5),
              st.sampled_from(["txt", "json"])),
)

#: saved states to mutate: the seed, and walks with negative coordinates
state_texts = st.sampled_from([
    state_to_text(single_seed()),
    state_to_text(evolve(Rule.C1, single_seed(), 2)),
    state_to_text(evolve(Rule.C2, single_seed(), -3)),
])
#: (operation, position, character): positions wrap around the text
mutations = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                               st.integers(0, 200),
                               st.sampled_from(list("0123456789- \n#bgrid v1count="))),
                     max_size=4)


def mutate(text, ops):
    for op, pos, ch in ops:
        k = pos % (len(text) + 1)
        text = (text[:k] + ch + text[k + (op == "replace"):] if op != "delete"
                else text[:k] + text[k + 1:])
    return text


def assert_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@settings(max_examples=250, deadline=None)
@given(argvs)
def test_main_exits_0_or_2_on_small_flags(argv):
    assert_exit_0_or_2(argv)


@settings(max_examples=350, deadline=None)
@given(state_texts, mutations, st.sampled_from(["R1", "R2", "R3", "R3p"]),
       st.integers(-6, 6))
def test_main_exits_0_or_2_on_mutated_state_files(tmp_path_factory, text, ops,
                                                  rule, steps):
    path = tmp_path_factory.getbasetemp() / "mutated_state.txt"
    path.write_text(mutate(text, ops))
    assert_exit_0_or_2(["simulate", "--rule", rule, "--steps", str(steps),
                        "--load", str(path)])
