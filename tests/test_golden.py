"""Golden reports: every CLI command, run in-process on a small config,
prints exactly the bytes committed under ``tests/golden/``.

A refactor proves itself byte-identical against this corpus.  After a
deliberate report change, regenerate it with
``PYTHONPATH=src python tests/test_golden.py`` and review every file that
moved.  ``python tests/test_golden.py --fresh`` instead runs each case as
its own ``python -m coarseentropy.cli`` process and exits 1 if any prints
other bytes than its golden file.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coarseentropy import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"

# replaced by a file in a scratch directory; its basename enters the report
PATHS_OUT = "paths.jsonl"
SMALL_TREE_LINE = '{"max_tree": 4, "schedule": "2^n"}'
CYCLE = str(DATA / "cycle20_fraction.csv")  # weights (51 + 37 v mod 50) / 100
PATH41 = str(DATA / "path41.csv")

# golden file name -> argv; the extension follows --format
CASES = {
    "growth_int_line.json": ["growth", "--space", "int_line", "--window", "8"],
    "growth_branch_tree_measured.csv": [
        "growth", "--space", "branch_tree", "--params", '{"max_depth": 6, "measured": true}',
        "--window", "5", "--format", "csv"],
    # radius 2: the tree neighbours walk two hop shells
    "growth_branch_tree_delta2.json": ["growth", "--space", "branch_tree",
                                       "--params", '{"max_depth": 6}', "--delta", "2",
                                       "--window", "2"],
    "growth_regular_tree_delta2.json": ["growth", "--space", "regular_tree", "--delta", "2",
                                        "--window", "3"],
    # prime_cycle balls that hold whole glued cycles and arcs of them
    "growth_prime_cycle_delta5.json": ["growth", "--space", "prime_cycle", "--delta", "5",
                                       "--window", "8"],
    "orbits_int_line.json": ["orbits", "--space", "int_line", "--n", "5",
                             "--paths-out", PATHS_OUT],
    "orbits_prime_cycle_delta4.json": ["orbits", "--space", "prime_cycle", "--delta", "4",
                                       "--n", "2", "--paths-out", PATHS_OUT],
    "rates_int_line_separated.json": ["rates", "--space", "int_line", "--n", "0,3,6",
                                      "--radius", "4"],
    "rates_int_line_dense.json": ["rates", "--space", "int_line", "--n", "0,3,6",
                                  "--radius", "4", "--mode", "dense"],
    "rates_regular_tree.json": ["rates", "--space", "regular_tree", "--n", "0,2,4",
                                "--radius", "2"],
    "rates_log_line.json": ["rates", "--space", "log_line", "--n", "0,3,4", "--radius", "2"],
    "rates_cycle20_fraction.csv": ["rates", "--edges", CYCLE, "--n", "0,2,3,5",
                                   "--radius", "3/2", "--format", "csv"],
    "witness_tree_line_small.json": ["witness", "--space", "tree_line", "--params",
                                     SMALL_TREE_LINE, "--delta", "1", "--radius", "2",
                                     "--p", "2"],
    "witness_tree_line_p4.json": ["witness", "--space", "tree_line", "--p", "4"],
    "classify_int_line.json": ["classify", "--space", "int_line"],
    # the slope-fit growth rule over radius-1 step balls
    "classify_regular_tree.json": ["classify", "--space", "regular_tree",
                                   "--params", '{"max_depth": 9}', "--window", "8"],
    "classify_tree_line.json": ["classify", "--space", "tree_line"],
    "classify_prime_cycle.json": ["classify", "--space", "prime_cycle",
                                  "--params", '{"max_line": 64}'],
    # the default max_line of 512, as the ball-growth benchmark runs it
    "classify_prime_cycle_default.json": ["classify", "--space", "prime_cycle"],
    "classify_log_line.json": ["classify", "--space", "log_line"],
    "qgcheck_log_line.json": ["qgcheck", "--space", "log_line"],
    "qgcheck_int_line.csv": ["qgcheck", "--space", "int_line", "--format", "csv"],
    # a plain graph has no closed-form hop count, so every pair is searched
    "qgcheck_path41.json": ["qgcheck", "--edges", PATH41],
    "bgcheck_branch_tree.json": ["bgcheck", "--space", "branch_tree",
                                 "--params", '{"max_depth": 8}'],
    "bgcheck_int_line.json": ["bgcheck", "--space", "int_line", "--delta", "2",
                              "--radius", "4"],
    "obstruct_tree_line_prime_cycle.json": ["obstruct", "--space", "tree_line",
                                            "--target-space", "prime_cycle"],
}


def run_case(argv, workdir: Path):
    """(exit code, stdout, stderr, --paths-out text or None) of one argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(workdir / a) if a == PATHS_OUT else a for a in argv])
    paths_text = read(workdir / PATHS_OUT) if PATHS_OUT in argv and code == 0 else None
    return code, out.getvalue(), err.getvalue(), paths_text


def read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def paths_golden(name: str) -> Path:
    return GOLDEN / (name.rsplit(".", 1)[0] + ".paths.jsonl")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, out, err, paths_text = run_case(CASES[name], tmp_path)
    assert (code, err) == (0, "")
    assert out == read(GOLDEN / name)
    if PATHS_OUT in CASES[name]:
        assert paths_text == read(paths_golden(name))


# argv that fail between the goldens: an unknown flag, bad --params JSON, --p 0
FAILING = {
    ("growth", "--space", "int_line", "--bogus"):
        "config error: unrecognized arguments: --bogus\n",
    ("classify", "--space", "int_line", "--params", "{not json"):
        "config error: --params is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)\n",
    ("witness", "--space", "tree_line", "--p", "0"): "config error: --p must be >= 1\n",
}


def test_goldens_repeat_in_one_process_after_failures(tmp_path):
    # main keeps one parser per process: neither a failed argv nor an
    # earlier report may change what a later argv prints
    for _ in range(2):
        for name, argv in sorted(CASES.items()):
            for bad, message in FAILING.items():
                assert run_case(list(bad), tmp_path) == (1, "", message, None)
            code, out, err, paths_text = run_case(argv, tmp_path)
            assert (code, err) == (0, "")
            assert out == read(GOLDEN / name), name
            if PATHS_OUT in argv:
                assert paths_text == read(paths_golden(name))


def test_every_golden_file_has_a_case():
    expected = set(CASES) | {paths_golden(n).name for n, argv in CASES.items()
                             if PATHS_OUT in argv}
    assert {p.name for p in GOLDEN.iterdir()} == expected


def fresh_mismatches(name: str, argv, workdir: Path):
    """What a separate ``python -m coarseentropy.cli`` process running the
    case gets wrong against its golden bytes: a list of messages."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "coarseentropy.cli",
         *(str(workdir / a) if a == PATHS_OUT else a for a in argv)],
        capture_output=True, env=env, timeout=120)
    wrong = []
    if proc.returncode != 0 or proc.stderr:
        wrong.append(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')}")
    if proc.stdout != (GOLDEN / name).read_bytes():
        wrong.append("stdout differs from its golden file")
    dump = workdir / PATHS_OUT
    if PATHS_OUT in argv and not (dump.exists()
                                  and dump.read_bytes() == paths_golden(name).read_bytes()):
        wrong.append("--paths-out differs from its golden file")
    return wrong


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] not in ([], ["--fresh"]):
        sys.exit("usage: python tests/test_golden.py [--fresh]")
    if sys.argv[1:] == ["--fresh"]:
        failed = 0
        for name, argv in sorted(CASES.items()):
            with tempfile.TemporaryDirectory() as tmp:
                wrong = fresh_mismatches(name, argv, Path(tmp))
            failed += bool(wrong)
            print(name, "; ".join(wrong) or "ok")
        sys.exit(1 if failed else 0)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err, paths_text = run_case(argv, Path(tmp))
        if code != 0 or err:
            sys.exit(f"{name}: exit {code}: {err}")
        write(GOLDEN / name, out)
        if paths_text is not None:
            write(paths_golden(name), paths_text)
        print(name)
