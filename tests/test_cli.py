import contextlib
import io
import json
import os
import resource
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

# the first `cone` command of a process imports the cone route (about 20 ms
# without bytecode); loaded here, that import stays out of the examples of
# test_any_cone_file_is_accepted_or_a_usage_error, which run under a deadline
import qtcatalan.cones  # noqa: F401
# and `verify` imports catalog on its first call, which the argv fuzz makes
import qtcatalan.catalog  # noqa: F401
from qtcatalan import cli, oracles
from qtcatalan.cli import grid_to_tsv, main
from qtcatalan.errors import UsageError
from qtcatalan.oracles import refined_catalan
from qtcatalan.polynomial import QT_CONTEXT, LaurentPoly, coefficient_grid

CONE_FILE = """dim 5
apex 0 0 0 0 0
gen closed 1 0 0 0 0
gen closed 0 0 1 0 0
gen closed 1 1 0 1 0
gen open 1 0 0 1 1
gen open 0 1 0 0 1
"""


def parse_grid_tsv(text: str) -> LaurentPoly:
    """Rebuild the polynomial a TSV grid was printed from."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise UsageError("empty grid")
    q_exponents = [int(tok) for tok in lines[0].split("\t")]
    terms = {}
    for t_exp, line in enumerate(lines[1:]):
        cells = [int(tok) for tok in line.split("\t")]
        if len(cells) != len(q_exponents):
            raise UsageError("ragged grid row")
        for q_exp, coef in zip(q_exponents, cells):
            if coef:
                terms[(q_exp, t_exp)] = coef
    return LaurentPoly(QT_CONTEXT, terms)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_paths_listing(capsys):
    code, out, _ = run(capsys, "paths", "--k", "1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ranks=0,1,2 east=0,0,3 area=3 bounce=0"
    assert lines[-1] == "ranks=0,0,0 east=1,1,1 area=0 bounce=3"
    assert [line.split()[-2:] for line in lines] == [
        ["area=3", "bounce=0"],
        ["area=2", "bounce=1"],
        ["area=1", "bounce=1"],
        ["area=1", "bounce=2"],
        ["area=0", "bounce=3"],
    ]


def test_catalan_output(capsys):
    code, out, _ = run(capsys, "catalan", "--k", "1,1,1")
    assert code == 0
    assert out.strip() == "q*t + q^3 + q^2*t + q*t^2 + t^3"

    code, out, _ = run(capsys, "catalan", "--lambda", "2,1")
    assert code == 0
    assert out.strip() == "q + t + q^2 + q*t + t^2"


def test_symmetric_exit_codes(capsys):
    code, out, _ = run(capsys, "symmetric", "--k", "1,1,1")
    assert code == 0 and out.strip() == "symmetric"

    code, out, _ = run(capsys, "symmetric", "--k", "1,1,3,1")
    assert code == 1
    assert out.strip() == "q^4*t^2=2 vs q^2*t^4=1"


def test_grid_tsv_round_trip(capsys):
    code, out, _ = run(capsys, "grid", "--k", "1,2,1", "--format", "tsv")
    assert code == 0
    assert parse_grid_tsv(out) == refined_catalan((1, 2, 1))
    # header lists q exponents
    assert out.splitlines()[0] == "0\t1\t2\t3\t4"


def test_grid_tsv_helper_matches_module():
    poly = refined_catalan((2, 1))
    text = grid_to_tsv(coefficient_grid(poly))
    assert parse_grid_tsv(text) == poly


def test_cone_subcommands(tmp_path, capsys):
    path = tmp_path / "cone.txt"
    path.write_text(CONE_FILE)

    code, out, _ = run(capsys, "cone", str(path), "--pi")
    assert code == 0
    assert out.splitlines() == ["1 1 0 1 1", "1 1 0 1 2"]

    code, out, _ = run(capsys, "cone", str(path), "--index")
    assert code == 0
    assert out.strip() == "index=2 unimodular=no"

    code, out, _ = run(capsys, "cone", str(path), "--transform")
    assert code == 0
    assert out.strip() == (
        "(z1*z2*z4*z5 + z1*z2*z4*z5^2) / "
        "(1 - z3)(1 - z2*z5)(1 - z1)(1 - z1*z4*z5)(1 - z1*z2*z4)"
    )


def test_verify_subcommand(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "three", "--bound", "4")
    assert code == 0
    assert out.splitlines() == [
        "formula_match: pass",
        "series_match: pass",
        "symmetric: pass",
    ]


def test_scan_family(capsys):
    code, out, _ = run(capsys, "scan", "--family", "kaaa", "--max", "2", "--lengths", "4")
    assert code == 0
    assert "(1,2,2,2) symmetric" in out.splitlines()


def test_scan_all_length_finds_asymmetry(capsys):
    code, out, _ = run(capsys, "scan", "--all-length", "4", "--max", "2")
    assert code == 1
    assert "(1,1,2,1) asymmetric q^3*t^2=2 vs q^2*t^3=1" in out


def test_lastparam(capsys):
    code, out, _ = run(capsys, "lastparam", "--prefix", "1,1,1", "--m", "2", "--l", "3")
    assert code == 0 and out.strip() == "equal"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "catalan", "--k", "1,x")
    assert code == 2 and "error" in err

    code, _, _ = run(capsys, "frobnicate")
    assert code == 2

    code, _, err = run(capsys, "cone", "/nonexistent/file", "--pi")
    assert code == 2

    code, _, err = run(capsys, "catalan", "--k", "0,1")
    assert code == 2

    code, _, _ = run(capsys, "lastparam", "--prefix", "1", "--m", "0", "--l", "1")
    assert code == 2


def test_outputs_are_reproducible(capsys):
    first = run(capsys, "catalan", "--k", "2,1,2")
    second = run(capsys, "catalan", "--k", "2,1,2")
    assert first == second


def test_bad_scan_lengths_are_usage_errors(capsys):
    code, out, err = run(capsys, "scan", "--family", "kaaa", "--lengths", "x", "--max", "2")
    assert code == 2 and out == "" and err.startswith("error: ")

    code, _, err = run(capsys, "scan", "--family", "kaaa", "--lengths", "1", "--max", "2")
    assert code == 2 and err.startswith("error: ")


def test_undecodable_cone_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cone.txt"
    path.write_bytes(b"\xff\xfe dim 2\n")
    code, out, err = run(capsys, "cone", str(path), "--pi")
    assert code == 2 and out == "" and err.startswith("error: cannot read ")


def test_bounds_below_one_are_usage_errors(capsys):
    for argv in (
        ("verify", "--theorem", "k4", "--bound", "0"),
        ("verify", "--theorem", "k4", "--bound", "-1"),
        ("scan", "--family", "kaaa", "--max", "0"),
        ("scan", "--all-length", "3", "--max", "0"),
        ("scan", "--all-length", "-1", "--max", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error: " in err, argv


def test_cone_index_beyond_the_enumeration_limit_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cone.txt"
    path.write_text("dim 2\ngen closed 100000 0\ngen closed 0 100000\n")
    for flag in ("--pi", "--transform"):
        code, out, err = run(capsys, "cone", str(path), flag)
        assert code == 2 and out == "" and "10000000000" in err, flag
    code, out, _ = run(capsys, "cone", str(path), "--index")
    assert code == 0 and out == "index=10000000000 unimodular=no\n"


def test_unexpected_exceptions_are_internal_errors(capsys, monkeypatch):
    def overflow(parts):
        raise OverflowError("int too large to convert")

    monkeypatch.setattr(cli, "refined_catalan", overflow)
    code, out, err = run(capsys, "catalan", "--k", "1,2")
    assert code == 3 and out == ""
    assert err == "internal error: OverflowError: int too large to convert\n"


def test_run_lengths_beyond_the_path_work_limit_are_usage_errors(capsys):
    limit = str(oracles.MAX_PATH_WORK)
    for argv in (
        ("paths", "--k", "99999999999999999999999"),
        ("paths", "--k", "1000000000"),
        ("catalan", "--k", ",".join(["2"] * 11)),
        ("catalan", "--lambda", ",".join(["1"] * 40)),
        ("symmetric", "--k", "1,1,1,100000000"),
        ("grid", "--k", "100000000,1"),
        ("lastparam", "--prefix", "1,1,1", "--m", "2", "--l", "100000000"),
        ("lastparam", "--prefix", "1,1,1", "--m", "100000000", "--l", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and limit in err, argv


def test_path_work_limit_admits_the_largest_documented_inputs(capsys):
    # 16,796 paths of n = 10, and 6,006 paths over the rearrangements of (3,2,2,1,1)
    code, out, _ = run(capsys, "catalan", "--k", ",".join(["1"] * 10))
    assert code == 0 and out.strip()
    code, out, _ = run(capsys, "catalan", "--lambda", "3,2,2,1,1")
    assert code == 0 and out.strip()


def test_verify_work_limit_admits_the_largest_documented_inputs(capsys):
    # the members' path work: kaaa 16 is 18,812,268, k4 24 is 21,051,680 and
    # three 12 (the benchmark's bound) is 58,773; kaaa 17 and k4 25 pass the limit
    for name, bound in (("kaaa", 16), ("k4", 24), ("three", 12)):
        oracles.check_verify_work(name, bound)
    for name, bound in (("kaaa", 17), ("k4", 25), ("three", 40), ("k4", 10**30)):
        code, out, err = run(capsys, "verify", "--theorem", name, "--bound", str(bound))
        assert code == 2 and out == "" and str(oracles.MAX_VERIFY_WORK) in err, (name, bound)


def test_verify_beyond_the_work_limit_exits_at_once():
    # three --bound 100000 has about 1.7 * 10^14 sizes within the bound, and
    # each of kaaa --bound 40 and k4 --bound 200 ran past 30 s without a limit
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for name, bound in (("three", "100000"), ("kaaa", "40"), ("k4", "200")):
        start = time.monotonic()
        result = subprocess.run(
            [sys.executable, "-m", "qtcatalan.cli", "verify", "--theorem", name, "--bound", bound],
            env=env, capture_output=True, text=True, timeout=30,
        )
        elapsed = time.monotonic() - start
        assert result.returncode == 2 and result.stdout == "", name
        assert str(oracles.MAX_VERIFY_WORK) in result.stderr and elapsed < 1.0, (name, elapsed)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_scans_beyond_the_path_work_limit_are_usage_errors_before_any_output():
    # each scan asks for about 10^10 vectors; a scan that lists them first runs out of
    # its 1 GB address space or past the timeout instead of exiting at once
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in (
        ("--all-length", "10", "--max", "10"),
        ("--family", "kaaa", "--max", "100000"),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "qtcatalan.cli", "scan", *argv],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
        )
        assert result.returncode == 2 and result.stdout == "", argv
        assert result.stderr.startswith("error: ") and str(oracles.MAX_PATH_WORK) in result.stderr


def test_scans_of_oversized_arguments_are_usage_errors_before_any_vector(capsys):
    # itertools.product once made its pools first, a huge --max range or --all-length
    # repeat, and (a,) * length overflowed: MemoryError or OverflowError, exit 3
    for argv in (
        ("--all-length", "99999999999", "--max", "1"),
        ("--all-length", "3", "--max", "99999999999"),
        ("--family", "kaaa", "--max", "1", "--lengths", "2,99999999999999999999"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, "scan", *argv)
        assert code == 2 and out == "" and err.startswith("error: "), (argv, err)
        assert str(oracles.MAX_PATH_WORK) in err and time.monotonic() - start < 1.0, argv


def test_work_refusals_give_a_long_vector_by_its_length(capsys):
    # the refusal once printed every part: 10 MB of stderr for the scan, after 1.3 s
    for argv, runs in (
        (("scan", "--family", "kaaa", "--max", "1", "--lengths", "2,5000000"), "5000000 runs"),
        (("catalan", "--k", ",".join(["1"] * 100000)), "100000 runs"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and runs in err and len(err) < 200, (argv, err[:200])
        assert time.monotonic() - start < 1.0, argv


# each library call past a work limit, the limit it names, and the argv that asks
# the CLI for the same work
LIBRARY_REFUSALS = [
    ("oracles.kvectors_of_length(3, 10**11)", oracles.MAX_PATH_WORK,
     ("scan", "--all-length", "3", "--max", str(10**11))),
    ("oracles.repeated_tail_vectors(1, [10**20])", oracles.MAX_PATH_WORK,
     ("scan", "--family", "kaaa", "--max", "1", "--lengths", str(10**20))),
    ('verify.verify_theorem("k4", 60)', oracles.MAX_VERIFY_WORK,
     ("verify", "--theorem", "k4", "--bound", "60")),
    ('verify.verify_theorem("kaaa", 40)', oracles.MAX_VERIFY_WORK,
     ("verify", "--theorem", "kaaa", "--bound", "40")),
    ("oracles.lambda_catalan((1,) * 40)", oracles.MAX_PATH_WORK,
     ("catalan", "--lambda", ",".join(["1"] * 40))),
    ("oracles.check_last_param((1, 1, 1), 2, 10**8)", oracles.MAX_PATH_WORK,
     ("lastparam", "--prefix", "1,1,1", "--m", "2", "--l", str(10**8))),
]

LIBRARY_CALLS = """
import json, sys, time
from qtcatalan import oracles, verify

outcomes = []
for call in sys.argv[1:]:
    start = time.monotonic()
    try:
        eval(call)
        outcome = ["returned", ""]
    except Exception as exc:
        outcome = [type(exc).__name__, str(exc)]
    outcomes.append(outcome + [time.monotonic() - start])
print(json.dumps(outcomes))
"""


def test_library_calls_beyond_the_work_limits_refuse_at_once(capsys):
    # the limits once lived only in the CLI: the scans ran out of memory or returned
    # a generator whose first vector overflowed, and each verify ran past a minute;
    # run apart, under the 1 GB address space and a timeout, so none of that can hang
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-c", LIBRARY_CALLS, *(call for call, _, _ in LIBRARY_REFUSALS)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert result.returncode == 0, result.stderr
    for (call, limit, argv), (kind, message, seconds) in zip(LIBRARY_REFUSALS, json.loads(result.stdout)):
        assert kind == "UsageError" and str(limit) in message and seconds < 1.0, (call, kind, message, seconds)
        # the CLI prints the library's refusal as it is
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), call


def test_exponent_apex_is_a_usage_error_at_once(tmp_path):
    # Fraction("1e999999999") would build the number exactly, for minutes
    path = tmp_path / "cone.txt"
    path.write_text("dim 1\napex 1e999999999\ngen closed 1\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "qtcatalan.cli", "cone", str(path), "--index"],
        env=env, capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: line 2: apex")


# the tracer wraps only loaded modules, and the CLI loads the cone route when a
# command needs it, so this loads what it traces first, as bench/sample.py does
TRACED_RUN = """
import contextlib, io, json, sys
import qtcatalan
from qtcatalan import cli
from qtcatalan import catalog, cones
from tracing import Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "counts": tracer.counts, "absent": tracer.absent}))
"""


def test_the_benchmark_tracer_sees_the_verify_spans_through_the_cli(tmp_path):
    # the tracer rebinds every module's name for a traced function; the oracle
    # refined_catalan is traced as verify.refined_catalan, and the CLI reaches it
    # through its own binding; `cone` imports its names from cones when it runs,
    # and reads the traced ones; run apart, since the tracer rebinds for good
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    cone_file = tmp_path / "cone.txt"
    cone_file.write_text(CONE_FILE)
    argvs = [
        ["catalan", "--k", "1,2,1"],
        ["symmetric", "--k", "2,1,1,1"],
        ["verify", "--theorem", "three", "--bound", "3"],
        ["cone", str(cone_file), "--index"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0, 0, 0, 0] and report["absent"] == []
    for name in ("refined_catalan", "series_matches_paths", "verify_theorem"):
        assert report["counts"][f"verify.{name}.calls"] > 0, name
    assert report["counts"]["cones.lattice_index.calls"] > 0


# cone-file text: directive lines of small integers, fractions, numerals written with
# digits, exponents, points and slashes, and odd tokens, or any text; a numeral has at
# most 8 characters, so every cone that parses stays small
TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["dim", "apex", "gen", "open", "closed", "1/2", "-1/2", "1/0", "\u00b2", "\u0663"]),
    st.text("0123456789e./-", max_size=8),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=4),
)
LINES = st.tuples(
    st.sampled_from(["dim", "apex", "gen closed", "gen open", "gen", ""]), st.lists(TOKENS, max_size=5)
).map(lambda line: " ".join((line[0], *line[1])))
CONE_TEXTS = st.one_of(
    st.lists(LINES, max_size=6).map("\n".join),
    st.text(
        st.characters(blacklist_categories=("Cs", "Nd"), whitelist_characters="0123456789"),
        max_size=40,
    ),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CONE_TEXTS, flag=st.sampled_from(["--pi", "--index", "--transform"]))
@example(text="dim \u00b2\ngen closed 1 0\ngen closed 0 1\n", flag="--index")
@example(text="dim 2\ngen closed 1 0\ngen open 0 1\n", flag="--pi")
@example(text="dim 1\napex 1e9\ngen closed 1\n", flag="--index")
def test_any_cone_file_is_accepted_or_a_usage_error(tmp_path, text, flag):
    path = tmp_path / "cone.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["cone", str(path), flag]) in (0, 2)


# argv items: small numbers in admitted forms; hostile ints (zero, negative, huge);
# and items that are no int at all: a superscript, floats, a word and the empty item
SMALL = ["1", "2", "3", "+2", " 3", "0_1", "\u0663"]
HUGE = ["99999999999", "9" * 30]
INTS = SMALL + HUGE + ["0", "-1", "-0", "-" + "9" * 30]
NOT_INTS = ["\u00b2", "1.5", "1e3", "nan", "x", ""]
# a third of the draws are small, so that most commands get past their parser, and
# a third huge, so that many ask for more than a work limit admits
NUMBERS = st.one_of(st.sampled_from(SMALL), st.sampled_from(HUGE), st.sampled_from(INTS + NOT_INTS))
# a run length may also be 10: the paths of at most three runs of 10 are few
PARTS = st.one_of(NUMBERS, st.just("1_0"))
# at most three runs, or 15 and more, which pass the path work limit whenever they parse
VECTORS = st.one_of(
    st.lists(st.sampled_from(SMALL + ["1_0"]), min_size=1, max_size=3),
    st.lists(PARTS, max_size=3),
    st.lists(PARTS, min_size=15, max_size=40),
).map(",".join)
# a long list of lengths: each vector has at most three runs, or is refused
LENGTHS = st.lists(NUMBERS, max_size=30).map(",".join)
THEOREMS = st.sampled_from(["three", "k4", "kaaa", "k5"])
# each subcommand with a set of its flags, and what their values are drawn from; a
# command of exclusive flags has a set for each, and one with both
SHAPES = [
    ("paths", {"--k": VECTORS}),
    ("catalan", {"--k": VECTORS}),
    ("catalan", {"--lambda": VECTORS}),
    ("catalan", {"--k": VECTORS, "--lambda": VECTORS}),
    ("symmetric", {"--k": VECTORS}),
    ("grid", {"--k": VECTORS, "--format": st.sampled_from(["pretty", "tsv", "csv"])}),
    ("verify", {"--theorem": THEOREMS, "--bound": NUMBERS}),
    ("scan", {"--family": st.sampled_from(["kaaa", "three"]), "--max": NUMBERS, "--lengths": LENGTHS}),
    ("scan", {"--all-length": NUMBERS, "--max": NUMBERS}),
    ("scan", {"--family": st.just("kaaa"), "--all-length": NUMBERS, "--max": NUMBERS}),
    ("lastparam", {"--prefix": VECTORS, "--m": PARTS, "--l": PARTS}),
]


@st.composite
def argvs(draw):
    """A subcommand and each of its flags missing, given once or repeated, in any order."""
    command, flags = draw(st.sampled_from(SHAPES))
    pairs = [
        (flag, draw(values))
        for flag, values in flags.items()
        for _ in range(draw(st.sampled_from((1, 1, 0, 2))))
    ]
    return [command, *(item for pair in draw(st.permutations(pairs)) for item in pair)]


def _assert_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2) and "internal error" not in err and "Traceback" not in err, (code, err)


@given(argv=argvs())
@example(argv=["scan", "--all-length", "3", "--max", "99999999999"])
@example(argv=["lastparam", "--prefix", "1,1,1", "--m", "2", "--l", "99999999999"])
@example(argv=["verify", "--theorem", "kaaa", "--bound", "9" * 30])
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    # every input is bounded by the library's work limits, so this runs in-process
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _assert_exit_contract(code, err.getvalue())


# answers one JSON argv a line with the exit code and stderr of cli.main
CLI_WORKER = """
import contextlib, io, json, sys
from qtcatalan.cli import main

for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(json.loads(line))
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


class CliWorker:
    """One subprocess that runs argvs in turn, each under a timeout."""

    def __init__(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        self.process = subprocess.Popen(
            [sys.executable, "-c", CLI_WORKER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, preexec_fn=_limit_memory,
        )

    def run(self, argv, timeout=10.0):
        self.process.stdin.write(json.dumps(argv) + "\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        assert ready, f"no answer within {timeout} s to {argv}"
        return json.loads(self.process.stdout.readline())


@pytest.fixture(scope="module")
def cone_worker(tmp_path_factory):
    worker, directory = CliWorker(), tmp_path_factory.mktemp("cones")
    # the first `cone` command imports the cone route; done here, outside the deadline
    worker.run(["cone", str(directory / "absent.txt"), "--index"], timeout=60)
    yield worker, directory / "cone.txt"
    worker.process.kill()
    worker.process.wait()


@given(text=CONE_TEXTS, flag=st.sampled_from(["--pi", "--index", "--transform"]))
def test_any_cone_argv_exits_0_1_or_2_without_a_traceback(cone_worker, text, flag):
    # cone files still run apart, under a timeout, until the rank and index cost
    # no more than the lattice's entries
    worker, path = cone_worker
    path.write_text(text, encoding="utf-8")
    _assert_exit_contract(*worker.run(["cone", str(path), flag]))
