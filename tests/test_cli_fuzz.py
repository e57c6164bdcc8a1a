"""Seeded, bounded fuzzing of the CLI boundary.

Random subcommands, flags and numeric strings (NaN, infinities, 1e308,
subnormals, negatives) run through `qlambda.cli.main` in process. Every run
must end in one of the documented exit codes with no traceback: argparse
rejections exit 2, everything else returns from `main`.

A second test writes random level-system documents, well-formed and
malformed, and runs lambda-sim on them; a third puts one coupling entry that
is not an [re, im] pair of numbers into a well-formed document and expects
exit 2. A fourth writes raw document bodies as bytes for --config (through
compton) and --system (through lambda-sim), among them bytes that are not
UTF-8, integer literals past the float range and nesting past the recursion
limit, which json.dumps cannot write.

The value pools keep every accepted run small (at most about 1500 grid nodes
for vacpol and a few thousand steps for lambda-sim), so the whole test stays
within a few seconds.
"""
import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qlambda.cli import main  # noqa: E402
from qlambda.dynamics import LevelSystem  # noqa: E402
from qlambda.lorentz import CONSTANT_KEYS  # noqa: E402

EXIT_CODES = {0, 2, 3, 4, 5}

NUMBERS = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "-1e-300", "5e-324",
           "0", "-0", "-1", "-2.5", "0.3", "1", "2", "4", "1e150", "abc")
FLOATS = st.one_of(st.sampled_from(NUMBERS),
                   st.floats(-10.0, 10.0, allow_nan=False).map(repr))
BETAS = st.one_of(st.sampled_from(("0", "0.3", "0.9", "0.9999999999999999", "1", "-0.5", "nan")),
                  st.floats(-1.5, 1.5, allow_nan=False).map(repr))
INDICES = st.sampled_from(("0", "1", "2", "3", "-1", "1.0", "x"))
# bounded grid and step counts: every accepted combination runs in milliseconds
N_RADIAL = st.sampled_from(("-1", "0", "3", "4", "16", "96", "1000000", "nan"))
N_THETA = st.sampled_from(("-1", "0", "1", "2", "16", "2000", "1.5"))
T_FINAL = st.sampled_from(("nan", "inf", "-1", "0", "1e-300", "1", "10", "1e308"))
DT = st.sampled_from(("nan", "inf", "-1", "0", "1e-300", "0.01", "1", "1e308"))
LEVELS = st.sampled_from(("-1", "0", "1", "2", "3", "4"))


def flag(name, values, n=1):
    """Optional `--name v1 .. vn` as an argv fragment (empty when not drawn)."""
    return st.one_of(st.just([]), st.lists(values, min_size=n, max_size=n).map(
        lambda vs: [name, *vs]))


COMMON = st.tuples(
    st.lists(st.tuples(st.sampled_from(CONSTANT_KEYS + ("bogus",)), FLOATS), max_size=2),
    st.sampled_from(((), ("--format", "csv"), ("--format", "json"))),
)

COMMANDS = {
    "compton": [flag("--photon-energy", FLOATS), flag("--theta", FLOATS), flag("--beta", BETAS),
                flag("--frame", st.sampled_from(("cm", "rest", "lab"))),
                flag("--spins", INDICES, 2), flag("--pols", INDICES, 2)],
    "moller": [flag("--e-cm", FLOATS), flag("--theta", FLOATS), flag("--beta", BETAS),
               flag("--spins", INDICES, 4)],
    "vacpol": [flag("--k", FLOATS, 3), flag("--cutoff", FLOATS), flag("--photon-energy", FLOATS),
               flag("--n-radial", N_RADIAL), flag("--n-theta", N_THETA),
               flag("--n-phi", st.sampled_from(("-1", "0", "1", "8"))),
               flag("--refine-tol", FLOATS)],
    "boost-scan": [flag("--process", st.sampled_from(("compton", "moller", "bhabha"))),
                   flag("--betas", BETAS, 2),
                   flag("--normalization", st.sampled_from(("box", "covariant"))),
                   flag("--photon-energy", FLOATS), flag("--e-cm", FLOATS), flag("--theta", FLOATS)],
    "lambda-sim": [flag("--t-final", T_FINAL), flag("--dt", DT),
                   flag("--initial-level", LEVELS), flag("--target-level", LEVELS),
                   flag("--system", st.sampled_from(("system.json", "missing.json", "broken.json")))],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for fragment in COMMANDS[command]:
        argv += draw(fragment)
    constants, fmt = draw(COMMON)
    for key, value in constants:
        argv += ["--constant", key, value]
    return argv + list(fmt)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    couplings = np.zeros((3, 3), dtype=complex)
    couplings[1, 0] = couplings[0, 1] = couplings[1, 2] = couplings[2, 1] = 0.1
    (path / "system.json").write_text(LevelSystem([0.0, 10.0, 0.0], couplings).to_json())
    (path / "broken.json").write_text('{"energies": [0.0, "x"]')
    return path


def run_cli(argv, workdir):
    """Exit code and stderr of one in-process run; artifacts land in workdir."""
    if argv[0] == "lambda-sim":
        names = {"system.json", "missing.json", "broken.json", "fuzzed.json"}
        argv = [str(workdir / a) if a in names else a for a in argv]
        if "--system" not in argv:
            argv += ["--system", str(workdir / "system.json")]
    if argv[0] in ("lambda-sim", "vacpol"):
        argv = argv + ["--summary", str(workdir / "summary.json")]
    argv = argv + ["--out", str(workdir / "artifact")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, err.getvalue()


@hypothesis.settings(derandomize=True, max_examples=250, deadline=None, database=None)
@hypothesis.given(argv=argvs())
def test_cli_exit_codes_without_traceback(argv, workdir):
    code, err = run_cli(argv, workdir)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


# level-system documents. Well-formed ones have 2-4 finite levels, extremes
# included, and Hermitian zero-diagonal couplings, so they reach evolve: the
# levels mostly have commensurate gaps, so that a common period exists, and
# the couplings are mostly zero, since coupled degenerate levels are rejected.
# Malformed ones add numbers that overflow or are not finite, wrong types and
# wrong shapes.
FINITE_LEVELS = st.sampled_from((0.0, 10.0, 5.0, -10.0, 20.0, -0.0, 3.7, 1e308, -1e308, 1e-300,
                                 5e-324))
FINITE_COUPLINGS = st.sampled_from((0.0, 0.0, 0.0, 0.1, -0.3, 0.05, 1e-300, 1e154, 1e308))
ANY_NUMBER = st.one_of(
    FINITE_LEVELS,
    st.sampled_from((0, 1, 10**400, float("nan"), float("inf"), float("-inf"), True, None, "x")),
)
ENTRIES = st.one_of(st.lists(ANY_NUMBER, min_size=2, max_size=2),
                    st.sampled_from(([], [1], {}, {"0": 1}, "ab", 5, None, [0.1, 0.0, 2.0])))


@st.composite
def hermitian_documents(draw):
    n = draw(st.sampled_from((3, 2, 4)))
    couplings = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            re, im = draw(FINITE_COUPLINGS), draw(st.sampled_from((0.0, 0.0, 0.1, -1e-300, 1.7e308)))
            couplings[j][k], couplings[k][j] = [re, im], [re, -im]
    energies = draw(st.lists(FINITE_LEVELS, min_size=n, max_size=n))
    return {"energies": energies, "couplings": couplings}


@st.composite
def malformed_documents(draw):
    n = draw(st.integers(0, 5))
    energies = draw(st.one_of(st.lists(ANY_NUMBER, min_size=n, max_size=n),
                              st.sampled_from(("abc", {}, None, [[0.0]], 7))))
    width = draw(st.sampled_from((n, n + 1, max(n - 1, 0))))
    couplings = draw(st.one_of(
        st.lists(st.lists(ENTRIES, min_size=width, max_size=width), min_size=n, max_size=n),
        st.sampled_from((7, "x", None, [1, 2], [[]], {"a": 1}))))
    doc = {"energies": energies, "couplings": couplings}
    return draw(st.sampled_from((doc, {**doc, "extra": 1}, {"energies": energies}, [doc])))


# coupling entries that are not exactly an [re, im] pair of numbers
BAD_ENTRIES = st.one_of(
    st.lists(FINITE_COUPLINGS, min_size=3, max_size=4),
    st.lists(FINITE_COUPLINGS, max_size=1),
    st.lists(st.sampled_from((True, False, None, "x", "0.1", [0.1], {})), min_size=1,
             max_size=2).flatmap(lambda bad: st.permutations(bad + [0.1] * (2 - len(bad)))),
    st.sampled_from(({}, {"0": 1}, "ab", 5, 0.1, None)),
)


@st.composite
def documents_with_one_bad_entry(draw):
    doc = draw(hermitian_documents())
    n = len(doc["energies"])
    j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    doc["couplings"][j][k] = draw(BAD_ENTRIES)
    return doc


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(document=documents_with_one_bad_entry())
def test_malformed_coupling_entry_exit_2(document, workdir):
    (workdir / "fuzzed.json").write_text(json.dumps(document))
    code, err = run_cli(["lambda-sim", "--system", "fuzzed.json"], workdir)
    assert code == 2, (document, code, err)
    assert "malformed key 'couplings'" in err and "Traceback" not in err, (document, err)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(document=st.one_of(hermitian_documents(), malformed_documents()), argv=st.tuples(
    flag("--t-final", T_FINAL), flag("--dt", DT)))
def test_lambda_sim_system_documents_without_traceback(document, argv, workdir):
    (workdir / "fuzzed.json").write_text(json.dumps(document))
    code, err = run_cli(["lambda-sim", "--system", "fuzzed.json", *sum(argv, [])], workdir)
    assert code in EXIT_CODES, (document, argv, code, err)
    assert "Traceback" not in err, (document, argv, err)


# raw document bodies, written as bytes: well-formed documents, the malformed
# pools, and documents that must exit 2: one number replaced by a numeric string
# or a boolean, bytes that are not UTF-8 spliced in, one number replaced by an
# integer literal past the float range (past the digit limit from 4301 digits),
# and arrays nested past the recursion limit
CONSTANT_NUMBERS = st.sampled_from((1, 2.0, 0.5, 3, 1e-150, 1e10, 1e308, 0, -1.0, float("nan")))
CONSTANT_VALUES = st.one_of(CONSTANT_NUMBERS, st.sampled_from((None, [1.0], {}, 10**400)))
NOT_NUMBERS = st.sampled_from(("0", "10", "0.1", "1e308", "nan", "", True, False))
# 0xff and 0xfe never occur in UTF-8, 0x80 cannot start a character, and 0xc3
# needs a continuation byte, which ASCII JSON text never supplies
NOT_UTF8 = st.sampled_from((b"\xff\xfe", b"\xfe\xff", b"\xff", b"\x80", b"\xc3"))
BIG_INTEGER = st.integers(310, 6000).map(lambda digits: "1" + "0" * (digits - 1))
PLACEHOLDER = "__placeholder__"


@st.composite
def raw_documents(draw):
    """A flag, a document body as bytes, and whether the run must exit 2."""
    flag = draw(st.sampled_from(("--config", "--system")))
    if flag == "--config":
        document = draw(st.dictionaries(st.sampled_from(CONSTANT_KEYS), CONSTANT_NUMBERS,
                                        min_size=1, max_size=3))
        malformed = st.one_of(
            st.dictionaries(st.sampled_from(CONSTANT_KEYS + ("bogus",)), CONSTANT_VALUES,
                            max_size=3),
            st.sampled_from(([], "x", 7, None, [{"m_e": 1.0}])))
    else:
        document = draw(hermitian_documents())
        malformed = malformed_documents()

    def with_value(value):
        """The document with one number replaced by `value`."""
        if flag == "--config":
            document[draw(st.sampled_from(sorted(document)))] = value
        elif draw(st.booleans()):
            energies = document["energies"]
            energies[draw(st.integers(0, len(energies) - 1))] = value
        else:
            n = len(document["energies"])
            entry = document["couplings"][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))]
            entry[draw(st.integers(0, 1))] = value
        return json.dumps(document)

    kind = draw(st.sampled_from(("well-formed", "malformed", "not a number", "not UTF-8",
                                 "big integer", "deep")))
    if kind == "well-formed":
        return flag, json.dumps(document).encode(), False
    if kind == "malformed":
        return flag, json.dumps(draw(malformed)).encode(), False
    if kind == "not a number":
        return flag, with_value(draw(NOT_NUMBERS)).encode(), True
    if kind == "big integer":
        text = with_value(PLACEHOLDER).replace(f'"{PLACEHOLDER}"', draw(BIG_INTEGER))
        return flag, text.encode(), True
    if kind == "not UTF-8":
        body = json.dumps(document).encode()
        cut = draw(st.integers(0, len(body)))
        return flag, body[:cut] + draw(NOT_UTF8) + body[cut:], True
    depth = draw(st.integers(1000, 100000))
    prefix = draw(st.sampled_from((b"", b'{"energies": ', b'{"m_e": ')))
    return flag, prefix + b"[" * depth + b"]" * draw(st.sampled_from((0, depth))), True


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
@hypothesis.given(raw=raw_documents())
def test_raw_document_bodies_without_traceback(raw, workdir):
    flag, body, must_reject = raw
    (workdir / "raw.json").write_bytes(body)
    command = "compton" if flag == "--config" else "lambda-sim"
    code, err = run_cli([command, flag, str(workdir / "raw.json")], workdir)
    assert code in EXIT_CODES, (flag, body[:200], code, err)
    assert "Traceback" not in err, (flag, body[:200], err)
    if must_reject:
        assert code == 2 and err.startswith("configuration error:"), (flag, body[:200], err)
