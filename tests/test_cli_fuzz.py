"""Seeded, bounded fuzzing of the CLI boundary.

Random subcommands, flags and numeric strings (NaN, infinities, 1e308,
subnormals, negatives) run through `qlambda.cli.main` in process. Every run
must end in one of the documented exit codes with no traceback: argparse
rejections exit 2, everything else returns from `main`.

The value pools keep every accepted run small (at most about 1500 grid nodes
for vacpol and a few thousand steps for lambda-sim), so the whole test stays
within a few seconds.
"""
import contextlib
import io

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
        names = {"system.json", "missing.json", "broken.json"}
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
