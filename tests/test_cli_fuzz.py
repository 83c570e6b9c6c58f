"""Fuzz of cli.main over valid and malformed argvs of the cheap subcommands.

Every argv must end in one of the documented exit codes (0, 2, 3, 4) with
no exception escaping.  Sizes stay small: detect-region resolutions up to 5
and relax-sweep grids of at most 4 points.
"""

import contextlib
import io
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from witnesslab.cli import main

_NUMBER = st.sampled_from(
    ["0", "1", "-1", "0.5", "-0.2", "0.31", "2", "1e-5", "1e-200", "1e300", "nan", "inf", "-inf", "1e309", "", "x"]
)
_KIND = st.sampled_from(["phi+", "psi+", "phi-", "psi-", "chi+"])
_STATE = st.one_of(
    st.sampled_from([
        "identity", "bell:phi+", "bell:psi-", "bell:nope", "bd:", "bd:1,1", "bd:1,1,1",
        "bd:-0.2,1.0,0.2", "file:", "file:/nonexistent.json", "nonsense",
    ]),
    st.builds("bd:{},{},{}".format, _NUMBER, _NUMBER, _NUMBER),
)
_FORMAT = st.tuples(st.just("--format"), st.sampled_from(["text", "csv", "json", "xml"]))
# a malformed token in about a quarter of the argvs
_JUNK = st.one_of(st.just(()), st.just(()), st.just(()), st.sampled_from([
    ("--frobnicate",), ("--format",), ("--state",), ("extra",), ("--seed", "-1"), ("--seed", "x"),
]))


def _opt(flag, values):
    return st.tuples(st.just(flag), values)


def _argv(sub, *groups, required=st.just(())):
    """sub, its required arguments, then up to four options and maybe a junk token."""
    return st.tuples(required, st.lists(st.one_of(*groups, _FORMAT), max_size=4), _JUNK).map(
        lambda parts: [sub, *parts[0], *itertools.chain.from_iterable(parts[1]), *parts[2]]
    )


def _pair(values):
    return st.builds("{},{}".format, values, values)


ARGV = st.one_of(
    _argv("witness", _opt("--witness", _KIND), _opt("--noise", _NUMBER),
          _opt("--seed", st.sampled_from(["0", "7", "-1", "x"])), required=_opt("--state", _STATE)),
    _argv("optimal-witness", st.tuples(_KIND), st.just(("--all",))),
    _argv("robustness", required=_opt("--state", _STATE)),
    _argv("relax-sweep", _opt("--state", _STATE), _opt("--witness", _KIND),
          *(_opt(f, _NUMBER) for f in ("--t1i", "--t2i", "--t1s", "--t2s", "--tmax")),
          # always given: the default grid of 200 solves is too slow for a fuzz
          required=_opt("--steps", st.sampled_from(["-5", "0", "1", "2", "3", "4", "x", "1e3"]))),
    _argv("detect-region",
          required=st.tuples(st.sampled_from(["-1", "0", "1", "2", "3", "5", "102", "2.5", "x"]))),
    _argv("sdc", required=st.tuples(
        st.just("--eps"), _pair(_NUMBER), st.just("--msg"), _pair(st.sampled_from(["0", "1", "2", "x"])),
    )),
)


@settings(max_examples=150, deadline=None)
@given(ARGV)
# under WITNESSLAB_TOL=0 (a CI step) the first forms states whose spectra hold rounding
# residues, which the tolerance does not judge; the second is an input with one (exit 3)
@example(["sdc", "--eps", "1,1", "--msg", "1,0"])
@example(["witness", "--state", "bd:1,0.5,-0.500000002"])
# a t_max so small that no curve decays: no decay time is fitted
@example(["relax-sweep", "--steps", "3", "--tmax", "1e-200"])
# a t/T that overflows: its exp(-t/T) is exactly 0, with no warning
@example(["relax-sweep", "--steps", "3", "--tmax", "1e300", "--t1i", "1e-10", "--t2i", "1e-10"])
def test_main_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue(), argv
